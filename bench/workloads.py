"""The benchmark's workloads: seeded inputs, timed jobs and their checks.

``prepare(workload, seed, workdir, small)`` writes the workload's input files
and returns its jobs.  Each job belongs to a group; a group's time is one of
the benchmark's job-group metrics (``codim_exact_s``, ``verify_gk_s``, ...).
A job returns an ``Outcome``: the canonical text of its output (CLI stdout,
or the repr of API results), the problems its checks found, and notes that
are recorded but are not failures.

Why each workload (see also BENCHMARK.json):

* ``codim-rowgen``: ut2-eps up to n = 6 has 46,080 evaluation rows but rank
  193, so row generation (``StructureAlgebra.multiply``) dominates.
* ``codim-elim``: mat2 with ad(e11) up to n = 4 has rank 221 of 1,944 rows,
  so elimination (``SparseRREF.add_row``) dominates: the opposite split.
* ``actions``: envelope construction and Wedderburn-Malcev dominate, with no
  codim rows at all.  The seed draws the derivations of ut3, ut2+mat2 and
  grassmann2+ut2; mat2+mat2 always takes the battery's fixed pair.
* ``identities``: kernel tracking, dense subspace comparison, explicit
  evaluation (``evaluate_poly``) and the consequence closure.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from math import factorial
from pathlib import Path
from typing import Callable

WORKLOADS = ("codim-rowgen", "codim-elim", "actions", "identities")

GROUPS = {
    "codim-rowgen": ("codim_exact_s", "codim_modular_s"),
    "codim-elim": ("codim_exact_s", "codim_modular_s"),
    "actions": ("verify_gk_s", "bridge_s"),
    "identities": ("identity_space_s", "consequences_s", "evaluate_s", "classify_s"),
}

_CODIM_LAYERS = (
    "fileformat.parse_s",
    "fileformat.to_algebra_s",
    "shipped.identify_s",
    "algebra.lie_closure_s",
    "algebra.envelope_dim",
    "algebra.multiply_calls",
    "algebra.multiply_s",
    "linalg.rows_fed",
    "linalg.add_row_s",
    "linalg.rank",
    "piengine.codim_calls",
    "piengine.codim_s",
    "piengine.prime_passes",
)

# per-layer metrics that must record work on each workload in a traced run
ACTIVE_LAYERS = {
    "codim-rowgen": _CODIM_LAYERS,
    "codim-elim": _CODIM_LAYERS,
    "actions": (
        "fileformat.parse_s",
        "fileformat.to_algebra_s",
        "algebra.lie_closure_s",
        "algebra.envelope_s",
        "algebra.expand_calls",
        "algebra.expand_s",
        "algebra.envelope_dim",
        "algebra.multiply_calls",
        "linalg.subspace_calls",
        "linalg.subspace_s",
        "structure.radical_s",
        "structure.wedderburn_calls",
        "structure.wedderburn_s",
        "exponent.exp_s",
        "exponent.bridge_s",
    ),
    "identities": (
        "fileformat.parse_s",
        "fileformat.to_algebra_s",
        "algebra.lie_closure_s",
        "linalg.rows_fed",
        "linalg.add_row_s",
        "linalg.rank",
        "linalg.kernel_rows",
        "linalg.subspace_calls",
        "linalg.subspace_s",
        "piengine.codim_calls",
        "piengine.identity_space_s",
        "piengine.consequences_s",
        "piengine.pbw_normalize_calls",
        "piengine.collapse_word_calls",
        "piengine.substitute_calls",
        "piengine.evaluate_poly_calls",
        "piengine.evaluate_poly_s",
        "piengine.is_identity_s",
        "families.spanning_set_s",
        "piengine.containment_s",
        "exponent.classify_s",
        "exponent.is_solvable_s",
    ),
}

REFERENCES = json.loads(Path(__file__).with_name("references.json").read_text())


def ref(key: str):
    return REFERENCES[key]["value"]


@dataclass
class Outcome:
    output: str
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)


@dataclass
class Job:
    group: str
    label: str
    run: Callable[[], Outcome]


def prepare(workload: str, seed: int, workdir: Path, small: bool) -> list[Job]:
    """Write the workload's inputs under workdir and return its jobs."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "codim-rowgen":
        return _codim_rowgen(seed, workdir, small)
    if workload == "codim-elim":
        return _codim_elim(seed, workdir, small)
    if workload == "actions":
        return _actions(seed, workdir, small)
    if workload == "identities":
        return _identities(seed, workdir, small)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# codim workloads: the CLI, run in-process


def _cli(argv: list[str]) -> tuple[int, str, str]:
    from diffident import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _codim_job(path: str, max_n: int, mode: str, expected: list) -> Job:
    def run() -> Outcome:
        code, out, err = _cli(["codim", path, "--max-n", str(max_n), "--mode", mode])
        result = Outcome(out)
        if code != 0:
            result.problems.append(f"exit {code}: {err.strip()}")
        values = [int(line.split()[3]) for line in out.splitlines() if line.startswith("n ")]
        if values != expected:
            result.problems.append(f"codim {values} != reference {expected}")
        result.notes = [line for line in out.splitlines() if "MISMATCH" in line]
        return result

    return Job(f"codim_{mode}_s", f"codim {Path(path).name} {mode} n<={max_n}", run)


def _config(workdir: Path, seed: int) -> None:
    """The CLI reads its modular prime seed from DIFFIDENT_CONFIG."""
    import os

    os.environ["DIFFIDENT_CONFIG"] = _write(workdir / "config", f"seed={seed}\n")


def _codim_rowgen(seed: int, workdir: Path, small: bool) -> list[Job]:
    from diffident.shipped import shipped_algebra_file

    _config(workdir, seed)
    path = _write(workdir / "ut2-eps.alg", shipped_algebra_file("ut2-eps", []).serialize())
    max_n = 3 if small else 6
    expected = ref("codim.ut2-eps")[:max_n]
    return [_codim_job(path, max_n, mode, expected) for mode in ("exact", "modular")]


def _codim_elim(seed: int, workdir: Path, small: bool) -> list[Job]:
    from diffident.algebra import ad_unit, full_matrix
    from diffident.fileformat import AlgebraFile

    _config(workdir, seed)
    m2 = full_matrix(2)
    f = AlgebraFile.from_algebra("mat2-ad11", m2, [ad_unit(m2, 1, 1, name="ad11")])
    path = _write(workdir / "mat2-ad11.alg", f.serialize())
    max_n = 3 if small else 4
    expected = ref("codim.mat2-ad11")[:max_n]
    return [_codim_job(path, max_n, mode, expected) for mode in ("exact", "modular")]


# ---------------------------------------------------------------------------
# actions: random inner derivations on block-triangular and semisimple algebras


def _action_algebras():
    from diffident.algebra import direct_sum, full_matrix, truncated_grassmann, ut

    return [
        ("ut3", ut(3)),
        ("ut2+mat2", direct_sum(ut(2), full_matrix(2))),
        ("grassmann2+ut2", direct_sum(truncated_grassmann(2), ut(2))),
        ("mat2+mat2", direct_sum(full_matrix(2), full_matrix(2))),
    ]


class _Span:
    """Incremental echelon basis of flattened matrices over Q."""

    def __init__(self):
        self.rows: dict[int, list] = {}  # pivot index -> row with 1 at the pivot

    def add(self, m) -> bool:
        """Add m to the span; True if it was not already inside."""
        v = [x for row in m for x in row]
        for p, row in self.rows.items():
            if v[p]:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            return False
        inv = 1 / v[lead]
        new = [x * inv for x in v]
        for p, row in self.rows.items():
            if row[lead]:
                f = row[lead]
                self.rows[p] = [x - f * y for x, y in zip(row, new)]
        self.rows[lead] = new
        return True


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def generated_dims(mats: list) -> tuple[int, int]:
    """Dimensions of the Lie algebra the matrices generate, and of the unital
    associative algebra that Lie algebra generates (the envelope)."""
    lie, basis, queue = _Span(), [], list(mats)
    while queue:
        m = queue.pop(0)
        if lie.add(m):
            basis.append(m)
            for o in basis:
                om, mo = _mul(o, m), _mul(m, o)
                queue.append([[x - y for x, y in zip(r, s)] for r, s in zip(om, mo)])
    n = len(mats[0])
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    env, ops = _Span(), []
    for m in [ident] + basis:
        if env.add(m):
            ops.append(m)
    for op in ops:  # ops grows while it is walked: a breadth-first closure
        for g in basis:
            prod = _mul(op, g)
            if env.add(prod):
                ops.append(prod)
    return len(basis), len(ops)


def draw_inner_derivations(alg, rng: random.Random, dims: tuple[int, int]):
    """Two inner derivations with coordinates in -2..2 (the battery_fixtures
    recipe), redrawn until their Lie closure and envelope have the generic
    dimensions.  Degenerate draws build smaller envelopes, and the cost of the
    workload would then depend on the seed, not on the engine."""
    from diffident.algebra import inner_derivation

    while True:
        ders = [
            inner_derivation(
                alg, [Fraction(rng.randint(-2, 2)) for _ in range(alg.dim)], name=f"r{i}"
            )
            for i in range(2)
        ]
        if generated_dims([d.matrix.entries for d in ders]) == dims:
            return ders


def _actions(seed: int, workdir: Path, small: bool) -> list[Job]:
    from diffident.fileformat import AlgebraFile

    rng = random.Random(seed)
    algebras = _action_algebras()[:1] if small else _action_algebras()
    jobs = []
    for name, alg in algebras:
        expect = ref(f"actions.{name}")
        dims = (expect["closure_dim"], expect["envelope_dim"])
        if name == "mat2+mat2":
            # Its envelope build is most of the workload, and its cost varies
            # by a tenth between random pairs, so every seed takes the same
            # pair: battery_fixtures' "random inner seed=3".
            ders = draw_inner_derivations(alg, random.Random(3), dims)
        else:
            ders = draw_inner_derivations(alg, rng, dims)
        label = name.replace("+", "-")
        f = AlgebraFile.from_algebra(f"{label}-inner", alg, ders)
        path = _write(workdir / f"{label}.alg", f.serialize())
        state: dict = {}
        jobs.append(Job("verify_gk_s", f"verify-gk {label}", _verify_gk_job(path, expect, state)))
        jobs.append(Job("bridge_s", f"bridge {label}", _bridge_job(state)))
    return jobs


def _verify_gk_job(path: str, expect: dict, state: dict):
    """The calls of `diffident verify-gk`, through the API so that the bridge
    job can reuse the action instead of building its envelope again."""

    def run() -> Outcome:
        from diffident.algebra import lie_closure
        from diffident.exponent import exp_differential, exp_ordinary
        from diffident.fileformat import parse_algebra_file
        from diffident.structure import wedderburn_malcev

        f = parse_algebra_file(Path(path).read_text())
        alg, ders = f.to_algebra()
        act = lie_closure(alg, ders)
        wd = wedderburn_malcev(alg)
        ordinary = exp_ordinary(alg, wd)
        diff = exp_differential(alg, act, wd)
        state.update(alg=alg, act=act, wd=wd)
        got = {
            "exp": ordinary.value,
            "blocks": sorted(b.dim for b in wd.blocks),
            "radical": wd.radical.dim,
            "closure_dim": act.closure_dim,
            "envelope_dim": act.envelope.dim,
        }
        result = Outcome(
            repr((got, ordinary.witness_sequence, diff.value, diff.witness_sequence))
        )
        if got != expect:
            result.problems.append(f"{got} != reference {expect}")
        if diff.value != ordinary.value:
            result.problems.append(f"exp^L {diff.value} != exp {ordinary.value}")
        return result

    return run


def _bridge_job(state: dict):
    """lemma_bridge_check on every distinct block sequence, then
    check_block_action (battery criteria 6 and 7) on the same action."""

    def run() -> Outcome:
        from diffident.exponent import lemma_bridge_check
        from diffident.structure import check_block_action

        if not state:
            return Outcome("", ["no action: the verify-gk job failed"])
        alg, act, wd = state["alg"], state["act"], state["wd"]
        k = len(wd.blocks)
        checks = []
        problems = []
        for r in range(1, k + 1):
            for seq in permutations(range(k), r):
                hyp, concl = lemma_bridge_check(alg, act, seq)
                checks.append((seq, hyp, concl))
                if hyp and not concl:
                    problems.append(f"bridge lemma fails on blocks {seq}")
        entries = check_block_action(wd, act)
        for i, entry in enumerate(entries):
            if not entry["in_block_plus_radical"]:
                problems.append(f"block {i}: envelope leaves B_i + J")
            if entry["dim"] == 1 and entry["in_radical_when_1dim"] is False:
                problems.append(f"block {i}: envelope leaves J")
        state.clear()
        return Outcome(repr((checks, entries)), problems)

    return run


# ---------------------------------------------------------------------------
# identities: kernels, consequence closures, explicit evaluation, containment


def _identities(seed: int, workdir: Path, small: bool) -> list[Job]:
    from diffident.shipped import shipped_algebra_file

    paths = {
        name: _write(workdir / f"{name}.alg", shipped_algebra_file(name, []).serialize())
        for name in ("ut2", "ut2-eps")
    }
    top = 3 if small else 4  # identity spaces, consequences, is_identity probes
    span_top = 3 if small else 5  # criterion 8's spanning sets
    state: dict = {}
    return [
        Job("identity_space_s", f"identity_space n<={top}", _identity_space_job(paths, top, state)),
        Job("consequences_s", f"consequences n<={top}", _consequences_job(top, state)),
        Job("evaluate_s", f"spanning sets n<={span_top}", _spanning_job(span_top, state)),
        Job("evaluate_s", f"is_identity probes n={top}", _probe_job(seed, top, state)),
        Job("classify_s", "containment and growth", _classify_job(small)),
    ]


def _identity_space_job(paths: dict, top: int, state: dict):
    def run() -> Outcome:
        from diffident.algebra import lie_closure
        from diffident.fileformat import parse_algebra_file
        from diffident.piengine import identity_space

        result = Outcome("")
        lines = []
        for name, path in paths.items():
            alg, ders = parse_algebra_file(Path(path).read_text()).to_algebra()
            state[name] = (alg, lie_closure(alg, ders))
        degrees = {"ut2": [top], "ut2-eps": list(range(2, top + 1))}
        for name, ns in degrees.items():
            alg, act = state[name]
            for n in ns:
                rep = identity_space(alg, act, n)
                state[(name, n)] = rep
                expected = ref(f"codim.{name}")[n - 1]
                total = factorial(n) * act.envelope.dim**n  # monomials of degree n
                lines.append(f"{name} n={n} codim {rep.codim} kernel {rep.identity_dim} {rep.kernel.basis!r}")
                if rep.codim != expected:
                    result.problems.append(f"{name} n={n}: codim {rep.codim} != {expected}")
                if rep.identity_dim != total - rep.codim:
                    result.problems.append(
                        f"{name} n={n}: kernel dim {rep.identity_dim} != {total} - {rep.codim}"
                    )
        result.output = "\n".join(lines)
        return result

    return run


def _consequences_job(top: int, state: dict):
    """Battery criterion 9's generators, closed under consequences."""

    def run() -> Outcome:
        from diffident.piengine import (
            LPolynomial,
            commutator_poly,
            consequences_space,
            derive_polynomial,
        )

        result = Outcome("")
        if ("ut2-eps", top) not in state:
            return Outcome("", ["no kernels: the identity_space job failed"])
        x = LPolynomial.variable
        _, triv = state["ut2"]
        _, act = state["ut2-eps"]
        c = commutator_poly(x(1), x(2))
        cases = [("ut2", top, [c * commutator_poly(x(3), x(4))], triv)]
        eps_gens = [
            LPolynomial.variable(1, (0, 0)) - LPolynomial.variable(1, (0,)),
            LPolynomial.from_terms({((1, 2), ((0,), (0,))): 1}),
            derive_polynomial(c, 0, act) - c,
        ]
        cases += [("ut2-eps", n, eps_gens, act) for n in range(2, top + 1)]
        lines = []
        for name, n, gens, a in cases:
            space = consequences_space(gens, n, a)
            equal = space == state[(name, n)].kernel
            lines.append(f"{name} n={n} consequences dim {space.dim} equal {equal}")
            if not equal:
                result.problems.append(f"{name} n={n}: consequences != identity kernel")
        result.output = "\n".join(lines)
        return result

    return run


def _evaluation_rank(polys, act) -> int:
    """Rank of the polynomials' value rows over all basis tuples."""
    from itertools import product

    from diffident.linalg import SparseRREF
    from diffident.piengine import evaluate_poly

    alg = act.algebra
    rr = SparseRREF()
    for p in polys:
        row = {}
        for ti, tup in enumerate(product(range(alg.dim), repeat=p.degree)):
            val = evaluate_poly(p, act, [alg.basis_vector(b) for b in tup])
            for k, c in enumerate(val):
                if c:
                    row[(ti, k)] = c
        rr.add_row(row)
    return rr.rank


def _spanning_job(span_top: int, state: dict):
    """Battery criterion 8: each spanning set is independent and as large as
    the codimension."""

    def run() -> Outcome:
        from diffident.families import ut2_eps_spanning_set, ut2_spanning_set
        from diffident.piengine import codim

        result = Outcome("")
        if "ut2-eps" not in state:
            return Outcome("", ["no actions: the identity_space job failed"])
        lines = []
        for name, family in (("ut2", ut2_spanning_set), ("ut2-eps", ut2_eps_spanning_set)):
            alg, act = state[name]
            for n in range(2, span_top + 1):
                s = family(n)
                c = codim(alg, act, n)
                r = _evaluation_rank(s, act)
                expected = ref(f"codim.{name}")[n - 1]
                lines.append(f"{name} n={n} |S| {len(s)} codim {c} rank {r}")
                if not len(s) == c == r == expected:
                    result.problems.append(
                        f"{name} n={n}: |S| {len(s)}, codim {c}, rank {r}, reference {expected}"
                    )
        result.output = "\n".join(lines)
        return result

    return run


def _probe_job(seed: int, n: int, state: dict):
    """Seeded is_identity probes on ut2-eps against its identity kernel: random
    rational combinations of kernel vectors must be identities, and a single
    monomial is an identity exactly when it lies in the kernel."""

    def run() -> Outcome:
        from diffident.piengine import LPolynomial, is_identity

        if ("ut2-eps", n) not in state:
            return Outcome("", ["no kernel: the identity_space job failed"])
        _, act = state["ut2-eps"]
        rep = state[("ut2-eps", n)]
        words = act.envelope.word_reps
        order = rep.monomial_basis_order

        def poly(coords: dict) -> LPolynomial:
            return LPolynomial.from_terms(
                {(order[i][0], tuple(words[u] for u in order[i][1])): c for i, c in coords.items()}
            )

        rng = random.Random(seed)
        result = Outcome("")
        lines = []
        basis = rep.kernel.basis
        for t in range(8):
            picks = rng.sample(range(len(basis)), 2)
            coeffs = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)) for _ in picks]
            coords: dict = {}
            for b, c in zip(picks, coeffs):
                for i, v in enumerate(basis[b]):
                    if v:
                        coords[i] = coords.get(i, 0) + c * v
            coords = {i: v for i, v in coords.items() if v}
            holds = is_identity(poly(coords), act)
            lines.append(f"combination {picks} {coeffs} identity {holds}")
            if not holds:
                result.problems.append(f"combination of kernel vectors {picks} is not an identity")
        total = len(order)
        for t in range(8):
            i = rng.randrange(total)
            unit = [0] * total
            unit[i] = 1
            member = rep.kernel.member(unit)
            holds = is_identity(poly({i: 1}), act)
            lines.append(f"monomial {order[i]} kernel {member} identity {holds}")
            if holds != member:
                result.problems.append(f"monomial {order[i]}: is_identity {holds}, kernel member {member}")
        result.output = "\n".join(lines)
        return result

    return run


def _classify_job(small: bool):
    """Battery criterion 10's containment checks and classify_growth on
    criterion 11's five UT2 actions."""

    def run() -> Outcome:
        from diffident.algebra import Derivation, ad_unit, lie_closure, ut
        from diffident.exponent import classify_growth
        from diffident.linalg import Matrix
        from diffident.piengine import containment_check

        u2, u3 = ut(2), ut(3)
        eps = ad_unit(u2, 2, 2, name="eps")
        delta = ad_unit(u2, 1, 2, name="delta")
        a_triv = lie_closure(u2, [Derivation(Matrix.zero(3, 3), "g0")])
        a_eps = lie_closure(u2, [eps])
        both_ways = False
        for n in range(2, 4 if small else 5):
            c1, _ = containment_check(a_triv, a_eps, n)
            c2, _ = containment_check(a_eps, a_triv, n)
            if not c1 and not c2:
                both_ways = True
                break
        act_d = lie_closure(u2, [eps, delta])
        act_eps2 = lie_closure(u2, [eps, Derivation(Matrix.zero(3, 3), "z")])
        d_in_eps = all(containment_check(act_d, act_eps2, n)[0] for n in (1, 2, 3))
        t3, t2 = lie_closure(u3, []), lie_closure(u2, [])
        ut3_top = 3 if small else 4
        ut3_in_ut2 = all(containment_check(t3, t2, n)[0] for n in range(1, ut3_top + 1))
        got = {
            "certificates_both_ways": both_ways,
            "ut2_D_in_ut2_eps": d_in_eps,
            "ut3_in_ut2": ut3_in_ut2,
        }
        result = Outcome("")
        if got != ref("identities.containment"):
            result.problems.append(f"containment {got} != reference")
        growth_ref = ref("identities.growth")
        cases = [
            ("ut2 trivial", []),
            ("ut2 eps", [eps]),
            ("ut2 eta0", [delta]),
            ("ut2 eta11", [Derivation(eps.matrix + delta.matrix, "eta")]),
            ("ut2 D", [eps, delta]),
        ]
        lines = [repr(got)]
        for label, gens in cases[:2] if small else cases:
            rep = classify_growth(u2, lie_closure(u2, gens))
            evidence = sorted((k, v["excluded"], v["degree"]) for k, v in rep.evidence.items())
            lines.append(f"{label} {rep.classification} {rep.exponent.value} {evidence}")
            got_growth = {"classification": rep.classification, "exp": rep.exponent.value}
            if got_growth != growth_ref:
                result.problems.append(f"{label}: {got_growth} != reference {growth_ref}")
        result.output = "\n".join(lines)
        return result

    return run
