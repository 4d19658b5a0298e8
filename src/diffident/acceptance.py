"""Acceptance battery: the quantitative checks the engine must reproduce.

Each criterion returns a CriterionResult; the CLI battery and the test suite
share these implementations so a PASS means the same thing everywhere.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import permutations
from typing import Iterator

from .algebra import (
    Derivation,
    ad_unit,
    direct_sum,
    full_matrix,
    inner_derivation,
    lie_closure,
    make_algebra,
    trivial_action,
    truncated_grassmann,
    ut,
)
from .exponent import (
    classify_growth,
    exp_ordinary,
    lemma_bridge_check,
    verify_gk,
)
from .linalg import Matrix, SparseRREF, frac
from .piengine import (
    EvaluationRows,
    LPolynomial,
    Monomials,
    codim,
    collapsed_terms,
    commutator_poly,
    consequences_space,
    containment_check,
    derive_polynomial,
    identity_space,
    is_identity,
)
from .families import ut2_eps_spanning_set, ut2_spanning_set
from .structure import wedderburn_malcev


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    flags: list = field(default_factory=list)


def _ut2_eps_action():
    u2 = ut(2)
    return u2, lie_closure(u2, [ad_unit(u2, 2, 2, name="eps")])


def _ut2_eps_identities(act):
    """x^(eps eps) - x^eps, x1^eps x2^eps and [x1,x2]^eps - [x1,x2]."""
    x = LPolynomial.variable
    g1 = x(1, (0, 0)) - x(1, (0,))
    g2 = LPolynomial.from_terms({((1, 2), ((0,), (0,))): 1})
    c = commutator_poly(x(1), x(2))
    g3 = derive_polynomial(c, 0, act) - c
    return [g1, g2, g3]


def _zero_algebra(n: int):
    z = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    return make_algebra(z, label=f"zero{n}")


@cache
def battery_fixtures():
    """(label, algebra, action) triples used by criteria 4, 6, 7."""
    fixtures = []
    u2 = ut(2)
    eps = ad_unit(u2, 2, 2, name="eps")
    delta = ad_unit(u2, 1, 2, name="delta")
    eta_mix = Derivation(eps.matrix + delta.matrix, name="eta")
    fixtures.append(("ut2 trivial", u2, trivial_action(u2)))
    fixtures.append(("ut2 eps", u2, lie_closure(u2, [eps])))
    fixtures.append(("ut2 eta alpha=0", u2, lie_closure(u2, [delta])))
    fixtures.append(("ut2 eta alpha=1 beta=1", u2, lie_closure(u2, [eta_mix])))
    fixtures.append(("ut2 full derivations", u2, lie_closure(u2, [eps, delta])))
    u3 = ut(3)
    for i, j in ((1, 1), (2, 2), (3, 3), (1, 2), (1, 3)):
        d = ad_unit(u3, i, j)
        fixtures.append((f"ut3 ad e{i}{j}", u3, lie_closure(u3, [d])))
    m2 = full_matrix(2)
    fixtures.append(("mat2 trivial", m2, trivial_action(m2)))
    fixtures.append(
        ("mat2 ad e11", m2, lie_closure(m2, [ad_unit(m2, 1, 1)]))
    )
    ds = direct_sum(u2, m2)
    a = [frac(x) for x in (1, 0, 0, 0, 0, 0, 0)]  # e11 in the ut2 summand
    b = [frac(x) for x in (0, 0, 0, 1, 0, 0, 0)]  # e11 in the mat2 summand
    mixed = [
        inner_derivation(ds, a, name="adL"),
        inner_derivation(ds, b, name="adR"),
    ]
    fixtures.append(("ut2+mat2 mixed inner", ds, lie_closure(ds, mixed)))
    for k in (2, 3):
        g = truncated_grassmann(k)
        fixtures.append((f"grassmann{k} trivial", g, trivial_action(g)))
    pool = [ds, u3, direct_sum(truncated_grassmann(2), u2), direct_sum(m2, m2)]
    for seed in range(10):
        rng = random.Random(seed)
        alg = pool[seed % len(pool)]
        gens = []
        for gi in range(2):
            vec = [Fraction(rng.randint(-2, 2)) for _ in range(alg.dim)]
            gens.append(inner_derivation(alg, vec, name=f"r{gi}"))
        fixtures.append((f"random inner seed={seed}", alg, lie_closure(alg, gens)))
    return fixtures


def criterion_1() -> CriterionResult:
    start = time.monotonic()
    u2 = ut(2)
    act = trivial_action(u2)
    computed = [codim(u2, act, n) for n in range(1, 7)]
    expected = [2 ** (n - 1) * (n - 2) + 2 for n in range(1, 7)]
    elapsed = time.monotonic() - start
    ok = computed == expected == [1, 2, 6, 18, 50, 130] and elapsed < 120
    return CriterionResult(
        1,
        "ordinary codimensions of ut2, n=1..6",
        ok,
        f"computed {computed}, expected {expected}",
    )


def criterion_2() -> CriterionResult:
    """ut2-eps differential codimensions against 2^(n-1)n+1, n=1..10.

    Each value is the exact rank of codim.  For n=2..5 it must also be
    certified from both sides.
    The evaluation rank of families.ut2_eps_spanning_set(n) is a lower
    bound. The n!*2^n monomials minus the consequence closure of three
    eps-identities (each checked with is_identity) is an upper bound.

    The detail names the rejected formula 2^(n-1)n-1 with its n=2
    counter-example; tests/test_ut2_eps_codim.py counts c_2 = 5 by hand.
    """
    u2, act = _ut2_eps_action()
    gens = _ut2_eps_identities(act)
    ok = all(is_identity(g, act) for g in gens)
    lines = []
    for n in range(1, 11):
        c = codim(u2, act, n)
        expected = 2 ** (n - 1) * n + 1
        good = c == expected
        line = f"n={n}: codim {c} formula {expected}"
        if 2 <= n <= 5:
            lower = _evaluation_rank(ut2_eps_spanning_set(n), act)
            closure = consequences_space(gens, n, act)
            upper = Monomials(n, act.envelope.dim).count - closure.dim
            good = good and lower == c == upper
            line += f" lower {lower} upper {upper}"
        ok = ok and good
        lines.append(line)
    rejected = [2 ** (n - 1) * n - 1 for n in range(1, 11)]
    lines.append(
        f"rejected 2^(n-1)n-1 = {rejected}: at n=2 x1x2 and the e12-monomials "
        "of x1^eps x2, x1 x2^eps, x2^eps x1, x2 x1^eps are independent, so c_2 >= 5"
    )
    return CriterionResult(
        2,
        "differential codimensions of ut2-eps against 2^(n-1)n+1, n=1..10",
        ok,
        "; ".join(lines),
    )


def criterion_3() -> CriterionResult:
    u2 = ut(2)
    delta = ad_unit(u2, 1, 2, name="eta")
    act0 = lie_closure(u2, [delta])
    vals0 = [codim(u2, act0, n) for n in range(2, 7)]
    formula = [2 ** (n - 1) * n + 1 for n in range(2, 7)]
    eps = ad_unit(u2, 2, 2, name="epspart")
    eta1 = Derivation(eps.matrix + delta.matrix, name="eta")
    act1 = lie_closure(u2, [eta1])
    vals1 = [codim(u2, act1, n) for n in range(2, 6)]
    _, act_eps = _ut2_eps_action()
    vals_eps = [codim(u2, act_eps, n) for n in range(2, 6)]
    ok = vals0 == formula and vals1 == vals_eps
    flags = []
    if vals0 == formula:
        flags.append("the stated eta formula matches the alpha=0 case")
    if vals1 == formula[:4]:
        flags.append("the alpha!=0 case matches the same formula as computed")
    return CriterionResult(
        3,
        "ut2-eta codimensions: alpha=0 formula and alpha!=0 vs ut2-eps",
        ok,
        f"alpha=0 {vals0} vs formula {formula}; alpha=1 {vals1} vs eps {vals_eps}",
        flags,
    )


def criterion_4() -> CriterionResult:
    start = time.monotonic()
    failures = []
    for label, alg, act in battery_fixtures():
        if not verify_gk(alg, act):
            failures.append(label)
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 300
    return CriterionResult(
        4,
        "exponent equality exp^L = exp over the fixture battery",
        ok,
        f"{len(battery_fixtures())} fixtures, failures {failures or 'none'}",
    )


def criterion_5() -> CriterionResult:
    vals = {
        "ut2": exp_ordinary(ut(2)).value,
        "mat2": exp_ordinary(full_matrix(2)).value,
        "nilpotent": exp_ordinary(_zero_algebra(1)).value,
    }
    ok = vals == {"ut2": 2, "mat2": 4, "nilpotent": 0}
    return CriterionResult(
        5, "ordinary exponents of ut2, mat2 and a nilpotent algebra", ok, str(vals)
    )


def criterion_6() -> CriterionResult:
    violations = []
    for label, alg, act in battery_fixtures():
        wd = wedderburn_malcev(alg)
        k = len(wd.blocks)
        for r in range(1, k + 1):
            for seq in permutations(range(k), r):
                hyp, concl = lemma_bridge_check(alg, act, seq, wd)
                if hyp and not concl:
                    violations.append((label, seq))
    ok = not violations
    return CriterionResult(
        6,
        "bridge lemma: nonzero L-product implies nonzero radical product",
        ok,
        f"violations {violations or 'none'}",
    )


def criterion_7() -> CriterionResult:
    from .structure import check_block_action

    bad = []
    for label, alg, act in battery_fixtures():
        wd = wedderburn_malcev(alg)
        for i, entry in enumerate(check_block_action(wd, act)):
            if not entry["in_block_plus_radical"]:
                bad.append((label, i, "block+radical"))
            if entry["dim"] == 1 and entry["in_radical_when_1dim"] is False:
                bad.append((label, i, "radical"))
    ok = not bad
    return CriterionResult(
        7,
        "block-action lemma: non-unital envelope maps blocks into B_i + J",
        ok,
        f"violations {bad or 'none'}",
    )


def _evaluation_rank(polys, act):
    """Rank of the polynomials' value rows over all basis tuples.

    Each row is summed from EvaluationRows rows over the polynomial's
    collapsed terms; polynomials of one degree share a positional table.
    """
    rows = EvaluationRows(act.algebra, act.envelope.op_basis)
    by_degree: dict = {}
    for p in polys:
        by_degree.setdefault(p.degree, []).append(collapsed_terms(p, act))
    rr = SparseRREF()
    for n, combos in by_degree.items():
        for row in rows.combined_rows(n, combos):
            rr.add_row(row)
    return rr.rank


def criterion_8() -> CriterionResult:
    u2 = ut(2)
    triv = trivial_action(u2)
    _, act_eps = _ut2_eps_action()
    lines = []
    ok = True
    for n in range(2, 6):
        s = ut2_spanning_set(n)
        c = codim(u2, triv, n)
        r = _evaluation_rank(s, triv)
        good = len(s) == c == r
        ok = ok and good
        lines.append(f"ut2 n={n}: |S|={len(s)} codim={c} rank={r}")
    for n in range(2, 6):
        s = ut2_eps_spanning_set(n)
        c = codim(u2, act_eps, n)
        r = _evaluation_rank(s, act_eps)
        good = len(s) == c == r
        ok = ok and good
        lines.append(f"ut2-eps n={n}: |S|={len(s)} codim={c} rank={r}")
    return CriterionResult(
        8, "spanning-set cardinality and independence, n=2..5", ok, "; ".join(lines)
    )


def criterion_9() -> CriterionResult:
    u2 = ut(2)
    triv = trivial_action(u2)
    x = LPolynomial.variable
    f = commutator_poly(x(1), x(2)) * commutator_poly(x(3), x(4))
    ok_ut2 = consequences_space([f], 4, triv) == identity_space(u2, triv, 4).kernel

    _, act = _ut2_eps_action()
    gens = _ut2_eps_identities(act)
    eps_results = {}
    for n in (2, 3, 4, 5):
        eps_results[n] = (
            consequences_space(gens, n, act) == identity_space(u2, act, n).kernel
        )
    ok = ok_ut2 and all(eps_results.values())
    return CriterionResult(
        9,
        "consequence closures reach the full identity kernels",
        ok,
        f"ut2 deg4 {ok_ut2}; ut2-eps {eps_results}",
    )


def criterion_10() -> CriterionResult:
    u2, u3 = ut(2), ut(3)
    zero = Matrix.zero(3, 3)
    eps = ad_unit(u2, 2, 2, name="eps")
    delta = ad_unit(u2, 1, 2, name="delta")
    a_triv = lie_closure(u2, [Derivation(zero, "g0")])
    a_eps = lie_closure(u2, [eps])
    both_ways = False
    for n in range(2, 5):
        c1, _ = containment_check(a_triv, a_eps, n)
        c2, _ = containment_check(a_eps, a_triv, n)
        if not c1 and not c2:
            both_ways = True
            break
    act_d = lie_closure(u2, [eps, delta])
    act_eps2 = lie_closure(u2, [eps, Derivation(Matrix.zero(3, 3), "z")])
    d_in_eps = all(containment_check(act_d, act_eps2, n)[0] for n in (1, 2, 3))
    t3, t2 = lie_closure(u3, []), lie_closure(u2, [])
    ut3_in_ut2 = all(containment_check(t3, t2, n)[0] for n in (1, 2, 3, 4))
    ok = both_ways and d_in_eps and ut3_in_ut2
    return CriterionResult(
        10,
        "containment certificates and inclusions",
        ok,
        f"ut2 vs ut2-eps certificates both ways: {both_ways}; "
        f"ut2-D in ut2-eps (n<=3): {d_in_eps}; ut3 in ut2 (n<=4): {ut3_in_ut2}",
    )


def criterion_11() -> CriterionResult:
    u2 = ut(2)
    eps = ad_unit(u2, 2, 2, name="eps")
    delta = ad_unit(u2, 1, 2, name="delta")
    one = make_algebra([[[Fraction(1)]]], unit_vector=[1], label="F")
    ff = direct_sum(one, one)
    poly_cases = [
        ("grassmann2", truncated_grassmann(2), None),
        ("grassmann3", truncated_grassmann(3), None),
        ("F+F", ff, None),
        ("zero1", _zero_algebra(1), None),
        ("zero2", _zero_algebra(2), None),
    ]
    exp_cases = [
        ("ut2 trivial", u2, trivial_action(u2)),
        ("ut2 eps", u2, lie_closure(u2, [eps])),
        ("ut2 eta0", u2, lie_closure(u2, [delta])),
        ("ut2 eta11", u2, lie_closure(u2, [Derivation(eps.matrix + delta.matrix, "eta")])),
        ("ut2 D", u2, lie_closure(u2, [eps, delta])),
    ]
    wrong = []
    for label, alg, act in poly_cases:
        act = act or trivial_action(alg)
        rep = classify_growth(alg, act)
        if rep.classification != "Polynomial" or rep.exponent.value > 1:
            wrong.append(label)
    for label, alg, act in exp_cases:
        rep = classify_growth(alg, act)
        if rep.classification != "Exponential" or rep.exponent.value < 2:
            wrong.append(label)
    ok = not wrong
    return CriterionResult(
        11, "growth classification of the fixture families", ok, f"wrong {wrong or 'none'}"
    )


def criterion_12() -> CriterionResult:
    """On every battery fixture, A = B + J with B and J independent, J
    nilpotent and the blocks of B pairwise orthogonal."""
    problems = []
    for label, alg, _act in battery_fixtures():
        wd = wedderburn_malcev(alg)
        b, j = wd.semisimple_part, wd.radical
        if b.dim + j.dim != alg.dim or not b.intersect(j).is_zero():
            problems.append(f"A != B + J on {label}")
        power = j
        for _ in range(alg.dim):
            if power.is_zero():
                break
            power = alg.subspace_product(power, j)
        if not power.is_zero():
            problems.append(f"radical not nilpotent on {label}")
        for s in range(len(wd.blocks)):
            for t in range(len(wd.blocks)):
                if s != t and not alg.subspace_product(wd.blocks[s], wd.blocks[t]).is_zero():
                    problems.append(f"blocks {s},{t} not orthogonal on {label}")
    ok = not problems
    return CriterionResult(
        12, "Wedderburn-Malcev decompositions", ok, f"problems {problems or 'none'}"
    )


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
}

SUITES = {
    "codim-formulas": (1, 2, 3),
    "exponents": (5,),
    "gk-randomized": (4, 6, 7),
    "spanning": (8,),
    "consequences": (9,),
    "containment": (10,),
    "growth": (11,),
    "infra": (12,),
    "all": tuple(range(1, 13)),
}


def run_suite(name: str) -> Iterator[CriterionResult]:
    """The suite's results, each criterion run when its result is reached."""
    from .errors import BadParams

    if name not in SUITES:
        raise BadParams(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return (CRITERIA[i]() for i in SUITES[name])
