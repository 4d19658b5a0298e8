"""Record the benchmark of one checkout in BENCH_<pr>.json.

    python3 tools/bench_record.py --pr N [--checkout DIR]

Runs ``bench/run.py`` of the checkout (default: this repository) on every
workload in its BENCHMARK.json with seed 0 and the benchmark's own run
length, once at ``--trace 0`` (end-to-end metrics) and once at ``--trace 1``
(per-layer metrics), one run at a time, then runs the checkout's ``diffident
battery`` once, ``diffident codim`` on the shipped ``ut2-eps`` file for n =
1..CODIM_MAX_N (12) in exact and in modular mode, RUNS (3) times,
alternating the modes, ``identity_space`` on it at n = 4, 5 and 6,
``consequences_space`` of battery criterion 9's three identities on it at n
= 4, 5, 6 and 7, ``lie_closure`` of the block-triangular UT(2,2) under the
seeded inner pairs 0 and 1 and the input checks on the same inputs,
``lie_closure`` on the generators of every battery fixture,
``evaluate_poly`` on the spanning sets of battery criterion 8, RUNS times,
``containment_check`` over the ordered pairs of the one-generator UT2
actions at n = 1..4 and ``classify_growth`` on battery criterion 11's five
UT2 actions, ``exp_ordinary``, ``exp_differential``, ``lemma_bridge_check``
on every block sequence and ``check_block_action`` on the 25 battery
fixtures, RUNS times, ``codim`` of mat2 under the trivial action at n = 6,
RUNS times (each run in a fresh interpreter whose address space is capped at
SCRIPT_ADDRESS_SPACE, so that a checkout that holds these spaces densely
stops with MemoryError instead of filling the machine's memory), and its
tier-1 test command once, and writes BENCH_<pr>.json at the root of this
repository. The file holds the checkout's commit (and whether its tree had
uncommitted changes), the Python version, nproc, the load average before and
after, for each workload and trace level the run's correct/attempted/failed
counts and every metric with its unit, under ``battery`` the battery's exit
code and the seconds of each criterion, read from its ``criterion K T s``
stderr lines, under ``codim`` each mode's greatest exit code and, per n, the
monomials and rank read from its ``n N monomials M rank C T s`` stderr
lines, every run's seconds (``runs_s``) and their median (``seconds``),
under ``identity_space`` per n the seconds, ``codim``, ``identity_dim`` and
the interpreter's ``ru_maxrss`` in KiB, under ``consequences`` per n the
seconds, the dimension, whether it equals the ``identity_space`` kernel
(past n = 6, where that kernel is not built, whether the dimension is the
monomial count minus ``codim``, which proves the same, since the closure
lies in the kernel) and ``ru_maxrss``, or the error it ended with (a
``MemoryError`` under the cap among them), under ``ut22_lie_closure`` per
seed the seconds and the envelope dimension, under ``actions`` the least
over ACTIONS_RUNS runs of the ``lie_closure`` seconds summed over the 25
battery fixtures and the sha256 of the reprs of their closures, bracket
constants and envelopes, under ``validate`` per seed the seconds of
``StructureAlgebra(constants, unit_vector=...)`` with its associativity and
unit checks (``algebra_seconds``), the seconds of ``leibniz_failure`` on the
two inner derivations (``derivation_seconds``) and whether both passed,
under ``evaluate`` every run's seconds (``runs_s``), their median
(``seconds``), the count and the sha256 of the values of the
``evaluate_poly`` calls that the ``identities`` workload's spanning-set job
makes (every member of the ut2 and ut2-eps spanning sets for n = 2..5 at
every basis tuple), under ``containment`` the seconds, the count and the
sha256 of the reprs of the 64 ``containment_check`` results (zero, eps,
delta and eta 1 1, every ordered pair, n = 1..4) and of their answers alone
(``decisions_digest``), the seconds, the sha256 of the reprs and the
classification of the ``classify_growth`` reports and the sha256 of their
decisions alone (``classify_decisions_digest``: classification, exponent and
each reference's exclusion and its degree, not the certificate), and the
seconds, answer and ``ru_maxrss`` of ``containment_check`` of eps in eta 1 1
at n = 8 (``eps_in_eta11_n8``), under ``exponents`` the first run's
seconds of each part (``ordinary_seconds``, ``differential_seconds``,
``bridge_seconds``, ``block_action_seconds``), every run's total
(``runs_s``), their median (``seconds``), the sequence count and the sha256
of the exponent reports (values, witnesses, ``pruned_count``), bridge pairs
and block-action entries, under ``mat2_trivial_codim`` per n every run's seconds
(``runs_s``), their median (``seconds``), the codimension and the greatest
``ru_maxrss``, and under ``tier1`` the test run's exit code, its passed and
failed counts (from pytest's summary line), its wall-clock seconds and its
ten slowest test phases with their seconds (from pytest's ``--durations=10``
report), and under ``src_lines`` the line count of the checkout's
``src/diffident/*.py``. Two files made on the same machine can be compared
workload by workload and layer by layer, and any two files by the size of
the engine; the spread of the repeated runs tells a change from the
machine's drift.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEED = 0
CODIM_MAX_N = 12
RUNS = 3  # runs of the codim, evaluate and mat2_trivial_codim sections, each recorded
IDENTITY_SPACE_N = (4, 5, 6)
CONSEQUENCES_N = (4, 5, 6, 7)
SCRIPT_ADDRESS_SPACE = 2 * 2**30  # bytes: the RLIMIT_AS of each run_script interpreter

# identity_space on the shipped ut2-eps file at degree argv[1], as one JSON line
_IDENTITY_SPACE = """
import json, resource, sys, time
from diffident.algebra import lie_closure
from diffident.piengine import identity_space
from diffident.shipped import shipped_algebra_file

n = int(sys.argv[1])
alg, ders = shipped_algebra_file("ut2-eps", []).to_algebra()
act = lie_closure(alg, ders)
start = time.perf_counter()
rep = identity_space(alg, act, n)
seconds = time.perf_counter() - start
print(json.dumps({"seconds": seconds, "codim": rep.codim, "identity_dim": rep.identity_dim,
                  "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""

# consequences_space of battery criterion 9's identities on the shipped
# ut2-eps file at degree argv[1], timed and its ru_maxrss read before it is
# compared with the identity_space kernel, or past n = 6 its dimension with
# the monomial count minus codim; one JSON line
_CONSEQUENCES = """
import json, resource, sys, time
from diffident.acceptance import _ut2_eps_identities
from diffident.algebra import lie_closure
from diffident.piengine import Monomials, codim, consequences_space, identity_space
from diffident.shipped import shipped_algebra_file

n = int(sys.argv[1])
alg, ders = shipped_algebra_file("ut2-eps", []).to_algebra()
act = lie_closure(alg, ders)
gens = _ut2_eps_identities(act)
start = time.perf_counter()
space = consequences_space(gens, n, act)
seconds = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if n <= 6:
    equal = space == identity_space(alg, act, n).kernel
else:
    equal = space.dim == Monomials(n, act.envelope.dim).count - codim(alg, act, n)
print(json.dumps({"seconds": seconds, "dim": space.dim, "equals_kernel": equal,
                  "ru_maxrss_kb": rss}))
"""

# UT(2,2), the block upper-triangular 4 x 4 matrices with 2 x 2 diagonal
# blocks, and two inner derivations drawn from random.Random(argv[1]) (the
# inner pairs of the exponent tests): the inputs of the two scripts below
_UT22_INPUTS = """
import json, random, sys, time
from fractions import Fraction
from diffident.algebra import _matrix_units_algebra, inner_derivation

rng = random.Random(int(sys.argv[1]))
block = (0, 0, 1, 1)
alg = _matrix_units_algebra(
    [(i, j) for i in range(4) for j in range(4) if block[i] <= block[j]], "UT(2,2)"
)
gens = [inner_derivation(alg, [Fraction(rng.randint(-2, 2)) for _ in range(alg.dim)])
        for _ in range(2)]
"""

# lie_closure of those inputs; one JSON line
_UT22_LIE_CLOSURE = _UT22_INPUTS + """
from diffident.algebra import lie_closure

start = time.perf_counter()
act = lie_closure(alg, gens)
print(json.dumps({"seconds": time.perf_counter() - start, "envelope_dim": act.envelope.dim}))
"""

# lie_closure on the generators of every battery fixture, argv[1] times: the
# least over the runs of the seconds summed over the fixtures, and the sha256
# of the reprs of every closure (names and matrices), its bracket constants
# and its envelope (op_basis, word_reps, right); one JSON line
_ACTIONS = """
import hashlib, json, sys, time
from diffident.acceptance import battery_fixtures
from diffident.algebra import lie_closure

sums = []
for _ in range(int(sys.argv[1])):
    seconds, closures = 0.0, []
    for _label, alg, act in battery_fixtures():
        start = time.perf_counter()
        closures.append(lie_closure(alg, act.generators))
        seconds += time.perf_counter() - start
    sums.append(seconds)
values = [([(d.name, d.matrix.entries) for d in a.closure_basis], a.bracket_constants,
           [op.entries for op in a.envelope.op_basis], a.envelope.word_reps, a.envelope.right)
          for a in closures]
digest = hashlib.sha256("\\n".join(map(repr, values)).encode()).hexdigest()
print(json.dumps({"seconds": min(sums), "runs": len(sums), "fixtures": len(values),
                  "digest": digest}))
"""
ACTIONS_RUNS = (5,)

# the input checks on those inputs: StructureAlgebra with its associativity
# and unit checks on, then leibniz_failure of both derivations; one JSON line
_VALIDATE = _UT22_INPUTS + """
from diffident.algebra import StructureAlgebra, leibniz_failure

start = time.perf_counter()
checked = StructureAlgebra(alg.constants, unit_vector=alg.unit_vector)
algebra_seconds = time.perf_counter() - start
start = time.perf_counter()
passed = all([leibniz_failure(checked, g.matrix) is None for g in gens])
print(json.dumps({"algebra_seconds": algebra_seconds,
                  "derivation_seconds": time.perf_counter() - start,
                  "derivations_pass": passed}))
"""
UT22_SEEDS = (0, 1)

# evaluate_poly on every member of the ut2 and ut2-eps spanning sets for
# n = 2..argv[1] at every basis tuple, as the identities workload's
# spanning-set job calls it: the seconds of the calls, their count and the
# sha256 of the reprs of their values; one JSON line
_EVALUATE = """
import hashlib, json, sys, time
from itertools import product
from diffident.algebra import lie_closure
from diffident.families import ut2_eps_spanning_set, ut2_spanning_set
from diffident.piengine import evaluate_poly
from diffident.shipped import shipped_algebra_file

values, seconds = [], 0.0
for name, family in (("ut2", ut2_spanning_set), ("ut2-eps", ut2_eps_spanning_set)):
    alg, ders = shipped_algebra_file(name, []).to_algebra()
    act = lie_closure(alg, ders)
    for n in range(2, int(sys.argv[1]) + 1):
        polys = family(n)
        start = time.perf_counter()
        for p in polys:
            for tup in product(range(alg.dim), repeat=n):
                values.append(evaluate_poly(p, act, [alg.basis_vector(b) for b in tup]))
        seconds += time.perf_counter() - start
digest = hashlib.sha256("\\n".join(map(repr, values)).encode()).hexdigest()
print(json.dumps({"seconds": seconds, "calls": len(values), "digest": digest}))
"""
EVALUATE_TOP = (5,)

# containment_check of eps in eta 1 1 at n = 8 (its seconds, answer and the
# interpreter's ru_maxrss right after it), then over the ordered pairs of the
# one-generator UT2 actions (zero, eps, delta, eta 1 1) at n = 1..argv[1], then
# classify_growth on battery criterion 11's five UT2 actions: the seconds of
# each part, the sha256 of the reprs of its results and of its decisions alone
# (the 64 answers; each report's classification, exponent and per reference
# whether it is excluded and at which degree), and each action's
# classification; one JSON line
_CONTAINMENT = """
import hashlib, json, resource, sys, time
from diffident.algebra import Derivation, ad_unit, lie_closure, trivial_action, ut
from diffident.exponent import classify_growth
from diffident.linalg import Matrix
from diffident.piengine import containment_check

u2 = ut(2)
eps, delta = ad_unit(u2, 2, 2, name="eps"), ad_unit(u2, 1, 2, name="delta")
eta = Derivation(eps.matrix + delta.matrix, "eta")
one = {"zero": lie_closure(u2, [Derivation(Matrix.zero(3, 3), "g0")]),
       "eps": lie_closure(u2, [eps]), "delta": lie_closure(u2, [delta]),
       "eta11": lie_closure(u2, [eta])}
start = time.perf_counter()
contained, _cert = containment_check(one["eps"], one["eta11"], 8)
deep = {"seconds": time.perf_counter() - start, "contained": contained,
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
results = []
start = time.perf_counter()
for n in range(1, int(sys.argv[1]) + 1):
    for a in one.values():
        for b in one.values():
            results.append(containment_check(a, b, n))
seconds = time.perf_counter() - start
growth = {"ut2 trivial": trivial_action(u2), "ut2 eps": lie_closure(u2, [eps]),
          "ut2 eta0": lie_closure(u2, [delta]), "ut2 eta11": lie_closure(u2, [eta]),
          "ut2 D": lie_closure(u2, [eps, delta])}
start = time.perf_counter()
reports = {label: classify_growth(u2, act) for label, act in growth.items()}
classify_seconds = time.perf_counter() - start


def digest(values):
    return hashlib.sha256("\\n".join(map(repr, values)).encode()).hexdigest()


decisions = [(r.classification, r.exponent, {label: (e["excluded"], e["degree"])
                                             for label, e in r.evidence.items()})
             for r in reports.values()]
print(json.dumps({"seconds": seconds, "calls": len(results), "digest": digest(results),
                  "decisions_digest": digest(c for c, _cert in results),
                  "classify_seconds": classify_seconds,
                  "classify_digest": digest(reports.values()),
                  "classify_decisions_digest": digest(decisions),
                  "classification": {k: r.classification for k, r in reports.items()},
                  "eps_in_eta11_n8": deep}))
"""
CONTAINMENT_TOP = (4,)

# exp_ordinary, exp_differential, lemma_bridge_check on every distinct block
# sequence and check_block_action on the first argv[1] battery fixtures, each
# part timed over all of them after their decompositions are built: the
# seconds of each part and their sum, and the sha256 of the reprs of the
# exponent reports (value, witness, pruned_count), the bridge pairs and the
# block-action entries; one JSON line
_EXPONENTS = """
import hashlib, json, sys, time
from itertools import permutations
from diffident.acceptance import battery_fixtures
from diffident.exponent import exp_differential, exp_ordinary, lemma_bridge_check
from diffident.structure import check_block_action, wedderburn_malcev

fixtures = [(alg, act, wedderburn_malcev(alg))
            for _label, alg, act in battery_fixtures()[: int(sys.argv[1])]]
parts = {"ordinary": [], "differential": [], "bridge": [], "block_action": []}
times = dict.fromkeys(parts, 0.0)


def timed(part, call):
    start = time.perf_counter()
    parts[part].append(call())
    times[part] += time.perf_counter() - start


for alg, act, wd in fixtures:
    timed("ordinary", lambda: exp_ordinary(alg, wd))
for alg, act, wd in fixtures:
    timed("differential", lambda: exp_differential(alg, act, wd))
for alg, act, wd in fixtures:
    k = len(wd.blocks)
    sequences = [seq for r in range(1, k + 1) for seq in permutations(range(k), r)]
    timed("bridge", lambda: [(seq, lemma_bridge_check(alg, act, seq, wd)) for seq in sequences])
for alg, act, wd in fixtures:
    timed("block_action", lambda: check_block_action(wd, act))
digest = hashlib.sha256("\\n".join(repr(parts[p]) for p in parts).encode()).hexdigest()
print(json.dumps({"seconds": sum(times.values()),
                  **{f"{p}_seconds": t for p, t in times.items()},
                  "fixtures": len(fixtures),
                  "sequences": sum(len(pairs) for pairs in parts["bridge"]),
                  "digest": digest}))
"""
EXPONENTS_FIXTURES = (25,)

# codim of mat2 under the trivial action at degree argv[1], exact: the dense
# case where the order codim feeds its rows in matters most; one JSON line
_MAT2_TRIVIAL = """
import json, resource, sys, time
from diffident.algebra import full_matrix, trivial_action
from diffident.piengine import codim

n = int(sys.argv[1])
alg = full_matrix(2)
act = trivial_action(alg)
start = time.perf_counter()
c = codim(alg, act, n)
print(json.dumps({"seconds": time.perf_counter() - start, "codim": c,
                  "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""
MAT2_TRIVIAL_N = (6,)


def _git(checkout: Path, *args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(checkout), *args], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def run_bench(checkout: Path, workload: str, seconds: float, trace: int) -> dict:
    """One bench/run.py run; its result line, or the error it ended with."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"error": f"exit code {proc.returncode}", "stderr_tail": tail, "elapsed_s": elapsed}
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def _python(checkout: Path, *args: str, preexec_fn=None) -> subprocess.CompletedProcess:
    """This interpreter run on args in the checkout, importing its source;
    preexec_fn runs in the child before it starts."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    cmd = [sys.executable, *args]
    return subprocess.run(
        cmd, cwd=checkout, env=env, capture_output=True, text=True, preexec_fn=preexec_fn
    )


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (SCRIPT_ADDRESS_SPACE, SCRIPT_ADDRESS_SPACE))


def _diffident(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return _python(checkout, "-m", "diffident.cli", *args)


def run_battery(checkout: Path) -> dict:
    """One ``diffident battery`` run of the checkout's source, timed per criterion."""
    proc = _diffident(checkout, "battery")
    times = re.findall(r"^criterion (\d+) (\d+\.\d+)s$", proc.stderr, re.M)
    return {"returncode": proc.returncode, "criterion_s": {k: float(t) for k, t in times}}


def run_codim(checkout: Path) -> dict:
    """``diffident codim`` on the shipped ut2-eps file for n = 1..CODIM_MAX_N,
    exact then modular, RUNS times, timed per degree.  A degree whose runs
    disagree on its monomials or rank, or that some run lacks, is left out,
    so the record then has fewer than CODIM_MAX_N degrees."""
    out = {mode: {"returncode": 0, "n": {}} for mode in ("exact", "modular")}
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "ut2-eps.alg")
        gen = _diffident(checkout, "gen", "ut2-eps", "-o", path)
        if gen.returncode != 0:
            return {"error": f"gen exit code {gen.returncode}"}
        runs = {mode: [] for mode in out}
        for _ in range(RUNS):
            for mode, record in out.items():
                args = ("codim", path, "--max-n", str(CODIM_MAX_N), "--mode", mode)
                proc = _diffident(checkout, *args)
                lines = re.findall(
                    r"^n (\d+) monomials (\d+) rank (\d+) (\d+\.\d+)s$", proc.stderr, re.M
                )
                record["returncode"] = max(record["returncode"], proc.returncode)
                runs[mode].append({n: (int(m), int(c), float(t)) for n, m, c, t in lines})
    for mode, record in out.items():
        for n, (m, c, _t) in runs[mode][0].items():
            found = [run.get(n) for run in runs[mode]]
            if all(f is not None and f[:2] == (m, c) for f in found):
                seconds = [t for _m, _c, t in found]
                record["n"][n] = {"monomials": m, "rank": c, "runs_s": seconds,
                                  "seconds": statistics.median(seconds)}
    return out


def run_script(checkout: Path, script: str, n: int) -> dict:
    """One of the scripts above at degree n, alone in a fresh interpreter so
    that its ru_maxrss is its own, and with its address space capped at
    SCRIPT_ADDRESS_SPACE; its JSON line, or the error it ended with."""
    proc = _python(checkout, "-c", script, str(n), preexec_fn=_cap_address_space)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit code {proc.returncode}", "stderr_tail": proc.stderr.strip().splitlines()[-5:]}
    return json.loads(lines[-1])


def run_script_repeated(checkout: Path, script: str, n: int) -> dict:
    """run_script RUNS times: the first run's JSON line with every run's
    seconds (runs_s), their median (seconds) and, where the script reports
    it, the greatest ru_maxrss, or the first error; an error too if the
    runs' digests differ."""
    results = [run_script(checkout, script, n) for _ in range(RUNS)]
    errors = [r for r in results if "error" in r]
    if errors:
        return errors[0]
    if len({r.get("digest") for r in results}) > 1:
        return {"error": "the runs' digests differ"}
    seconds = [r["seconds"] for r in results]
    record = {**results[0], "runs_s": seconds, "seconds": statistics.median(seconds)}
    if "ru_maxrss_kb" in record:
        record["ru_maxrss_kb"] = max(r["ru_maxrss_kb"] for r in results)
    return record


def run_tier1(checkout: Path) -> dict:
    """One run of the checkout's tier-1 tests (the ROADMAP's tier-1 command),
    with pytest's report of the ten slowest test phases."""
    t0 = time.monotonic()
    proc = _python(
        checkout, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10"
    )
    seconds = time.monotonic() - t0
    summary = proc.stdout.strip().splitlines()[-1:] or [""]
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed)", summary[0])}
    slowest = re.findall(r"^(\d+\.\d+)s (call|setup|teardown) +(.+?) *$", proc.stdout, re.M)
    return {
        "returncode": proc.returncode,
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0),
        "seconds": seconds,
        "slowest": [{"test": t, "phase": ph, "seconds": float(x)} for x, ph, t in slowest],
    }


def count_src_lines(checkout: Path) -> int:
    """Lines of the engine's modules, src/diffident/*.py."""
    return sum(
        len(path.read_text().splitlines()) for path in (checkout / "src" / "diffident").glob("*.py")
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True, help="number in the file name BENCH_<pr>.json")
    p.add_argument("--checkout", type=Path, default=REPO, help="tree whose bench/run.py is run")
    args = p.parse_args(argv)

    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {
        "pr": args.pr,
        "commit": _git(checkout, "rev-parse", "HEAD") or "unknown",
        "uncommitted_changes": bool(_git(checkout, "status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "seed": SEED,
        "seconds": seconds,
        "src_lines": count_src_lines(checkout),
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        record["workloads"][name] = {}
        for trace in (0, 1):
            print(f"{name} --trace {trace} ...", file=sys.stderr, flush=True)
            result = run_bench(checkout, name, seconds, trace)
            record["workloads"][name][f"trace{trace}"] = result
            summary = result.get("error") or f"correct {result['correct']}, failed {result['failed']}"
            print(f"  {summary} in {result['elapsed_s']:.0f}s", file=sys.stderr, flush=True)
    print("battery ...", file=sys.stderr, flush=True)
    record["battery"] = run_battery(checkout)
    print(f"  exit code {record['battery']['returncode']}", file=sys.stderr, flush=True)
    print(f"codim ut2-eps n <= {CODIM_MAX_N} ...", file=sys.stderr, flush=True)
    record["codim"] = codim = run_codim(checkout)
    codim_failed = "error" in codim or any(
        m["returncode"] or len(m["n"]) != CODIM_MAX_N for m in codim.values()
    )
    print(f"  {'FAILED' if codim_failed else 'ok'}", file=sys.stderr, flush=True)
    for key, script, degrees, what in (
        ("identity_space", _IDENTITY_SPACE, IDENTITY_SPACE_N, "ut2-eps n ="),
        ("consequences", _CONSEQUENCES, CONSEQUENCES_N, "ut2-eps n ="),
        ("ut22_lie_closure", _UT22_LIE_CLOSURE, UT22_SEEDS, "UT(2,2) seed"),
        ("actions", _ACTIONS, ACTIONS_RUNS, "battery lie_closure runs"),
        ("validate", _VALIDATE, UT22_SEEDS, "UT(2,2) seed"),
        ("evaluate", _EVALUATE, EVALUATE_TOP, "spanning sets n = 2.."),
        ("containment", _CONTAINMENT, CONTAINMENT_TOP, "ut2 one-generator pairs n = 1.."),
        ("exponents", _EXPONENTS, EXPONENTS_FIXTURES, "battery fixtures"),
        ("mat2_trivial_codim", _MAT2_TRIVIAL, MAT2_TRIVIAL_N, "mat2 trivial n ="),
    ):
        record[key] = {}
        for n in degrees:
            print(f"{key} {what} {n} ...", file=sys.stderr, flush=True)
            repeated = key in ("evaluate", "exponents", "mat2_trivial_codim")
            run = run_script_repeated if repeated else run_script
            record[key][n] = result = run(checkout, script, n)
            summary = result.get("error") or " ".join(
                f"{k} {v:.3f}" for k, v in result.items() if k.endswith("seconds")
            )
            print(f"  {summary}", file=sys.stderr, flush=True)
    print("tier-1 tests ...", file=sys.stderr, flush=True)
    record["tier1"] = run_tier1(checkout)
    tier1 = record["tier1"]
    print(
        f"  {tier1['passed']} passed, {tier1['failed']} failed in {tier1['seconds']:.0f}s",
        file=sys.stderr,
        flush=True,
    )
    record["loadavg_end"] = os.getloadavg()
    out = REPO / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    failed = [
        (name, level)
        for name, runs in record["workloads"].items()
        for level, result in runs.items()
        if "error" in result or not result["correct"]
    ]
    failed += [
        (key, n)
        for key in (
            "identity_space", "ut22_lie_closure", "actions", "evaluate", "containment",
            "exponents", "mat2_trivial_codim",
        )
        for n, r in record[key].items() if "error" in r
    ]
    failed += [
        ("validate", n) for n, r in record["validate"].items()
        if "error" in r or not r["derivations_pass"]
    ]
    failed += [
        ("consequences", n)
        for n, r in record["consequences"].items()
        if "error" in r or not r["equals_kernel"]
    ]
    return 1 if failed or codim_failed or record["battery"]["returncode"] or tier1["returncode"] else 0


if __name__ == "__main__":
    sys.exit(main())
