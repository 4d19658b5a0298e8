"""One repetition of one workload, in a fresh interpreter.

run.py starts this script once per repetition, so module-level caches
(``acceptance._FIXTURES_CACHE``) and caches attached to actions
(``act._pbw_cache``, ``act._collapse_cache``) never carry over, just as a
CLI user pays for them on every invocation.

    python3 bench/worker.py --workload NAME --seed N --t0 T --out PATH
        [--trace SPANS] [--small] [--setup-only]

``--t0`` is the monotonic clock reading taken by the parent just before it
started this process, so ``setup_s`` covers interpreter start, the import of
every ``diffident`` module and writing the input files, which go to
``.bench_out/inputs/`` under the working directory (run.py starts workers in
the checkout's root).  The result is one JSON object written to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import pkgutil
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_engine() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import diffident

    where = [Path(p).resolve() for p in diffident.__path__]
    if where != [ROOT / "src" / "diffident"]:
        raise SystemExit(f"diffident imported from {where}, not from {ROOT / 'src'}")
    for info in pkgutil.iter_modules(diffident.__path__):
        importlib.import_module(f"diffident.{info.name}")


def _reference_work() -> None:
    """A fixed slice of the kind of work the engine does: Fraction arithmetic
    and dict updates, a few milliseconds.  Shorter slices run with cold
    caches and slow down more than the engine when the machine is busy."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 600):
        acc += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
        table[(i, i % 7)] = acc.numerator % 97


class SpeedProbe:
    """Times _reference_work every INTERVAL_S of wall time while the jobs run.

    On a shared 2-vCPU KVM guest (Intel Xeon), pure-Python code changes speed
    by up to a third over seconds, because of load outside the guest.  Dividing
    the jobs' time by the probe's mean time in the same window cancels most of
    that drift (the mean weighs each speed by the time spent at it).  The
    probe's own time is taken out of the jobs' time, and out of the self time
    of the span it interrupted.
    """

    INTERVAL_S = 0.25

    def __init__(self, tracer=None):
        self.samples: list[float] = []
        self.total = 0.0
        self.tracer = tracer

    def _sample(self, *_):
        start = time.perf_counter()
        _reference_work()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.total += took
        if self.tracer is not None:
            self.tracer.exclude(took)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # jobs shorter than one interval
            self._sample()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", help="write spans here and report layer metrics")
    p.add_argument("--small", action="store_true", help="smallest sizes, for the self-test")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    _import_engine()
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    size = "small" if args.small else "full"
    workdir = Path(".bench_out") / "inputs" / f"{args.workload}-seed{args.seed}-{size}"
    jobs = workloads.prepare(args.workload, args.seed, workdir, args.small)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        with SpeedProbe(tracer) as probe:
            result.update(_run_jobs(jobs, args.workload, probe))
        result["probe_s"] = statistics.mean(probe.samples)
        # each job against the machine's speed while it ran
        result["wall_rel"] = sum(
            j["seconds"] / (j["probe_s"] or result["probe_s"]) for j in result["jobs"]
        )
        if tracer is not None:
            result["layers"] = tracer.metrics()
            tracer.write(args.trace)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.out).write_text(json.dumps(result))
    return 0


def _run_jobs(jobs, workload: str, probe: SpeedProbe | None = None) -> dict:
    """Run every job; a job's time leaves out the probe's samples taken in it."""
    import workloads

    probe = probe or SpeedProbe()  # one never entered takes no samples
    groups = {g: 0.0 for g in workloads.GROUPS[workload]}
    records = []
    for job in jobs:
        probed, first = probe.total, len(probe.samples)
        start = time.perf_counter()
        try:
            outcome = job.run()
        except Exception as exc:  # a job that raises is a failed job; keep going
            outcome = workloads.Outcome("", [f"raised {type(exc).__name__}: {exc}"])
        elapsed = time.perf_counter() - start - (probe.total - probed)
        during = probe.samples[first:]
        groups[job.group] += elapsed
        records.append(
            {
                "label": job.label,
                "group": job.group,
                "seconds": elapsed,
                "probe_s": statistics.mean(during) if during else None,
                "digest": hashlib.sha256(outcome.output.encode()).hexdigest(),
                "problems": outcome.problems,
                "notes": outcome.notes,
            }
        )
    return {"wall_s": sum(groups.values()), "groups": groups, "jobs": records}


if __name__ == "__main__":
    sys.exit(main())
