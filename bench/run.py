"""Run one workload of the benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition runs in a fresh interpreter
(bench/worker.py), one process with one thread at a time.

``--trace 0`` repeats the workload while the next repetition is expected to
end within ``--seconds`` (at least once) and reports the end-to-end metrics:
``setup_s``, the median set-up time over at least ``SETUP_SAMPLES`` start-ups;
``wall_rel``, the median over repetitions of the jobs' time in units of a
reference probe timed alongside them (worker.SpeedProbe), which cancels the
machine's drifting speed; and ``peak_rss_mb``, the median peak memory.

``--trace 1`` runs the workload untraced, traced and untraced again.  The
traced repetition wraps the engine's layers (bench/tracer.py) and gives the
per-layer metrics; the untraced ones give the job-group times and the tracing
overhead.  All three must produce the same outputs, byte for byte.

Every job's output is checked against bench/references.json.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics; a readable summary goes to stderr, and a run record (commit, Python
version, nproc, load average, every repetition) to .bench_out/records/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170

sys.path.insert(0, str(BENCH))
from tracer import LAYER_METRICS  # noqa: E402
from workloads import ACTIVE_LAYERS, GROUPS, WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_rel": "probe", "peak_rss_mb": "MB"}
JOB_GROUPS = sorted({g for groups in GROUPS.values() for g in groups})
PER_LAYER = {
    **{name: unit for name, (unit, _) in LAYER_METRICS.items()},
    **{f"job.{g}": "s" for g in JOB_GROUPS},
    "job.wall_s": "s",
    "job.probe_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, small: bool, trace_path=None, setup_only=False) -> dict:
    """One repetition in a fresh interpreter; returns the worker's result."""
    OUT.mkdir(exist_ok=True)
    out = OUT / f"worker-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--out", str(out)]
    if small:
        cmd.append("--small")
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--t0", repr(t0)], cwd=ROOT, stdin=subprocess.DEVNULL, stdout=sys.stderr
    )
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker exceeded {WORKER_TIMEOUT_S}s")
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            proc.kill()
            proc.wait()
    if code != 0 or not out.exists():
        raise WorkerFailed(f"worker exited with code {code}")
    result = json.loads(out.read_text())
    out.unlink()
    result["elapsed_s"] = time.monotonic() - t0
    return result


def _digests(rep: dict) -> list:
    return [(j["label"], j["digest"]) for j in rep["jobs"]]


def summarize(reps: list[dict]) -> dict:
    """Job counts, failures and output agreement over full repetitions."""
    jobs = [j for rep in reps for j in rep["jobs"]]
    failed = [j for j in jobs if j["problems"]]
    problems = [f"{j['label']}: {p}" for j in failed for p in j["problems"]]
    if any(_digests(rep) != _digests(reps[0]) for rep in reps[1:]):
        problems.append("outputs differ between repetitions of the same inputs")
    return {
        "attempted": len(jobs),
        "failed": len(failed),
        "fail_frac": len(failed) / len(jobs) if jobs else 1.0,
        "problems": problems,
    }


def measure(workload: str, seed: int, seconds: float, small: bool = False) -> tuple[dict, list]:
    start = time.monotonic()
    reps: list[dict] = []
    while True:
        rep = run_worker(workload, seed, small)
        reps.append(rep)
        if time.monotonic() - start + rep["elapsed_s"] > seconds:
            break
    setups = [rep["setup_s"] for rep in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(workload, seed, small, setup_only=True)["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_rel": statistics.median(rep["wall_rel"] for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }
    return metrics, reps


def trace(workload: str, seed: int, small: bool = False) -> tuple[dict, list, list]:
    """Per-layer metrics from a traced repetition between two untraced ones."""
    spans = OUT / "spans" / f"{workload}-seed{seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    plain = run_worker(workload, seed, small)
    traced = run_worker(workload, seed, small, trace_path=spans)
    plain2 = run_worker(workload, seed, small)
    metrics = dict(traced["layers"])
    for g in JOB_GROUPS:
        metrics[f"job.{g}"] = statistics.median(
            [plain["groups"].get(g, 0.0), plain2["groups"].get(g, 0.0)]
        )
    untraced = statistics.median([plain["wall_s"], plain2["wall_s"]])
    metrics["job.wall_s"] = untraced
    metrics["job.probe_s"] = statistics.median([plain["probe_s"], plain2["probe_s"]])
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced
    # as a share, from probe-normalized times, so the machine's drift cancels
    untraced_rel = statistics.median([plain["wall_rel"], plain2["wall_rel"]])
    metrics["trace.overhead_frac"] = traced["wall_rel"] / untraced_rel - 1
    idle = [m for m in ACTIVE_LAYERS[workload] if not metrics[m]]
    problems = [f"layer metric {m} recorded no work" for m in idle]
    return metrics, [plain, traced, plain2], problems


def _commit() -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind through run_worker's finally so the worker is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "diffident").is_dir():
        print(f"error: no engine source at {ROOT / 'src' / 'diffident'}", file=sys.stderr)
        return 2
    record = {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "args": vars(args),
    }
    try:
        if args.trace:
            metrics, reps, problems = trace(args.workload, args.seed)
            units = PER_LAYER
        else:
            metrics, reps = measure(args.workload, args.seed, args.seconds)
            problems, units = [], END_TO_END
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = summarize(reps)
    summary["problems"] += problems
    record["loadavg_end"] = os.getloadavg()
    record.update(summary, metrics=metrics, repetitions=reps)
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=1))

    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units[key]}", file=sys.stderr)
    print(f"fail_frac {summary['fail_frac']:.6g} ({summary['failed']}/{summary['attempted']} jobs)", file=sys.stderr)
    for g in GROUPS[args.workload]:
        times = [rep["groups"][g] for rep in reps]
        print(f"{g} {statistics.median(times):.6g} s (median of {len(times)})", file=sys.stderr)
    for note in sorted({n for rep in reps for j in rep["jobs"] for n in j["notes"]}):
        print(f"note {note}", file=sys.stderr)
    for problem in summary["problems"]:
        print(f"problem {problem}", file=sys.stderr)
    result = {
        "correct": not summary["problems"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
