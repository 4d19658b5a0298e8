"""Self-test of the benchmark, at the smallest sizes; takes about a minute.

    python3 bench/selftest.py

Checks that BENCHMARK.json lists exactly the metrics run.py prints, that a
wrong reference or a raising job is counted as a failed job, and that every
workload runs clean end to end, traced and untraced, with each layer metric
it should exercise recording work.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok {what}")


def test_manifest() -> None:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "workloads match")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(e2e == run.END_TO_END, "end_to_end metrics match run.END_TO_END")
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(layers == run.PER_LAYER, "per_layer metrics match run.PER_LAYER")
    for wl, active in workloads.ACTIVE_LAYERS.items():
        check(set(active) <= set(layers), f"active layers of {wl} are per_layer metrics")


def test_failure_counting() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        jobs = workloads.prepare("codim-elim", 0, Path(tmp), small=True)
        saved = workloads.REFERENCES["codim.mat2-ad11"]["value"]
        workloads.REFERENCES["codim.mat2-ad11"]["value"] = [3, 13, 56, 221]
        try:
            wrong = workloads.prepare("codim-elim", 0, Path(tmp), small=True)
        finally:
            workloads.REFERENCES["codim.mat2-ad11"]["value"] = saved

        def boom():
            raise ZeroDivisionError("on purpose")

        jobs = jobs + wrong + [workloads.Job("codim_exact_s", "raises", boom)]
        rep = worker._run_jobs(jobs, "codim-elim")
    failed = [j["label"] for j in rep["jobs"] if j["problems"]]
    check(len(failed) == 3, f"a wrong reference and a raising job fail ({failed})")
    summary = run.summarize([rep])
    check(summary["attempted"] == 5 and summary["failed"] == 3, "summarize counts 3 of 5")
    check(abs(summary["fail_frac"] - 0.6) < 1e-12, "fail_frac is failed / attempted")
    other = dict(rep, jobs=[dict(j, digest="0") for j in rep["jobs"]])
    check(bool(run.summarize([rep, other])["problems"]), "differing outputs are a problem")


def test_workloads() -> None:
    for wl in workloads.WORKLOADS:
        metrics, reps, problems = run.trace(wl, seed=1, small=True)
        summary = run.summarize(reps)
        check(not problems, f"{wl}: every active layer recorded work")
        check(summary["failed"] == 0 and not summary["problems"], f"{wl}: traced run is clean")
        check(metrics.keys() == run.PER_LAYER.keys(), f"{wl}: traced run reports every layer")
        metrics, reps = run.measure(wl, seed=1, seconds=0, small=True)
        check(metrics.keys() == run.END_TO_END.keys(), f"{wl}: untraced run reports end to end")
        check(all(v > 0 for v in metrics.values()), f"{wl}: end-to-end metrics are positive")
        check(not run.summarize(reps)["problems"], f"{wl}: untraced run is clean")


if __name__ == "__main__":
    test_manifest()
    test_failure_counting()
    test_workloads()
    print("selftest passed")
