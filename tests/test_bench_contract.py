"""The benchmark's contract with the engine.

`bench/tracer.py` wraps engine callables by name and raises when a target is
missing, so a rename or deletion in `diffident` would otherwise first show up
as a failed `bench/run.py --trace 1`.  Each workload also names the layers
that must record work in a traced run (`workloads.ACTIVE_LAYERS`); a
simplification that stops calling one of them (say, `substitute`) would
otherwise first show up in the minute-long `bench/selftest.py`.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


WORKLOADS = _bench_module("workloads")


def _tracer_targets():
    return _bench_module("tracer").TARGETS


def test_every_tracer_target_resolves():
    missing = []
    for name, (module, attr) in _tracer_targets().items():
        obj = importlib.import_module(f"diffident.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                break
        if not callable(obj):
            missing.append(f"{name}: diffident.{module}.{attr}")
    assert not missing, missing


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_small_traced_workload_exercises_its_layers(tmp_path, workload):
    # a fresh interpreter in tmp_path: the tracer patches engine modules and
    # the worker writes its inputs under its working directory.  The worker
    # puts its checkout's src on sys.path itself and refuses to run when
    # diffident resolves to more than that one directory, which an absolute
    # PYTHONPATH naming the same src would cause.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = tmp_path / "result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "0"]
    cmd += ["--small", "--t0", str(time.monotonic()), "--trace", "spans.jsonl", "--out", str(out)]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert [(j["label"], j["problems"]) for j in result["jobs"] if j["problems"]] == []
    assert [m for m in WORKLOADS.ACTIVE_LAYERS[workload] if not result["layers"][m]] == []
