"""The benchmark's tracer wraps engine callables by name; each must exist.

`bench/tracer.py` raises when a target is missing, so a rename or deletion in
`diffident` would otherwise first show up as a failed `bench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


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
