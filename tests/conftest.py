"""Shared fixtures: a non-unital algebra, seeded inner actions on it, and a
fresh interpreter that imports diffident from this checkout."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from diffident.algebra import direct_sum, inner_derivation, lie_closure, make_algebra, ut


def _ut3_without_e33():
    """span{e11, e12, e13, e22, e23} in UT3: a subalgebra with no unit."""
    u3 = ut(3)
    keep = range(5)  # ut(3) lists e11, e12, e13, e22, e23, e33
    c = [[[u3.constants[i][j][k] for k in keep] for j in keep] for i in keep]
    return make_algebra(c, label="ut3-e33")


@pytest.fixture
def ut3_without_e33():
    return _ut3_without_e33()


@pytest.fixture
def nonunital_actions():
    """(label, algebra, action) for N, N+N and N+ut2, N = ut3 without e33,
    each acted on by two inner derivations drawn from a fixed seed."""
    n = _ut3_without_e33()
    cases = []
    for seed, (label, alg) in enumerate(
        (("N", n), ("N+N", direct_sum(n, n)), ("N+ut2", direct_sum(n, ut(2))))
    ):
        rng = random.Random(seed)
        gens = [
            inner_derivation(alg, [Fraction(rng.randint(-2, 2)) for _ in range(alg.dim)])
            for _ in range(2)
        ]
        cases.append((label, alg, lie_closure(alg, gens)))
    return cases


@pytest.fixture
def fresh_python():
    """run(script, timeout): the script's CompletedProcess in a new interpreter
    whose PYTHONPATH starts with this checkout's src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    entries = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(entries)}

    def run(script: str, timeout: float = 120):
        return subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=timeout
        )

    return run
