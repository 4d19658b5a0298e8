"""Acceptance battery: one test per criterion, at the stated tolerances.

Criterion 2 checks the ut2-eps differential codimensions against
2^(n-1)n+1 for n = 1..10 and, for n = 2..5, certifies each value by a
spanning-set lower bound and a consequence-closure upper bound that must
meet.
"""

import re

import pytest

from diffident.acceptance import CRITERIA


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number):
    result = CRITERIA[number]()
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {number} {status}: {result.name}")
    print(f"  detail: {result.detail}")
    for flag in result.flags:
        print(f"  flag: {flag}")
    assert result.passed, f"criterion {number} failed: {result.detail}"
    # battery stdout carries the detail; timings go to stderr only
    assert not re.search(r"\d\.\d+s\b", result.detail)
