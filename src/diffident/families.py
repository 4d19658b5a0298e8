"""Explicit spanning families for the upper-triangular codimension spaces."""

from __future__ import annotations

from itertools import combinations

from .piengine import LPolynomial, left_normed_commutator

EPS_WORD = (0,)  # the derivation eps as a word: closure letter 0


def _commutator_from(entries) -> LPolynomial:
    """Left-normed commutator of (index, word) pairs."""
    return left_normed_commutator(
        [LPolynomial.variable(i, w) for i, w in entries]
    )


def ut2_spanning_set(n: int) -> list[LPolynomial]:
    """x_{i1}..x_{im} [x_k, x_{j1}, .., x_{j_{n-m-1}}] with i's increasing,
    j's increasing, k > j1, and m != n-1; plus the full ordered monomial."""
    out = [LPolynomial.monomial(range(1, n + 1))]
    for m in range(0, n - 1):
        for heads in combinations(range(1, n + 1), m):
            rest = [v for v in range(1, n + 1) if v not in heads]
            j1 = rest[0]
            for k in rest[1:]:
                tail = [k] + [v for v in rest if v != k]
                comm = _commutator_from([(v, ()) for v in tail])
                out.append(LPolynomial.monomial(heads) * comm)
    return out


def ut2_eps_spanning_set(n: int) -> list[LPolynomial]:
    """The three families: the ordinary UT2 set, x_{h1}..x_{h_{n-1}} x_r^eps,
    and x_{i1}..x_{im} [x_{l1}^eps, x_{l2}, .., x_{l_{n-m}}] with l's
    increasing, eps being closure letter 0."""
    out = list(ut2_spanning_set(n))
    for r in range(1, n + 1):
        rest = [v for v in range(1, n + 1) if v != r]
        out.append(LPolynomial.monomial(rest) * LPolynomial.variable(r, EPS_WORD))
    for m in range(0, n - 1):
        for heads in combinations(range(1, n + 1), m):
            rest = [v for v in range(1, n + 1) if v not in heads]
            comm = _commutator_from(
                [(rest[0], EPS_WORD)] + [(v, ()) for v in rest[1:]]
            )
            out.append(LPolynomial.monomial(heads) * comm)
    return out
