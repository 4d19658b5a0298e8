"""Codimensions from the integer row generator against an independent path.

The reference builds every degree-n monomial as an LPolynomial (exponent
words taken from the envelope's word representatives), evaluates it with
`evaluate_poly` on every basis tuple, and takes the rank of those rows with
sympy's `DomainMatrix` over QQ.  It shares neither the row generator nor
SparseRREF with `codim`.
"""

import random
from fractions import Fraction
from itertools import product as iproduct
from math import factorial

import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from diffident import piengine as pe
from diffident.algebra import (
    Derivation,
    ad_unit,
    full_matrix,
    inner_derivation,
    lie_closure,
    make_algebra,
    truncated_grassmann,
    ut,
)
from diffident.errors import DenominatorDivisibleByPrime
from diffident.linalg import Matrix, draw_primes


def _reference_codim(act, n):
    alg = act.algebra
    tuples = list(iproduct(range(alg.dim), repeat=n))
    rows = []
    for vars_, exps in pe.monomial_basis(n, act.envelope.dim):
        words = tuple(act.envelope.word_reps[u] for u in exps)
        mono = pe.LPolynomial.from_terms({(vars_, words): 1})
        row = []
        for tup in tuples:
            row += pe.evaluate_poly(mono, act, [alg.basis_vector(b) for b in tup])
        rows.append([QQ(x.numerator, x.denominator) for x in row])
    return DomainMatrix(rows, (len(rows), len(tuples) * alg.dim), QQ).rank()


def _ut2_eps():
    u2 = ut(2)
    return lie_closure(u2, [ad_unit(u2, 2, 2, name="eps")])


def _mat2_ad11():
    m2 = full_matrix(2)
    return lie_closure(m2, [ad_unit(m2, 1, 1, name="ad11")])


def _grassmann2_inner():
    g = truncated_grassmann(2)
    rng = random.Random(5)
    a = [Fraction(rng.randint(-3, 3)) for _ in range(g.dim)]
    return lie_closure(g, [inner_derivation(g, a, name="d")])


def _rational_ut2_eps():
    """ut2-eps in the basis f_i = sum_j P[i][j] e_j: the constants gain the
    denominators 3 and 5.  The derivation is transported by conjugation and
    scaled by 2/7, which spans the same action and puts 7 into the operators."""
    act = _ut2_eps()
    alg = act.algebra
    third, fifth = Fraction(1, 3), Fraction(1, 5)
    p = Matrix.from_rows([[third, 0, 0], [0, 1, 0], [fifth, 0, fifth]])
    q = Matrix.from_rows([[3, 0, 0], [0, 1, 0], [-3, 0, 5]])
    assert p * q == Matrix.identity(3)
    d = act.generators[0].matrix
    constants = [
        [q.apply(alg.multiply(p.entries[i], p.entries[j])) for j in range(3)]
        for i in range(3)
    ]
    rational = make_algebra(constants, unit_vector=q.apply(alg.unit_vector))
    eps = (p * d * q).scale(Fraction(2, 7))
    return lie_closure(rational, [Derivation(eps, name="eps")])


CASES = [
    ("ut2-eps", _ut2_eps, 4),
    ("mat2-ad11", _mat2_ad11, 3),
    ("grassmann2-inner", _grassmann2_inner, 3),
    ("rational-ut2-eps", _rational_ut2_eps, 4),
]


@pytest.fixture(scope="module")
def rational():
    return _rational_ut2_eps()


@pytest.mark.parametrize("name,build,max_n", CASES, ids=[c[0] for c in CASES])
def test_codim_matches_evaluation_of_monomials(name, build, max_n):
    act = build()
    for n in range(1, max_n + 1):
        expected = _reference_codim(act, n)
        assert pe.codim(act.algebra, act, n) == expected, (name, n)
        assert pe.codim(act.algebra, act, n, mode="modular") == expected, (name, n)


def test_rational_basis_keeps_codim_and_identities(rational):
    denominators = {
        c.denominator
        for row in rational.algebra.constants
        for cell in row
        for c in cell
    }
    assert {3, 5} <= denominators
    e = rational.envelope.dim
    values = []
    for n in range(1, 5):
        rep = pe.identity_space(rational.algebra, rational, n)
        assert rep.identity_dim == factorial(n) * e**n - rep.codim
        values.append(rep.codim)
    assert values == [2, 5, 13, 33]


def test_prime_dividing_cleared_denominator_is_refused(rational):
    rows = pe.EvaluationRows(rational.algebra, rational.envelope.op_basis)
    assert rows.denominator == 3 * 5 * 7
    with pytest.raises(DenominatorDivisibleByPrime):
        pe._row_pass(rows, 3, primes=[3])
    exact = pe.codim(rational.algebra, rational, 3)
    assert pe.codim(rational.algebra, rational, 3, mode="modular") == exact


def test_draw_primes_skips_divisors_of_the_denominator():
    first, second, third = draw_primes(3, seed=4)
    assert draw_primes(2, seed=4, denominator=6 * first) == [second, third]


def test_modular_needs_two_primes():
    act = _ut2_eps()
    with pytest.raises(ValueError):
        pe.codim(act.algebra, act, 2, mode="modular", prime_count=1)
