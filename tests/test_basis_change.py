"""Structure, exponents and codimensions do not depend on the basis an
algebra is given in.

An invertible rational P gives the basis f_i = sum_j P[i][j] e_j.  Row
coordinates change as x_f = x_e P^-1, so a derivation D (acting as
x_e -> x_e D) becomes P D P^-1, and the structure constants of f_i f_j are
the e-coordinates of that product times P^-1.
"""

import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, seed, settings, strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from diffident.algebra import (
    Derivation,
    StructureAlgebra,
    ad_unit,
    direct_sum,
    full_matrix,
    inner_derivation,
    lie_closure,
    truncated_grassmann,
    ut,
)
from diffident.exponent import exp_differential, exp_ordinary, verify_gk
from diffident.linalg import Matrix
from diffident.piengine import codim
from diffident import structure
from diffident.structure import wedderburn_malcev


def truncated_polynomials(m: int) -> StructureAlgebra:
    """Q[t]/(t^m) in the basis 1, t, ..., t^(m-1)."""
    constants = [
        [[Fraction(int(k == i + j)) for k in range(m)] for j in range(m)] for i in range(m)
    ]
    return StructureAlgebra(constants, unit_vector=[1] + [0] * (m - 1), label=f"Q[t]/t^{m}")


def tensor(a: StructureAlgebra, b: StructureAlgebra) -> StructureAlgebra:
    """a (x) b in the basis e_i (x) f_p, listed as i * b.dim + p."""
    m = b.dim
    pairs = [(i, p) for i in range(a.dim) for p in range(m)]
    constants = [
        [[a.constants[i][j][k] * b.constants[p][q][r] for k, r in pairs] for j, q in pairs]
        for i, p in pairs
    ]
    unit = [x * y for x in a.unit_vector for y in b.unit_vector]
    return StructureAlgebra(constants, unit_vector=unit, label=f"{a.label}(x){b.label}")


def mat2_over_dual_numbers() -> StructureAlgebra:
    """M2(Q[t]/(t^2)): one 4-dimensional matrix block tangled with a
    4-dimensional radical, so no idempotent lift alone splits it off."""
    return tensor(full_matrix(2), truncated_polynomials(2))


ALGEBRAS = {
    "ut3": lambda: ut(3),
    "ut2+mat2": lambda: direct_sum(ut(2), full_matrix(2)),
    "grassmann2+ut2": lambda: direct_sum(truncated_grassmann(2), ut(2)),
    "mat2(Q[t]/t^2)": mat2_over_dual_numbers,
}


def _invertible(n: int, rng: random.Random) -> tuple[Matrix, Matrix]:
    """(P, P^-1) for P = permutation * unit lower * unit upper * diagonal."""
    small = lambda: Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    perm = list(range(n))
    rng.shuffle(perm)
    factors = [
        Matrix.from_rows([[1 if j == perm[i] else 0 for j in range(n)] for i in range(n)]),
        Matrix.from_rows([[small() if j < i else int(i == j) for j in range(n)] for i in range(n)]),
        Matrix.from_rows([[small() if j > i else int(i == j) for j in range(n)] for i in range(n)]),
        Matrix.from_rows(
            [[rng.choice([-2, -1, Fraction(1, 2), 1, 3]) if i == j else 0 for j in range(n)]
             for i in range(n)]
        ),
    ]
    p = factors[0]
    for f in factors[1:]:
        p = p * f
    inv = DomainMatrix(
        [[QQ(x.numerator, x.denominator) for x in row] for row in p.entries], (n, n), QQ
    ).inv()
    p_inv = Matrix.from_rows(
        [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in inv.to_list()]
    )
    assert p * p_inv == Matrix.identity(n)
    return p, p_inv


def _in_basis(alg: StructureAlgebra, p: Matrix, p_inv: Matrix) -> StructureAlgebra:
    constants = [
        [p_inv.apply(alg.multiply(p.entries[i], p.entries[j])) for j in range(alg.dim)]
        for i in range(alg.dim)
    ]
    unit = None if alg.unit_vector is None else p_inv.apply(alg.unit_vector)
    # not skipping checks: associativity and the unit are verified again
    return StructureAlgebra(constants, unit_vector=unit, label=f"{alg.label} moved")


def _invariants(alg, act) -> dict:
    wd = wedderburn_malcev(alg)
    return {
        "radical": wd.radical.dim,
        "blocks": sorted(b.dim for b in wd.blocks),
        "exp": exp_ordinary(alg).value,
        "exp-L": exp_differential(alg, act).value,
        "verify_gk": verify_gk(alg, act),
        "envelope": act.envelope.dim,
    }


def _inner_pair(alg, action_seed: int) -> list[Derivation]:
    rng = random.Random(action_seed)
    return [
        inner_derivation(alg, [Fraction(rng.randint(-2, 2)) for _ in range(alg.dim)], name=f"r{i}")
        for i in range(2)
    ]


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@seed(20)
@settings(max_examples=3, deadline=None)
@given(basis_rng=st.randoms(use_true_random=False), action_seed=st.integers(0, 9))
def test_invariant_under_change_of_basis(name, basis_rng, action_seed):
    alg = ALGEBRAS[name]()
    gens = _inner_pair(alg, action_seed)
    expected = _invariants(alg, lie_closure(alg, gens))

    p, p_inv = _invertible(alg.dim, basis_rng)
    moved = _in_basis(alg, p, p_inv)
    moved_gens = [Derivation(p * d.matrix * p_inv, name=d.name) for d in gens]
    assert _invariants(moved, lie_closure(moved, moved_gens)) == expected


def test_tangled_matrix_block_invariants():
    alg = mat2_over_dual_numbers()
    act = lie_closure(alg, _inner_pair(alg, 0))
    got = _invariants(alg, act)
    assert (got["radical"], got["blocks"], got["exp"], got["exp-L"]) == (4, [4], 4, 4)


LIFT_CASES = {
    "mat2(Q[t]/t^3)": lambda: tensor(full_matrix(2), truncated_polynomials(3)),
    "ut2(Q[t]/t^2)": lambda: tensor(ut(2), truncated_polynomials(2)),
}


@pytest.mark.parametrize("name", sorted(LIFT_CASES))
@pytest.mark.parametrize("basis_seed", [0, 1])
def test_section_is_multiplicative_and_lifts_the_quotient(name, basis_seed):
    alg = LIFT_CASES[name]()
    moved = _in_basis(alg, *_invertible(alg.dim, random.Random(basis_seed)))
    j = structure.radical(moved)
    quo = structure.quotient_by_ideal(moved, j)
    sigma = structure._multiplicative_section(moved, quo)
    q = quo.algebra
    for a in range(q.dim):
        assert j.member([x - y for x, y in zip(sigma[a], quo.lift(q.basis_vector(a)))])
        for b in range(q.dim):
            product = [Fraction(0)] * moved.dim
            for c, coeff in enumerate(q.constants[a][b]):
                product = [x + coeff * y for x, y in zip(product, sigma[c])]
            assert moved.multiply(sigma[a], sigma[b]) == product


def _fraction_multiply(alg: StructureAlgebra, u, v) -> list:
    """u * v by the Fraction triple loop over the structure constants, the
    oracle for the integer product of StructureAlgebra.multiply."""
    out = [Fraction(0)] * alg.dim
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            for k, c in enumerate(alg.constants[i][j]):
                out[k] += a * b * c
    return out


@cache
def _moved_ut2_mat2() -> StructureAlgebra:
    """ut2+mat2 in a fixed random rational basis: dense rational constants."""
    alg = ALGEBRAS["ut2+mat2"]()
    return _in_basis(alg, *_invertible(alg.dim, random.Random(5)))


@pytest.mark.parametrize("name", ["ut3", "ut2+mat2 moved"])
@seed(21)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_multiply_matches_the_fraction_triple_loop(name, data):
    alg = ut(3) if name == "ut3" else _moved_ut2_mat2()
    entry = st.one_of(st.just(Fraction(0)), st.fractions(-6, 6, max_denominator=7))
    vector = st.lists(entry, min_size=alg.dim, max_size=alg.dim)
    u, v = data.draw(vector), data.draw(vector)
    product = alg.multiply(u, v)
    assert product == _fraction_multiply(alg, u, v)
    assert all(type(x) is Fraction for x in product)


CODIM_CASES = {
    # name: (algebra, derivations from a seed, largest n)
    "ut2 eps": (lambda: ut(2), lambda alg, s: [ad_unit(alg, 2, 2)], 4),
    "ut2 delta": (lambda: ut(2), lambda alg, s: [ad_unit(alg, 1, 2)], 4),
    "ut3 inner pair": (lambda: ut(3), _inner_pair, 2),
}


@pytest.mark.parametrize("name", sorted(CODIM_CASES))
@seed(22)
@settings(max_examples=3, deadline=None)
@given(basis_rng=st.randoms(use_true_random=False), action_seed=st.integers(0, 9))
def test_codim_invariant_under_change_of_basis(name, basis_rng, action_seed):
    make, derivations, max_n = CODIM_CASES[name]
    alg = make()
    gens = derivations(alg, action_seed)
    act = lie_closure(alg, gens)
    expected = [codim(alg, act, n) for n in range(1, max_n + 1)]

    p, p_inv = _invertible(alg.dim, basis_rng)
    moved = _in_basis(alg, p, p_inv)
    moved_act = lie_closure(moved, [Derivation(p * d.matrix * p_inv, name=d.name) for d in gens])
    assert [codim(moved, moved_act, n) for n in range(1, max_n + 1)] == expected
