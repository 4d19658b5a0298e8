import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from diffident.algebra import (
    Derivation,
    StructureAlgebra,
    ad_unit,
    direct_sum,
    envelope,
    full_matrix,
    inner_derivation,
    leibniz_failure,
    lie_closure,
    matrix_unit_vector,
    subspace_under_action,
    trivial_action,
    truncated_grassmann,
    ut,
)
from diffident.acceptance import battery_fixtures
from diffident.errors import NotADerivation, NotAssociative, NotAUnit
from diffident.linalg import Matrix, SparseRREF, Subspace
from test_basis_change import _in_basis, _invertible


def test_ut2_products():
    u2 = ut(2)
    e11 = matrix_unit_vector(u2, 1, 1)
    e12 = matrix_unit_vector(u2, 1, 2)
    e22 = matrix_unit_vector(u2, 2, 2)
    assert u2.multiply(e11, e12) == e12
    assert u2.multiply(e12, e11) == [0, 0, 0]
    assert u2.multiply(e12, e22) == e12
    assert u2.unit_vector == [1, 0, 1]


def test_non_associative_rejected():
    bad = [[[Fraction(0), Fraction(0)] for _ in range(2)] for _ in range(2)]
    bad[0][0] = [Fraction(0), Fraction(1)]
    bad[1][1] = [Fraction(1), Fraction(0)]
    with pytest.raises(NotAssociative):
        StructureAlgebra(bad)


def test_bad_unit_rejected():
    with pytest.raises(NotAUnit):
        StructureAlgebra(ut(2).constants, unit_vector=[1, 1, 1])


@pytest.mark.parametrize("n", [2, 3])
def test_inner_derivations_satisfy_leibniz(n):
    alg = ut(n)
    rng = random.Random(n)
    for _ in range(5):
        a = [Fraction(rng.randint(-3, 3)) for _ in range(alg.dim)]
        d = inner_derivation(alg, a)
        assert leibniz_failure(alg, d.matrix) is None


def test_identity_map_is_not_a_derivation():
    u2 = ut(2)
    assert leibniz_failure(u2, Matrix.identity(3)) is not None


def test_lie_closure_rejects_non_derivation():
    # the message names the derivation and the pair in 1-based indices
    with pytest.raises(NotADerivation, match=r"^derivation id: .* pair \(1, 1\)$") as exc:
        lie_closure(ut(2), [Derivation(Matrix.identity(3), name="id")])
    assert exc.value.pair == (0, 0)


def _leibniz_oracle(alg: StructureAlgebra, m: Matrix) -> bool:
    """D(e_i e_j) = D(e_i) e_j + e_i D(e_j) on every basis pair, in
    Fractions straight from the constants; D(e_i) is row i of m."""
    c, d, r = alg.constants, m.entries, range(alg.dim)
    return all(
        [sum(c[i][j][a] * d[a][k] for a in r) for k in r]
        == [sum(d[i][a] * c[a][j][k] + d[j][a] * c[i][a][k] for a in r) for k in r]
        for i in r
        for j in r
    )


def _associative_oracle(c: list) -> bool:
    """(e_i e_j) e_k = e_i (e_j e_k) on every basis triple, in Fractions
    straight from the constants c."""
    r = range(len(c))
    return all(
        [sum(c[i][j][a] * c[a][k][b] for a in r) for b in r]
        == [sum(c[j][k][a] * c[i][a][b] for a in r) for b in r]
        for i in r
        for j in r
        for k in r
    )


@seed(23)
@settings(max_examples=10, deadline=None)
@given(data=st.data(), basis_rng=st.randoms(use_true_random=False))
def test_checks_on_integer_forms_in_a_rational_basis(data, basis_rng):
    # battery algebras moved to a basis with denominators, so that the
    # constants' D_c and each derivation's d exceed 1
    acted = [f for f in battery_fixtures() if f[2].closure_basis]
    label, alg, act = data.draw(st.sampled_from(acted))
    p, p_inv = _invertible(alg.dim, basis_rng)
    moved = _in_basis(alg, p, p_inv)  # StructureAlgebra with its checks on
    ders = [p * d.matrix * p_inv for d in act.closure_basis]
    assume(moved.integer_table[0] > 1 and all(m.integer_form[0] > 1 for m in ders))
    for m in ders:
        assert leibniz_failure(moved, m) is None and _leibniz_oracle(moved, m), label

    n = moved.dim
    i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    constants = [[list(cell) for cell in row] for row in moved.constants]
    constants[i][j][k] += 1
    assert not _associative_oracle(constants), label
    with pytest.raises(NotAssociative):
        StructureAlgebra(constants)

    a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    entries = [list(row) for row in data.draw(st.sampled_from(ders)).entries]
    entries[a][b] += 1
    bad = Matrix.from_rows(entries)
    assert not _leibniz_oracle(moved, bad), label
    assert leibniz_failure(moved, bad) is not None, label


def test_metabelian_closure_of_der_ut2():
    u2 = ut(2)
    eps = ad_unit(u2, 2, 2, name="eps")
    delta = ad_unit(u2, 1, 2, name="delta")
    act = lie_closure(u2, [eps, delta])
    assert act.closure_dim == 2
    # [eps, delta] lies back in the span, so the closure added nothing
    assert act.envelope.dim == 3
    assert act.envelope.word_reps[0] == ()


@seed(28)
@settings(max_examples=20, deadline=None)
@given(names=st.lists(st.sampled_from(["d0", "d1", "d2", "d3", "f"]), min_size=2, max_size=2,
                      unique=True))
def test_commutator_names_avoid_every_input_name(names):
    """ad e12 and ad e21 of mat2 close to three elements, their commutator
    third; whatever d<i> names the inputs carry, the closure keeps them and
    its commutator takes a name of neither."""
    m2 = full_matrix(2)
    gens = [ad_unit(m2, 1, 2, name=names[0]), ad_unit(m2, 2, 1, name=names[1])]
    closure = [d.name for d in lie_closure(m2, gens).closure_basis]
    assert closure[:2] == names and len(closure) == 3
    assert closure[2] not in names and closure[2].startswith("d")


def test_bracket_constants_match_matrices():
    u2 = ut(2)
    act = lie_closure(u2, [ad_unit(u2, 2, 2), ad_unit(u2, 1, 2)])
    for a in range(2):
        for b in range(2):
            lhs = (
                act.closure_basis[a].matrix * act.closure_basis[b].matrix
                - act.closure_basis[b].matrix * act.closure_basis[a].matrix
            )
            rhs = Matrix.zero(3, 3)
            for k, c in enumerate(act.bracket_constants[a][b]):
                rhs = rhs + act.closure_basis[k].matrix.scale(c)
            assert lhs == rhs


def test_envelope_multiplicatively_closed():
    u2 = ut(2)
    act = lie_closure(u2, [ad_unit(u2, 2, 2)])
    env = act.envelope
    assert env.dim == 2
    for a in env.op_basis:
        for b in env.op_basis:
            assert env.expand(a * b) is not None


def _combination(mats, coeffs, n):
    total = Matrix.zero(n, n)
    for m, c in zip(mats, coeffs):
        if c:
            total = total + m.scale(c)
    return total


def test_battery_right_action_reconstructs_products():
    # right[g][i] recombines op_basis into op_basis[i] * g
    for label, alg, act in battery_fixtures():
        env = act.envelope
        assert len(env.right) == act.closure_dim, label
        for d, images in zip(act.closure_basis, env.right):
            assert len(images) == env.dim, label
            for op, coords in zip(env.op_basis, images):
                coeffs = [coords.get(k, 0) for k in range(env.dim)]
                assert _combination(env.op_basis, coeffs, alg.dim) == op * d.matrix, label


def test_battery_bracket_constants_reconstruct_commutators():
    for label, alg, act in battery_fixtures():
        mats = [d.matrix for d in act.closure_basis]
        for a, row in zip(mats, act.bracket_constants):
            for b, coeffs in zip(mats, row):
                assert _combination(mats, coeffs, alg.dim) == a * b - b * a, label


def _dense_product(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _dense_bracket(a, b):
    ab, ba = _dense_product(a, b), _dense_product(b, a)
    return [[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)]


def _fraction_rows(m):
    return {i * len(row) + j: x for i, row in enumerate(m) for j, x in enumerate(row) if x}


def _fraction_lie_closure(generators, dim):
    """The Lie closure, its names, bracket constants and envelope computed
    on Fraction entries: products and brackets as triple loops, every row
    fed to the eliminators as Fractions and every solve read as is."""
    mats, sources, solver = [], [], SparseRREF(tagged=True)
    queue = [d.matrix.entries for d in generators]
    for q, m in enumerate(queue):
        if solver.add_row(_fraction_rows(m), tag=len(mats)):
            mats.append(m)
            sources.append(q)
            queue.extend(_dense_bracket(other, m) for other in mats)
    taken, names = {d.name for d in generators}, []
    for i, q in enumerate(sources):
        if q < len(generators):
            names.append(generators[q].name)
            continue
        j = i
        while f"d{j}" in taken:
            j += 1
        names.append(f"d{j}")
        taken.add(f"d{j}")
    k = len(mats)
    brackets = [
        [
            [solver.solve(_fraction_rows(_dense_bracket(a, b))).get(i, 0) for i in range(k)]
            for b in mats
        ]
        for a in mats
    ]
    ident = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    env_solver = SparseRREF(tagged=True)
    env_solver.add_row(_fraction_rows(ident), tag=0)
    ops, words, right = [ident], [()], [[] for _ in mats]
    for bi, op in enumerate(ops):
        for gi, g in enumerate(mats):
            m = _dense_product(op, g)
            coords = env_solver.solve(_fraction_rows(m))
            if coords is None:
                coords = {len(ops): 1}
                env_solver.add_row(_fraction_rows(m), tag=len(ops))
                ops.append(m)
                words.append(words[bi] + (gi,))
            right[gi].append(coords)
    return mats, names, brackets, ops, words, right


@pytest.mark.parametrize("index", range(25))
def test_battery_lie_closure_matches_the_fraction_oracle(index):
    label, alg, act = battery_fixtures()[index]
    mats, names, brackets, ops, words, right = _fraction_lie_closure(act.generators, alg.dim)
    assert [d.matrix.entries for d in act.closure_basis] == mats, label
    assert [d.name for d in act.closure_basis] == names, label
    assert act.bracket_constants == brackets, label
    env = act.envelope
    assert [op.entries for op in env.op_basis] == ops, label
    assert env.word_reps == words, label
    assert env.right == right, label


def test_battery_expand_rejects_matrix_outside_envelope():
    """Derivations kill the unit u, so every envelope operator maps u into
    F*u; a matrix unit E_ij with u_i != 0 and e_j not parallel to u does not,
    so it lies outside the envelope."""
    for label, alg, act in battery_fixtures():
        u = alg.unit_vector
        i = next(k for k, x in enumerate(u) if x)
        # e_j is parallel to u only when u is supported on j alone
        j = next(k for k in range(alg.dim) if any(x for m, x in enumerate(u) if m != k))
        outside = Matrix.from_rows(
            [[int((r, c) == (i, j)) for c in range(alg.dim)] for r in range(alg.dim)]
        )
        assert act.envelope.expand(outside) is None, label


def test_word_reps_realize_operators():
    u2 = ut(2)
    act = lie_closure(u2, [ad_unit(u2, 2, 2), ad_unit(u2, 1, 2)])
    for op, word in zip(act.envelope.op_basis, act.envelope.word_reps):
        m = Matrix.identity(3)
        for letter in word:
            m = m * act.closure_basis[letter].matrix
        assert m == op


def test_trivial_action_envelope_is_scalars():
    g = truncated_grassmann(2)
    act = trivial_action(g)
    assert act.closure_dim == 0
    assert act.envelope.dim == 1


def test_subspace_under_action_variants():
    u2 = ut(2)
    act = lie_closure(u2, [ad_unit(u2, 2, 2)])
    span_e11 = Subspace.from_vectors(3, [[1, 0, 0]])
    with_id = subspace_under_action(span_e11, act.envelope, include_identity=True)
    without = subspace_under_action(span_e11, act.envelope, include_identity=False)
    assert with_id.contains(without)
    assert with_id.dim >= span_e11.dim
    # on integer rows, the span of op.apply(b) over the operators and the basis
    for label, alg, act in battery_fixtures():
        env, n = act.envelope, alg.dim
        dense_vector = [Fraction(i + 1, 2 - i % 2) for i in range(n)]
        for s in (Subspace.from_vectors(n, [alg.basis_vector(0), dense_vector]), Subspace.full(n)):
            for include_identity in (True, False):
                ops = [op for op, w in zip(env.op_basis, env.word_reps) if include_identity or w]
                dense = Subspace.from_vectors(n, [op.apply(b) for op in ops for b in s.basis])
                assert subspace_under_action(s, env, include_identity) == dense, label


def test_builtin_dimensions():
    assert ut(3).dim == 6
    assert full_matrix(2).dim == 4
    assert truncated_grassmann(2).dim == 4
    assert direct_sum(ut(2), full_matrix(2)).dim == 7


def test_direct_sum_annihilating_summands():
    ds = direct_sum(ut(2), full_matrix(2))
    left = [Fraction(1)] * 3 + [Fraction(0)] * 4
    right = [Fraction(0)] * 3 + [Fraction(1)] * 4
    assert ds.multiply(left, right) == [Fraction(0)] * 7


def test_grassmann_anticommutes():
    g = truncated_grassmann(2)
    e1 = g.basis_vector(1)
    e2 = g.basis_vector(2)
    assert g.multiply(e1, e1) == [Fraction(0)] * 4
    prod = g.multiply(e1, e2)
    flipped = g.multiply(e2, e1)
    assert prod == [-x for x in flipped]
