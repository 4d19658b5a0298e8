import copy
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, seed, settings, strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from diffident.algebra import commutator
from diffident.errors import AmbientMismatch
from diffident.linalg import (
    Matrix,
    SparseRREF,
    Subspace,
    draw_prime,
    integer_vector,
    left_kernel,
    rref,
)

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


def qq(rows, ncols):
    """Rational rows as a sympy DomainMatrix over QQ, the exact oracle that
    rref, left_kernel and SparseRREF are checked against."""
    rows = [[Fraction(x) for x in r] for r in rows]
    return DomainMatrix(
        [[QQ(x.numerator, x.denominator) for x in r] for r in rows], (len(rows), ncols), QQ
    )


def fractions(dm):
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in r] for r in dm.to_list()]


def random_matrix(seed, rows=None, cols=None):
    rng = random.Random(seed)
    rows = rows or rng.randint(1, 6)
    cols = cols or rng.randint(1, 6)
    return Matrix.from_rows(
        [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


class TestRref:
    def test_identity_fixed_point(self):
        m = Matrix.identity(4)
        r, rank, pivots = rref(m)
        assert r == m and rank == 4 and pivots == [0, 1, 2, 3]

    @pytest.mark.parametrize("seed", range(25))
    def test_idempotent(self, seed):
        m = random_matrix(seed)
        r1, rank1, p1 = rref(m)
        r2, rank2, p2 = rref(r1)
        assert r1 == r2
        assert (rank1, p1) == (rank2, p2)

    def test_zero_matrix(self):
        _, rank, pivots = rref(Matrix.zero(3, 5))
        assert rank == 0 and pivots == []


class TestModularRank:
    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_exact(self, seed):
        m = random_matrix(seed)
        rr = SparseRREF(prime=draw_prime(seed, m.integer_form[0]))
        for row in m.entries:
            rr.add_row(dict(enumerate(row)))
        assert rr.rank == qq(m.entries, m.cols).rank()

    @given(
        st.sampled_from([2, 3, 5, 7]),
        st.integers(1, 5).flatmap(
            lambda cols: st.lists(
                st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
                min_size=1,
                max_size=5,
            )
        ),
    )
    @seed(11)
    @settings(max_examples=150, deadline=None)
    def test_rank_modulo_a_prime_is_a_lower_bound(self, prime, rows):
        rr = SparseRREF(prime=prime)
        for row in rows:
            rr.add_row(dict(enumerate(row)))
        assert rr.rank <= qq(rows, len(rows[0])).rank()

    def test_rank_modulo_a_prime_can_be_strictly_lower(self):
        # det [[1, 1], [1, 4]] = 3
        rr = SparseRREF(prime=3)
        for row in ([1, 1], [1, 4]):
            rr.add_row(dict(enumerate(row)))
        assert rr.rank == 1 < qq([[1, 1], [1, 4]], 2).rank() == 2


class TestSubspace:
    @given(
        st.integers(2, 5),
        st.integers(0, 2**30),
    )
    @settings(max_examples=60, deadline=None)
    def test_dimension_formula(self, n, seed):
        rng = random.Random(seed)
        mk = lambda: Subspace.from_vectors(
            n,
            [
                [Fraction(rng.randint(-2, 2)) for _ in range(n)]
                for _ in range(rng.randint(0, n))
            ],
        )
        u, w = mk(), mk()
        assert u.dim + w.dim == u.sum(w).dim + u.intersect(w).dim

    def test_intersection_is_lower_bound(self):
        u = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
        w = Subspace.from_vectors(3, [[0, 1, 0], [0, 0, 1]])
        i = u.intersect(w)
        assert i.dim == 1
        assert u.contains(i) and w.contains(i)

    def test_membership_and_reduce(self):
        s = Subspace.from_vectors(3, [[1, 1, 0], [0, 0, 1]])
        assert s.member([2, 2, 5])
        assert not s.member([1, 0, 0])
        assert s.reduce([2, 2, 5]) == [0, 0, 0]

    def test_ambient_mismatch(self):
        u = Subspace.from_vectors(3, [[1, 0, 0]])
        w = Subspace.from_vectors(4, [[1, 0, 0, 0]])
        with pytest.raises(AmbientMismatch):
            u.sum(w)

    def test_canonical_equality(self):
        a = Subspace.from_vectors(3, [[1, 1, 0], [0, 2, 0]])
        b = Subspace.from_vectors(3, [[3, 0, 0], [5, 1, 0]])
        assert a == b

    def test_frozen(self):
        s = Subspace.from_vectors(2, [[1, 2]])
        with pytest.raises(AttributeError):
            s.basis = ()


class TestLeftKernel:
    def test_kernel_annihilates(self):
        m = random_matrix(7, rows=5, cols=3)
        ker = left_kernel(m)
        for v in ker.basis:
            assert all(x == 0 for x in m.apply(list(v)))

    def test_rank_nullity(self):
        for seed in range(10):
            m = random_matrix(seed, rows=4, cols=4)
            assert left_kernel(m).dim == 4 - qq(m.entries, 4).rank()


class TestSparseRREF:
    def test_matches_dense_rank(self):
        for seed in range(15):
            m = random_matrix(seed)
            rr = SparseRREF()
            for row in m.entries:
                rr.add_row({j: v for j, v in enumerate(row) if v})
            assert rr.rank == qq(m.entries, m.cols).rank()

    def test_kernel_combinations_vanish(self):
        m = random_matrix(3, rows=6, cols=3)
        rr = SparseRREF(track_kernel=True)
        for i, row in enumerate(m.entries):
            rr.add_row({j: v for j, v in enumerate(row) if v}, tag=i)
        assert rr.kernel, "a 6x3 matrix must have left-kernel vectors"
        for combo in rr.kernel:
            total = [Fraction(0)] * 3
            for tag, c in combo.items():
                total = [t + c * x for t, x in zip(total, m.entries[tag])]
            assert all(x == 0 for x in total)

    def test_modular_mode(self):
        m = random_matrix(11)
        rr = SparseRREF(prime=(1 << 31) - 1)
        for row in m.entries:
            rr.add_row({j: v for j, v in enumerate(row) if v})
        assert rr.rank == qq(m.entries, m.cols).rank()
        with pytest.raises(ValueError):
            rr.reduced_basis()


@st.composite
def rational_matrices(draw):
    """Small rational matrices, possibly empty, with zero rows and with
    repeated rows scaled by a rational."""
    ncols = draw(st.integers(0, 5))
    row = st.lists(rationals, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(st.one_of(row, st.just([0] * ncols)), max_size=6))
    if rows:
        repeats = draw(st.lists(st.tuples(st.integers(0, 5), rationals), max_size=3))
        rows += [[c * x for x in rows[i % len(rows)]] for i, c in repeats]
    return Matrix(len(rows), ncols, rows)


@st.composite
def product_operands(draw):
    """Two conformable matrices of any shape up to 5 x 5, zero rows and
    columns included, with entries of denominator at most 7."""
    rows, inner, cols = (draw(st.integers(0, 5)) for _ in range(3))
    entry = st.one_of(st.just(Fraction(0)), st.fractions(-6, 6, max_denominator=7))
    left = [[draw(entry) for _ in range(inner)] for _ in range(rows)]
    right = [[draw(entry) for _ in range(cols)] for _ in range(inner)]
    return Matrix(rows, inner, left), Matrix(inner, cols, right)


class TestMatrixProduct:
    @seed(10)
    @settings(max_examples=60, deadline=None)
    @given(product_operands())
    def test_matches_the_fraction_triple_loop(self, operands):
        a, b = operands
        expected = [
            [sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), Fraction(0))
             for j in range(b.cols)]
            for i in range(a.rows)
        ]
        product = a * b
        assert (product.rows, product.cols) == (a.rows, b.cols)
        assert product.entries == expected
        assert all(type(x) is Fraction for row in product.entries for x in row)

    def test_mismatched_inner_dimensions_raise(self):
        with pytest.raises(ValueError, match="inner dimensions differ"):
            random_matrix(1, rows=2, cols=3) * random_matrix(2, rows=2, cols=3)


@st.composite
def matrix_and_vector(draw):
    """A matrix up to 5 x 5 with entries of denominator at most 7, zeros
    included, and a row vector of its height mixing ints and Fractions."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.one_of(st.just(Fraction(0)), st.fractions(-6, 6, max_denominator=7))
    m = Matrix(rows, cols, [[draw(entry) for _ in range(cols)] for _ in range(rows)])
    return m, [draw(st.one_of(entry, st.integers(-3, 3))) for _ in range(rows)]


class TestMatrixApply:
    @seed(12)
    @settings(max_examples=60, deadline=None)
    @given(matrix_and_vector())
    def test_matches_the_fraction_loop(self, operands):
        m, vec = operands
        expected = [Fraction(0)] * m.cols
        for i, a in enumerate(vec):
            for j, b in enumerate(m.entries[i]):
                expected[j] += a * b
        out = m.apply(vec)
        assert out == expected
        assert all(type(x) is Fraction for x in out)

    def test_mismatched_length_raises(self):
        with pytest.raises(ValueError, match="vector length"):
            Matrix.identity(3).apply([1, 2])


class TestIntegerForm:
    @seed(13)
    @settings(max_examples=60, deadline=None)
    @given(product_operands())
    def test_clears_denominators_once(self, operands):
        for m in operands:
            d, rows = m.integer_form
            entries = [x for row in m.entries for x in row]
            assert d == lcm(*(x.denominator for x in entries))
            assert len(rows) == m.rows
            for row, listed in zip(m.entries, rows):
                assert all(type(x) is int and x for _j, x in listed)
                assert {j: Fraction(x, d) for j, x in listed} == {
                    j: x for j, x in enumerate(row) if x
                }
            assert m.integer_form is m.integer_form


@st.composite
def square_pairs(draw):
    """Two square matrices of one size up to 4, with zero rows and entries
    whose denominators cancel: each row of the second is a drawn multiple
    of a row of the first or a fresh row."""
    n = draw(st.integers(0, 4))
    entry = st.one_of(st.just(Fraction(0)), st.fractions(-6, 6, max_denominator=12))
    row = st.lists(entry, min_size=n, max_size=n)
    a = [draw(st.one_of(row, st.just([Fraction(0)] * n))) for _ in range(n)]
    scale = st.sampled_from([Fraction(0), Fraction(6), Fraction(-3, 2), Fraction(4, 9)])
    b = [
        draw(st.one_of(row, st.builds(lambda c, r: [c * x for x in r], scale, st.sampled_from(a))))
        for _ in range(n)
    ]
    return a, b


def _fraction_product(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b))]
        for i in range(len(a))
    ]


class TestIntegerFormArithmetic:
    @seed(30)
    @settings(max_examples=80, deadline=None)
    @given(square_pairs())
    def test_entries_and_forms_match_a_fraction_computation(self, pair):
        a, b = pair
        n = len(a)
        left, right = Matrix(n, n, a), Matrix(n, n, b)
        ab, ba = _fraction_product(a, b), _fraction_product(b, a)
        expected = {
            "*": ab,
            "+": [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)],
            "-": [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)],
            "commutator": [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)],
        }
        got = {
            "*": left * right,
            "+": left + right,
            "-": left - right,
            "commutator": commutator(left, right),
        }
        for op, m in got.items():
            assert (m.rows, m.cols) == (n, n), op
            assert m.entries == expected[op], op
            assert all(type(x) is Fraction for row in m.entries for x in row), op
            # the form recomputed from the entries: the same d and rows
            recomputed = Matrix(n, n, expected[op])
            assert m.integer_form == recomputed.integer_form, op
            assert hash(m) == hash(recomputed), op

    def test_cancelling_denominators_leave_the_least_d(self):
        half = Matrix(2, 2, [[Fraction(1, 2), 0], [0, Fraction(3, 2)]])
        total = half + half
        assert total.integer_form == (1, [[(0, 1)], [(1, 3)]])
        assert (half - half).integer_form == (1, [[], []])


@pytest.mark.parametrize(
    "vec",
    [
        [0, 0, 0],
        [Fraction(0)] * 3,
        [],
        [1, 0, -4],
        [Fraction(3), Fraction(0), Fraction(-2)],
        [Fraction(1, 2), 3, Fraction(0), Fraction(-5, 6), Fraction(7)],
        [Fraction(-9, 4), 0, Fraction(1, 4)],
    ],
)
def test_integer_vector_matches_its_definition(vec):
    """(d, {b: d * vec[b]}) over the nonzero entries, d the lcm of their
    denominators, every value an int."""
    nonzero = {b: Fraction(x) for b, x in enumerate(vec) if x}
    d, out = integer_vector(vec)
    assert d == lcm(*(x.denominator for x in nonzero.values()))
    assert out == {b: d * x for b, x in nonzero.items()}
    assert all(type(x) is int for x in out.values())


class TestAgainstSympy:
    @seed(4)
    @settings(max_examples=150, deadline=None)
    @given(rational_matrices())
    def test_rref_matches(self, m):
        reduced, rank, pivots = rref(m)
        expected, expected_pivots = qq(m.entries, m.cols).rref()
        assert pivots == list(expected_pivots) and rank == len(pivots)
        assert reduced.entries == fractions(expected)

    @seed(5)
    @settings(max_examples=150, deadline=None)
    @given(rational_matrices())
    def test_left_kernel_is_nullspace_of_transpose(self, m):
        null = qq(m.entries, m.cols).transpose().nullspace()
        canonical, pivots = qq(fractions(null), m.rows).rref()
        ker = left_kernel(m)
        assert ker.ambient_dim == m.rows
        assert ker.pivot_columns == tuple(pivots)
        assert [list(v) for v in ker.basis] == fractions(canonical)[: len(pivots)]

    @seed(6)
    @settings(max_examples=150, deadline=None)
    @given(rational_matrices(), st.randoms(use_true_random=False))
    def test_subspace_ignores_row_order_and_scale(self, m, rng):
        scales = [rng.choice([-3, -1, Fraction(1, 2), 2, 5]) for _ in m.entries]
        rows = [[c * x for x in r] for c, r in zip(scales, m.entries)]
        rng.shuffle(rows)
        moved = Subspace.from_vectors(m.cols, rows)
        original = Subspace.from_vectors(m.cols, m.entries)
        assert moved == original
        assert (moved.basis, moved.pivot_columns) == (original.basis, original.pivot_columns)
        # rows are the primitive integer forms of the reduced row-echelon rows
        leads = set(moved.pivot_columns)
        for lead, row in moved.rows:
            assert all(type(x) is int and x for x in row.values())
            assert row[lead] > 0 and gcd(*row.values()) == 1
            assert leads & set(row) == {lead}
        expected, pivots = qq(m.entries, m.cols).rref()
        assert moved.pivot_columns == tuple(pivots)
        assert [list(v) for v in moved.basis] == fractions(expected)[: len(pivots)]
        # == compares rows, and agrees with equality of the dense bases
        for other in (Subspace.from_vectors(m.cols, rows[1:]), Subspace.zero(m.cols)):
            assert (other == moved) == (other.basis == moved.basis)
        # sum, contains and image read the integer rows; each agrees with its
        # definition on the dense bases
        half = Subspace.from_vectors(m.cols, rows[: len(rows) // 2])
        dense_sum = Subspace.from_vectors(m.cols, list(half.basis) + list(moved.basis))
        assert half.sum(moved) == moved.sum(half) == dense_sum
        for big, small in ((moved, half), (half, moved), (half, Subspace.zero(m.cols))):
            assert big.contains(small) == all(big.member(v) for v in small.basis)
        cols = rng.randint(1, 4)
        action = Matrix.from_rows(
            [[rng.choice([0, 0, 1, -2, Fraction(3, 4)]) for _ in range(cols)] for _ in range(m.cols)]
        )
        dense_image = Subspace.from_vectors(action.cols, [action.apply(v) for v in moved.basis])
        assert moved.image(action) == dense_image


class _IntegerOnly(SparseRREF):
    """An exact eliminator that fails if its reduction loop ever holds a
    value other than an int."""

    def _reduce(self, row, combo):
        assert all(type(v) is int for v in row.values())
        assert combo is None or all(type(v) is int for v in combo.values())
        out, lead, combo, den = super()._reduce(row, combo)
        assert all(type(v) is int for v in out.values()) and type(den) is int
        assert combo is None or all(type(v) is int for v in combo.values())
        return out, lead, combo, den


def _feed_exact(m, track_kernel):
    rr = _IntegerOnly(track_kernel=track_kernel)
    for i, row in enumerate(m.entries):
        rr.add_row(dict(enumerate(row)), tag=i)
    return rr


class TestFractionFree:
    """The exact eliminator works on integers: pivot rows are primitive with
    a positive lead, tag combinations are integers over one denominator per
    pivot, and Fractions appear only in what solve and kernel read out."""

    @seed(7)
    @settings(max_examples=80, deadline=None)
    @given(rational_matrices(), st.booleans())
    def test_pivot_rows_are_primitive_integer_rows(self, m, tagged):
        rr = _feed_exact(m, tagged)
        for lead, (row, combo, den) in rr._pivots.items():
            assert all(type(v) is int for v in row.values())
            assert min(row) == lead and row[lead] > 0
            assert gcd(*row.values()) == 1
            if not tagged:
                continue
            assert all(type(v) is int for v in combo.values())
            assert type(den) is int and den > 0
            # den * row is the combination of the rational input rows
            total = [sum(c * m.entries[t][j] for t, c in combo.items()) for j in range(m.cols)]
            assert total == [den * row.get(j, 0) for j in range(m.cols)]

    @seed(8)
    @settings(max_examples=80, deadline=None)
    @given(rational_matrices())
    def test_kernel_is_sympy_nullspace_of_transpose(self, m):
        rr = _feed_exact(m, True)
        for combo in rr.kernel:
            # a dependent row's own tag comes after every pivot tag it uses
            assert combo[max(combo)] == 1
            assert all(type(v) is Fraction for v in combo.values())
        null = fractions(qq(m.entries, m.cols).transpose().nullspace())
        assert [[combo.get(t, 0) for t in range(m.rows)] for combo in rr.kernel] == null

    @seed(9)
    @settings(max_examples=80, deadline=None)
    @given(rational_matrices(), st.randoms(use_true_random=False))
    def test_solve_reconstructs_rescaled_rows(self, m, rng):
        rr = _feed_exact(m, True)
        for row in m.entries:
            c = rng.choice([-3, Fraction(-2, 7), Fraction(1, 2), 5])
            target = [c * x for x in row]
            combo = rr.solve(dict(enumerate(target)))
            assert all(type(v) is Fraction for v in combo.values())
            total = [sum(v * m.entries[t][j] for t, v in combo.items()) for j in range(m.cols)]
            assert total == target


PRIME = (1 << 31) - 1


@st.composite
def span_problems(draw):
    """(basis, target): small integer or rational rows, and a target that is
    a combination of them or a free vector."""
    entries = draw(st.sampled_from([st.integers(-3, 3), rationals]))
    ncols = draw(st.integers(1, 5))
    vector = st.lists(entries, min_size=ncols, max_size=ncols)
    basis = draw(st.lists(vector, max_size=5))
    if basis and draw(st.booleans()):
        coeffs = draw(st.lists(entries, min_size=len(basis), max_size=len(basis)))
        target = [sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(ncols)]
    else:
        target = draw(vector)
    return basis, target


def _fed(basis, prime):
    rr = SparseRREF(prime=prime, tagged=True)
    for i, row in enumerate(basis):
        rr.add_row(dict(enumerate(row)), tag=i)
    return rr


def _residue(x, prime):
    x = Fraction(x)
    return x if prime is None else x.numerator * pow(x.denominator, -1, prime) % prime


class _CountingSteps(SparseRREF):
    """An eliminator that records, for each _reduce, the leads the coerced
    row holds and the elimination steps taken."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.steps = 0
        self.reductions: list = []

    def _take_off(self, *args):
        self.steps += 1
        return super()._take_off(*args)

    def _reduce(self, row, combo):
        held, before = len(row.keys() & self._pivots.keys()), self.steps
        out = super()._reduce(row, combo)
        self.reductions.append((held, self.steps - before))
        return out


@pytest.mark.parametrize("prime", [None, PRIME], ids=["exact", "modular"])
@pytest.mark.parametrize("tagged", [False, True], ids=["untagged", "tagged"])
class TestFullyReducedPivots:
    """Every stored pivot row is zero at every other lead, so a row is
    reduced in one step per lead it holds, and the pivots still satisfy
    den * row = the combination of the input rows."""

    @seed(14)
    @settings(max_examples=80, deadline=None)
    @given(rational_matrices())
    # the second pivot fills the first row at column 2, the third pivot's lead
    @example(Matrix(3, 4, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0]]))
    def test_pivots_stay_reduced_and_steps_match_leads(self, prime, tagged, m):
        rr = _CountingSteps(prime=prime, tagged=tagged)
        for i, row in enumerate(m.entries):
            rr.add_row(dict(enumerate(row)), tag=i)
            leads = set(rr._pivots)
            for lead, (prow, combo, den) in rr._pivots.items():
                assert leads & set(prow) == {lead}
                assert min(prow) == lead
                if prime is None:
                    assert prow[lead] > 0 and gcd(*prow.values()) == 1
                else:
                    assert prow[lead] == 1
                if not tagged:
                    continue
                total = [
                    sum(c * _residue(m.entries[t][j], prime) for t, c in combo.items())
                    for j in range(m.cols)
                ]
                expected = [den * prow.get(j, 0) for j in range(m.cols)]
                if prime is not None:
                    total = [x % prime for x in total]
                assert total == expected
        assert all(held == steps for held, steps in rr.reductions)
        assert len(rr.reductions) == m.rows


@pytest.mark.parametrize("prime", [None, PRIME], ids=["exact", "modular"])
class TestSparseRREFSolve:
    @seed(1)
    @settings(max_examples=80, deadline=None)
    @given(span_problems())
    def test_combination_reconstructs_target(self, prime, problem):
        basis, target = problem
        combo = _fed(basis, prime).solve(dict(enumerate(target)))
        if combo is None:
            return
        total = [
            sum(c * _residue(basis[t][j], prime) for t, c in combo.items())
            for j in range(len(target))
        ]
        if prime is not None:
            total = [x % prime for x in total]
        assert total == [_residue(x, prime) for x in target]

    @seed(2)
    @settings(max_examples=80, deadline=None)
    @given(span_problems())
    def test_none_exactly_when_add_row_raises_rank(self, prime, problem):
        basis, target = problem
        combo = _fed(basis, prime).solve(dict(enumerate(target)))
        assert (combo is None) == _fed(basis, prime).add_row(dict(enumerate(target)))

    @seed(3)
    @settings(max_examples=80, deadline=None)
    @given(span_problems())
    def test_solve_leaves_eliminator_unchanged(self, prime, problem):
        basis, target = problem
        rr = _fed(basis, prime)
        before = (rr.rank, copy.deepcopy(rr._pivots))
        rr.solve(dict(enumerate(target)))
        assert (rr.rank, rr._pivots) == before

    def test_needs_tags(self, prime):
        with pytest.raises(ValueError):
            SparseRREF(prime=prime).solve({0: 1})
