from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from diffident.algebra import (
    StructureAlgebra,
    ad_unit,
    direct_sum,
    full_matrix,
    lie_closure,
    truncated_grassmann,
    ut,
)
from diffident.cli import main
from diffident.errors import NonSplitCenter
from diffident.exponent import exp_differential, exp_ordinary
from diffident.fileformat import AlgebraFile

from diffident.structure import (
    center,
    check_block_action,
    quotient_by_ideal,
    radical,
    semisimple_blocks,
    wedderburn_malcev,
)

F0, F1 = Fraction(0), Fraction(1)


def _algebra_with_nilpotent_part():
    """span{a, j}: a^2 = a + j, aj = ja = j, j^2 = 0.

    Modulo the radical span{j} the image of a is idempotent; lifting it back
    must produce e = a - j, which squares to itself on the nose.
    """
    c = [[[F0, F0], [F0, F0]] for _ in range(2)]
    c[0][0] = [F1, F1]  # a*a = a + j
    c[0][1] = [F0, F1]  # a*j = j
    c[1][0] = [F0, F1]  # j*a = j
    return StructureAlgebra(c, label="lift-fixture")


def _polynomial_algebra(f):
    """(Q[x]/(f), x) in the basis 1, x, ..., x^(d-1), for monic f given
    constant term first."""
    d = len(f) - 1
    powers = [[F1] + [F0] * (d - 1)]  # x^k reduced modulo f
    for _ in range(max(2 * d - 2, 1)):
        top = powers[-1][-1]
        shifted = [F0] + powers[-1][:-1]
        powers.append([a - top * c for a, c in zip(shifted, f)])
    c = [[powers[i + j] for j in range(d)] for i in range(d)]
    return StructureAlgebra(c, unit_vector=powers[0], label="Q[x]/(f)"), powers[1]


def _times(p, q):
    out = [F0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _with_roots(roots):
    f = [F1]
    for r in roots:
        f = _times(f, [-r, F1])
    return f


distinct_roots = st.lists(
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 50)),
    min_size=1,
    max_size=4,
    unique=True,
)


class TestRadical:
    def test_ut2(self):
        j = radical(ut(2))
        assert j.dim == 1
        assert j.member([0, 1, 0])

    def test_semisimple_algebras_have_zero_radical(self):
        assert radical(full_matrix(2)).is_zero()
        assert radical(full_matrix(3)).is_zero()

    def test_grassmann(self):
        assert radical(truncated_grassmann(2)).dim == 3

    def test_radical_is_an_ideal(self):
        alg = ut(3)
        j = radical(alg)
        for v in j.basis:
            for i in range(alg.dim):
                e = alg.basis_vector(i)
                assert j.member(alg.multiply(list(v), e))
                assert j.member(alg.multiply(e, list(v)))


class TestQuotient:
    def test_ut2_mod_radical(self):
        alg = ut(2)
        q = quotient_by_ideal(alg, radical(alg))
        assert q.algebra.dim == 2
        # the quotient of ut2 by its radical is F x F
        for i in range(2):
            e = q.algebra.basis_vector(i)
            assert q.algebra.multiply(e, e) == e


class TestBlocks:
    def test_mat2_is_one_block(self):
        blocks = semisimple_blocks(full_matrix(2))
        assert [b.dim for b in blocks] == [4]

    def test_nilpotent_algebra_has_no_blocks(self, tmp_path, capsys):
        # e1 e3 = e2, all other products zero: A/J = 0 has no blocks, not one
        # zero block
        c = [[[F0] * 3 for _ in range(3)] for _ in range(3)]
        c[0][2] = [F0, F1, F0]
        alg = StructureAlgebra(c, label="nil3")
        assert semisimple_blocks(quotient_by_ideal(alg, radical(alg)).algebra) == []
        wd = wedderburn_malcev(alg)
        assert (wd.radical.dim, wd.blocks, wd.block_units) == (3, [], [])
        act = lie_closure(alg, [])
        assert (exp_ordinary(alg).value, exp_differential(alg, act).value) == (0, 0)
        path = tmp_path / "nil3.alg"
        path.write_text(AlgebraFile.from_algebra("nil3", alg).serialize())
        assert main(["decompose", str(path)]) == 0
        out = capsys.readouterr().out
        assert "\nblocks\n" in out and "block 1" not in out

    def test_nonsplit_center_detected(self):
        # Q[s]/(s^2 - 2), a field extension: no rational block split exists
        with pytest.raises(NonSplitCenter, match="degree 2 but 0 rational roots"):
            semisimple_blocks(_polynomial_algebra([-2, 0, 1])[0])

    def test_nonsplit_center_exits_2_from_the_cli(self, tmp_path, capsys):
        path = tmp_path / "sqrt2.alg"
        alg = _polynomial_algebra([-2, 0, 1])[0]
        path.write_text(AlgebraFile.from_algebra("Q(sqrt2)", alg).serialize())
        assert main(["decompose", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error input: ") and "rational roots" in err
        assert "Traceback" not in err

    @seed(14)
    @settings(max_examples=25, deadline=None)
    @given(roots=distinct_roots)
    def test_split_polynomial_algebra_has_a_block_per_root(self, roots):
        alg, x = _polynomial_algebra(_with_roots(roots))
        assert [b.dim for b in semisimple_blocks(alg)] == [1] * len(roots)
        units = wedderburn_malcev(alg).block_units
        assert [sum(col) for col in zip(*units)] == alg.unit_vector
        eigenvalues = []
        for u in units:
            assert alg.multiply(u, u) == u
            xu = alg.multiply(x, u)
            r = next(b / a for a, b in zip(u, xu) if a)
            assert xu == [r * a for a in u]
            eigenvalues.append(r)
        assert sorted(eigenvalues) == sorted(roots)

    @seed(14)
    @settings(max_examples=15, deadline=None)
    @given(roots=distinct_roots, factor=st.sampled_from([[-2, 0, 1], [1, 0, 1], [-2, 0, 0, 1]]))
    def test_irrational_factor_raises_nonsplit_center(self, roots, factor):
        alg, _ = _polynomial_algebra(_times(_with_roots(roots), [Fraction(c) for c in factor]))
        with pytest.raises(NonSplitCenter):
            semisimple_blocks(alg)

    def test_center_of_mat2_is_scalars(self):
        z = center(full_matrix(2))
        assert z.dim == 1

    @pytest.mark.parametrize(
        "name,dim",
        [
            ("ut3", 1),
            ("mat2", 1),
            ("grassmann2", 2),
            ("grassmann3", 5),
            ("ut2+mat2", 2),
            ("ut3-e33", 0),
        ],
    )
    def test_center_dimensions(self, ut3_without_e33, name, dim):
        alg = {
            "ut3": ut(3),
            "mat2": full_matrix(2),
            "grassmann2": truncated_grassmann(2),
            "grassmann3": truncated_grassmann(3),
            "ut2+mat2": direct_sum(ut(2), full_matrix(2)),
            "ut3-e33": ut3_without_e33,
        }[name]
        z = center(alg)
        assert z.dim == dim
        for v in z.basis:
            for i in range(alg.dim):
                e = alg.basis_vector(i)
                assert alg.multiply(list(v), e) == alg.multiply(e, list(v))


class TestWedderburn:
    def test_idempotent_lifting_fixture(self):
        alg = _algebra_with_nilpotent_part()
        wd = wedderburn_malcev(alg)
        assert wd.radical.dim == 1
        assert [b.dim for b in wd.blocks] == [1]
        # e = a - j is the unique lifted idempotent
        assert wd.blocks[0].member([1, -1])

    @pytest.mark.parametrize(
        "alg,block_dims,rad_dim",
        [
            (ut(2), [1, 1], 1),
            (ut(3), [1, 1, 1], 3),
            (full_matrix(2), [4], 0),
            (truncated_grassmann(2), [1], 3),
            (direct_sum(ut(2), full_matrix(2)), [1, 1, 4], 1),
        ],
    )
    def test_decomposition_shapes(self, alg, block_dims, rad_dim):
        wd = wedderburn_malcev(alg)
        assert sorted(b.dim for b in wd.blocks) == sorted(block_dims)
        assert wd.radical.dim == rad_dim

    def test_sum_is_direct(self):
        for alg in (ut(3), direct_sum(ut(2), full_matrix(2))):
            wd = wedderburn_malcev(alg)
            assert wd.semisimple_part.dim + wd.radical.dim == alg.dim
            assert wd.semisimple_part.intersect(wd.radical).is_zero()

    def test_block_units_are_idempotent(self):
        alg = direct_sum(ut(2), full_matrix(2))
        wd = wedderburn_malcev(alg)
        for u in wd.block_units:
            assert alg.multiply(u, u) == u

    def test_decomposition_is_computed_once_per_algebra(self):
        alg = ut(3)
        wd = wedderburn_malcev(alg)
        assert wedderburn_malcev(alg) is wd
        assert wedderburn_malcev(ut(3)) is not wd

    def test_non_split_algebra_raises_on_every_call(self):
        # Q(i): 1 = e0, i = e1 with i^2 = -1; x^2 + 1 has no rational root
        c = [[[F1, F0], [F0, F1]], [[F0, F1], [-F1, F0]]]
        gaussian = StructureAlgebra(c, unit_vector=[1, 0], label="Q(i)")
        for _ in range(2):
            with pytest.raises(NonSplitCenter):
                wedderburn_malcev(gaussian)
        assert gaussian._wedderburn is None

    def test_blocks_are_subalgebras(self):
        alg = direct_sum(full_matrix(2), full_matrix(2))
        wd = wedderburn_malcev(alg)
        for b in wd.blocks:
            for v in b.basis:
                for w in b.basis:
                    assert b.member(alg.multiply(list(v), list(w)))


class TestBlockAction:
    def test_ut2_full_action(self):
        u2 = ut(2)
        act = lie_closure(u2, [ad_unit(u2, 2, 2), ad_unit(u2, 1, 2)])
        wd = wedderburn_malcev(u2)
        report = check_block_action(wd, act)
        assert all(entry["in_block_plus_radical"] for entry in report)
        assert all(
            entry["in_radical_when_1dim"] for entry in report if entry["dim"] == 1
        )
