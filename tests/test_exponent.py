import random
from fractions import Fraction
from itertools import permutations

import pytest

from diffident.acceptance import battery_fixtures
from diffident.algebra import (
    ad_unit,
    direct_sum,
    full_matrix,
    inner_derivation,
    lie_closure,
    make_algebra,
    matrix_unit_vector,
    trivial_action,
    truncated_grassmann,
    ut,
)
from diffident.exponent import (
    classify_growth,
    exp_differential,
    exp_ordinary,
    is_solvable,
    lemma_bridge_check,
    verify_gk,
)
from diffident.structure import radical, wedderburn_malcev


def _field():
    return make_algebra([[[Fraction(1)]]], unit_vector=[1], label="F")


def test_exponents_and_bridge_checks_share_one_decomposition(monkeypatch):
    from diffident import structure

    calls = []
    real_radical = structure.radical
    monkeypatch.setattr(structure, "radical", lambda alg: calls.append(alg) or real_radical(alg))
    u3 = ut(3)
    rng = random.Random(0)
    gens = [
        inner_derivation(u3, [Fraction(rng.randint(-2, 2)) for _ in range(u3.dim)], name=f"r{i}")
        for i in range(2)
    ]
    act = lie_closure(u3, gens)
    exp_ordinary(u3)
    first = len(calls)
    assert first > 0
    exp_differential(u3, act)
    sequences = [seq for r in (1, 2, 3) for seq in permutations(range(3), r)]
    assert len(sequences) == 15
    for seq in sequences:
        lemma_bridge_check(u3, act, seq)
    assert len(calls) == first


class TestOrdinaryExponent:
    def test_ut2(self):
        rep = exp_ordinary(ut(2))
        assert rep.value == 2
        assert rep.witness_sequence == (0, 1)

    def test_mat2(self):
        assert exp_ordinary(full_matrix(2)).value == 4

    def test_nilpotent(self):
        z = [[[Fraction(0)]]]
        rep = exp_ordinary(make_algebra(z, label="nil"))
        assert rep.value == 0
        assert rep.witness_sequence == ()

    def test_f_plus_f_stays_at_one(self):
        # zero radical kills every multi-block chain
        assert exp_ordinary(direct_sum(_field(), _field())).value == 1

    def test_ut3(self):
        assert exp_ordinary(ut(3)).value == 3

    def test_pruned_matches_exhaustive(self):
        # exhaustive enumeration over all distinct-block sequences
        for alg in (ut(2), ut(3), direct_sum(ut(2), _field())):
            wd = wedderburn_malcev(alg)
            blocks, j = wd.blocks, wd.radical
            best = 0
            for r in range(1, len(blocks) + 1):
                for seq in permutations(range(len(blocks)), r):
                    prod = blocks[seq[0]]
                    for i in seq[1:]:
                        prod = alg.subspace_product(
                            alg.subspace_product(prod, j), blocks[i]
                        )
                    if not prod.is_zero():
                        best = max(best, sum(blocks[i].dim for i in seq))
            assert exp_ordinary(alg).value == best


class TestDifferentialExponent:
    def test_eps_action(self):
        u2 = ut(2)
        act = lie_closure(u2, [ad_unit(u2, 2, 2, name="eps")])
        assert exp_differential(u2, act).value == 2

    def test_trivial_action_reduces_to_ordinary(self):
        for alg in (ut(2), ut(3), full_matrix(2), truncated_grassmann(2)):
            act = trivial_action(alg)
            assert exp_differential(alg, act).value == exp_ordinary(alg).value

    def test_single_block_with_inner_action(self):
        m2 = full_matrix(2)
        act = lie_closure(m2, [ad_unit(m2, 1, 1)])
        assert exp_differential(m2, act).value == 4

    def test_block_order_permutation_invariance(self):
        # the same semisimple data reached through differently ordered summands
        a, b = ut(2), full_matrix(2)
        for alg in (direct_sum(a, b), direct_sum(b, a)):
            act = trivial_action(alg)
            assert exp_differential(alg, act).value == 4

    def test_pruned_matches_exhaustive(self, nonunital_actions):
        # the differential twin of the ordinary test: over every distinct-block
        # sequence, exp^L is the best weight whose bridge hypothesis holds and
        # exp the best whose conclusion holds
        cases = [(alg, act) for _label, alg, act in battery_fixtures()]
        cases += [(alg, act) for _label, alg, act in nonunital_actions]
        for alg, act in cases:
            wd = wedderburn_malcev(alg)
            k = len(wd.blocks)
            best_hyp = best_con = 0
            for r in range(1, k + 1):
                for seq in permutations(range(k), r):
                    hyp, con = lemma_bridge_check(alg, act, seq, wd)
                    weight = sum(wd.blocks[i].dim for i in seq)
                    best_hyp = max(best_hyp, weight if hyp else 0)
                    best_con = max(best_con, weight if con else 0)
            assert exp_differential(alg, act, wd).value == best_hyp
            assert exp_ordinary(alg, wd).value == best_con


def _block_triangular(sizes):
    """UT(d_1, ..., d_k): block upper-triangular matrices with diagonal blocks
    of sizes d_i, spanned by the matrix units e_ij with block(i) <= block(j)."""
    block = [b for b, d in enumerate(sizes) for _ in range(d)]
    pairs = [(i, j) for i in range(len(block)) for j in range(len(block)) if block[i] <= block[j]]
    index = {pair: k for k, pair in enumerate(pairs)}
    dim = len(pairs)
    constants = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if j == k:
                constants[a][b][index[(i, l)]] = Fraction(1)
    unit = [int(i == j) for i, j in pairs]
    return make_algebra(constants, unit_vector=unit, label=f"UT{tuple(sizes)}")


class TestKnownFormula:
    @pytest.mark.parametrize("sizes", [(2, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("action_seed", [0, 1])
    def test_block_triangular_exponent_is_the_sum_of_squares(self, sizes, action_seed):
        # exp(UT(d_1, ..., d_k)) = sum d_i^2 (Giambruno-Zaicev), and an inner
        # action does not change it
        alg = _block_triangular(sizes)
        assert alg.dim == sum(d * e for i, d in enumerate(sizes) for e in sizes[i:])
        rng = random.Random(action_seed)
        gens = [
            inner_derivation(alg, [Fraction(rng.randint(-2, 2)) for _ in range(alg.dim)])
            for _ in range(2)
        ]
        act = lie_closure(alg, gens)
        expected = sum(d * d for d in sizes)
        assert exp_ordinary(alg).value == expected
        assert exp_differential(alg, act).value == expected


    # the exponent of each summand: n for UT_n, n^2 for M_n, 1 for a
    # Grassmann algebra (Giambruno-Zaicev)
    SUMMANDS = {
        "ut2": (lambda: ut(2), 2),
        "ut3": (lambda: ut(3), 3),
        "mat2": (lambda: full_matrix(2), 4),
        "grassmann2": (lambda: truncated_grassmann(2), 1),
    }

    @pytest.mark.parametrize(
        "left,right",
        [
            ("ut2", "ut3"),
            ("ut3", "mat2"),
            ("mat2", "ut2"),
            ("grassmann2", "ut2"),
            ("grassmann2", "mat2"),
            ("ut3", "grassmann2"),
        ],
    )
    def test_direct_sum_exponent_is_the_larger(self, left, right):
        # exp(A + B) = max(exp A, exp B), and an inner action does not change it
        (make_a, exp_a), (make_b, exp_b) = self.SUMMANDS[left], self.SUMMANDS[right]
        a, b = make_a(), make_b()
        assert [exp_ordinary(a).value, exp_ordinary(b).value] == [exp_a, exp_b]
        alg = direct_sum(a, b)
        rng = random.Random(0)
        gens = [
            inner_derivation(alg, [Fraction(rng.randint(-2, 2)) for _ in range(alg.dim)])
            for _ in range(2)
        ]
        assert exp_ordinary(alg).value == max(exp_a, exp_b)
        assert exp_differential(alg, lie_closure(alg, gens)).value == max(exp_a, exp_b)


class TestVerifyGk:
    def test_ut2_variants(self):
        u2 = ut(2)
        eps = ad_unit(u2, 2, 2, name="eps")
        delta = ad_unit(u2, 1, 2, name="delta")
        for gens in ([], [eps], [delta], [eps, delta]):
            assert verify_gk(u2, lie_closure(u2, gens))

    def test_seeded_random_inner_actions(self):
        import random

        ds = direct_sum(ut(2), full_matrix(2))
        for seed in range(3):
            rng = random.Random(seed)
            vec = [Fraction(rng.randint(-2, 2)) for _ in range(ds.dim)]
            act = lie_closure(ds, [inner_derivation(ds, vec)])
            assert verify_gk(ds, act)

    def test_non_unital_ut3_without_e33(self, nonunital_actions):
        for label, alg, act in nonunital_actions:
            assert alg.unit_vector is None
            assert verify_gk(alg, act), label
        assert radical(nonunital_actions[0][1]).dim == 3


class TestBridgeLemma:
    def test_ut2_eps_sequences(self):
        u2 = ut(2)
        act = lie_closure(u2, [ad_unit(u2, 2, 2, name="eps")])
        assert lemma_bridge_check(u2, act, (0, 1)) == (True, True)
        assert lemma_bridge_check(u2, act, (1, 0)) == (False, False)
        assert lemma_bridge_check(u2, act, (0,)) == (True, True)

    def test_same_result_with_precomputed_decomposition(self):
        ds = direct_sum(ut(2), full_matrix(2))
        mixed = [
            inner_derivation(ds, [Fraction(x) for x in (1, 0, 0, 0, 0, 0, 0)]),
            inner_derivation(ds, [Fraction(x) for x in (0, 0, 0, 1, 0, 0, 0)]),
        ]
        u3 = ut(3)
        for alg, act in (
            (ds, lie_closure(ds, mixed)),
            (u3, lie_closure(u3, [ad_unit(u3, 1, 2)])),
        ):
            wd = wedderburn_malcev(alg)
            k = len(wd.blocks)
            for r in range(1, k + 1):
                for seq in permutations(range(k), r):
                    assert lemma_bridge_check(alg, act, seq, wd) == lemma_bridge_check(
                        alg, act, seq
                    )

    def test_rejects_repeated_blocks(self):
        u2 = ut(2)
        act = trivial_action(u2)
        with pytest.raises(ValueError):
            lemma_bridge_check(u2, act, (0, 0))


class TestSolvability:
    def test_metabelian(self):
        u2 = ut(2)
        act = lie_closure(u2, [ad_unit(u2, 2, 2), ad_unit(u2, 1, 2)])
        assert is_solvable(act)

    def test_trivial(self):
        assert is_solvable(trivial_action(ut(2)))

    def test_sl2_image_not_solvable(self):
        m2 = full_matrix(2)
        gens = [
            inner_derivation(m2, matrix_unit_vector(m2, 1, 2)),
            inner_derivation(m2, matrix_unit_vector(m2, 2, 1)),
        ]
        assert not is_solvable(lie_closure(m2, gens))


class TestClassify:
    def test_polynomial_cases(self):
        for alg in (truncated_grassmann(2), truncated_grassmann(3), direct_sum(_field(), _field())):
            rep = classify_growth(alg, trivial_action(alg))
            assert rep.classification == "Polynomial"
            assert rep.exponent.value <= 1

    def test_exponential_cases(self):
        u2 = ut(2)
        eps = ad_unit(u2, 2, 2, name="eps")
        for gens in ([], [eps]):
            rep = classify_growth(u2, lie_closure(u2, gens))
            assert rep.classification == "Exponential"
            assert rep.exponent.value >= 2

    def test_eps_evidence_shape(self):
        u2 = ut(2)
        act = lie_closure(u2, [ad_unit(u2, 2, 2, name="eps")])
        rep = classify_growth(u2, act)
        # ut2-eps is in its own variety: no exclusion certificate against itself
        assert rep.evidence["ut2-eps"]["excluded"] is False
        assert rep.evidence["ut2"]["excluded"] is True

    def test_polynomial_codim_growth_is_subexponential(self):
        # heuristic desk check: codim ratios stay below lambda = 2 for a
        # polynomially bounded fixture
        from diffident.piengine import codim

        g = truncated_grassmann(2)
        act = trivial_action(g)
        vals = [codim(g, act, n) for n in range(1, 6)]
        ratios = [b / a for a, b in zip(vals, vals[1:]) if a]
        assert rep_below(ratios, 2)


def rep_below(ratios, lam):
    return all(r < lam for r in ratios[-2:])
