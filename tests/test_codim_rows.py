"""The integer evaluators against an independent Fraction path.

`_fraction_evaluate` is the plain evaluator: each word's letters applied as
dense Fraction matrices, then multiplied out with StructureAlgebra.multiply.
It shares no integer table with the engine.

* `_reference_codim` builds every degree-n monomial as an LPolynomial
  (exponent words taken from the envelope's word representatives),
  evaluates it with `_fraction_evaluate` on every basis tuple, and takes the
  rank of those rows with sympy's `DomainMatrix` over QQ.  It shares neither
  the row generator nor SparseRREF with `codim`.
* `evaluate_poly`, `is_identity` (with its witness) and the spanning-set
  rank of the battery are compared with the same evaluator on generated
  polynomials, over variable sets other than 1..n too, and rational
  assignments, and `evaluate_poly` also on the spanning-set members, whose
  terms cancel heavily.  The value table's trie holds exactly the nonzero
  values, and the walk reads no vector past a dead prefix.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product as iproduct
from math import factorial

import pytest
from hypothesis import given, seed, settings, strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from diffident import acceptance
from diffident import piengine as pe
from diffident.algebra import (
    Derivation,
    ad_unit,
    full_matrix,
    inner_derivation,
    lie_closure,
    make_algebra,
    trivial_action,
    truncated_grassmann,
    ut,
)
from diffident.errors import BadParams, DenominatorDivisibleByPrime, SizeCap
from diffident.families import ut2_eps_spanning_set, ut2_spanning_set
from diffident.linalg import Matrix, SparseRREF, draw_prime


def _fraction_evaluate(f, act, assignment):
    """Value of f at a tuple of coordinate vectors (index i for variable
    i+1), with dense Fraction arithmetic throughout."""
    alg = act.algebra
    out = [Fraction(0)] * alg.dim
    for (vars_, words), c in f.terms.items():
        prod = None
        for v, w in zip(vars_, words):
            vec = assignment[v - 1]
            for letter in w:
                vec = act.closure_basis[letter].matrix.apply(vec)
            prod = vec if prod is None else alg.multiply(prod, vec)
            if not any(prod):
                break
        else:
            out = [a + c * b for a, b in zip(out, prod)]
    return out


def _variables(f):
    """f's variables in increasing order."""
    return sorted(next(iter(f.terms), ((),))[0])


def _at_basis_tuple(f, alg, tup):
    """One vector per variable index up to f's greatest variable: the basis
    vector tup[i] at f's i-th variable in increasing order, 0 elsewhere."""
    variables = _variables(f)
    assignment = [[Fraction(0)] * alg.dim for _ in range(max(variables, default=0))]
    for v, b in zip(variables, tup):
        assignment[v - 1] = alg.basis_vector(b)
    return assignment


def _value_row(f, act):
    """f's values on every basis tuple, in iproduct order, concatenated."""
    alg = act.algebra
    row = []
    for tup in iproduct(range(alg.dim), repeat=f.degree):
        row += _fraction_evaluate(f, act, [alg.basis_vector(b) for b in tup])
    return row


def _qq_rank(rows, width):
    rows = [[QQ(x.numerator, x.denominator) for x in row] for row in rows]
    return DomainMatrix(rows, (len(rows), width), QQ).rank()


def _reference_codim(act, n):
    rows = []
    for vars_, exps in pe.Monomials(n, act.envelope.dim):
        words = tuple(act.envelope.word_reps[u] for u in exps)
        rows.append(_value_row(pe.LPolynomial.from_terms({(vars_, words): 1}), act))
    return _qq_rank(rows, act.algebra.dim ** (n + 1))


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


def _matrix_units(pairs):
    """The span of the matrix units e_(i+1)(j+1), (i, j) in pairs, which
    must be closed under products; no unit."""
    index = {p: k for k, p in enumerate(pairs)}
    constants = [[[0] * len(pairs) for _ in pairs] for _ in pairs]
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if j == k:
                constants[a][b][index[(i, l)]] = 1
    return make_algebra(constants)


def _t_truncated():
    """t Q[t] / (t^4), basis t, t^2, t^3: nilpotent with A^3 != 0 = A^4,
    the longest chain of its dimension, under t d/dt."""
    constants = [[[int(k == i + j + 1) for k in range(3)] for j in range(3)] for i in range(3)]
    t_dt = Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    return lie_closure(make_algebra(constants), [Derivation(t_dt, name="t_dt")])


def _e11_e12_inner():
    """span{e11, e12}: neither nilpotent nor unital, under ad(e12)."""
    alg = _matrix_units([(0, 0), (0, 1)])
    return lie_closure(alg, [inner_derivation(alg, [0, 1], name="d")])


CASES = [
    ("ut2-eps", _ut2_eps, 4),
    ("mat2-ad11", _mat2_ad11, 3),
    ("grassmann2-inner", _grassmann2_inner, 3),
    ("rational-ut2-eps", _rational_ut2_eps, 4),
    ("t-truncated", _t_truncated, 3),
    ("e11-e12-inner", _e11_e12_inner, 4),
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


def _every_row_rank(rows, n, max_entries):
    """The exact rank of every row that rows.rows streams, none skipped."""
    rr = SparseRREF()
    for _position, row in rows.rows(n, max_entries):
        rr.add_row(row)
    return rr.rank


def test_codim_is_the_rank_of_every_row_on_the_battery():
    """codim, exact and modular, against the exact rank of every row of the
    stream, on all 25 battery fixtures.  Up to n = 3 the stream runs under
    the default budget, which refuses it only for random inner seeds 3 and 7
    at n = 3 (6 x 6,859 dense rows); at n = 4 under 10^6 entries, which
    keeps the fixtures whose stream takes about 0.2 s or less and refuses
    the dense random inner seeds 0, 3, 4, 7 and 8."""
    compared = []
    for label, alg, act in acceptance.battery_fixtures():
        rows = pe.EvaluationRows(alg, act.envelope.op_basis)
        for n in (1, 2, 3, 4):
            budget = pe.DEFAULT_MAX_ENTRIES if n < 4 else 10**6
            try:
                expected = _every_row_rank(rows, n, budget)
            except SizeCap:
                continue
            assert pe.codim(alg, act, n) == expected, (label, n)
            assert pe.codim(alg, act, n, mode="modular") == expected, (label, n)
            compared.append((label, n))
    assert len(compared) == 25 * 3 - 2 + 20


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
        next(pe._rank_closure(rows, 3, prime=3))
    exact = pe.codim(rational.algebra, rational, 3)
    assert pe.codim(rational.algebra, rational, 3, mode="modular") == exact


def test_draw_prime_skips_divisors_of_the_denominator():
    p = draw_prime(4)
    assert p == 1303953281
    # a divisor is skipped for the prime of the next attempt's generator
    assert draw_prime(4, denominator=6 * p) == 1215248833


def test_draw_prime_keeps_the_first_prime_of_seed_zero():
    # pinned so that modular reports at a given seed stay reproducible
    assert draw_prime(0) == 1901049827


def _sympy_draw_prime(seed, denominator):
    from sympy import nextprime

    attempt = 0
    while True:
        rng = random.Random(seed * 1_000_003 + attempt)
        attempt += 1
        p = nextprime(rng.randrange(2**30, 2**31))
        if denominator % p:
            return p


@pytest.mark.parametrize("seeds", [range(0, 300), range(10**6, 10**6 + 100)])
def test_draw_prime_matches_sympy_nextprime(seeds):
    for s in seeds:
        for denominator in (1, 6, 105):
            assert draw_prime(s, denominator) == _sympy_draw_prime(s, denominator)
    # a denominator that one draw divides moves to the next attempt, as before
    p = _sympy_draw_prime(seeds[0], 1)
    assert draw_prime(seeds[0], 2 * p) == _sympy_draw_prime(seeds[0], 2 * p) != p


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
nonzero_rationals = rationals.filter(bool)


@st.composite
def polynomials(draw, act, max_degree=3):
    """A multilinear polynomial over act's closure letters, words no longer
    than the word cap, with nonzero rational coefficients.  Its variables
    are the image of 1..n under an increasing map into 1..n+2."""
    n = draw(st.integers(1, max_degree))
    variables = draw(st.lists(st.integers(1, n + 2), min_size=n, max_size=n, unique=True))
    letters = st.integers(0, act.closure_dim - 1)
    longest = min(2, pe.default_word_cap(act))
    word = st.lists(letters, max_size=longest).map(tuple)
    terms = draw(
        st.dictionaries(
            st.tuples(
                st.permutations(sorted(variables)).map(tuple),
                st.lists(word, min_size=n, max_size=n).map(tuple),
            ),
            nonzero_rationals,
            min_size=1,
            max_size=4,
        )
    )
    return pe.LPolynomial.from_terms(terms)


@st.composite
def vectors(draw, dim, count):
    """count rational vectors, each zero with probability about 1/5."""
    nonzero = st.lists(nonzero_rationals, min_size=dim, max_size=dim)
    return [
        draw(nonzero) if draw(st.integers(0, 4)) else [Fraction(0)] * dim
        for _ in range(count)
    ]


ACTIONS = {name: build() for name, build, _ in CASES}


@pytest.mark.parametrize("name", sorted(ACTIONS))
@seed(7)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_evaluate_poly_matches_fraction_evaluator(name, data):
    act = ACTIONS[name]
    f = data.draw(polynomials(act))
    assignment = data.draw(vectors(act.algebra.dim, max(_variables(f))))
    assert pe.evaluate_poly(f, act, assignment) == _fraction_evaluate(f, act, assignment)


def test_evaluate_poly_refuses_a_bad_assignment_before_any_product(monkeypatch):
    """A vector of the wrong length, or a missing one, is refused even where
    the products vanish and on a polynomial whose table is kept; then a
    degree whose basis tuples times terms pass the default budget is
    refused before any row; the unit of * still evaluates to the zero
    vector."""
    x = pe.LPolynomial.variable
    act = lie_closure(ut(2), [])
    f = x(1) * x(2)
    for cached in (False, True):
        assert (id(f) in act._value_tables) is cached
        with pytest.raises(ValueError, match="length"):
            pe.evaluate_poly(f, act, [[0, 0, 0], [1, 2]])
        with pytest.raises(ValueError, match="no vector"):
            pe.evaluate_poly(f, act, [[1, 0, 0]])
        assignment = [act.algebra.basis_vector(b) for b in (0, 1)]
        assert pe.evaluate_poly(f, act, assignment) == _fraction_evaluate(f, act, assignment)
    with pytest.raises(ValueError, match="no vector"):
        pe.evaluate_poly(x(1) * x(3), act, [[0, 0, 0], [0, 0, 0]])
    # 3^15 basis tuples times 1 term pass 10^7
    big = pe.LPolynomial.monomial(range(1, 16))
    monkeypatch.setattr(pe, "collapsed_terms", lambda *a: pytest.fail("collapsed"))
    monkeypatch.setattr(pe, "EvaluationRows", lambda *a: pytest.fail("evaluated"))
    with pytest.raises(ValueError, match="no vector"):
        pe.evaluate_poly(big, act, [[0, 0, 0]] * 14)
    with pytest.raises(ValueError, match="length"):
        pe.evaluate_poly(big, act, [[0, 0, 0]] * 14 + [[1, 0]])
    with pytest.raises(SizeCap, match=r"3\^15 basis tuples times 1 terms"):
        pe.evaluate_poly(big, act, [[0, 0, 0]] * 15)
    assert id(big) not in act._value_tables
    assert pe.evaluate_poly(pe.LPolynomial.monomial(()), act, []) == [0, 0, 0]


def test_value_table_is_built_once_per_polynomial_and_action(monkeypatch):
    """evaluate_poly builds f's value table on its first call on an action and
    keeps it in the action; an equal twin and a second action get their own
    tables, and every value is still the Fraction evaluator's."""
    f = ut2_eps_spanning_set(4)[-1]
    twin = pe.LPolynomial.from_terms(dict(f.terms))
    assert f == twin and f is not twin
    built = []
    build = pe._value_table
    monkeypatch.setattr(pe, "_value_table", lambda *a: built.append(a[:2]) or build(*a))
    pairs = [(g, ACTIONS[name]) for name in ("ut2-eps", "rational-ut2-eps") for g in (f, twin)]
    tables = []
    for g, act in pairs:
        for tup in ((0, 1, 1, 2), (2, 2, 0, 1), (0, 0, 2, 1)):
            assignment = [act.algebra.basis_vector(b) for b in tup]
            assert pe.evaluate_poly(g, act, assignment) == _fraction_evaluate(g, act, assignment)
        entry = act._value_tables[id(g)]
        assert entry[0] is g
        tables.append(entry[2])
    assert [(id(g), id(act)) for g, act in built] == [(id(g), id(act)) for g, act in pairs]
    assert len({id(table) for table in tables}) == 4


def test_evaluate_poly_reads_no_vector_past_a_dead_prefix(monkeypatch):
    """A ut2-eps spanning-set member whose value table has no branch at the
    basis element e12 of its first variable is zero wherever that variable
    is e12, and evaluate_poly reads only that one vector of the four.  The
    length and missing-vector checks still come before the walk, on an
    uncached polynomial and on the same one once cached."""
    act = _ut2_eps()
    dim = act.algebra.dim
    f = ut2_eps_spanning_set(4)[4]
    _scale, trie = pe._value_table(f, act, pe.DEFAULT_MAX_ENTRIES)
    assert 1 not in trie and trie
    reads = []
    read = pe.integer_vector
    monkeypatch.setattr(pe, "integer_vector", lambda vec: reads.append(vec) or read(vec))
    assignment = [act.algebra.basis_vector(b) for b in (1, 0, 0, 0)]
    for cached in (False, True):
        assert (id(f) in act._value_tables) is cached
        with pytest.raises(ValueError, match="length"):
            pe.evaluate_poly(f, act, assignment[:3] + [[1, 2]])
        with pytest.raises(ValueError, match="no vector"):
            pe.evaluate_poly(f, act, assignment[:3])
        assert reads == [] and (id(f) in act._value_tables) is cached
        assert pe.evaluate_poly(f, act, assignment) == [0] * dim
        assert reads == assignment[:1]
        reads.clear()
    assert _fraction_evaluate(f, act, assignment) == [0] * dim


def test_evaluate_poly_refuses_a_float_read_or_not(monkeypatch):
    """A float coordinate is refused with ValueError before any vector is
    read or any table built, both where the walk would read it (the first
    variable e11) and where it would stop first at a dead prefix (e12)."""
    act = _ut2_eps()
    f = ut2_eps_spanning_set(4)[4]
    e11, e12 = (act.algebra.basis_vector(b) for b in (0, 1))
    reads = []
    read = pe.integer_vector
    monkeypatch.setattr(pe, "integer_vector", lambda vec: reads.append(vec) or read(vec))
    for first in (e12, e11):
        with pytest.raises(ValueError, match="ints or Fractions"):
            pe.evaluate_poly(f, act, [first, [0.5, 0, 0], e11, e11])
    assert reads == [] and id(f) not in act._value_tables
    assert pe.evaluate_poly(f, act, [e12, [Fraction(1, 2), 0, 0], e11, e11]) == [0, 0, 0]


def _trie_leaves(node, path, depth):
    """{basis tuple: leaf} of a value-table trie below path, checking that
    every root-to-leaf path has length depth and that no subtrie or leaf is
    empty."""
    assert node
    if len(path) == depth:
        assert isinstance(node, list)
        return {path: node}
    assert isinstance(node, dict)
    leaves = {}
    for b, sub in node.items():
        leaves.update(_trie_leaves(sub, (*path, b), depth))
    return leaves


@pytest.mark.parametrize("name", sorted(ACTIONS))
@seed(10)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_value_table_is_a_trie_of_the_nonzero_values(name, data):
    """Every root-to-leaf path of f's value table has length f.degree and no
    subtrie is empty; each leaf over the scale is f's value at its basis
    tuple, and every basis tuple off the trie is a zero of f."""
    act = ACTIONS[name]
    alg = act.algebra
    f = data.draw(polynomials(act))
    scale, trie = pe._value_table(f, act, pe.DEFAULT_MAX_ENTRIES)
    leaves = _trie_leaves(trie, (), f.degree) if trie else {}
    for tup in iproduct(range(alg.dim), repeat=f.degree):
        value = _fraction_evaluate(f, act, _at_basis_tuple(f, alg, tup))
        leaf = leaves.get(tup, [])
        assert len({k for k, _x in leaf}) == len(leaf)
        assert {k: Fraction(x, scale) for k, x in leaf} == {k: x for k, x in enumerate(value) if x}


@pytest.mark.parametrize("name", ["ut2-eps", "rational-ut2-eps"])
@seed(9)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_evaluate_poly_on_spanning_sets_matches_fraction_evaluator(name, data):
    """Spanning-set members share long prefixes between terms and cancel
    heavily; their values at basis tuples and at rational points must be
    the Fraction evaluator's."""
    act = ACTIONS[name]
    dim = act.algebra.dim
    family = data.draw(st.sampled_from([ut2_spanning_set, ut2_eps_spanning_set]))
    n = data.draw(st.integers(1, 4))
    f = data.draw(st.sampled_from(family(n)))
    if data.draw(st.booleans()):
        tup = data.draw(st.lists(st.integers(0, dim - 1), min_size=n, max_size=n))
        assignment = [act.algebra.basis_vector(b) for b in tup]
    else:
        assignment = data.draw(vectors(dim, n))
    assert pe.evaluate_poly(f, act, assignment) == _fraction_evaluate(f, act, assignment)


def _scan(f, act):
    """is_identity's answer by a lexicographic scan of the basis tuples, each
    indexed by f's variables in increasing order."""
    alg = act.algebra
    for tup in iproduct(range(alg.dim), repeat=len(_variables(f))):
        if any(_fraction_evaluate(f, act, _at_basis_tuple(f, alg, tup))):
            return False, tup
    return True, None


@pytest.mark.parametrize("name", sorted(ACTIONS))
@seed(8)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_is_identity_witness_matches_scan(name, data):
    act = ACTIONS[name]
    f = data.draw(polynomials(act))
    assert pe.is_identity(f, act, witness=True) == _scan(f, act)


def test_is_identity_on_zero_identities_and_a_late_witness():
    x = pe.LPolynomial.variable
    act = ACTIONS["ut2-eps"]
    commutator = pe.commutator_poly(x(1), x(2))
    cases = [
        pe.LPolynomial.from_terms({}),
        x(1, (0, 0)) - x(1, (0,)),
        pe.derive_polynomial(commutator, 0, act) - commutator,
        commutator,
        pe.commutator_poly(x(3, (0,)), x(1)),
        pe.commutator_poly(x(1, (0,)), x(4)),
    ]
    answers = [pe.is_identity(f, act, witness=True) for f in cases]
    assert answers == [_scan(f, act) for f in cases]
    # e11 e11 commutes, e11 e12 does not: the first failing tuple is (e11, e12)
    assert answers[:3] == [(True, None)] * 3 and answers[3] == (False, (0, 1))
    # eps(e11) = 0 and [eps(e12), e11] = e12, with the witness indexed by the
    # variables in increasing order: (x1, x3) = (e11, e12), (x1, x4) = (e12, e11)
    assert answers[4:] == [(False, (0, 1)), (False, (1, 0))]


@pytest.mark.parametrize("family", [ut2_spanning_set, ut2_eps_spanning_set])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_evaluation_rank_matches_sympy(family, n):
    """The battery's spanning-set rank, with two dependent polynomials
    added, against the DomainMatrix rank of the Fraction value rows."""
    act = ACTIONS["ut2-eps"]
    if family is ut2_spanning_set:
        act = lie_closure(act.algebra, [])
    polys = family(n)
    polys += [polys[0] + polys[-1], polys[-1].scale(Fraction(2, 3))]
    expected = _qq_rank([_value_row(p, act) for p in polys], act.algebra.dim ** (n + 1))
    assert acceptance._evaluation_rank(polys, act) == expected == len(polys) - 2


# ---------------------------------------------------------------------------
# integer column labels and the rank-only row skip


@pytest.mark.parametrize("name", ["ut2-eps", "rational-ut2-eps"])
def test_labels_index_the_value_rows_in_lex_order(name):
    """Label (t, k) is the position of coordinate k of the basis tuple t in
    _value_row, so labels sort like (t, k): each rows() row is the Fraction
    value row of its monomial times one positive scale per degree, and each
    monomial rows() skips has a zero value row."""
    act = ACTIONS[name]
    rows = pe.EvaluationRows(act.algebra, act.envelope.op_basis)
    dim = act.algebra.dim
    for n in (1, 2, 3):
        tuples = list(iproduct(range(dim), repeat=n))
        scale = None
        streamed = dict(rows.rows(n))
        for position, (vars_, exps) in enumerate(pe.Monomials(n, act.envelope.dim)):
            row = streamed.get(position, {})
            words = tuple(act.envelope.word_reps[u] for u in exps)
            values = _value_row(pe.LPolynomial.from_terms({(vars_, words): 1}), act)
            assert set(row) == {label for label, x in enumerate(values) if x}
            for label, x in row.items():
                scale = scale or x / values[label]
                assert x == scale * values[label]
                assert rows.label_tuple(label, n) == tuples[label // dim]
            assert sorted(row) == sorted(row, key=lambda l: (rows.label_tuple(l, n), l % dim))
        assert scale > 0


@pytest.mark.parametrize("name", ["ut2-eps", "rational-ut2-eps", "mat2-ad11"])
def test_renaming_the_first_order_gives_every_row(name):
    """first_order_rows keys the nonzero rows of the variable order (1..n)
    by exponent tuple, in lex order.  Renamed by renaming(vars), the row of
    exps is the Fraction value row of the monomial (vars, exps) times one
    positive scale per degree, and an exponent tuple without a row has a
    zero value row in every order."""
    act = ACTIONS[name]
    rows = pe.EvaluationRows(act.algebra, act.envelope.op_basis)
    for n in (1, 2, 3):
        first, _charged = rows.first_order_rows(n)
        assert list(first) == sorted(first) and all(first.values())
        scale = None
        for vars_, exps in pe.Monomials(n, act.envelope.dim):
            renaming = rows.renaming(vars_)
            row = {renaming[c]: x for c, x in first.get(exps, {}).items()}
            words = tuple(act.envelope.word_reps[u] for u in exps)
            values = _value_row(pe.LPolynomial.from_terms({(vars_, words): 1}), act)
            assert set(row) == {label for label, x in enumerate(values) if x}
            for label, x in row.items():
                scale = scale or x / values[label]
                assert x == scale * values[label]
        assert scale > 0


def _zero2():
    alg = make_algebra([[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)], label="zero2")
    return trivial_action(alg)


@pytest.mark.parametrize("name", ["mat2-ad11", "rational-ut2-eps", "ut2-eps", "zero2"])
def test_one_monomial_combination_is_its_row(name):
    """rows() streams, in increasing position, exactly the monomials whose
    combined_rows row is nonzero, each with that row."""
    act = _zero2() if name == "zero2" else ACTIONS[name]
    rows = pe.EvaluationRows(act.algebra, act.envelope.op_basis)
    for n in range(1, 5):
        monomials = pe.Monomials(n, act.envelope.dim)
        combined = rows.combined_rows(n, [{mono: Fraction(1)} for mono in monomials])
        stream = list(rows.rows(n))
        positions = [position for position, _row in stream]
        assert positions == sorted(set(positions))
        assert stream == [(position, row) for position, row in enumerate(combined) if row]


def test_combined_rows_refuse_a_variable_outside_one_to_n():
    """A row's labels are only right for variables 1..n, so another variable
    is bad input, refused before any table."""
    act = ACTIONS["ut2-eps"]
    rows = pe.EvaluationRows(act.algebra, act.envelope.op_basis)
    for vars_ in ((1, 3), (0, 1), (3, 2)):
        with pytest.raises(BadParams, match="outside 1..2"):
            rows.combined_rows(2, [{((1, 2), (0, 0)): 1}, {(vars_, (0, 1)): 1}])
    assert rows.combined_rows(2, [{((2, 1), (0, 1)): 1}]) != [{}]


@seed(27)
@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 4), width=st.integers(1, 3))
def test_monomials_codec_is_the_lex_order(n, width):
    """Monomials(n, width) iterates the variable orders, then the exponent
    tuples, both in lex order; its positions index that order both ways."""
    monomials = pe.Monomials(n, width)
    expected = [
        (vars_, exps)
        for vars_ in permutations(range(1, n + 1))
        for exps in iproduct(range(width), repeat=n)
    ]
    assert list(monomials) == expected
    assert len(monomials) == factorial(n) * width**n
    for p, m in enumerate(expected):
        assert monomials[p] == m and monomials.position(*m) == p
    with pytest.raises(IndexError):
        monomials[len(monomials)]


class _StreamedRows:
    """What _rank_closure reads of EvaluationRows, over a fixed list of rows
    given as the rows of the variable order (1..n), each keyed by its index
    in the list; at n = 1 no renaming is asked for, so every row is offered
    as it is."""

    denominator = 1

    def __init__(self, stream):
        self.stream = stream

    def first_order_rows(self, n, max_entries):
        return {(i,): row for i, row in enumerate(self.stream)}, 0


def _fed_rank(rows, n, prime=None):
    """(rank of a rank-only _rank_closure, the count of the rows it
    yields, and the rows it fed, in order)."""
    fed = []
    add_row = pe.SparseRREF.add_row

    def recording(rr, row, tag=None):
        fed.append(row)
        return add_row(rr, row, tag)

    pe.SparseRREF.add_row = recording
    try:
        rank = sum(1 for _ in pe._rank_closure(rows, n, prime=prime))
    finally:
        pe.SparseRREF.add_row = add_row
    return rank, fed


def _gf_rank(rows, width, p):
    from sympy import GF

    K = GF(p)
    dense = [[K(row.get(c, 0)) for c in range(width)] for row in rows]
    return DomainMatrix(dense, (len(rows), width), K).rank()


@pytest.mark.parametrize("p", [5, 7])
def test_modular_row_skip_keeps_the_gf_rank(p):
    """Integer operators on mat2 with multiples of p mixed in: some rows
    vanish mod p, some repeat others only mod p, and some have leads
    divisible by p.  The closure, which feeds fewer rows than the stream
    holds, must keep the rank over GF(p) of every row."""
    m2 = full_matrix(2)
    rng = random.Random(p)

    def op():
        return Matrix.from_rows([[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)])

    base = op()
    other = op()
    # p * base comes first: its rows vanish mod p, though over Z they are
    # the rows of base up to scale
    ops = [Matrix.identity(4), base.scale(p), base, other + op().scale(p), other, op().scale(p)]
    rows = pe.EvaluationRows(m2, ops)
    assert rows.denominator % p
    n = 2
    stream = [row for _position, row in rows.rows(n)]
    leads = [row[min(row)] for row in stream]
    assert any(x % p == 0 for x in leads)
    assert any(all(x % p == 0 for x in row.values()) for row in stream)
    rank, fed = _fed_rank(rows, n, prime=p)
    assert rank == _gf_rank(stream, 4 ** (n + 1), p)
    assert len(fed) < len(stream)
    # offered every row of the stream, unrenamed, the eliminator keeps the
    # rank too
    assert _fed_rank(_StreamedRows(stream), 1, prime=p)[0] == rank
    # without skipping, the eliminator gives the same rank
    every_row = pe.SparseRREF(prime=p)
    for row in stream:
        every_row.add_row(row)
    assert every_row.rank == rank


sparse_rows = st.dictionaries(
    st.integers(0, 11), st.integers(-6, 6).filter(bool), min_size=1, max_size=5
)


@seed(15)
@settings(max_examples=60, deadline=None)
@given(
    distinct=st.lists(sparse_rows, min_size=1, max_size=8),
    repeats=st.lists(
        st.tuples(st.integers(0, 7), st.integers(-5, 5)), max_size=20
    ),
    order=st.randoms(use_true_random=False),
)
def test_exact_row_skip_keeps_the_rank_of_the_distinct_rows(distinct, repeats, order):
    """Negated and scaled repeats, and zero rows (scale 0), fed among the
    rows they repeat: the closure that codim and containment_check share
    yields as many rows as the rank of the distinct rows alone, over Q and
    modulo a prime."""
    stream = list(distinct)
    for i, c in repeats:
        row = distinct[i % len(distinct)]
        stream.append({col: c * x for col, x in row.items() if c * x})
    order.shuffle(stream)
    expected = _qq_rank([[Fraction(row.get(c, 0)) for c in range(12)] for row in distinct], 12)
    assert _fed_rank(_StreamedRows(stream), 1)[0] == expected
    p = 1_000_003
    assert _fed_rank(_StreamedRows(stream), 1, prime=p)[0] == _gf_rank(distinct, 12, p)


def _ut3_ad12():
    u3 = ut(3)
    return lie_closure(u3, [ad_unit(u3, 1, 2, name="ad12")])


def _row_key(row):
    return tuple(sorted(row.items()))


@pytest.mark.parametrize(
    "build,n", [(_ut2_eps, 6), (_mat2_ad11, 4), (_ut3_ad12, 5)],
    ids=["ut2-eps", "mat2-ad11", "ut3-ad12"],
)
def test_closure_renames_no_monomial_twice(build, n, monkeypatch):
    """Every row the closure renames is the row of a monomial outside the
    order (1..n), and no monomial's row is built twice: the renamed rows
    form a sub-multiset of the stream's rows at positions from
    Monomials(n, width).block on, the orders other than (1..n)."""
    act = build()
    rows = pe.EvaluationRows(act.algebra, act.envelope.op_basis)
    block = pe.Monomials(n, rows.width).block
    others = Counter(_row_key(row) for position, row in rows.rows(n) if position >= block)
    renamed = Counter()
    rename = pe._renamed

    def recording(row, renaming, charged, max_entries):
        moved, charged = rename(row, renaming, charged, max_entries)
        renamed[_row_key(moved)] += 1
        return moved, charged

    monkeypatch.setattr(pe, "_renamed", recording)
    for _ in pe._rank_closure(rows, n):
        pass
    excess = renamed - others
    assert renamed and not excess, f"{sum(excess.values())} rows beyond the stream's"


@pytest.mark.parametrize(
    "alg,n", [(full_matrix(2), 5), (ut(2), 6), (truncated_grassmann(2), 5)],
    ids=["mat2", "ut2", "grassmann2"],
)
def test_one_live_tuple_feeds_rows_in_stream_order(alg, n):
    """Under the trivial action the rows of (1..n) are one live exponent
    tuple's, and the closure feeds its rows in increasing position: the
    rows it feeds are a subsequence, in order, of the stream's."""
    act = trivial_action(alg)
    rows = pe.EvaluationRows(alg, act.envelope.op_basis)
    assert len(rows.first_order_rows(n)[0]) == 1
    stream = iter([row for _position, row in rows.rows(n)])
    _rank, fed = _fed_rank(rows, n)
    assert len(fed) > 1 and all(row in stream for row in fed)
