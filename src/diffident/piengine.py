"""Multilinear differential-polynomial engine.

Two exponent representations coexist:

* formal words: tuples of closure-basis indices, kept in PBW normal form
  (non-decreasing indices) via the bracket constants.  Used for polynomial
  manipulation, consequence closure and cross-algebra comparison.
* envelope indices: a formal word collapses to a linear combination of
  envelope basis operators; codimension ranks only ever see this form.

One codec, Monomials, gives each degree-n monomial its position, the
index of its row of the evaluation matrix and of its column in kernels,
closures and certificates, and reads positions back, without a table.

Evaluation runs on integers.  EvaluationRows gives the rows of codim,
identity_space and containment_check, and an explicit polynomial's value
table is its row summed over its collapsed terms.  A row's columns carry
one int label each, ordered like (basis tuple, output coordinate), so the
eliminator compares and hashes ints.  Only the exponent tuples whose
products are not all zero are visited.  Each row is built once, for the
variable order (1..n) (EvaluationRows.first_order_rows); another order's
row is that row with its labels renamed (EvaluationRows.renaming).  One
closure (_rank_closure) closes the rows of (1..n) under renamings that
generate S_n, each queued row carrying its monomial, so that no
monomial's row is built twice, and yields each row that raises the rank
with its monomial.  codim counts them.  containment_check runs it on the
direct sum A + B, whose identities are those of both, and stops at the
first row whose A part does not raise A's rank.  EvaluationRows.rows
streams every nonzero row with its monomial's position, and combined_rows
sums them.  identity_space feeds every nonzero row, tagged with
its position, for its kernel vector, and hands each zero row's monomial, a
unit kernel vector, to the canonicalizing pass.
A multilinear polynomial is fixed by its values on the basis tuples, so
is_identity and evaluate_poly both read that one value table
(_value_table), with the polynomial's variables renamed to 1..n in
increasing order, kept as a prefix trie with no empty branch.  is_identity
builds it per call; evaluate_poly builds it once per polynomial and action,
and at a rational assignment walks it over the vectors' supports, returning
zero at the first dead prefix.

consequences_space runs on integers too.  It builds one formal instance of a
generator per shape, substituted, multiplied out and collapsed on variables
1..n in order.  It closes them under the derivations and the decorations
x -> x^u letter by letter, through each letter's right and left action on
the envelope, then under two renamings of the variables that generate S_n.
Every row it feeds is a primitive int row, a positive multiple of the
rational one, so the span is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from itertools import chain, permutations, product as iproduct
from math import factorial, gcd, lcm
from operator import mul

from .algebra import LieAction, StructureAlgebra, direct_sum, integer_product
from .errors import (
    AlphabetMismatch,
    BadParams,
    DenominatorDivisibleByPrime,
    NotMultilinear,
    SizeCap,
    WordCapExceeded,
)
from .linalg import Matrix, ONE, ZERO, SparseRREF, Subspace, draw_prime
from .linalg import frac, integer_vector

Word = tuple  # of closure-basis indices

DEFAULT_MAX_ENTRIES = 10**7
_RATIONAL_TYPES = frozenset((int, Fraction))  # the coordinate types evaluate_poly takes


# ---------------------------------------------------------------------------
# PBW normal form


def pbw_normalize_word(act: LieAction, word: Word) -> dict:
    """Rewrite a word into the span of non-decreasing words."""
    cache = act._pbw_cache
    if word in cache:
        return cache[word]
    for i in range(len(word) - 1):
        if word[i] > word[i + 1]:
            a, b = word[i], word[i + 1]
            prefix, suffix = word[:i], word[i + 2 :]
            out: dict = {}
            _accumulate(out, pbw_normalize_word(act, prefix + (b, a) + suffix), ONE)
            for k, c in enumerate(act.bracket_constants[a][b]):
                if c:
                    _accumulate(out, pbw_normalize_word(act, prefix + (k,) + suffix), c)
            out = {w: v for w, v in out.items() if v}
            cache[word] = out
            return out
    cache[word] = {word: ONE}
    return cache[word]


def _add(target: dict, key, c) -> None:
    """target[key] += c, dropping the key when the sum is zero."""
    nv = target.get(key, ZERO) + c
    if nv:
        target[key] = nv
    else:
        target.pop(key, None)


def _accumulate(target: dict, source: dict, factor):
    for k, v in source.items():
        _add(target, k, factor * v)


def collapse_word(act: LieAction, word: Word) -> dict:
    """Coordinates of the word's operator in the envelope basis, as a sparse
    {index: coefficient} dict: the identity {0: 1} carried through the
    envelope's right action of each letter in turn."""
    cache = act._collapse_cache
    if word not in cache:
        coords = {0: ONE}
        for letter in word:
            right = act.envelope.right[letter]
            out: dict = {}
            for i, c in coords.items():
                _accumulate(out, right[i], c)
            coords = out
        cache[word] = coords
    return cache[word]


def default_word_cap(act: LieAction) -> int:
    """Length at which the envelope closure stabilized, plus one."""
    longest = max((len(w) for w in act.envelope.word_reps), default=0)
    return longest + 1


# ---------------------------------------------------------------------------
# L-polynomials


@dataclass(frozen=True)
class LPolynomial:
    """Multilinear differential polynomial: {(vars, words): coefficient}.

    A term key is a pair of equal-length tuples: the variable visiting order
    (one occurrence of each of 1..n) and the per-position exponent words.
    """

    terms: dict
    degree: int

    @classmethod
    def from_terms(cls, terms: dict) -> "LPolynomial":
        """The polynomial of nonzero terms that all use the same variables,
        each once; NotMultilinear otherwise."""
        terms = {k: frac(v) for k, v in terms.items() if v}
        used = [frozenset(vars_) for vars_, _w in terms]
        for (vars_, words), variables in zip(terms, used):
            if len(variables) != len(vars_) or len(words) != len(vars_):
                raise NotMultilinear(f"bad term {(vars_, words)}")
            if variables != used[0]:
                raise NotMultilinear(
                    f"terms over variables {tuple(sorted(used[0]))} and {tuple(sorted(variables))}"
                )
        return cls(terms=terms, degree=len(used[0]) if used else 0)

    @classmethod
    def variable(cls, i: int, word: Word = ()) -> "LPolynomial":
        return cls(terms={((i,), (tuple(word),)): ONE}, degree=1)

    @classmethod
    def monomial(cls, vars_) -> "LPolynomial":
        """The undecorated product of the variables in the given order;
        monomial(()) is the unit of *."""
        vars_ = tuple(vars_)
        return cls.from_terms({(vars_, ((),) * len(vars_)): ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LPolynomial") -> "LPolynomial":
        out = dict(self.terms)
        _accumulate(out, other.terms, ONE)
        return LPolynomial.from_terms(out)

    def __sub__(self, other: "LPolynomial") -> "LPolynomial":
        out = dict(self.terms)
        _accumulate(out, other.terms, -ONE)
        return LPolynomial.from_terms(out)

    def scale(self, c) -> "LPolynomial":
        c = frac(c)
        return LPolynomial.from_terms({k: c * v for k, v in self.terms.items()})

    def __mul__(self, other: "LPolynomial") -> "LPolynomial":
        out: dict = {}
        for (v1, w1), c1 in self.terms.items():
            for (v2, w2), c2 in other.terms.items():
                if set(v1) & set(v2):
                    raise NotMultilinear("products need disjoint variables")
                _add(out, (v1 + v2, w1 + w2), c1 * c2)
        return LPolynomial(terms=out, degree=self.degree + other.degree if out else 0)


def commutator_poly(f: LPolynomial, g: LPolynomial) -> LPolynomial:
    return f * g - g * f


def left_normed_commutator(polys: list[LPolynomial]) -> LPolynomial:
    out = polys[0]
    for p in polys[1:]:
        out = commutator_poly(out, p)
    return out


def _expand_words(f: LPolynomial, expand) -> dict:
    """Terms of f with each exponent word w replaced by expand(w), a dict
    {exponent: coefficient}, multiplied out over the positions of a term.

    Each position's expansion is taken once per term.
    """
    out: dict = {}
    for (vars_, words), c in f.terms.items():
        stack = [((), c)]
        for w in words:
            exp = expand(w)
            stack = [
                (done + (e,), coeff * ec)
                for done, coeff in stack
                for e, ec in exp.items()
            ]
        for done, coeff in stack:
            _add(out, (vars_, done), coeff)
    return out


def normalize_poly(act: LieAction, f: LPolynomial) -> LPolynomial:
    """f with every exponent word rewritten into PBW normal form
    (pbw_normalize_word); the value of f on A is unchanged."""
    return LPolynomial.from_terms(_expand_words(f, lambda w: pbw_normalize_word(act, w)))


def derive_polynomial(
    f: LPolynomial, letter: int, act: LieAction, cap: int | None = None
) -> LPolynomial:
    """Leibniz action of a closure-basis derivation on a polynomial."""
    if cap is None:
        cap = default_word_cap(act)
    out: dict = {}
    for (vars_, words), c in f.terms.items():
        for pos in range(len(words)):
            new_word = tuple(words[pos]) + (letter,)
            if len(new_word) > cap:
                raise WordCapExceeded(f"word length {len(new_word)} > cap {cap}")
            _add(out, (vars_, words[:pos] + (new_word,) + words[pos + 1 :]), c)
    return normalize_poly(act, LPolynomial.from_terms(out))


def substitute(
    f: LPolynomial,
    assignment: dict,
    act: LieAction,
    cap: int | None = None,
) -> LPolynomial:
    """Endomorphism sending each variable to a product of variables.

    assignment maps every variable of f to a tuple of variable indices; the
    images must be pairwise disjoint.  A decorated occurrence x^w is sent to
    the image monomial acted on by w via iterated Leibniz.  The result keeps
    the image variables: x1 x2 under {1: (2, 4), 2: (5,)} is x2 x4 x5.
    """
    if cap is None:
        cap = default_word_cap(act)
    seen: set = set()
    for img in assignment.values():
        if seen & set(img):
            raise NotMultilinear("assignment images are not disjoint")
        seen.update(img)
    out: dict = {}
    for (vars_, words), c in f.terms.items():
        term_poly = LPolynomial.monomial(())
        for v, w in zip(vars_, words):
            block = LPolynomial.monomial(assignment[v])
            for letter in w:
                block = derive_polynomial(block, letter, act, cap=cap)
            term_poly = term_poly * block
        _accumulate(out, term_poly.terms, c)
    return normalize_poly(act, LPolynomial.from_terms(out))


# ---------------------------------------------------------------------------
# monomial bases and evaluation


@dataclass
class Monomials:
    """The degree-n monomials (vars, exps) over width operators, by position:
    the basis of P_n^L that rows, kernels and closures are written in.  The
    variable orders come in lex order (permutations of 1..n), and within
    each the exponent tuples in lex order (product of range(width)), so the
    monomials of one order hold the `block` consecutive positions from
    order_rank(vars) * block on.  Positions are computed, not tabulated;
    position keeps the rank and the code of each order and tuple it meets."""

    n: int
    width: int
    _ranks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _codes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise BadParams("degree must be at least 1")
        self.block = self.width**self.n
        self.count = factorial(self.n) * self.block

    def __len__(self) -> int:
        return self.count

    def orders(self):
        """(start, vars) for each variable order, in position order."""
        return zip(range(0, self.count, self.block), permutations(range(1, self.n + 1)))

    def __iter__(self):
        exps = list(iproduct(range(self.width), repeat=self.n))
        return ((vars_, e) for _start, vars_ in self.orders() for e in exps)

    def __getitem__(self, position: int) -> tuple:
        if not 0 <= position < self.count:
            raise IndexError(f"position {position} outside 0..{self.count - 1}")
        rank, code = divmod(position, self.block)
        rest, vars_ = list(range(1, self.n + 1)), []
        for left in range(self.n - 1, -1, -1):
            i, rank = divmod(rank, factorial(left))
            vars_.append(rest.pop(i))
        exps = (code // self.width ** (self.n - 1 - i) % self.width for i in range(self.n))
        return tuple(vars_), tuple(exps)

    def order_rank(self, vars_: tuple) -> int:
        """The index of a variable order among the n! orders, in lex order."""
        rank, rest = 0, list(range(1, self.n + 1))
        for v in vars_:
            i = rest.index(v)
            rank = rank * len(rest) + i
            rest.pop(i)
        return rank

    def exponent_code(self, exps: tuple) -> int:
        """The offset of an exponent tuple within its order's block."""
        return sum(u * self.width ** (self.n - 1 - i) for i, u in enumerate(exps))

    def position(self, vars_: tuple, exps: tuple) -> int:
        rank = self._ranks.get(vars_)
        if rank is None:
            rank = self._ranks[vars_] = self.order_rank(vars_)
        code = self._codes.get(exps)
        if code is None:
            code = self._codes[exps] = self.exponent_code(exps)
        return rank * self.block + code


class LabelRenaming(dict):
    """Column label -> renamed label, for EvaluationRows.renaming: each label
    is computed on first use and kept."""

    def __init__(self, dim: int, weights: list):
        super().__init__()
        self.dim = dim
        # the new weight of each variable, last variable (lowest digit) first
        self.weights = weights[::-1]

    def __missing__(self, label: int) -> int:
        dim = self.dim
        t, out = divmod(label, dim)
        for w in self.weights:
            t, digit = divmod(t, dim)
            out += digit * w
        self[label] = out
        return out


class EvaluationRows:
    """Integer evaluation rows of an algebra under a list of operators.

    Row (vars, exps) maps a column to the value of the monomial whose
    variable in position i carries ops[exps[i]].  Column (t, k), for the
    basis tuple t indexed by variable and the output coordinate k, is the
    int label (sum_i t_i * dim^(n-i)) * dim + k, which sorts like (t, k);
    label_tuple reads t back.  Denominators are cleared once: D_a for the
    applied-operator table, D_c for the structure constants (the algebra's
    integer_table).  Every degree-n row is then the rational row times
    D_a^n * D_c^(n-1), one scale for all rows of a degree, so ranks and left
    kernels are those of the rational rows.  Modulo a prime dividing
    `denominator` that scale vanishes, so such a prime is refused.
    ops[0] must be the identity, as it is in an envelope's op_basis and in
    the generator words of containment_check.
    Rows have one builder, first_order_rows; rows(), combined_rows and
    _rank_closure rename its rows.
    """

    def __init__(self, alg: StructureAlgebra, ops: list[Matrix]):
        if not ops or ops[0] != Matrix.identity(alg.dim):
            raise ValueError("the first operator must be the identity")
        forms = [op.integer_form for op in ops]
        d_a = lcm(*(d for d, _rows in forms))
        d_c, self.products = alg.integer_table
        self.denominators = d_a, d_c
        self.denominator = d_a * d_c
        self.dim = alg.dim
        self.width = len(ops)
        # by_op[u] = [(b, {k: D_a * (e_b acted by ops[u])_k}), ...], nonzero only
        self.by_op = [
            [(b, {k: x * (d_a // d) for k, x in row}) for b, row in enumerate(rows) if row]
            for d, rows in forms
        ]

    def _weights(self, vars_: tuple) -> list:
        """The label weight of each position: dim^(n+1-v) for its variable v,
        so that a positional basis tuple bt sits at sum(bt[i] * weight[i])."""
        n, dim = len(vars_), self.dim
        return [dim ** (n + 1 - v) for v in vars_]

    def scale(self, n: int) -> int:
        """D_a^n * D_c^(n-1), the positive integer every degree-n row is its
        rational row times."""
        d_a, d_c = self.denominators
        return d_a**n * d_c ** (n - 1)

    def label_tuple(self, label: int, n: int) -> tuple:
        """The basis tuple, indexed by variable, of a degree-n column label."""
        t, dim = label // self.dim, self.dim
        return tuple(t // dim ** (n - 1 - i) % dim for i in range(n))

    def renaming(self, sigma: tuple) -> "LabelRenaming":
        """The map of degree-n column labels, n = len(sigma), under the
        renaming of each variable v to sigma[v - 1]: the basis element at v
        moves to sigma[v - 1], so the n base-dim digits of label // dim are
        permuted.  The row of the variable order vars is the row of (1..n)
        mapped by renaming(vars)."""
        return LabelRenaming(self.dim, self._weights(sigma))

    @cached_property
    def _nilpotent(self) -> bool:
        """Whether A^(dim+1) = 0, that is, A is nilpotent: exactly when
        tr L_x = 0 for every x, L_x being left multiplication by x.  A
        nilpotent L_x has trace 0, and an algebra that is not nilpotent
        holds an idempotent e, whose L_e is a projection of trace
        dim(eA) > 0.  The trace of L_(e_i) is sum_j c_ijj."""
        return not any(
            x for row in self.products for j, cell in enumerate(row) for k, x in cell if k == j
        )

    def _positional_table(
        self, n: int, max_entries: int, wanted: set | None = None
    ) -> tuple[dict, int]:
        """({exps: [(positional basis tuple, product)]}, charged): the table
        over the live exponent tuples only, in lex order, nonzero products
        only, and what it was charged.  first_order_rows is its one reader.

        A product depends only on the exponent tuple and on which basis
        element sits in each position, so it is computed once per tuple,
        level by level, each level extending the products of the one before.
        A prefix whose products are all zero is dropped at the level where
        it dies, since every extension of a zero product is zero.  Every
        product, at every level, counts against max_entries as it is
        computed: n, the most ints its basis tuple holds, and once it is
        stored its nonzero coordinates.  The table stops as soon as the
        count passes the budget, so it bounds both the products computed
        and the table's size.  With wanted, a set of exponent tuples, only
        those and their prefixes are built.
        """
        prefixes = None
        if wanted is not None:
            prefixes = {exps[:i] for exps in wanted for i in range(1, n + 1)}
        products = self.products
        level: dict = {(): [((), None)]}
        charged = 0
        for _depth in range(n):
            nxt = {}
            for exps, partial in level.items():
                for u, column in enumerate(self.by_op):
                    if prefixes is not None and exps + (u,) not in prefixes:
                        continue
                    out = []
                    for bt, prod in partial:
                        for b, vec in column:
                            p = vec if prod is None else integer_product(products, prod, vec)
                            charged += n
                            if p:
                                out.append((bt + (b,), p))
                                charged += len(p)
                            if charged > max_entries:
                                raise SizeCap(
                                    f"{charged} charged entries exceed the budget {max_entries}"
                                )
                    if out:
                        nxt[exps + (u,)] = out
            level = nxt
        return level, charged

    def first_order_rows(
        self, n: int, max_entries: int = DEFAULT_MAX_ENTRIES, wanted: set | None = None
    ) -> tuple[dict, int]:
        """({exps: row}, charged): the nonzero rows of the variable order
        (1..n), keyed by live exponent tuple in lex order (only the wanted
        ones, if given), and what the positional table was charged.  Each
        tuple's table entries are freed once its row is built.  A degree
        below 1 is refused, and a nilpotent A has no live tuple past its
        dimension, both before any table is built."""
        if n < 1:
            raise BadParams("degree must be at least 1")
        if self._nilpotent and n > self.dim:
            return {}, 0
        table, charged = self._positional_table(n, max_entries, wanted)
        weights = self._weights(tuple(range(1, n + 1)))
        rows = {}
        for exps in list(table):
            row = rows[exps] = {}
            for bt, prod in table.pop(exps):
                base = sum(map(mul, bt, weights))
                for k, c in prod.items():
                    row[base + k] = c
        return rows, charged

    def rows(self, n: int, max_entries: int = DEFAULT_MAX_ENTRIES):
        """The nonzero rows as (position, row) pairs in increasing position
        (Monomials(n, width).position), for identity_space, whose kernel
        vectors need positions: each row of first_order_rows renamed by
        each variable order, charged as in codim (the table, then every row
        yielded).  Their labels are split into digits once, so each order
        renames one by a weighted sum, as renaming(vars) does.  An A that
        is not nilpotent has A^n != 0, so its all-identity tuple is live
        (ops[0] is the identity) and it streams at least n! nonempty rows:
        it is refused before the table when n! alone passes the budget."""
        monomials = Monomials(n, self.width)
        if not self._nilpotent and factorial(n) > max_entries:
            raise SizeCap(f"{n}! variable orders exceed the budget {max_entries}")
        first, charged = self.first_order_rows(n, max_entries)
        if not first:
            return
        live = [(monomials.exponent_code(exps), row) for exps, row in first.items()]
        digits = {c: (c % self.dim, *self.label_tuple(c, n)) for row in first.values() for c in row}
        for start, vars_ in monomials.orders():
            weights = (1, *self._weights(vars_))
            renaming = {label: sum(map(mul, d, weights)) for label, d in digits.items()}
            for offset, row in live:
                row, charged = _renamed(row, renaming, charged, max_entries)
                yield start + offset, row

    def combined_rows(
        self, n: int, combos: list[dict], max_entries: int = DEFAULT_MAX_ENTRIES
    ) -> list[dict]:
        """For each combination {(vars, exps): c} of degree-n monomials, the
        integer row sum c * row(vars, exps), labelled as in rows(): the row
        of exps in first_order_rows renamed by vars.

        Each row is the rational one times a positive integer, so it has the
        same nonzero labels, and a set of them the same rank.  Only the
        exponent tuples the combinations use are built.  A variable outside
        1..n is refused before any table.
        """
        orders = {vars_ for combo in combos for vars_, _e in combo}
        if any(v < 1 or v > n for vars_ in orders for v in vars_):
            raise BadParams(f"a degree-{n} monomial has a variable outside 1..{n}")
        wanted = {exps for combo in combos for _vars, exps in combo}
        first, _charged = self.first_order_rows(n, max_entries, wanted)
        renamings = {vars_: self.renaming(vars_) for vars_ in orders}
        out = []
        for combo in combos:
            scale = lcm(*(c.denominator for c in combo.values()))
            row: dict = {}
            for (vars_, exps), c in combo.items():
                c = c.numerator * (scale // c.denominator)
                renaming = renamings[vars_]
                for label, x in first.get(exps, {}).items():
                    label = renaming[label]
                    row[label] = row.get(label, 0) + c * x
            out.append({label: x for label, x in row.items() if x})
        return out


def _renamed(row: dict, renaming: LabelRenaming, charged: int, max_entries: int) -> tuple:
    """(row renamed, charged + its entries); SizeCap past max_entries."""
    charged += len(row)
    if charged > max_entries:
        raise SizeCap(f"{charged} charged entries exceed the budget {max_entries}")
    return {renaming[c]: x for c, x in row.items()}, charged


def _rank_closure(
    rows: EvaluationRows,
    n: int,
    prime: int | None = None,
    max_entries: int = DEFAULT_MAX_ENTRIES,
):
    """Yield (vars, exps, row) for each degree-n row that raises the rank of
    one rank-only eliminator, exact or modulo prime: the rows yielded are a
    basis of the span of every degree-n row, each with its monomial.

    The row of an order vars is the row of (1..n) with its labels renamed
    by vars, so the rows of (1..n) generate the row space as an S_n-module,
    and closing the rows that raise the rank under generators of S_n
    reaches all of it.  One queue holds (key, vars, exps, row), seeded with
    the rows of (1..n).  Each row popped is fed; one that raises the rank
    is yielded, then renamed by each generator g, which sends the monomial
    (vars, exps) to (g o vars, exps), and the renamed row is queued only if
    its monomial never was, so no monomial's row is built twice.  The
    generators and the key follow the number of live exponent tuples, the
    rows of (1..n):

    * Several: _sn_generators, s_1 and the n-cycle, keyed by the queue's
      running count, so first in, first out (breadth first).
    * One, as under the trivial action: the rows are one S_n-orbit, the n!
      rows of rows().  They are renamed by the adjacent transpositions and
      keyed by their order, so they are fed from a heap in increasing
      position, the stream's order.  On a dense algebra breadth first costs
      more than it saves: mat2 under the trivial action at n = 6 feeds 459
      rows against the stream's 720, but takes a new pivot off a stored one
      29,041 times against 11,976, three times the work.

    The positional table and every renamed row (_renamed) count against
    max_entries, as in rows().
    """
    if prime is not None and rows.denominator % prime == 0:
        raise DenominatorDivisibleByPrime(f"{prime} divides {rows.denominator}")
    rr = SparseRREF(prime=prime)
    first, charged = rows.first_order_rows(n, max_entries)
    identity = tuple(range(1, n + 1))
    by_order = len(first) == 1
    if by_order:
        generators = [(*range(1, i), i + 1, i, *range(i + 2, n + 1)) for i in range(1, n)]
    else:
        generators = _sn_generators(n)
    renamings = [(g, rows.renaming(g)) for g in generators]
    queue = [
        (identity if by_order else i, identity, exps, row)
        for i, (exps, row) in enumerate(first.items())
    ]
    queued = {(identity, exps) for exps in first}
    while queue:
        _key, vars_, exps, row = heappop(queue)
        if rr.add_row(row):
            yield vars_, exps, row
            for g, renaming in renamings:
                order = tuple(g[v - 1] for v in vars_)
                if (order, exps) not in queued:
                    queued.add((order, exps))
                    moved, charged = _renamed(row, renaming, charged, max_entries)
                    heappush(queue, (order if by_order else len(queued), order, exps, moved))


def _sn_generators(n: int) -> list[tuple]:
    """s_1 = (1 2) and the n-cycle v -> v + 1, which generate S_n, each as
    the images of 1..n: the one transposition at n = 2, none at n = 1."""
    return [(2, 1, *range(3, n + 1)), (*range(2, n + 1), 1)][: min(n - 1, 2)]


def codim(
    alg: StructureAlgebra,
    act: LieAction,
    n: int,
    mode: str = "exact",
    seed: int = 0,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> int:
    """n-th differential codimension: rank of the evaluation matrix.

    The rows of the variable order (1..n) generate the row space as an
    S_n-module, so codim builds only those, closes the ones that raise the
    rank under renamings of the variables (_rank_closure) and counts the
    rows the closure yields; a monomial of another order has its row
    built only when the closure first reaches it, and never twice.
    The budget max_entries bounds one count: n for every product the
    positional table computes, the nonzero coordinates of every product it
    keeps, and the entries of every renamed row.  The work stops as soon as
    the count passes the budget, so a degree far over it is refused with
    bounded memory.

    Modular mode takes the rank modulo one prime drawn from seed, a proven
    lower bound on the exact value: the rank of an integer matrix modulo a
    prime is at most its rank over Q.
    """
    if mode not in ("exact", "modular"):
        raise ValueError("mode must be 'exact' or 'modular'")
    rows = EvaluationRows(alg, act.envelope.op_basis)
    prime = draw_prime(seed, rows.denominator) if mode == "modular" else None
    return sum(1 for _ in _rank_closure(rows, n, prime, max_entries))


@dataclass
class IdentityReport:
    degree: int
    codim: int
    identity_dim: int
    kernel: Subspace
    monomial_basis_order: Monomials


def identity_space(
    alg: StructureAlgebra,
    act: LieAction,
    n: int,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> IdentityReport:
    """The rank and the left kernel of the evaluation matrix, over the
    positions of Monomials(n, envelope dim), each of which counts against
    max_entries.  The nonzero rows go to the kernel-tracking eliminator
    tagged with their positions; a monomial with a zero row is its own
    kernel vector, a unit vector, and goes straight to the canonicalizing
    pass: the positions the stream skips, kept as ranges."""
    order = Monomials(n, act.envelope.dim)
    if order.count > max_entries:
        raise SizeCap(f"{order.count} monomials exceed the budget {max_entries}")
    rows = EvaluationRows(alg, act.envelope.op_basis)
    rr = SparseRREF(track_kernel=True)
    dead, after = [], 0
    for position, row in rows.rows(n, max_entries):
        if position > after:
            dead.append(range(after, position))
        after = position + 1
        rr.add_row(row, tag=position)
    dead.append(range(after, order.count))
    kernel = Subspace.from_kernel(order.count, rr, chain.from_iterable(dead))
    return IdentityReport(
        degree=n,
        codim=rr.rank,
        identity_dim=kernel.dim,
        kernel=kernel,
        monomial_basis_order=order,
    )


# ---------------------------------------------------------------------------
# identities of explicit polynomials


def _value_table(f: LPolynomial, act: LieAction, max_entries: int) -> tuple[int, dict]:
    """(scale, trie): f's nonzero values on the basis tuples t, indexed by
    f's variables in increasing order, as nested dicts keyed by t[0], t[1],
    ... with no empty subtrie, the leaf at t being [(k, x), ...], coordinate
    k of the value at t being x / scale.  They are read off f's
    EvaluationRows row, summed over its collapsed terms with its variables
    renamed to 1..n in increasing order.  charge_evaluation comes before any
    row, and the positional table behind the row counts against max_entries
    as in codim."""
    charge_evaluation(f, act.algebra.dim, max_entries)
    terms = collapsed_terms(f, act)
    if not terms:
        return 1, {}
    rank = {v: i for i, v in enumerate(sorted(next(iter(terms))[0]), 1)}
    d = lcm(*(c.denominator for c in terms.values()))
    combo = {
        (tuple(rank[v] for v in vars_), exps): c.numerator * (d // c.denominator)
        for (vars_, exps), c in terms.items()
    }
    rows = EvaluationRows(act.algebra, act.envelope.op_basis)
    trie: dict = {}
    for label, x in rows.combined_rows(f.degree, [combo], max_entries)[0].items():
        *prefix, last = rows.label_tuple(label, f.degree)
        node = trie
        for b in prefix:
            node = node.setdefault(b, {})
        node.setdefault(last, []).append((label % rows.dim, x))
    return d * rows.scale(f.degree), trie


def evaluate_poly(f: LPolynomial, act: LieAction, assignment: list) -> list:
    """Value of f at a tuple of coordinate vectors (index i for variable i+1).

    Every variable of f needs a vector of length dim, and every coordinate
    must be an int or a Fraction, or ValueError is raised before any other
    work.  f is fixed by its values on the basis tuples, so its value table
    (_value_table) is built on first use, under the default budget, and
    kept in act._value_tables with f's variables; a degree over that
    budget raises SizeCap.  The trie is walked variable by variable, each
    vector scaled to integers once while some branch is live, and the zero
    vector is returned at the first dead prefix; the leaves reached are
    summed as ints, with one Fraction per nonzero output coordinate.  f of
    degree 0 has the value 0.
    """
    dim = act.algebra.dim
    entry = act._value_tables.get(id(f))
    variables = entry[3] if entry else sorted(next(iter(f.terms), ((),))[0])
    if variables and (variables[0] < 1 or variables[-1] > len(assignment)):
        raise ValueError("the assignment has no vector for some variable")
    for vector in assignment:
        if len(vector) != dim:
            raise ValueError("assignment vector length does not match the algebra")
    if not _RATIONAL_TYPES.issuperset(map(type, chain.from_iterable(assignment))):
        raise ValueError("assignment coordinates must be ints or Fractions")
    out = [ZERO] * dim
    if not variables:
        return out
    if entry is None:
        table = _value_table(f, act, DEFAULT_MAX_ENTRIES)
        entry = act._value_tables[id(f)] = (f, *table, variables)
    _f, scale, trie, _variables = entry
    # (subtrie, product of the coordinates on its path) per live prefix
    frontier = [(trie, 1)]
    for v in variables:
        d, vec = integer_vector(assignment[v - 1])
        scale *= d
        frontier = [(node[b], c * x) for node, c in frontier for b, x in vec.items() if b in node]
        if not frontier:
            return out
    acc: dict = {}
    for leaf, c in frontier:
        for k, x in leaf:
            acc[k] = acc.get(k, 0) + c * x
    for k, x in acc.items():
        if x:
            out[k] = Fraction(x, scale)
    return out


def charge_evaluation(f: LPolynomial, dim: int, max_entries: int, where: str = "") -> None:
    """SizeCap, its message ending in where, when evaluating f on every
    basis tuple, dim^degree tuples times its terms, passes max_entries."""
    if dim**f.degree * len(f.terms) > max_entries:
        tuples = f"{dim}^{f.degree} basis tuples times {len(f.terms)} terms"
        raise SizeCap(f"{tuples} exceed the budget {max_entries}{where}")


def is_identity(
    f: LPolynomial,
    act: LieAction,
    witness: bool = False,
    max_entries: int = DEFAULT_MAX_ENTRIES,
):
    """True iff f vanishes on all basis tuples (sufficient by multilinearity).

    The answer is read from f's value table (_value_table), built for this
    call under max_entries; the witness is the trie's leftmost path, which,
    no branch being empty, is the least basis tuple where f is nonzero,
    indexed by f's variables in increasing order.  f whose terms
    all collapse to zero, such as the zero polynomial, is an identity
    without any row.
    """
    cap = default_word_cap(act)
    for (_vars, words) in f.terms:
        for w in words:
            if len(w) > cap:
                raise WordCapExceeded(f"word {w} longer than cap {cap}")
    _scale, node = _value_table(f, act, max_entries)
    if not node:
        return (True, None) if witness else True
    path = []
    for _ in range(f.degree):
        path.append(min(node))
        node = node[path[-1]]
    return (False, tuple(path)) if witness else False


# ---------------------------------------------------------------------------
# consequence closure


def _degree_n_instances(g: LPolynomial, n: int, act: LieAction, cap: int):
    """Collapsed degree-n instances u0 * g(m_1..m_k) * u1 as primitive int
    terms, one per shape (sizes of u0 and the m_i) on variables 1..n in order."""
    k = g.degree
    if k > n:
        return
    for extra_left in range(n - k + 1):
        for sizes in _compositions(n - extra_left, k):
            # sizes sum to at most n - extra_left; the remainder multiplies
            # on the right
            pos = extra_left
            images = {}
            for var, size in zip(range(1, k + 1), sizes):
                images[var] = tuple(range(pos + 1, pos + size + 1))
                pos += size
            body = substitute(g, images, act, cap=cap)
            if body.is_zero():
                continue
            left = LPolynomial.monomial(range(1, extra_left + 1))
            right = LPolynomial.monomial(range(pos + 1, n + 1))
            yield _primitive(collapsed_terms(left * body * right, act))


def _compositions(total: int, parts: int):
    """All tuples of `parts` positive integers summing to at most total."""
    if parts == 0:
        yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def collapsed_terms(f: LPolynomial, act: LieAction) -> dict:
    """Terms of f keyed by (vars, envelope index tuple): each word replaced
    by the nonzero coordinates of its operator in the envelope basis
    (collapse_word).  Words with the same operator collapse alike, so f and
    normalize_poly(act, f) have the same collapsed terms."""
    return _expand_words(f, lambda w: collapse_word(act, w))


def _primitive(terms: dict) -> dict:
    """The positive multiple of terms (rational or int coefficients) with
    coprime int coefficients, zeros dropped."""
    d = lcm(*(c.denominator for c in terms.values()))
    ints = {key: c.numerator * (d // c.denominator) for key, c in terms.items() if c}
    content = gcd(*ints.values())
    if content > 1:
        return {key: c // content for key, c in ints.items()}
    return ints


def _collapsed_act(terms: dict, images, var: int | None = None) -> dict:
    """Collapsed int terms with the exponent u at one position replaced by
    images[u] = [(k, x), ...], standing for sum x * op_k; the position is
    var's, or each position in turn (Leibniz) when var is None.  Made
    primitive."""
    out: dict = {}
    for (vars_, exps), c in terms.items():
        positions = range(len(exps)) if var is None else (vars_.index(var),)
        for pos in positions:
            head, tail = exps[:pos], exps[pos + 1 :]
            for k, x in images[exps[pos]]:
                key = (vars_, head + (k,) + tail)
                out[key] = out.get(key, 0) + c * x
    return _primitive(out)


def consequences_space(
    generators: list[LPolynomial],
    n: int,
    act: LieAction,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> Subspace:
    """Span in the envelope-collapsed monomial coordinates of P_n^L, the
    positions of Monomials(n, envelope dim), of all degree-n consequences of
    the generators.

    Instances (substitutions with monomial images plus outer multipliers)
    are built formally and collapsed once per shape, on variables 1..n in
    order (_degree_n_instances).  Their closure V under the derivations and
    x_j -> x_j^u, on collapsed coordinates where the envelope absorbs long
    words, is the collapse of the uncapped formal one.  A renaming sigma
    commutes with the derivations and sends x_j's decorations to x_sigma(j)'s,
    so the span is sum_sigma sigma(V): V's basis closed breadth first under
    s_1 = (1 2) and the n-cycle v -> v + 1, which generate S_n.
    A letter g derives by its right action (op_e -> op_e * g, right[g]) and
    decorates x_j by its left action (op_e -> g * op_e).  The letters of the
    generators of L suffice: the derivation action is a Lie map, so a space
    closed under the generators' derivations is closed under their brackets;
    decorations compose as dec_j(Y) o dec_j(X) = dec_j(Y * X) and are linear
    in Y, and every op_u is a combination of products of generator letters,
    so a space closed under their decorations is closed under every
    x_j -> x_j^u.
    It runs on ints: each side's images for one letter share one
    denominator, cleared once, and every instance, derived and decorated
    row is kept primitive, a positive multiple of its rational counterpart,
    so the span is the same.
    """
    cap = default_word_cap(act)
    for g in generators:
        for (_v, words) in g.terms:
            cap = max(cap, max((len(w) for w in words), default=0))
    monomials = Monomials(n, act.envelope.dim)
    if monomials.count > max_entries:
        raise SizeCap(f"{monomials.count} monomials exceed the budget {max_entries}")
    position = monomials.position
    rr = SparseRREF()

    def push(terms: dict) -> bool:
        return bool(terms) and rr.add_row({position(*key): c for key, c in terms.items()})

    queue: list[dict] = []
    for g in generators:
        for terms in _degree_n_instances(g, n, act, cap):
            if push(terms):
                queue.append(terms)

    def on_ints(images: list[dict]) -> list[list]:
        d = lcm(*(x.denominator for image in images for x in image.values()))
        return [[(k, int(x * d)) for k, x in image.items()] for image in images]

    env = act.envelope
    # each generator letter's right (op_e * g) and left (g * op_e) action, on
    # ints
    sides = [
        (on_ints(env.right[g]), on_ints([collapse_word(act, (g,) + w) for w in env.word_reps]))
        for g in act.generator_letters
    ]
    while queue:
        terms = queue.pop()
        for right, left in sides:
            # the derivation g, then the substitutions x_j -> x_j^g
            acted = [_collapsed_act(terms, right)]
            acted += [_collapsed_act(terms, left, var) for var in range(1, n + 1)]
            queue.extend(row for row in acted if push(row))
    block = monomials.block
    # tables[i][r]: the start of the block that generator i sends order r's block to
    tables = [
        [monomials.order_rank(tuple(s[v - 1] for v in o)) * block for _, o in monomials.orders()]
        for s in _sn_generators(n)
    ]
    frontier = [row for _lead, row in rr.reduced_basis()]
    while frontier:
        renamed = [
            {t[c // block] + c % block: x for c, x in row.items()}
            for row in frontier for t in tables
        ]
        frontier = [row for row in renamed if rr.add_row(row)]
    return Subspace(monomials.count, rr.reduced_basis())


# ---------------------------------------------------------------------------
# cross-algebra containment over formal generator words


def _generator_words(m: int, cap: int) -> list:
    """All words over m generator letters of length at most cap, shortest
    first, each length in lex order."""
    return [w for k in range(cap + 1) for w in iproduct(range(m), repeat=k)]


def _word_matrices(act: LieAction, words: list) -> list[Matrix]:
    """The operator on the action's algebra of each word, words[0] being ()."""
    mats = {(): Matrix.identity(act.algebra.dim)}
    for w in words[1:]:
        mats[w] = mats[w[:-1]] * act.generators[w[-1]].matrix
    return [mats[w] for w in words]


def containment_check(
    act_a: LieAction,
    act_b: LieAction,
    n: int,
    max_entries: int = DEFAULT_MAX_ENTRIES,
):
    """Does Id_n(A) lie inside Id_n(B) over the common generator alphabet?

    Returns (contained, certificate); the certificate is an LPolynomial in
    Id_n(A) \\ Id_n(B) witnessing B outside the variety of A.

    Id(A + B) = Id(A) & Id(B), so the question is whether the rows of the
    direct sum A + B, each generator word w acting as op_w on A plus op_w on
    B, have A's rank.  codim's closure (_rank_closure) yields a basis of
    those rows under max_entries.  A basis tuple that mixes the summands
    has product 0, so a row's entries with an output coordinate in A
    (label % dim below A's dim) are A's row, and the rest are B's.  The A
    parts go to a kernel-tracking eliminator tagged with their monomials.
    The joint rows are independent, so the first A part that does not raise
    A's rank gives a kernel vector over A that is nonzero on B, the
    certificate.  If none does, A + B has A's rank, and the two left kernels
    are equal.
    """
    if len(act_a.generators) != len(act_b.generators):
        raise AlphabetMismatch(
            f"{len(act_a.generators)} vs {len(act_b.generators)} generators"
        )
    cap = max(default_word_cap(act_a), default_word_cap(act_b))
    words = _generator_words(len(act_a.generators), cap)
    dim_a, dim_b = act_a.algebra.dim, act_b.algebra.dim
    ops = [
        Matrix.from_rows(
            [row + [ZERO] * dim_b for row in op_a.entries]
            + [[ZERO] * dim_a + row for row in op_b.entries]
        )
        for op_a, op_b in zip(_word_matrices(act_a, words), _word_matrices(act_b, words))
    ]
    rows = EvaluationRows(direct_sum(act_a.algebra, act_b.algebra), ops)
    kernel_a = SparseRREF(track_kernel=True)
    for vars_, exps, row in _rank_closure(rows, n, max_entries=max_entries):
        part_a = {label: x for label, x in row.items() if label % rows.dim < dim_a}
        if not kernel_a.add_row(part_a, tag=(vars_, tuple(words[u] for u in exps))):
            return False, LPolynomial.from_terms(kernel_a.kernel[-1])
    return True, None
