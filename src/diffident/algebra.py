"""Structure-constant algebras, derivations, Lie closures and envelopes.

An algebra is given by an N x N x N table: e_i e_j = sum_k c[i][j][k] e_k.
Derivations are N x N matrices acting on row coordinate vectors from the
right, so "apply d1, then d2" is the matrix product d1*d2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence

from .errors import (
    AmbientMismatch,
    BadParams,
    InternalVerificationFailed,
    NotADerivation,
    NotAssociative,
    NotAUnit,
)
from .linalg import Matrix, ONE, ZERO, SparseRREF, Subspace, common_denominator, frac
from .linalg import divided, integer_vector, matrix_coordinates


class StructureAlgebra:
    """Finite-dimensional associative algebra over Q given by structure constants.

    unit_pairs, set by the matrix-unit built-ins, maps (i, j) to the basis
    index of e_(i+1)(j+1).

    _wedderburn holds the algebra's verified Wedderburn-Malcev decomposition
    once structure.wedderburn_malcev has computed it (None until then), so
    every exponent and block check shares one decomposition per algebra.
    """

    def __init__(
        self, constants, unit_vector=None, label: str = "", unit_pairs=None, _skip_checks=False
    ):
        self.dim = len(constants)
        self.constants = [
            [[frac(x) for x in cell] for cell in row] for row in constants
        ]
        for row in self.constants:
            if len(row) != self.dim or any(len(cell) != self.dim for cell in row):
                raise BadParams("structure constants must be N x N x N")
        self.unit_vector = None if unit_vector is None else [frac(x) for x in unit_vector]
        self.label = label
        self.unit_pairs: dict | None = unit_pairs
        self._wedderburn = None
        if not _skip_checks:
            self._check_associative()
            if self.unit_vector is not None:
                self._check_unit()

    # -- products ----------------------------------------------------------

    def multiply(self, u: Sequence, v: Sequence) -> list:
        """u * v, on integers: both factors are scaled once to integer
        vectors, multiplied through integer_table and divided once per
        output coordinate."""
        d_c, table = self.integer_table
        d_u, iu = integer_vector(u)
        d_v, iv = integer_vector(v)
        out = [0] * self.dim
        for k, x in integer_product(table, iu, iv).items():
            out[k] = x
        return divided(out, d_u * d_v * d_c)

    @cached_property
    def integer_table(self) -> tuple[int, list]:
        """(D_c, table): D_c is the common denominator of the structure
        constants and table[i][j] = [(k, D_c * c_ijk), ...], nonzero only."""
        rows = self.constants
        d = common_denominator(x for r in rows for cell in r for x in cell)
        return d, [[[(k, int(c * d)) for k, c in enumerate(cell) if c] for cell in r] for r in rows]

    def basis_vector(self, i: int) -> list:
        vec = [ZERO] * self.dim
        vec[i] = ONE
        return vec

    # -- verification ------------------------------------------------------

    def _check_associative(self):
        """(e_i e_j) e_k = e_i (e_j e_k) on every basis triple, on integers.

        table[i][j] holds D_c * e_i e_j, so integer_product gives
        D_c^2 * (e_i e_j) e_k from the factors table[i][j] and e_k, and
        D_c^2 * e_i (e_j e_k) from e_i and table[j][k].  Both sides carry the
        same positive scale D_c^2, so the integer vectors are equal exactly
        when the rational products are."""
        n = self.dim
        table = self.integer_table[1]
        cells = [[dict(cell) for cell in row] for row in table]
        for i in range(n):
            for j in range(n):
                ij = cells[i][j]
                for k in range(n):
                    left = integer_product(table, ij, {k: 1})
                    if left != integer_product(table, {i: 1}, cells[j][k]):
                        raise NotAssociative((i, j, k))

    def _check_unit(self):
        u = self.unit_vector
        for i in range(self.dim):
            e = self.basis_vector(i)
            if self.multiply(u, e) != e or self.multiply(e, u) != e:
                raise NotAUnit(f"fails on basis element {i}")

    # -- misc --------------------------------------------------------------

    def subspace_product(self, u: Subspace, v: Subspace) -> Subspace:
        """Span of all pairwise products of the rows of u and v, on integers."""
        if u.ambient_dim != self.dim or v.ambient_dim != self.dim:
            raise AmbientMismatch("subspace ambient differs from algebra dimension")
        table = self.integer_table[1]
        products = [integer_product(table, a, b) for _, a in u.rows for _, b in v.rows]
        return Subspace.spanned(self.dim, products)

    def __repr__(self):
        return f"StructureAlgebra({self.label or 'dim %d' % self.dim})"


def integer_product(table: list, u: dict, v: dict) -> dict:
    """D_c * u * v for sparse integer vectors u, v, with (D_c, table) an
    algebra's integer_table; zeros dropped.  The accumulator is returned as
    it is unless an entry cancelled to zero."""
    out: dict = {}
    for i, a in u.items():
        row = table[i]
        for j, b in v.items():
            ab = a * b
            for k, c in row[j]:
                out[k] = out.get(k, 0) + ab * c
    if all(out.values()):
        return out
    return {k: x for k, x in out.items() if x}


@dataclass(frozen=True)
class Derivation:
    """A derivation presented by its coordinate matrix (right action)."""

    matrix: Matrix
    name: str = ""


def make_algebra(constants, unit_vector=None, label: str = "") -> StructureAlgebra:
    return StructureAlgebra(constants, unit_vector=unit_vector, label=label)


def inner_derivation(alg: StructureAlgebra, a: Sequence, name: str = "") -> Derivation:
    """ad_a : x -> xa - ax."""
    a = [frac(x) for x in a]
    rows = []
    for i in range(alg.dim):
        e = alg.basis_vector(i)
        xa = alg.multiply(e, a)
        ax = alg.multiply(a, e)
        rows.append([p - q for p, q in zip(xa, ax)])
    return Derivation(Matrix.from_rows(rows), name=name)


def leibniz_failure(alg: StructureAlgebra, m: Matrix) -> Optional[tuple[int, int]]:
    """The first basis pair (i, j) on which m breaks D(e_i e_j) =
    D(e_i) e_j + e_i D(e_j), or None when m is a derivation of alg.

    Works on integers: with (D_c, table) alg's integer_table and (d, rows)
    m's integer_form, the left side is d * D_c * D(e_i e_j), table[i][j] run
    through rows, and the right side is d * D_c * (D(e_i) e_j + e_i D(e_j)),
    the integer products of rows[i] with e_j and of e_i with rows[j].  Both
    sides carry the same positive scale d * D_c, so the integer vectors are
    equal exactly when the rational ones are."""
    n = alg.dim
    if m.rows != n or m.cols != n:
        raise BadParams("derivation matrix must be N x N")
    table = alg.integer_table[1]
    images = [dict(row) for row in m.integer_form[1]]
    for i in range(n):
        for j in range(n):
            lhs = {k: x for k, x in enumerate(m.integer_apply(table[i][j])) if x}
            rhs = integer_product(table, images[i], {j: 1})
            for k, x in integer_product(table, {i: 1}, images[j]).items():
                rhs[k] = rhs.get(k, 0) + x
            if lhs != {k: x for k, x in rhs.items() if x}:
                return i, j
    return None


def commutator(a: Matrix, b: Matrix) -> Matrix:
    """ab - ba as one integer accumulation: with (d_a, A) and (d_b, B) the
    integer forms, row i of d_a * d_b * (ab - ba) is A_i B - B_i A."""
    d_a, left = a.integer_form
    d_b, right = b.integer_form
    accs = []
    for row_a, row_b in zip(left, right):
        acc = [0] * a.cols
        for k, x in row_a:
            for j, y in right[k]:
                acc[j] += x * y
        for k, y in row_b:
            for j, x in left[k]:
                acc[j] -= y * x
        accs.append(acc)
    return Matrix.from_integer(a.rows, a.cols, d_a * d_b, accs)


@dataclass
class Envelope:
    """Unital associative algebra generated by the closure matrices.

    op_basis[0] is the identity; word_reps[i] is one word in closure-basis
    indices realizing op_basis[i] as a product (left-to-right application).
    right[g][i] holds the coordinates of op_basis[i] * g (apply op_basis[i],
    then closure matrix g) as a sparse {index: coefficient} dict: the
    envelope's right action, which the walk of envelope() computes.
    solver holds op_basis[i] under tag i as its integer entries, so the
    basis is factored once.
    """

    op_basis: list[Matrix]
    word_reps: list[tuple[int, ...]]
    right: list[list[dict]]
    solver: SparseRREF = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.op_basis)

    def expand(self, m: Matrix) -> Optional[dict]:
        """Coordinates of m in op_basis as a sparse {index: coefficient}
        dict, or None if m is outside the span: the integer entries of m
        solved in the solver, rescaled by each operator's denominator."""
        return matrix_coordinates(self.solver, self.op_basis, m)


def _lie_closure_matrices(generators: list[Matrix]) -> tuple[list[Matrix], list[int], SparseRREF]:
    """A basis of the Lie algebra the generators generate, each element's
    index in the queue (below len(generators) for a generator, left out when
    zero or a combination of those before it), and a tagged eliminator
    holding its i-th element under tag i as its integer entries.  The queue
    holds the integer commutators of each kept element with those before."""
    basis: list[Matrix] = []
    sources: list[int] = []
    solver = SparseRREF(tagged=True)
    queue = list(generators)
    for q, m in enumerate(queue):  # the queue grows while it is walked
        if solver.add_row(m.integer_entries(), tag=len(basis)):
            basis.append(m)
            sources.append(q)
            queue.extend(commutator(other, m) for other in basis)
    return basis, sources, solver


@dataclass
class LieAction:
    """Derivation generators, their Lie closure, and the acting envelope."""

    algebra: StructureAlgebra
    generators: list[Derivation]
    closure_basis: list[Derivation]
    # closure indices of the generators kept in the closure basis: under
    # brackets they give the closure, and their letters generate the envelope
    generator_letters: list[int]
    bracket_constants: list[list[list[Fraction]]]
    envelope: Envelope
    # word -> result caches of piengine.pbw_normalize_word and collapse_word
    _pbw_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _collapse_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # id(f) -> (f, scale, trie, variables): the value table (a prefix trie
    # over basis tuples) and sorted variables of each polynomial f that
    # piengine.evaluate_poly walks; holding f keeps the id from being reused
    _value_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # piengine.EvaluationRows of the algebra under the envelope's op_basis,
    # shared by codim, identity_space and every value table (None until
    # piengine.action_rows builds it)
    _evaluation_rows: object = field(default=None, init=False, repr=False, compare=False)
    # id(other) -> (other, words, rows): piengine.containment_check's
    # generator words and EvaluationRows on the direct sum with each action
    # it was checked against; holding other keeps the id from being reused
    _containment_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # block sequence -> B_s1^L A+ ... A+ B_sk^L, exponent._differential_step's
    # chain products; the length-1 entries are the moved blocks B_i^L
    _differential_chains: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def closure_dim(self) -> int:
        return len(self.closure_basis)


def envelope(alg: StructureAlgebra, closure_matrices: list[Matrix]) -> Envelope:
    """Multiplicative closure of {identity} u closure basis, breadth-first.

    Each product op_basis[i] * g, built in integer form, is expanded once
    (Envelope.expand, on its integer entries), and joins the basis when
    outside the span.  The coordinates kept in right prove the span closed
    under products, since every operator is a word in the closure matrices.
    """
    ident = Matrix.identity(alg.dim)
    solver = SparseRREF(tagged=True)
    solver.add_row(ident.integer_entries(), tag=0)
    op_basis, words, right = [ident], [()], [[] for _ in closure_matrices]
    env = Envelope(op_basis, words, right, solver)
    for bi, op in enumerate(op_basis):  # op_basis grows while it is walked
        for gi, g in enumerate(closure_matrices):
            m = op * g  # apply op, then g
            coords = env.expand(m)
            if coords is None:
                coords = {len(op_basis): ONE}
                solver.add_row(m.integer_entries(), tag=len(op_basis))
                op_basis.append(m)
                words.append(words[bi] + (gi,))
            right[gi].append(coords)
    return env


def lie_closure(alg: StructureAlgebra, generators: list[Derivation]) -> LieAction:
    for d in generators:
        pair = leibniz_failure(alg, d.matrix)
        if pair is not None:
            raise NotADerivation(pair, d.name)
    closure_mats, sources, solver = _lie_closure_matrices([d.matrix for d in generators])
    # a commutator at closure index i is named d<j> for the least j >= i that
    # no input derivation and no earlier commutator holds
    taken = {d.name for d in generators}
    closure = []
    for i, (m, q) in enumerate(zip(closure_mats, sources)):
        if q < len(generators):
            name = generators[q].name
        else:
            j = i
            while f"d{j}" in taken:
                j += 1
            name = f"d{j}"
            taken.add(name)
        closure.append(Derivation(m, name=name))
    env = envelope(alg, closure_mats)
    # bracket constants of the closure in its own basis
    k = len(closure_mats)
    brackets = []
    for a in closure_mats:
        row = []
        for b in closure_mats:
            combo = matrix_coordinates(solver, closure_mats, commutator(a, b))
            if combo is None:
                raise InternalVerificationFailed("closure not bracket-closed")
            row.append([combo.get(i, ZERO) for i in range(k)])
        brackets.append(row)
    return LieAction(
        algebra=alg,
        generators=generators,
        closure_basis=closure,
        generator_letters=[i for i, q in enumerate(sources) if q < len(generators)],
        bracket_constants=brackets,
        envelope=env,
    )


def subspace_under_action(
    s: Subspace, env: Envelope, include_identity: bool = True
) -> Subspace:
    """Span of b^u for b in s and u over the envelope basis, on integers:
    each integer row of s times each operator's integer form.

    With include_identity False only operators carrying a non-empty word are
    applied (the non-unital variant).
    """
    ambient = env.op_basis[0].rows
    if s.ambient_dim != ambient:
        raise AmbientMismatch("subspace ambient differs from algebra dimension")
    ops = [op for op, w in zip(env.op_basis, env.word_reps) if include_identity or w]
    rows = [dict(enumerate(op.integer_apply(b.items()))) for op in ops for _, b in s.rows]
    return Subspace.spanned(ambient, rows)


def trivial_action(alg: StructureAlgebra) -> LieAction:
    return lie_closure(alg, [])


# ---------------------------------------------------------------------------
# built-in algebras


def _ut_basis(n: int):
    return [(i, j) for i in range(n) for j in range(i, n)]


def _matrix_units_algebra(pairs, label):
    dim = len(pairs)
    index = {p: k for k, p in enumerate(pairs)}
    constants = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if j == k and (i, l) in index:
                constants[a][b][index[(i, l)]] = ONE
    size = 1 + max(max(i, j) for i, j in pairs)
    unit = [ZERO] * dim
    for d in range(size):
        if (d, d) in index:
            unit[index[(d, d)]] = ONE
    return StructureAlgebra(
        constants, unit_vector=unit, label=label, unit_pairs=index, _skip_checks=True
    )


def ut(n: int) -> StructureAlgebra:
    if n < 1:
        raise BadParams("ut(n) needs n >= 1")
    return _matrix_units_algebra(_ut_basis(n), f"ut{n}")


def full_matrix(n: int) -> StructureAlgebra:
    if n < 1:
        raise BadParams("full_matrix(n) needs n >= 1")
    pairs = [(i, j) for i in range(n) for j in range(n)]
    return _matrix_units_algebra(pairs, f"mat{n}")


def matrix_unit_vector(alg: StructureAlgebra, i: int, j: int) -> list:
    """Coordinate vector of e_ij in a matrix-unit built-in (1-based indices)."""
    index = alg.unit_pairs
    if index is None or (i - 1, j - 1) not in index:
        raise BadParams(f"no matrix unit e{i}{j} in {alg.label}")
    return alg.basis_vector(index[(i - 1, j - 1)])


def ad_unit(alg: StructureAlgebra, i: int, j: int, name: str = "") -> Derivation:
    return inner_derivation(
        alg, matrix_unit_vector(alg, i, j), name=name or f"ad{i}{j}"
    )


def truncated_grassmann(k: int) -> StructureAlgebra:
    """Unital exterior algebra on k anticommuting square-zero generators."""
    if k < 1:
        raise BadParams("truncated_grassmann(k) needs k >= 1")
    subsets = []
    for size in range(k + 1):
        subsets.extend(combinations(range(k), size))
    index = {s: i for i, s in enumerate(subsets)}
    dim = len(subsets)
    constants = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for a, s in enumerate(subsets):
        for b, t in enumerate(subsets):
            if set(s) & set(t):
                continue
            merged = tuple(sorted(s + t))
            # sign of the shuffle putting s followed by t in increasing order
            seq = list(s) + list(t)
            sign = 1
            for x in range(len(seq)):
                for y in range(x + 1, len(seq)):
                    if seq[x] > seq[y]:
                        sign = -sign
            constants[a][b][index[merged]] = Fraction(sign)
    unit = [ONE] + [ZERO] * (dim - 1)
    return StructureAlgebra(
        constants, unit_vector=unit, label=f"grassmann{k}", _skip_checks=True
    )


def direct_sum(a: StructureAlgebra, b: StructureAlgebra, label: str = "") -> StructureAlgebra:
    n, m = a.dim, b.dim
    dim = n + m
    constants = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                constants[i][j][k] = a.constants[i][j][k]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                constants[n + i][n + j][n + k] = b.constants[i][j][k]
    unit = None
    if a.unit_vector is not None and b.unit_vector is not None:
        unit = list(a.unit_vector) + list(b.unit_vector)
    return StructureAlgebra(
        constants,
        unit_vector=unit,
        label=label or f"{a.label}(+){b.label}",
        _skip_checks=True,
    )
