"""Exact rational and modular linear algebra.

Everything downstream (structure theory, codimension ranks, subspace
lattices) is built on one incremental exact/modular eliminator, SparseRREF:
add_row grows a span and keeps its pivot rows fully reduced (each zero at
every other lead), solve gives coordinates in it (so a basis is factored
only once), and reduced_basis reads the pivots out as its reduced
row-echelon basis.  Exact elimination is fraction-free: pivot rows are
primitive integer rows, and Fractions appear only when solve and kernel
read out.  Reduced row echelon form, left kernels and canonical subspaces
are views of it, and modulo a prime it gives the rank of codim's modular
mode (a proven lower bound on the rank over Q).
A Subspace is the primitive integer rows of reduced_basis.  Subspace.spanned
feeds sparse rows to one exact eliminator and is the one way to turn rows
into a Subspace (from_kernel feeds kernel vectors in descending order of
their own tags, so that few pivots need back-substituting); kernels, sums,
containment and images work on the integer rows, never on the dense
Fraction basis.  A Matrix acts on an integer row through one loop,
integer_apply, which apply and the matrix product share.
Vectors are rows; a linear map given by a matrix M acts as v -> v*M, so
composing "apply M1, then M2" is the ordinary product M1*M2.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import AmbientMismatch, DenominatorDivisibleByPrime

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Matrix:
    """Dense row-major matrix of exact rationals.

    A Matrix is not mutated after it is built.  It is built from its
    entries, or (from_integer) from integer rows over one denominator, as
    products, sums, differences and commutators are; each form is computed
    from the other on first use and kept.
    """

    __slots__ = ("rows", "cols", "_entries", "_integer_form")

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence]):
        self.rows = rows
        self.cols = cols
        self._entries = [[frac(x) for x in row] for row in entries]
        if len(self._entries) != rows or any(len(r) != cols for r in self._entries):
            raise ValueError("entry shape does not match rows x cols")
        self._integer_form = None

    @classmethod
    def from_integer(cls, rows: int, cols: int, den: int, accs: Sequence[Sequence[int]]) -> "Matrix":
        """The matrix accs / den, for rows x cols dense int rows accs and a
        positive den.  Its integer_form divides den and the ints by their
        gcd, so that d is the lcm of the entries' denominators; the
        Fraction entries are built on first use."""
        m = cls.__new__(cls)
        m.rows, m.cols, m._entries = rows, cols, None
        g = gcd(den, *(x for acc in accs for x in acc if x)) if den != 1 else 1
        m._integer_form = den // g, [
            [(j, x // g) for j, x in enumerate(acc) if x] for acc in accs
        ]
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        rows = [list(r) for r in rows]
        if not rows:
            return cls(0, 0, [])
        return cls(len(rows), len(rows[0]), rows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @property
    def entries(self) -> list:
        """The entries as Fractions, row by row."""
        if self._entries is None:
            d, rows = self._integer_form
            entries = [[ZERO] * self.cols for _ in range(self.rows)]
            for out, row in zip(entries, rows):
                for j, x in row:
                    out[j] = Fraction(x, d)
            self._entries = entries
        return self._entries

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.integer_form == other.integer_form
        )

    def __hash__(self):
        d, rows = self.integer_form
        return hash((self.rows, self.cols, d, tuple(tuple(r) for r in rows)))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.entries!r})"

    def _combined(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other, on the integer forms over their lcm."""
        d_a, left = self.integer_form
        d_b, right = other.integer_form
        d = lcm(d_a, d_b)
        s_a, s_b = d // d_a, sign * (d // d_b)
        accs = []
        for ra, rb in zip(left, right):
            acc = [0] * self.cols
            for j, x in ra:
                acc[j] = s_a * x
            for j, x in rb:
                acc[j] += s_b * x
            accs.append(acc)
        return Matrix.from_integer(self.rows, self.cols, d, accs)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combined(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combined(other, -1)

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix(self.rows, self.cols, [[c * x for x in row] for row in self.entries])

    @property
    def integer_form(self) -> tuple[int, list]:
        """(d, rows): d is the lcm of the entries' denominators and rows[i] =
        [(j, d * entry), ...] over the nonzero entries of row i, as ints."""
        if self._integer_form is None:
            d = common_denominator(x for row in self._entries for x in row)
            self._integer_form = d, [
                [(j, x.numerator * (d // x.denominator)) for j, x in enumerate(row) if x]
                for row in self._entries
            ]
        return self._integer_form

    def __mul__(self, other: "Matrix") -> "Matrix":
        """The product on the integer forms, built in integer form."""
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        d_left, left = self.integer_form
        den = d_left * other.integer_form[0]
        return Matrix.from_integer(
            self.rows, other.cols, den, [other.integer_apply(row) for row in left]
        )

    def integer_entries(self) -> dict:
        """d * the nonzero entries, as ints keyed by their row-major
        position, d being the denominator of integer_form: the row an
        eliminator holds the matrix as."""
        cols = self.cols
        return {i * cols + j: x for i, row in enumerate(self.integer_form[1]) for j, x in row}

    def integer_apply(self, row: Iterable[tuple]) -> list:
        """d * (row * M) as a dense int list, for an int row given as its
        nonzero (i, x) pairs, d being the denominator of integer_form."""
        rows = self.integer_form[1]
        acc = [0] * self.cols
        for i, a in row:
            for j, b in rows[i]:
                acc[j] += a * b
        return acc

    def apply(self, v: Sequence) -> list:
        """Row vector times matrix, on the integer forms of both."""
        if len(v) != self.rows:
            raise ValueError("vector length does not match matrix rows")
        d_v, vec = integer_vector(v)
        return divided(self.integer_apply(vec.items()), d_v * self.integer_form[0])


def integer_vector(vec: Sequence) -> tuple[int, dict]:
    """(d, {b: d * vec[b]}): a vector of Fractions or ints scaled by the lcm
    of its denominators, nonzero entries only.  One pass takes the entries
    and the lcm of the denominators other than 1, the ZERO and ONE
    singletons by identity; only when that lcm is not 1 are the entries
    rescaled."""
    d = 1
    out = {}
    for b, x in enumerate(vec):
        if x is ZERO:
            continue
        if x is ONE:
            out[b] = 1
        elif x:
            if x.denominator == 1:
                out[b] = x.numerator
            else:
                out[b] = x
                d = lcm(d, x.denominator)
    if d != 1:
        out = {b: x.numerator * (d // x.denominator) for b, x in out.items()}
    return d, out


def divided(acc: Sequence[int], den: int) -> list:
    """The Fractions acc[j] / den, ZERO where acc[j] is 0."""
    if den == 1:
        return [Fraction(c) if c else ZERO for c in acc]
    return [Fraction(c, den) if c else ZERO for c in acc]


def rref(m: Matrix) -> tuple[Matrix, int, list[int]]:
    """Reduced row-echelon form, rank and pivot columns."""
    s = Subspace.from_vectors(m.cols, m.entries)
    rows = list(s.basis) + [[ZERO] * m.cols] * (m.rows - s.dim)
    return Matrix(m.rows, m.cols, rows), s.dim, list(s.pivot_columns)


def left_kernel(m: Matrix) -> "Subspace":
    """Subspace of row vectors v with v*M = 0, read from M's integer_form."""
    rr = SparseRREF(track_kernel=True)
    for i, row in enumerate(m.integer_form[1]):
        rr.add_row(dict(row), tag=i)
    return Subspace.from_kernel(m.rows, rr)


# ---------------------------------------------------------------------------
# denominators and modular primes


def common_denominator(values: Iterable[Fraction]) -> int:
    return lcm(*{x.denominator for x in values})


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5 and 7, which is exact for
    1 < n < 3,215,031,751, the least strong pseudoprime to all four
    (Pomerance, Selfridge and Wagstaff 1980)."""
    for a in (2, 3, 5, 7):
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def draw_prime(seed: int, denominator: int = 1) -> int:
    """A random 31-bit prime not dividing denominator.

    Attempt i draws r from Random(seed * 1_000_003 + i) in [2^30, 2^31) and
    takes the least prime above r, at most 2,147,483,659, where _is_prime is
    exact; a divisor of denominator is skipped, since the entries it would
    reduce have no residue.
    """
    attempt = 0
    while True:
        rng = random.Random(seed * 1_000_003 + attempt)
        attempt += 1
        p = rng.randrange(2**30, 2**31) + 1
        while not _is_prime(p):
            p += 1
        if denominator % p:
            return p


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """Subspace of F^n held as its reduced row-echelon basis (canonical).

    A frozen view of an exact SparseRREF: rows is what its reduced_basis
    returns, which callers must not mutate, and basis and pivot_columns are
    derived from it.
    """

    __slots__ = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, rows: list):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def spanned(cls, ambient_dim: int, rows: Iterable[dict]) -> "Subspace":
        """Span of sparse rows, int or rational dicts over the columns
        0..ambient_dim-1, fed to one exact eliminator."""
        rr = SparseRREF()
        for row in rows:
            rr.add_row(row)
        return cls(ambient_dim, rr.reduced_basis())

    @classmethod
    def from_kernel(
        cls, ambient_dim: int, rr: "SparseRREF", zero_tags: Iterable[int] = ()
    ) -> "Subspace":
        """Left kernel of the rows fed to a track_kernel eliminator, tagged
        by distinct ints in 0..ambient_dim-1, together with zero rows at
        zero_tags, the tags not fed: the span of the kernel vectors and the
        unit vectors of zero_tags.  A vector ends at its own tag, which no
        other holds, when the tags rose as the rows were fed; fed in
        descending order of their last columns, a residual's lead is seldom
        held by a stored row."""
        rows = chain(rr.kernel, ({tag: 1} for tag in zero_tags))
        return cls.spanned(ambient_dim, sorted(rows, key=max, reverse=True))

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        """Span of dense vectors of length ambient_dim."""
        rows = [dict(enumerate(v)) for v in vectors]
        for row in rows:
            if len(row) != ambient_dim:
                raise AmbientMismatch(f"vector length {len(row)} != {ambient_dim}")
        return cls.spanned(ambient_dim, rows)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [])

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [(i, {i: 1}) for i in range(ambient_dim)])

    @property
    def basis(self) -> tuple:
        """Dense Fraction tuples: each row divided by its lead."""
        basis = []
        for lead, row in self.rows:
            vec = [ZERO] * self.ambient_dim
            for c, x in row.items():
                vec[c] = Fraction(x, row[lead])
            basis.append(tuple(vec))
        return tuple(basis)

    @property
    def pivot_columns(self) -> tuple:
        return tuple(lead for lead, _ in self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.pivot_columns))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim})"

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch(
                f"ambient {self.ambient_dim} vs {other.ambient_dim}"
            )

    def reduce(self, vec: Sequence) -> list:
        """Residual of vec after reduction against the rows."""
        v = [frac(x) for x in vec]
        if len(v) != self.ambient_dim:
            raise AmbientMismatch(f"vector length {len(v)} != {self.ambient_dim}")
        for lead, row in self.rows:
            f = v[lead]
            if f:
                f /= row[lead]
                for c, x in row.items():
                    v[c] -= f * x
        return v

    def member(self, vec: Sequence) -> bool:
        return all(x == 0 for x in self.reduce(vec))

    def contains(self, other: "Subspace") -> bool:
        """Whether other's rows leave the rank of self's rows at self.dim."""
        self._check_ambient(other)
        rr = SparseRREF()
        for _, row in self.rows:
            rr.add_row(row)
        return not any(rr.add_row(row) for _, row in other.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.spanned(self.ambient_dim, [row for _, row in self.rows + other.rows])

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: eliminate [u|u] and [v|0] over columns j and n+j; the
        reduced rows with lead at or beyond n carry the intersection in
        their right half."""
        self._check_ambient(other)
        n = self.ambient_dim
        rr = SparseRREF()
        for _, row in self.rows:
            rr.add_row({**row, **{c + n: x for c, x in row.items()}})
        for _, row in other.rows:
            rr.add_row(row)
        inter = [
            (lead - n, {c - n: x for c, x in row.items()})
            for lead, row in rr.reduced_basis()
            if lead >= n
        ]
        return Subspace(n, inter)

    def image(self, m: Matrix) -> "Subspace":
        """Image of the subspace under v -> v*M, spanned by d * (row * M)
        for its integer rows."""
        if m.rows != self.ambient_dim:
            raise AmbientMismatch(f"matrix rows {m.rows} != {self.ambient_dim}")
        rows = [dict(enumerate(m.integer_apply(row.items()))) for _, row in self.rows]
        return Subspace.spanned(m.cols, rows)


# ---------------------------------------------------------------------------
# incremental sparse rank / left kernel


# stands for solve's target row in the combinations; never a caller's tag
_TARGET = object()


def _combine(target: dict, a: int, b: int, source: dict, p: int | None = None) -> None:
    """target <- a * target - b * source in place, modulo p when given,
    dropping zeros."""
    if a != 1:
        for k in target:
            target[k] *= a
    if p is None:
        for k, v in source.items():
            nv = target.get(k, 0) - b * v
            if nv:
                target[k] = nv
            else:
                del target[k]
        return
    for k, v in source.items():
        nv = (target.get(k, 0) - b * v) % p
        if nv:
            target[k] = nv
        else:
            del target[k]


class SparseRREF:
    """Incremental row-space basis over sparse rows with hashable column labels.

    Rows are fed one at a time as {column_label: value} dicts.  Maintains the
    rank.  A tagged eliminator also tracks the combination of input row tags
    expressing each pivot row, so that solve(row) gives the coordinates of a
    row in the span of the rows fed; with track_kernel (which implies tagged)
    rows reducing to zero are kept as left-kernel vectors over the tags,
    each with coefficient 1 at its own tag.  The pivot rows are kept fully
    reduced: each is zero at every other lead column, so a row is reduced in
    one step per lead it holds, and add_row takes a new pivot off every
    stored row that holds its lead.

    Exact mode is fraction-free: a rational input row is scaled to integers
    once, reduction cross-multiplies, and every pivot row is stored
    primitive (content 1, positive lead).  Its tag combination is an integer
    dict over one positive integer denominator.  Fractions appear only when
    solve and kernel read results out, and those values are the unique
    ones, independent of how the rows were scaled.
    With a prime, arithmetic is done modulo it and every pivot has lead 1.
    """

    def __init__(
        self, track_kernel: bool = False, prime: int | None = None, tagged: bool = False
    ):
        self.prime = prime
        self.track_kernel = track_kernel
        self.tagged = tagged or track_kernel
        # column label -> (row dict, combo dict, denominator); denominator * row
        # is the combo's sum of input rows (always 1 modulo a prime)
        self._pivots: dict = {}
        # column label without a pivot -> leads of the pivot rows that may hold
        # it, extended by the new pivot's columns only, since fill comes from them
        self._holders: dict = {}
        self.kernel: list[dict] = []
        self.rank = 0

    def _coerce(self, row: dict) -> tuple[dict, int]:
        """(entries, scale): the nonzero entries of row times scale, as ints.
        Exact mode scales by the lcm of the denominators, 1 for a row of
        ints; modulo a prime the entries are residues and the scale is 1."""
        p = self.prime
        if p is None:
            if all(type(v) is int for v in row.values()):
                return {c: v for c, v in row.items() if v}, 1
            row = {c: v if type(v) is int else frac(v) for c, v in row.items() if v}
            scale = lcm(*(v.denominator for v in row.values()))
            return {c: v.numerator * (scale // v.denominator) for c, v in row.items()}, scale
        out = {}
        for c, x in row.items():
            if not isinstance(x, int):
                x = frac(x)
                if x.denominator % p == 0:
                    raise DenominatorDivisibleByPrime(str(p))
                x = x.numerator * pow(x.denominator, -1, p)
            x %= p
            if x:
                out[c] = x
        return out, 1

    def _take_off(self, row: dict, combo: dict | None, den: int, lead, pivot: tuple) -> int:
        """One elimination step: clear row at lead, in place, by the pivot
        (prow, pcombo, pden) with that lead, and take the same multiple of
        pcombo off combo.  Returns the new denominator of combo."""
        prow, pcombo, pden = pivot
        f = row[lead]
        p = self.prime
        if p is not None:
            _combine(row, 1, f, prow, p)
            if combo is not None:
                _combine(combo, 1, f, pcombo, p)
            return den
        g = prow[lead]
        d = gcd(f, g)
        a, b = g // d, f // d
        _combine(row, a, b, prow)
        if combo is not None:
            m = lcm(den, pden)
            _combine(combo, a * (m // den), b * (m // pden), pcombo)
            den = m
        return den

    def _normalize(self, row: dict, lead, combo: dict | None, den: int) -> tuple:
        """The pivot (row, combo, den) with lead: exactly, row made primitive
        with a positive lead and combo over its least positive denominator;
        modulo a prime, both scaled to give row lead 1."""
        p = self.prime
        if p is not None:
            inv = pow(row[lead], -1, p)
            if inv != 1:
                row = {c: v * inv % p for c, v in row.items()}
                if combo is not None:
                    combo = {t: v * inv % p for t, v in combo.items()}
            return row, combo, den
        content = gcd(*row.values())
        if row[lead] < 0:
            content = -content
        if content != 1:
            row = {c: v // content for c, v in row.items()}
        if combo is not None:
            den *= content
            shared = gcd(den, *combo.values())
            if den < 0:
                shared = -shared
            if shared != 1:
                den //= shared
                combo = {t: v // shared for t, v in combo.items()}
        return row, combo, den

    def _reduce(self, row: dict, combo: dict | None) -> tuple[dict, object, dict | None, int]:
        """(residual, lead, combo, denominator): row (coerced, with combo
        scaled to match) reduced against the pivots, and its lead column,
        which has no pivot, or None when it reduced to zero.  The same
        multiples of the pivot combinations are taken off combo, so that
        denominator * residual is combo's sum of input rows; it takes one
        step per lead the row holds."""
        pivots = self._pivots
        den = 1
        for lead in row.keys() & pivots.keys():
            den = self._take_off(row, combo, den, lead, pivots[lead])
        return row, min(row) if row else None, combo, den

    def add_row(self, row: dict, tag=None) -> bool:
        """Insert a row; returns True if it enlarged the span.  A new pivot
        is taken off every stored row that holds its lead."""
        row, scale = self._coerce(row)
        combo = {tag: scale} if self.tagged else None
        row, lead, combo, den = self._reduce(row, combo)
        if lead is None:
            if self.track_kernel:
                if self.prime is None:
                    own = combo[tag]
                    combo = {t: Fraction(v, own) for t, v in combo.items()}
                self.kernel.append(combo)
            return False
        pivot = self._normalize(row, lead, combo, den)
        pivots, holders = self._pivots, self._holders
        cols = [c for c in pivot[0] if c != lead]
        for other in holders.pop(lead, ()):
            held, held_combo, held_den = pivots[other]
            if lead in held:
                for c in cols:
                    if c not in held:
                        holders.setdefault(c, []).append(other)
                held_den = self._take_off(held, held_combo, held_den, lead, pivot)
                pivots[other] = self._normalize(held, other, held_combo, held_den)
        for c in cols:
            holders.setdefault(c, []).append(lead)
        pivots[lead] = pivot
        self.rank += 1
        return True

    def solve(self, row: dict) -> dict | None:
        """{tag: coefficient} combining the rows fed into row, or None when
        row is outside their span.  Needs a tagged eliminator; leaves it
        unchanged."""
        if not self.tagged:
            raise ValueError("solve needs a tagged SparseRREF")
        row, scale = self._coerce(row)
        # the target enters the combination under a tag of its own
        row, lead, combo, _ = self._reduce(row, {_TARGET: scale})
        if lead is not None:
            return None
        # 0 = own * target + sum_t combo[t] * input_t
        own = combo.pop(_TARGET)
        p = self.prime
        if p is None:
            return {t: Fraction(-v, own) for t, v in combo.items()}
        inv = pow(own, -1, p)
        return {t: -v * inv % p for t, v in combo.items()}

    def reduced_basis(self) -> list[tuple]:
        """The reduced row-echelon basis of the span as (lead, row) pairs in
        ascending lead order, each row a primitive int dict with a positive
        lead and zero at every other lead column.  Needs an exact eliminator.

        The pivot rows are kept fully reduced, so this reads them out; they
        are the eliminator's own, and a later add_row may change them.
        """
        if self.prime is not None:
            raise ValueError("reduced_basis needs an exact SparseRREF")
        return [(lead, self._pivots[lead][0]) for lead in sorted(self._pivots)]


def matrix_coordinates(solver: SparseRREF, basis: Sequence[Matrix], m: Matrix) -> dict | None:
    """Coordinates of m in basis as a sparse {index: coefficient} dict, or
    None outside its span, from a tagged solver holding each basis[i] as its
    integer entries under tag i.  The solver stores d_i * basis[i] and
    solves d * m, so basis[i]'s coordinate is c_i * d_i / d."""
    combo = solver.solve(m.integer_entries())
    if combo is None:
        return None
    d = m.integer_form[0]
    for i, c in combo.items():
        d_i = basis[i].integer_form[0]
        if d_i != d:
            combo[i] = Fraction(c.numerator * d_i, c.denominator * d)
    return combo


def span_coordinates(vectors: Sequence[Sequence]):
    """Factor the span of dense vectors once; the returned function gives the
    coordinates of a dense vector in them, or None outside their span."""
    rr = SparseRREF(tagged=True)
    for i, v in enumerate(vectors):
        rr.add_row(dict(enumerate(v)), tag=i)
    count = len(vectors)

    def coordinates(target: Sequence) -> list | None:
        combo = rr.solve(dict(enumerate(target)))
        return None if combo is None else [combo.get(i, ZERO) for i in range(count)]

    return coordinates
