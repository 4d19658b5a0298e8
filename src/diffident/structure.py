"""Structure theory: Jacobson radical, simple blocks, Wedderburn-Malcev lifting.

Everything is exact linear algebra over Q; the eigenvalues that split the
semisimple part into blocks come from integer root isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import LieAction, StructureAlgebra, subspace_under_action
from .errors import InternalVerificationFailed, NonSplitCenter
from .linalg import Matrix, ONE, ZERO, SparseRREF, Subspace, common_denominator, frac
from .linalg import left_kernel, matrix_coordinates, span_coordinates


def radical(alg: StructureAlgebra) -> Subspace:
    """Jacobson radical via the trace form.

    rad(A) = { x in A : trace(L_{xy} on A+) = 0 for all y in A }, valid in
    characteristic zero.  For x in A, L_x on A+ = A + Q*1 sends 1 to x, which
    has no 1-component, so its trace on A+ is its trace on A:
    t_m = sum_k c_mkk for L_{e_m}, and T[i][j] = sum_m c_ijm t_m, both read
    as sparse int sums from integer_table (D_c t_m and D_c^2 T[i][j]).  The
    candidate is post-verified to be a nilpotent two-sided ideal.
    """
    d, table = alg.integer_table
    n = alg.dim
    t = [sum(x for k, cell in enumerate(row) for j, x in cell if j == k) for row in table]
    form = [[sum(x * t[m] for m, x in cell) for cell in row] for row in table]
    rad = left_kernel(Matrix.from_integer(n, n, d * d, form))
    _verify_radical(alg, rad)
    return rad


def _verify_radical(alg: StructureAlgebra, rad: Subspace):
    full = Subspace.full(alg.dim)
    if not rad.contains(alg.subspace_product(full, rad)) or not rad.contains(
        alg.subspace_product(rad, full)
    ):
        raise InternalVerificationFailed("radical candidate is not an ideal")
    power = rad
    for _ in range(alg.dim):
        if power.is_zero():
            return
        power = alg.subspace_product(power, rad)
    if not power.is_zero():
        raise InternalVerificationFailed("radical candidate is not nilpotent")


@dataclass
class QuotientAlgebra:
    """A/J with a linear section in coordinates."""

    algebra: StructureAlgebra
    ideal: Subspace
    coords: list[int]  # ambient coordinates carrying the quotient basis

    def lift(self, qvec) -> list:
        out = [ZERO] * self.ideal.ambient_dim
        for c, x in zip(self.coords, qvec):
            out[c] = frac(x)
        return out


def quotient_by_ideal(alg: StructureAlgebra, ideal: Subspace) -> QuotientAlgebra:
    n = alg.dim
    pivots = set(ideal.pivot_columns)
    coords = [c for c in range(n) if c not in pivots]
    q = len(coords)
    constants = []
    for a in coords:
        row = []
        for b in coords:
            residual = ideal.reduce(alg.constants[a][b])
            row.append([residual[c] for c in coords])
        constants.append(row)
    unit = None
    if alg.unit_vector is not None:
        residual = ideal.reduce(alg.unit_vector)
        unit = [residual[c] for c in coords]
    qalg = StructureAlgebra(constants, unit_vector=unit, label=f"{alg.label}/J", _skip_checks=True)
    return QuotientAlgebra(algebra=qalg, ideal=ideal, coords=coords)


# ---------------------------------------------------------------------------
# splitting a semisimple algebra into its minimal ideals


def _min_poly(m: Matrix) -> list[Fraction]:
    """Monic minimal polynomial of m, coefficients constant term first."""
    basis = [Matrix.identity(m.rows)]
    powers = SparseRREF(tagged=True)  # m^i under tag i
    powers.add_row(basis[0].integer_entries(), tag=0)
    while True:
        power = basis[-1] * m
        coords = matrix_coordinates(powers, basis, power)
        if coords is not None:
            return [-coords.get(i, ZERO) for i in range(powers.rank)] + [ONE]
        powers.add_row(power.integer_entries(), tag=powers.rank)
        basis.append(power)


def _horner(p: list[int], x: int) -> int:
    value = 0
    for c in reversed(p):
        value = value * x + c
    return value


def _root_brackets(p: list[int]) -> set[int]:
    """Integers holding floor(r) and ceil(r) for every real root r of p.

    p is a nonzero int polynomial, constant term first.  The cuts are the
    Cauchy bound +-(1 + max |p_k|) and the brackets of p'.  Between two
    cuts more than 1 apart p' has no root, so p is strictly monotone there
    and a sign change is bisected down to width 1 (Rolle's theorem;
    Collins-Loos, "Real zeros of polynomials", 1982).  All of it is exact
    Horner evaluation on ints: no floats, no divisor enumeration.
    """
    if len(p) < 2:
        return set()
    bound = 1 + max(abs(c) for c in p)
    cuts = sorted({-bound, bound} | _root_brackets([k * c for k, c in enumerate(p)][1:]))
    out = set(cuts)
    for lo, hi in zip(cuts, cuts[1:]):
        at_lo = _horner(p, lo)
        if hi - lo > 1 and at_lo * _horner(p, hi) < 0:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if at_lo * _horner(p, mid) > 0:
                    lo = mid
                else:
                    hi = mid
            out |= {lo, hi}
    return out


def _rational_eigenvalues(m: Matrix) -> list[Fraction]:
    """The eigenvalues of m, whose minimal polynomial is squarefree.

    With f = L * minpoly over Z of degree d, g(y) = L^(d-1) f(y/L) is monic
    over Z, so its rational roots are the integers L * lambda.  For a
    central element of a semisimple algebra the minimal polynomial is
    squarefree, so NonSplitCenter is raised when fewer than d are found.
    """
    coeffs = _min_poly(m)
    d = len(coeffs) - 1
    lead = common_denominator(coeffs)
    g = [int(c * lead) * lead ** (d - 1 - k) for k, c in enumerate(coeffs[:-1])] + [1]
    roots = sorted(y for y in _root_brackets(g) if _horner(g, y) == 0)
    if len(roots) < d:
        raise NonSplitCenter(
            f"minimal polynomial of a central element has degree {d}"
            f" but {len(roots)} rational roots"
        )
    return [Fraction(y, lead) for y in roots]


def center(alg: StructureAlgebra) -> Subspace:
    """Elements v with v e_i = e_i v for every basis element e_i.

    v e_i - e_i v = sum_r v_r (c_rik - c_irk) e_k, so the center is the left
    kernel of the matrix whose row r holds c_irk - c_rik over columns (i, k)
    (the sign does not change the kernel), summed as the ints D_c c_irk -
    D_c c_rik from integer_table.
    """
    d, table = alg.integer_table
    n = alg.dim
    stacked = [[0] * (n * n) for _ in range(n)]
    for r, acc in enumerate(stacked):
        for i in range(n):
            for k, x in table[i][r]:
                acc[i * n + k] += x
            for k, x in table[r][i]:
                acc[i * n + k] -= x
    return left_kernel(Matrix.from_integer(n, n * n, d, stacked))


def semisimple_blocks(alg: StructureAlgebra) -> list[Subspace]:
    """Minimal two-sided ideals of a semisimple algebra; none for A = 0.

    A central z acts on each block as a scalar, so the blocks are the
    nonzero intersections, over a basis of the center, of the eigenspaces
    of L_z on A.  NonSplitCenter is raised when a minimal polynomial of L_z
    does not split into linear factors over Q.
    """
    if not radical(alg).is_zero():
        raise InternalVerificationFailed("semisimple_blocks called with nonzero radical")
    n = alg.dim
    blocks = [Subspace.full(n)] if n else []
    for z in center(alg).basis:
        lz = Matrix.from_rows([alg.multiply(z, alg.basis_vector(i)) for i in range(n)])
        eigenspaces = [
            left_kernel(lz - Matrix.identity(n).scale(r)) for r in _rational_eigenvalues(lz)
        ]
        blocks = [
            part
            for block in blocks
            for space in eigenspaces
            if not (part := block.intersect(space)).is_zero()
        ]
    blocks.sort(key=lambda s: (s.pivot_columns, s.basis))
    for a in blocks:
        for b in blocks:
            if a is not b and not alg.subspace_product(a, b).is_zero():
                raise InternalVerificationFailed("block product nonzero")
    return blocks


def subalgebra_unit(alg: StructureAlgebra, space: Subspace) -> list:
    """Two-sided unit of a unital subalgebra, found by a linear solve."""
    basis = [list(b) for b in space.basis]
    k = len(basis)
    # u = sum c_k b_k with u*b = b and b*u = b for all basis b: one long
    # linear system in the coefficients c, solved via span bookkeeping
    eq_rows = [[] for _ in range(k)]
    t_vec = []
    for b in basis:
        left = [alg.multiply(bk, b) for bk in basis]
        right = [alg.multiply(b, bk) for bk in basis]
        for products in (left, right):
            for row, prod in zip(eq_rows, products):
                row.extend(prod)
            t_vec.extend(frac(x) for x in b)
    coords = span_coordinates(eq_rows)(t_vec)
    if coords is None:
        raise InternalVerificationFailed("subalgebra has no unit")
    return Matrix(k, alg.dim, basis).apply(coords)


# ---------------------------------------------------------------------------
# the lift of A/J into A and the full decomposition


@dataclass
class WedderburnData:
    radical: Subspace
    blocks: list[Subspace]
    block_units: list[list]
    semisimple_part: Subspace
    # block sequence -> B_s1 J ... J B_sk, exponent._ordinary_step's chain products
    _ordinary_chains: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def wedderburn_malcev(alg: StructureAlgebra) -> WedderburnData:
    """A = B_1 + ... + B_m + J, computed and verified once per algebra.

    The first call stores the verified decomposition on alg._wedderburn and
    later calls return that same object, so callers must not mutate its
    lists or subspaces.  A decomposition that raises stores nothing.
    """
    if alg._wedderburn is None:
        data = _decompose(alg)
        _verify_wedderburn(alg, data)
        alg._wedderburn = data
    return alg._wedderburn


def _decompose(alg: StructureAlgebra) -> WedderburnData:
    """Blocks of A/J carried into A by a multiplicative section of A -> A/J."""
    j = radical(alg)
    quo = quotient_by_ideal(alg, j)
    sigma = _multiplicative_section(alg, quo)
    section = Matrix(quo.algebra.dim, alg.dim, sigma)
    qblocks = semisimple_blocks(quo.algebra)
    return WedderburnData(
        radical=j,
        blocks=[qb.image(section) for qb in qblocks],
        block_units=[section.apply(subalgebra_unit(quo.algebra, qb)) for qb in qblocks],
        semisimple_part=Subspace.from_vectors(alg.dim, sigma),
    )


def _multiplicative_section(alg: StructureAlgebra, quo: QuotientAlgebra) -> list[list]:
    """sigma(e_a) for the quotient basis, with sigma(a)sigma(b) = sigma(ab).

    Starts from the linear section quo.lift, which is multiplicative modulo
    J.  If it is so modulo J^k, the defect f(a, b) = sigma(a)sigma(b) -
    sigma(ab) lies in J^k, and sigma + t with t: A/J -> J^k is multiplicative
    modulo J^(k+1) exactly when sigma(a)t(b) + t(a)sigma(b) - t(ab) = -f(a, b)
    there: a 2-cocycle equation, solvable since H^2(A/J, -) = 0 for a
    separable A/J (the principal theorem; Pierce, Associative Algebras, ch.
    11).  One linear solve per power of J, and none when the section is
    already multiplicative.
    """
    q = quo.algebra
    sigma = [quo.lift(q.basis_vector(a)) for a in range(q.dim)]
    pairs = [(a, b) for a in range(q.dim) for b in range(q.dim)]
    power = quo.ideal
    while not power.is_zero():
        image = Matrix(q.dim, alg.dim, sigma).apply
        defect = [
            [x - y for x, y in zip(alg.multiply(sigma[a], sigma[b]), image(q.constants[a][b]))]
            for a, b in pairs
        ]
        if not any(any(v) for v in defect):
            break
        nxt = alg.subspace_product(power, quo.ideal)
        target = [-x for v in defect for x in nxt.reduce(v)]
        if any(target):
            # unknown (c, w): the coefficient of w in t(e_c), w a basis vector of J^k
            unknowns = [(c, list(w)) for c in range(q.dim) for w in power.basis]
            rows = []
            for c, w in unknowns:
                row = []
                for a, b in pairs:
                    v = [-q.constants[a][b][c] * x for x in w]
                    if b == c:
                        v = [x + y for x, y in zip(v, alg.multiply(sigma[a], w))]
                    if a == c:
                        v = [x + y for x, y in zip(v, alg.multiply(w, sigma[b]))]
                    row.extend(nxt.reduce(v))
                rows.append(row)
            coords = span_coordinates(rows)(target)
            if coords is None:
                raise InternalVerificationFailed("no correction of the section modulo J^(k+1)")
            for x, (c, w) in zip(coords, unknowns):
                if x:
                    sigma[c] = [s + x * y for s, y in zip(sigma[c], w)]
        power = nxt
    return sigma


def _verify_wedderburn(alg: StructureAlgebra, data: WedderburnData):
    n = alg.dim
    if data.semisimple_part.dim + data.radical.dim != n:
        raise InternalVerificationFailed("A != B + J by dimensions")
    if not data.semisimple_part.intersect(data.radical).is_zero():
        raise InternalVerificationFailed("B meets J")
    for bi, (block, unit) in enumerate(zip(data.blocks, data.block_units)):
        if not block.contains(alg.subspace_product(block, block)):
            raise InternalVerificationFailed("block is not a subalgebra")
        for b in block.basis:
            if alg.multiply(unit, b) != list(b) or alg.multiply(b, unit) != list(b):
                raise InternalVerificationFailed("block unit fails")
        for bj, other in enumerate(data.blocks):
            if bi != bj and not alg.subspace_product(block, other).is_zero():
                raise InternalVerificationFailed("blocks not orthogonal")
    if sum(b.dim for b in data.blocks) != n - data.radical.dim:
        raise InternalVerificationFailed("block dimensions do not add up")


def check_block_action(wd: WedderburnData, act: LieAction) -> list[dict]:
    """Per-block containments B_i^{L'} in B_i + J, and in J when dim B_i = 1."""
    report = []
    env = act.envelope
    for block in wd.blocks:
        moved = subspace_under_action(block, env, include_identity=False)
        target = block.sum(wd.radical)
        in_b_plus_j = target.contains(moved)
        in_j = wd.radical.contains(moved) if block.dim == 1 else None
        report.append(
            {
                "dim": block.dim,
                "in_block_plus_radical": in_b_plus_j,
                "in_radical_when_1dim": in_j,
            }
        )
    return report
