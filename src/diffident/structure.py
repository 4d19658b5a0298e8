"""Structure theory: Jacobson radical, simple blocks, Wedderburn-Malcev lifting."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import sympy

from .algebra import LieAction, StructureAlgebra, subspace_under_action
from .errors import InternalVerificationFailed, NonSplitCenter
from .linalg import (
    Matrix,
    ONE,
    ZERO,
    SparseRREF,
    Subspace,
    frac,
    left_kernel,
    span_coordinates,
)


def radical(alg: StructureAlgebra) -> Subspace:
    """Jacobson radical via the trace form.

    rad(A) = { x in A : trace(L_{xy} on A+) = 0 for all y in A }, valid in
    characteristic zero.  For x in A, L_x on A+ = A + Q*1 sends 1 to x, which
    has no 1-component, so its trace on A+ is its trace on A:
    t_m = sum_k c_mkk for L_{e_m}, and T[i][j] = sum_m c_ijm t_m.  The
    candidate is post-verified to be a nilpotent two-sided ideal.
    """
    c = alg.constants
    n = alg.dim
    t = [sum(c[m][k][k] for k in range(n)) for m in range(n)]
    form = [[sum(x * tm for x, tm in zip(c[i][j], t)) for j in range(n)] for i in range(n)]
    rad = left_kernel(Matrix.from_rows(form))
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
    """A/J with the projection and a linear section in coordinates."""

    algebra: StructureAlgebra
    ideal: Subspace
    coords: list[int]  # ambient coordinates carrying the quotient basis

    def project(self, vec) -> list:
        residual = self.ideal.reduce(vec)
        return [residual[c] for c in self.coords]

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
            prod = alg.multiply(alg.basis_vector(a), alg.basis_vector(b))
            residual = ideal.reduce(prod)
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


def _restricted_matrix(alg: StructureAlgebra, space: Subspace, z) -> Matrix:
    """Matrix of x -> z*x restricted to an invariant subspace, in its basis."""
    solve = span_coordinates(space.basis)
    rows = []
    for b in space.basis:
        coords = solve(alg.multiply(z, b))
        if coords is None:
            raise InternalVerificationFailed("subspace not invariant under center element")
        rows.append(coords)
    return Matrix.from_rows(rows)


def _min_poly(m: Matrix) -> sympy.Poly:
    x = sympy.Symbol("x")
    power = Matrix.identity(m.rows)
    powers = SparseRREF(tagged=True)  # m^i under tag i
    powers.add_row(power.sparse(), tag=0)
    while True:
        power = power * m
        coords = powers.solve(power.sparse())
        if coords is not None:
            poly = x**powers.rank - sum(
                sympy.Rational(c.numerator, c.denominator) * x**i
                for i, c in sorted(coords.items())
            )
            return sympy.Poly(poly, x, domain="QQ")
        powers.add_row(power.sparse(), tag=powers.rank)


def _rational_eigenvalues(m: Matrix) -> list[Fraction]:
    """All eigenvalues, raising NonSplitCenter on a non-linear factor."""
    poly = _min_poly(m)
    _, factors = poly.factor_list()
    eigs = []
    for fac, _mult in factors:
        if fac.degree() > 1:
            raise NonSplitCenter(f"irreducible factor {fac.as_expr()} of degree {fac.degree()}")
        # linear factor a*x + b, eigenvalue -b/a
        r = sympy.Rational(-fac.nth(0), fac.nth(1))
        eigs.append(Fraction(int(r.p), int(r.q)))
    return eigs


def center(alg: StructureAlgebra) -> Subspace:
    """Elements v with v e_i = e_i v for every basis element e_i.

    v e_i - e_i v = sum_r v_r (c_rik - c_irk) e_k, so the center is the left
    kernel of the matrix whose row r holds c_irk - c_rik over columns (i, k)
    (the sign does not change the kernel).
    """
    c = alg.constants
    n = alg.dim
    stacked = [[c[i][r][k] - c[r][i][k] for i in range(n) for k in range(n)] for r in range(n)]
    return left_kernel(Matrix.from_rows(stacked))


def semisimple_blocks(alg: StructureAlgebra) -> list[Subspace]:
    """Minimal two-sided ideals of a semisimple algebra.

    Splits A into common eigenspaces of left multiplication by a basis of the
    center; NonSplitCenter is raised when a minimal polynomial does not factor
    into linear factors over Q.
    """
    if not radical(alg).is_zero():
        raise InternalVerificationFailed("semisimple_blocks called with nonzero radical")
    z_basis = center(alg).basis
    components = [Subspace.full(alg.dim)]
    for z in z_basis:
        refined = []
        for comp in components:
            m = _restricted_matrix(alg, comp, list(z))
            eigs = _rational_eigenvalues(m)
            if len(eigs) == 1:
                refined.append(comp)
                continue
            for r in eigs:
                shifted = Matrix.from_rows(
                    [
                        [x - (r if i == j else 0) for j, x in enumerate(row)]
                        for i, row in enumerate(m.entries)
                    ]
                )
                ker = left_kernel(shifted)  # in component coordinates
                lifted = [
                    [
                        sum(c * b for c, b in zip(kv, col))
                        for col in zip(*[list(bb) for bb in comp.basis])
                    ]
                    for kv in ker.basis
                ]
                refined.append(Subspace.from_vectors(alg.dim, lifted))
        components = refined
    components.sort(key=lambda s: (s.pivot_columns, s.basis))
    for a in components:
        for b in components:
            if a is not b and not alg.subspace_product(a, b).is_zero():
                raise InternalVerificationFailed("block product nonzero")
    return components


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
    u = [ZERO] * alg.dim
    for c, b in zip(coords, basis):
        u = [x + c * y for x, y in zip(u, b)]
    return u


# ---------------------------------------------------------------------------
# idempotent lifting and the full decomposition


@dataclass
class WedderburnData:
    radical: Subspace
    blocks: list[Subspace]
    block_units: list[list]
    semisimple_part: Subspace
    quotient_dims: list[int]
    quotient: QuotientAlgebra | None


def _lift_idempotent(alg: StructureAlgebra, e: list) -> list:
    """Newton iteration e <- 3e^2 - 2e^3 until exactly idempotent."""
    for _ in range(alg.dim + 2):
        e2 = alg.multiply(e, e)
        if e2 == e:
            return e
        e3 = alg.multiply(e2, e)
        e = [3 * a - 2 * b for a, b in zip(e2, e3)]
    raise InternalVerificationFailed("idempotent lifting did not converge")


def _orthogonalize(alg: StructureAlgebra, e: list, f: list) -> list:
    """(1-f) e (1-f) written without a unit: e - fe - ef + fef."""
    fe = alg.multiply(f, e)
    ef = alg.multiply(e, f)
    fef = alg.multiply(fe, f)
    return [a - b - c + d for a, b, c, d in zip(e, fe, ef, fef)]


def _corner(alg: StructureAlgebra, e: list) -> Subspace:
    vecs = [
        alg.multiply(alg.multiply(e, alg.basis_vector(i)), e) for i in range(alg.dim)
    ]
    return Subspace.from_vectors(alg.dim, vecs)


def _corner_inverse(alg: StructureAlgebra, w: list, unit: list, nil_bound: int) -> list:
    """Inverse of w = unit + j (j nilpotent) inside the corner algebra."""
    j = [a - b for a, b in zip(w, unit)]
    inv = list(unit)
    term = list(unit)
    for _ in range(nil_bound + 1):
        term = [-x for x in alg.multiply(term, j)]
        if all(x == 0 for x in term):
            break
        inv = [a + b for a, b in zip(inv, term)]
    if alg.multiply(w, inv) != unit or alg.multiply(inv, w) != unit:
        raise InternalVerificationFailed("corner inverse failed")
    return inv


def _minimal_left_module(alg: StructureAlgebra, block: Subspace, seed: int = 7) -> Subspace:
    """A minimal left ideal of a simple block, by generator descent."""

    def generated(v):
        vecs = [alg.multiply(b, v) for b in block.basis]
        return Subspace.from_vectors(alg.dim, vecs)

    candidates = [list(b) for b in block.basis]
    rng = random.Random(seed)
    for _ in range(32):
        v = [
            sum(rng.randint(-2, 2) * frac(b[i]) for b in block.basis)
            for i in range(alg.dim)
        ]
        candidates.append(v)
    best = None
    for v in candidates:
        w = generated(v)
        if w.is_zero():
            continue
        changed = True
        while changed:
            changed = False
            for bv in w.basis:
                sub = generated(list(bv))
                if 0 < sub.dim < w.dim:
                    w = sub
                    changed = True
                    break
        if best is None or w.dim < best.dim:
            best = w
        if best.dim * best.dim == block.dim:
            break
    if best is None or best.dim * best.dim != block.dim:
        raise NonSplitCenter(
            "could not split a simple block into matrix units over Q"
        )
    return best


def _block_matrix_units(alg: StructureAlgebra, block: Subspace) -> list[list[list]]:
    """Matrix units e_st of a split simple block, as coordinate vectors.

    Uses the (anti-)isomorphism onto End(W) for a minimal left ideal W.
    """
    w = _minimal_left_module(alg, block)
    r = w.dim
    wbasis = [list(b) for b in w.basis]
    # rho(b): matrix of x -> b*x on W in row convention (anti-homomorphism)
    block_vecs = [list(b) for b in block.basis]
    in_w = span_coordinates(wbasis)
    rho_vecs = []
    for b in block_vecs:
        rows = []
        for wb in wbasis:
            coords = in_w(alg.multiply(b, wb))
            if coords is None:
                raise InternalVerificationFailed("left ideal not invariant")
            rows.append(coords)
        rho_vecs.append([x for row in rows for x in row])
    in_rho = span_coordinates(rho_vecs)
    units = [[None] * r for _ in range(r)]
    for s in range(r):
        for t in range(r):
            # anti-iso: preimage of E_{ts} realizes the matrix unit e_st
            target = [ZERO] * (r * r)
            target[t * r + s] = ONE
            coords = in_rho(target)
            if coords is None:
                raise NonSplitCenter("block does not act as a full matrix algebra")
            vec = [ZERO] * alg.dim
            for c, b in zip(coords, block_vecs):
                vec = [x + c * y for x, y in zip(vec, b)]
            units[s][t] = vec
    return units


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
    j = radical(alg)
    if j.is_zero():
        blocks = semisimple_blocks(alg)
        units = [subalgebra_unit(alg, b) for b in blocks]
        return WedderburnData(
            radical=j,
            blocks=blocks,
            block_units=units,
            semisimple_part=Subspace.full(alg.dim),
            quotient_dims=[b.dim for b in blocks],
            quotient=None,
        )

    quo = quotient_by_ideal(alg, j)
    qblocks = semisimple_blocks(quo.algebra)
    qunits = [subalgebra_unit(quo.algebra, b) for b in qblocks]

    blocks: list[Subspace] = []
    units: list[list] = []
    accepted_sum = [ZERO] * alg.dim  # sum of accepted central idempotents
    for qb, qu in zip(qblocks, qunits):
        e = quo.lift(qu)
        e = _orthogonalize(alg, e, accepted_sum)
        e = _lift_idempotent(alg, e)
        if quo.project(e) != list(qu):
            raise InternalVerificationFailed("lifted idempotent has wrong image")
        accepted_sum = [a + b for a, b in zip(accepted_sum, e)]

        corner = _corner(alg, e)
        nil_part = corner.intersect(j)
        if nil_part.is_zero():
            block = corner
            unit = e
        elif qb.dim == 1:
            block = Subspace.from_vectors(alg.dim, [e])
            unit = e
        else:
            block, unit = _lift_matrix_block(alg, quo, qb, e, j)
        blocks.append(block)
        units.append(unit)

    semisimple = blocks[0]
    for b in blocks[1:]:
        semisimple = semisimple.sum(b)
    return WedderburnData(
        radical=j,
        blocks=blocks,
        block_units=units,
        semisimple_part=semisimple,
        quotient_dims=[b.dim for b in qblocks],
        quotient=quo,
    )


def _lift_matrix_block(alg, quo: QuotientAlgebra, qblock: Subspace, e: list, j: Subspace):
    """Lift a matrix block entangled with the radical via matrix units."""
    qunits = _block_matrix_units(quo.algebra, qblock)
    r = len(qunits)
    nil_bound = alg.dim
    # orthogonal lifts of the diagonal idempotents, inside the corner of e
    diag = []
    partial = [ZERO] * alg.dim
    for s in range(r):
        g = alg.multiply(alg.multiply(e, quo.lift(qunits[s][s])), e)
        g = _orthogonalize(alg, g, partial)
        g = _lift_idempotent(alg, g)
        diag.append(g)
        partial = [a + b for a, b in zip(partial, g)]
    units = [[None] * r for _ in range(r)]
    units[0][0] = diag[0]
    us = {0: diag[0]}
    vs = {0: diag[0]}
    for s in range(1, r):
        u = alg.multiply(alg.multiply(diag[0], quo.lift(qunits[0][s])), diag[s])
        v = alg.multiply(alg.multiply(diag[s], quo.lift(qunits[s][0])), diag[0])
        w = alg.multiply(u, v)  # = e_11 + nilpotent in the corner of diag[0]
        winv = _corner_inverse(alg, w, diag[0], nil_bound)
        v = alg.multiply(v, winv)
        us[s] = u
        vs[s] = v
    for s in range(r):
        for t in range(r):
            if s == 0 and t == 0:
                continue
            if s == 0:
                units[0][t] = us[t]
            elif t == 0:
                units[s][0] = vs[s]
            else:
                units[s][t] = alg.multiply(vs[s], us[t])
    flat = [units[s][t] for s in range(r) for t in range(r)]
    block = Subspace.from_vectors(alg.dim, flat)
    unit = [ZERO] * alg.dim
    for s in range(r):
        unit = [a + b for a, b in zip(unit, units[s][s])]
    return block, unit


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
