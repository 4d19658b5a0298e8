"""Structural PI-exponents, the exponent equality checker, and growth class."""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    Derivation,
    LieAction,
    StructureAlgebra,
    adjoin_unit,
    commutator,
    lie_closure,
    subspace_under_action,
    ut,
)
from .linalg import Matrix, SparseRREF, Subspace, ZERO
from .structure import WedderburnData, wedderburn_malcev


@dataclass
class ExponentReport:
    value: int
    witness_sequence: tuple
    witness_dims: int
    pruned_count: int


def _best_sequence(blocks: list[Subspace], product_step, nonzero):
    """DFS over sequences of distinct blocks, pruning dead prefixes.

    product_step(state, i) extends the running product by block i (state None
    starts it); nonzero(state) decides whether a sequence qualifies.  Returns
    the lexicographically least maximum-weight sequence.
    """
    best_value = 0
    best_seq: tuple = ()
    pruned = 0

    def rec(seq, state, weight):
        nonlocal best_value, best_seq, pruned
        if seq and nonzero(state):
            if weight > best_value or (weight == best_value and tuple(seq) < best_seq):
                best_value, best_seq = weight, tuple(seq)
        for i in range(len(blocks)):
            if i in seq:
                continue
            nstate = product_step(state, i)
            if not nonzero(nstate):
                pruned += 1
                continue
            rec(seq + [i], nstate, weight + blocks[i].dim)

    rec([], None, 0)
    return best_value, best_seq, pruned


def exp_ordinary(alg: StructureAlgebra, wd: WedderburnData | None = None) -> ExponentReport:
    """Max total dimension over distinct-block chains with B_1 J B_2 ... != 0."""
    if wd is None:
        wd = wedderburn_malcev(alg)
    blocks = wd.blocks
    j = wd.radical

    def step(state, i):
        if state is None:
            return blocks[i]
        through_j = alg.subspace_product(state, j)
        return alg.subspace_product(through_j, blocks[i])

    value, seq, pruned = _best_sequence(blocks, step, lambda s: not s.is_zero())
    return ExponentReport(
        value=value, witness_sequence=seq, witness_dims=value, pruned_count=pruned
    )


def _embed_plus(s: Subspace, plus_dim: int) -> Subspace:
    return Subspace.from_vectors(
        plus_dim, [list(v) + [ZERO] for v in s.basis]
    )


def exp_differential(
    alg: StructureAlgebra, act: LieAction, wd: WedderburnData | None = None
) -> ExponentReport:
    """Max over chains with A_1^L A+ A_2^L ... A+ A_r^L != 0, inside A+."""
    if wd is None:
        wd = wedderburn_malcev(alg)
    plus = adjoin_unit(alg)
    full_plus = Subspace.full(plus.dim)
    moved = [
        _embed_plus(
            subspace_under_action(b, act.envelope, include_identity=True), plus.dim
        )
        for b in wd.blocks
    ]

    def step(state, i):
        if state is None:
            return moved[i]
        through = plus.subspace_product(state, full_plus)
        return plus.subspace_product(through, moved[i])

    value, seq, pruned = _best_sequence(wd.blocks, step, lambda s: not s.is_zero())
    return ExponentReport(
        value=value, witness_sequence=seq, witness_dims=value, pruned_count=pruned
    )


def verify_gk(alg: StructureAlgebra, act: LieAction) -> bool:
    """Equality of the differential and ordinary exponents."""
    return exp_differential(alg, act).value == exp_ordinary(alg).value


def lemma_bridge_check(
    alg: StructureAlgebra, act: LieAction, sequence, wd: WedderburnData | None = None
) -> tuple[bool, bool]:
    """(hypothesis, conclusion) for one distinct-block sequence.

    hypothesis: B_1^L A+ B_2^L ... A+ B_k^L != 0 inside A+;
    conclusion: B_1 J B_2 ... J B_k != 0 inside A.
    """
    if wd is None:
        wd = wedderburn_malcev(alg)
    sequence = tuple(sequence)
    if len(set(sequence)) != len(sequence):
        raise ValueError("block indices must be distinct")
    plus = adjoin_unit(alg)
    full_plus = Subspace.full(plus.dim)

    hstate = None
    for i in sequence:
        m = _embed_plus(
            subspace_under_action(wd.blocks[i], act.envelope, include_identity=True),
            plus.dim,
        )
        if hstate is None:
            hstate = m
        else:
            hstate = plus.subspace_product(plus.subspace_product(hstate, full_plus), m)
    hypothesis = hstate is not None and not hstate.is_zero()

    cstate = None
    for i in sequence:
        if cstate is None:
            cstate = wd.blocks[i]
        else:
            cstate = alg.subspace_product(
                alg.subspace_product(cstate, wd.radical), wd.blocks[i]
            )
    conclusion = cstate is not None and not cstate.is_zero()
    return hypothesis, conclusion


def is_solvable(act: LieAction) -> bool:
    """Derived series of the Lie closure reaches zero."""
    current = [d.matrix for d in act.closure_basis]  # a basis, and so is each nxt
    for _ in range(len(current) + 1):
        if not current:
            return True
        derived = SparseRREF()
        brackets = (
            commutator(a, b) for ia, a in enumerate(current) for b in current[ia + 1 :]
        )
        nxt = [m for m in brackets if derived.add_row(m.sparse())]
        if len(nxt) >= len(current):
            return False
        current = nxt
    return not current


@dataclass
class GrowthReport:
    classification: str  # "Polynomial" | "Exponential"
    exponent: ExponentReport
    evidence: dict = field(default_factory=dict)


def _reference_action(template: str, alphabet_size: int) -> LieAction:
    """UT2 reference actions over an alphabet of the given size.

    'trivial' maps every generator to zero; 'eps' maps the first generator to
    ad(e22) and the rest to zero.  Both are honest Lie actions; the choice of
    the alphabet identification is heuristic and labeled as such in reports.
    """
    u2 = ut(2)
    zero = Matrix.zero(3, 3)
    mats = [zero] * alphabet_size
    if template == "eps":
        from .algebra import ad_unit

        eps = ad_unit(u2, 2, 2, name="eps").matrix
        if alphabet_size == 0:
            raise ValueError("eps reference needs at least one generator")
        mats = [eps] + [zero] * (alphabet_size - 1)
    gens = [Derivation(m, name=f"g{i}") for i, m in enumerate(mats)]
    return lie_closure(u2, gens)


def classify_growth(
    alg: StructureAlgebra, act: LieAction, evidence_cap: int = 4
) -> GrowthReport:
    """Polynomial iff the differential exponent is at most 1.

    When the acting Lie closure is solvable, degree-capped exclusion evidence
    is gathered: certificates that Id_n^L(A) is not inside Id_n^L of the UT2
    reference actions, when such certificates exist.  Evidence only; never a
    proof of variety non-membership.
    """
    from .piengine import containment_check

    rep = exp_differential(alg, act)
    classification = "Polynomial" if rep.value <= 1 else "Exponential"
    evidence: dict = {}
    m = len(act.generators)
    if is_solvable(act):
        targets = {"ut2": "trivial", "ut2-eps": "eps"}
        for label, template in targets.items():
            if template == "eps" and m == 0:
                continue
            ref = _reference_action(template, m)
            found = None
            for n in range(2, evidence_cap + 1):
                contained, cert = containment_check(act, ref, n)
                if not contained:
                    found = (n, cert)
                    break
            evidence[label] = {
                "excluded": found is not None,
                "degree": found[0] if found else None,
                "certificate": found[1] if found else None,
                "note": "heuristic alphabet identification; evidence, not proof",
            }
    return GrowthReport(classification=classification, exponent=rep, evidence=evidence)
