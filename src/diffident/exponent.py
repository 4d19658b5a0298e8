"""Structural PI-exponents, the exponent equality checker, and growth class."""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    Derivation,
    LieAction,
    StructureAlgebra,
    commutator,
    lie_closure,
    subspace_under_action,
    ut,
)
from .linalg import Matrix, SparseRREF, Subspace
from .structure import WedderburnData, wedderburn_malcev

# highest degree at which classify_growth looks for exclusion certificates
EVIDENCE_CAP = 4


@dataclass
class ExponentReport:
    value: int
    witness_sequence: tuple
    pruned_count: int


def _best_sequence(blocks: list[Subspace], step) -> ExponentReport:
    """DFS over sequences of distinct blocks, pruning dead prefixes.

    step(state, i) extends the running product by block i (state None starts
    it); a sequence qualifies when its product is nonzero.  The witness is the
    lexicographically least maximum-weight sequence.
    """
    best_value = 0
    best_seq: tuple = ()
    pruned = 0

    def rec(seq, state, weight):
        nonlocal best_value, best_seq, pruned
        if seq and (weight > best_value or (weight == best_value and tuple(seq) < best_seq)):
            best_value, best_seq = weight, tuple(seq)
        for i in range(len(blocks)):
            if i in seq:
                continue
            nstate = step(state, i)
            if nstate.is_zero():
                pruned += 1
                continue
            rec(seq + [i], nstate, weight + blocks[i].dim)

    rec([], None, 0)
    return ExponentReport(value=best_value, witness_sequence=best_seq, pruned_count=pruned)


def _ordinary_step(alg: StructureAlgebra, wd: WedderburnData):
    """Chain step S -> S J B_i of the ordinary exponent; None starts at B_i."""

    def step(state, i):
        if state is None:
            return wd.blocks[i]
        return alg.subspace_product(alg.subspace_product(state, wd.radical), wd.blocks[i])

    return step


def _differential_step(alg: StructureAlgebra, act: LieAction, wd: WedderburnData):
    """Chain step S -> S A+ B_i^L of the differential exponent, computed in A;
    None starts at B_i^L.

    A+ = A + Q*1, so S A+ = S + S A and no unit needs adjoining.  Each moved
    block B_i^L is built on first use and kept for the life of the step.
    """
    full = Subspace.full(alg.dim)
    moved: dict[int, Subspace] = {}

    def step(state, i):
        if i not in moved:
            moved[i] = subspace_under_action(wd.blocks[i], act.envelope, include_identity=True)
        if state is None:
            return moved[i]
        return alg.subspace_product(state.sum(alg.subspace_product(state, full)), moved[i])

    return step


def _chain_nonzero(step, sequence) -> bool:
    state = None
    for i in sequence:
        state = step(state, i)
    return state is not None and not state.is_zero()


def exp_ordinary(alg: StructureAlgebra, wd: WedderburnData | None = None) -> ExponentReport:
    """Max total dimension over distinct-block chains with B_1 J B_2 ... != 0."""
    if wd is None:
        wd = wedderburn_malcev(alg)
    return _best_sequence(wd.blocks, _ordinary_step(alg, wd))


def exp_differential(
    alg: StructureAlgebra, act: LieAction, wd: WedderburnData | None = None
) -> ExponentReport:
    """Max over chains with B_1^L A+ B_2^L ... A+ B_k^L != 0.

    Every product is taken in A, since S A+ = S + S A for a subspace S of A.
    """
    if wd is None:
        wd = wedderburn_malcev(alg)
    return _best_sequence(wd.blocks, _differential_step(alg, act, wd))


def verify_gk(alg: StructureAlgebra, act: LieAction) -> bool:
    """Equality of the differential and ordinary exponents."""
    return exp_differential(alg, act).value == exp_ordinary(alg).value


def lemma_bridge_check(
    alg: StructureAlgebra, act: LieAction, sequence, wd: WedderburnData | None = None
) -> tuple[bool, bool]:
    """(hypothesis, conclusion) for one distinct-block sequence.

    hypothesis: B_1^L A+ B_2^L ... A+ B_k^L != 0, taken in A as S + S A;
    conclusion: B_1 J B_2 ... J B_k != 0.
    Both fold the chain steps of exp_differential and exp_ordinary.
    """
    if wd is None:
        wd = wedderburn_malcev(alg)
    sequence = tuple(sequence)
    if len(set(sequence)) != len(sequence):
        raise ValueError("block indices must be distinct")
    return (
        _chain_nonzero(_differential_step(alg, act, wd), sequence),
        _chain_nonzero(_ordinary_step(alg, wd), sequence),
    )


def is_solvable(act: LieAction) -> bool:
    """Derived series of the Lie closure reaches zero.  Each term's
    commutators, built in integer form, go to its eliminator as their
    integer entries."""
    current = [d.matrix for d in act.closure_basis]  # a basis, and so is each nxt
    for _ in range(len(current) + 1):
        if not current:
            return True
        derived = SparseRREF()
        brackets = (
            commutator(a, b) for ia, a in enumerate(current) for b in current[ia + 1 :]
        )
        nxt = [m for m in brackets if derived.add_row(m.integer_entries())]
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


def classify_growth(alg: StructureAlgebra, act: LieAction) -> GrowthReport:
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
            for n in range(2, EVIDENCE_CAP + 1):
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
