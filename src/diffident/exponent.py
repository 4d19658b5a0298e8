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


def _best_sequence(blocks: list[Subspace], chain) -> ExponentReport:
    """DFS over sequences of distinct blocks, pruning dead prefixes.

    chain(seq) is the product of the chain over the tuple seq of block
    indices; a sequence qualifies when its product is nonzero.  The witness
    is the lexicographically least maximum-weight sequence.
    """
    best_value = 0
    best_seq: tuple = ()
    pruned = 0

    def rec(seq, weight):
        nonlocal best_value, best_seq, pruned
        if seq and (weight > best_value or (weight == best_value and seq < best_seq)):
            best_value, best_seq = weight, seq
        for i in range(len(blocks)):
            if i in seq:
                continue
            nseq = seq + (i,)
            if chain(nseq).is_zero():
                pruned += 1
                continue
            rec(nseq, weight + blocks[i].dim)

    rec((), 0)
    return ExponentReport(value=best_value, witness_sequence=best_seq, pruned_count=pruned)


def _ordinary_step(alg: StructureAlgebra, wd: WedderburnData):
    """chain(seq) = B_s1 J B_s2 ... J B_sk, kept by prefix in wd._ordinary_chains."""
    memo = wd._ordinary_chains

    def chain(seq):
        if seq not in memo:
            if len(seq) == 1:
                memo[seq] = wd.blocks[seq[0]]
            else:
                state = alg.subspace_product(chain(seq[:-1]), wd.radical)
                memo[seq] = alg.subspace_product(state, wd.blocks[seq[-1]])
        return memo[seq]

    return chain


def _differential_step(alg: StructureAlgebra, act: LieAction, wd: WedderburnData):
    """chain(seq) = B_s1^L A+ B_s2^L ... A+ B_sk^L, computed in A.

    A+ = A + Q*1, so S A+ = S + S A and no unit needs adjoining.  Each
    product is built once from its prefix and kept in
    act._differential_chains for the life of the action; the length-1
    entries are the moved blocks B_i^L.
    """
    full = Subspace.full(alg.dim)
    memo = act._differential_chains

    def chain(seq):
        if seq not in memo:
            if len(seq) == 1:
                block = wd.blocks[seq[0]]
                memo[seq] = subspace_under_action(block, act.envelope, include_identity=True)
            else:
                state = chain(seq[:-1])
                state = state.sum(alg.subspace_product(state, full))
                memo[seq] = alg.subspace_product(state, chain(seq[-1:]))
        return memo[seq]

    return chain


def _decomposition(alg: StructureAlgebra, wd, act: LieAction | None = None) -> WedderburnData:
    """wedderburn_malcev(alg), refusing a wd that is not it or an action on
    another algebra: the chain memos are keyed by block sequence alone."""
    if act is not None and act.algebra is not alg:
        raise ValueError("the action is not on this algebra")
    if wd is None:
        return wedderburn_malcev(alg)
    if wd is not alg._wedderburn:
        raise ValueError("wd is not wedderburn_malcev(alg)")
    return wd


def exp_ordinary(alg: StructureAlgebra, wd: WedderburnData | None = None) -> ExponentReport:
    """Max total dimension over distinct-block chains with B_1 J B_2 ... != 0."""
    wd = _decomposition(alg, wd)
    return _best_sequence(wd.blocks, _ordinary_step(alg, wd))


def exp_differential(
    alg: StructureAlgebra, act: LieAction, wd: WedderburnData | None = None
) -> ExponentReport:
    """Max over chains with B_1^L A+ B_2^L ... A+ B_k^L != 0.

    Every product is taken in A, since S A+ = S + S A for a subspace S of A.
    """
    wd = _decomposition(alg, wd, act)
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
    Both read the chains that exp_differential and exp_ordinary memoize.
    """
    wd = _decomposition(alg, wd, act)
    sequence = tuple(sequence)
    if any(i not in range(len(wd.blocks)) for i in sequence):
        raise ValueError(f"block indices must lie in range({len(wd.blocks)})")
    if len(set(sequence)) != len(sequence):
        raise ValueError("block indices must be distinct")
    return (
        bool(sequence) and not _differential_step(alg, act, wd)(sequence).is_zero(),
        bool(sequence) and not _ordinary_step(alg, wd)(sequence).is_zero(),
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
