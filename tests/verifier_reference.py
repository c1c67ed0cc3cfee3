"""The sequential verifier with one StateVector per measurement: the
reference `protocol._branch_distribution` is compared against.  Every
outcome goes through `weak_fourier_sample` or `apply_invariant_average`,
which read each post-measurement state back into a new lowest-terms
StateVector and take its probability from `norm_sq`."""

from fractions import Fraction

from helpers import apply_invariant_average, apply_isotypic

from kronlab.errors import ConsistencyError, InputError
from kronlab.partitions import Partition, enumerate_partitions
from kronlab.projectors import DiagonalAverage, InvariantAverage, Isotypic, Pipeline, StateVector
from kronlab.protocol import StageRecord, VerifierOutcome, _part_str


def weak_fourier_sample(
    state: StateVector, factor: int
) -> list[tuple[Partition, Fraction, StateVector]]:
    """Measurement statistics of the isotypic PVM on one factor:
    (shape, probability, post-measurement state) for every outcome.
    Probabilities are exact and sum to 1."""
    if state.is_zero():
        raise InputError("cannot measure the zero state")
    norm = state.norm_sq()
    out = []
    total = Fraction(0)
    for lam in enumerate_partitions(state.n):
        post = apply_isotypic(state, factor, lam)
        prob = post.norm_sq() / norm
        total += prob
        out.append((lam, prob, post))
    if total != 1:
        raise ConsistencyError(f"isotypic outcome probabilities sum to {total}")
    return out


def gpe_accept_probability(
    state: StateVector, stage: InvariantAverage | DiagonalAverage
) -> tuple[Fraction, StateVector, StateVector]:
    """Binary invariant-average measurement: returns (accept probability,
    accept post-state, reject post-state), all exact and unnormalized."""
    if state.is_zero():
        raise InputError("cannot measure the zero state")
    post = apply_invariant_average(state, stage)
    p = post.norm_sq() / state.norm_sq()
    return p, post, state.minus(post)


def reference_branch_distribution(
    p: Pipeline, witness: StateVector
) -> tuple[list[VerifierOutcome], list[StageRecord], Fraction]:
    """Sequential measurement semantics.  The trajectory tree is a spine:
    each stage either continues (its target outcome) or terminates in a
    reject branch.  Zero-probability branches are omitted.  Returns the
    branches, the spine's records (ending at the first stage whose target
    outcome has probability 0, if any) and the acceptance probability."""
    branches: list[VerifierOutcome] = []
    spine: list[StageRecord] = []
    state = witness
    prefix = Fraction(1)
    for stage in p.stages:
        if prefix == 0:
            break
        if isinstance(stage, Isotypic):
            kind = "fourier"
            target_post = None
            target_prob = Fraction(0)
            for lam, prob, post in weak_fourier_sample(state, stage.factor):
                if lam == stage.shape:
                    target_post, target_prob = post, prob
                elif prob:
                    rec = StageRecord(kind, _part_str(lam), prob)
                    branches.append(
                        VerifierOutcome(spine + [rec], "reject", prefix * prob, Fraction(0))
                    )
            spine.append(StageRecord(kind, _part_str(stage.shape), target_prob))
            prefix *= target_prob
            state = target_post
        else:
            kind = "invariant"
            # state is nonzero while prefix is
            post_accept = apply_invariant_average(state, stage)
            prob = post_accept.norm_sq() / state.norm_sq()
            if prob != 1:
                rec = StageRecord(kind, "reject", 1 - prob)
                branches.append(
                    VerifierOutcome(spine + [rec], "reject", prefix * (1 - prob), Fraction(0))
                )
            spine.append(StageRecord(kind, "accept", prob))
            prefix *= prob
            state = post_accept
    p_accept = prefix
    for b in branches:
        b.p_accept = p_accept
    if p_accept:
        branches.append(VerifierOutcome(spine, "accept", p_accept, p_accept))
    total = sum((b.probability for b in branches), Fraction(0))
    if total != 1:
        raise ConsistencyError(f"branch probabilities sum to {total}")
    return branches, spine, p_accept

