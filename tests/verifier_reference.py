"""The verifier one StateVector at a time: the references the protocol
module is compared against.

- The sequential verifier, for `protocol._branch_distribution`: every
  outcome goes through `weak_fourier_sample` or `apply_invariant_average`,
  which read each post-measurement state back into a new lowest-terms
  StateVector and take its probability from `norm_sq`.
- Witness sampling, for `protocol.sample_witness`: a loop over the
  requested basis of StateVectors.
- The single-shot acceptance, for `protocol.acceptance_probability`:
  `apply_pipeline` and the StateVector inner product.
- Monte Carlo, for `protocol._monte_carlo`: every shot seeds its own
  generator and draws, whatever the conditional probabilities are."""

import random
from fractions import Fraction
from math import lcm

from helpers import apply_invariant_average, apply_isotypic

from kronlab.errors import ConsistencyError, InputError
from kronlab.partitions import Partition, enumerate_partitions, partition_text
from kronlab.projectors import DiagonalAverage, InvariantAverage, Isotypic, Pipeline, StateVector, apply_pipeline
from kronlab.protocol import _SEED_STRIDE, MonteCarloRun, StageRecord, VerifierOutcome, WitnessSpaces


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
                    rec = StageRecord(kind, partition_text(lam), prob)
                    branches.append(
                        VerifierOutcome(spine + [rec], "reject", prefix * prob, Fraction(0))
                    )
            spine.append(StageRecord(kind, partition_text(stage.shape), target_prob))
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


def reference_sample_witness(ws: WitnessSpaces, which: str, seed: int) -> StateVector:
    """A combination of the requested basis with one seeded draw in
    [-9, 9] per basis vector (drawn again while all are zero), summed
    vector by vector over the common denominator."""
    if which == "accept":
        basis = ws.accepting_basis
    elif which == "reject":
        basis = ws.rejecting_basis
    else:
        raise InputError(f"which must be 'accept' or 'reject', got {which!r}")
    if not basis:
        raise InputError(f"the {which}ing subspace is empty")
    rng = random.Random(seed)
    while True:
        coeffs = [rng.randint(-9, 9) for _ in basis]
        if any(coeffs):
            break
    den = lcm(*(vec.den for vec in basis))
    nums: dict[int, int] = {}
    for c, vec in zip(coeffs, basis):
        if c:
            scale = c * (den // vec.den)
            for f, v in vec.nums.items():
                nums[f] = nums.get(f, 0) + scale * v
    out = StateVector(ws.pipeline.n, ws.pipeline.k, nums, den)
    if out.is_zero():
        raise ConsistencyError("sampled witness collapsed to zero")
    return out


def reference_acceptance_probability(p: Pipeline, witness: StateVector) -> Fraction:
    """<psi|E psi>/<psi|psi> with E psi as a StateVector."""
    if witness.is_zero():
        raise InputError("witness must be nonzero")
    out = apply_pipeline(p, witness)
    return witness.inner(out) / witness.norm_sq()


def reference_monte_carlo(spine: list[StageRecord], p_accept: Fraction, seed: int, shots: int) -> MonteCarloRun:
    """Shot by shot, each from its own generator seeded from (seed, shot
    index), continuing past a stage while a draw falls below the float of
    its conditional probability."""
    conds = [float(rec.prob) for rec in spine]
    accepts = 0
    for shot in range(shots):
        rng = random.Random(seed * _SEED_STRIDE + shot)
        accepts += all(rng.random() < cond for cond in conds)
    return MonteCarloRun(shots, accepts, seed, p_accept)
