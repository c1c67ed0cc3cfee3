"""Verifier semantics on top of the projector pipelines: sequential
projective measurements, accepting/rejecting witness subspaces, exact
acceptance probabilities, and seeded Monte Carlo sampling.

Everything probabilistic is exact-rational first; floats only appear
when Monte Carlo converts a conditional probability into a sampling
threshold.  Because the composed pipeline operator is an exact
projector, acceptance probability is exactly 1 on accepting witnesses
and exactly 0 on rejecting ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import BoundExceededError, ConsistencyError, InputError
from .partitions import Partition, enumerate_partitions
from .projectors import (
    BatchEvaluator,
    InvariantAverage,
    Isotypic,
    Pipeline,
    StateVector,
    _basis_batch,
    _exact_int_array,
    apply_invariant_average,
    apply_isotypic,
    apply_pipeline,
)
from .ratlinalg import echelon, rref_kernel

WITNESS_SPACE_DIM_LIMIT = 4096
_SEED_STRIDE = 1_000_003  # per-shot seed = seed * stride + shot index


@dataclass
class WitnessSpaces:
    """Exact bases of the accepting subspace (image of the composed
    projector) and the rejecting subspace (its kernel)."""

    pipeline: Pipeline
    accepting_basis: list[StateVector]
    rejecting_basis: list[StateVector]

    @property
    def dim_accept(self) -> int:
        return len(self.accepting_basis)

    @property
    def dim_reject(self) -> int:
        return len(self.rejecting_basis)


@dataclass
class StageRecord:
    kind: str  # 'fourier' or 'invariant'
    outcome: str  # partition like '2,1' for fourier; 'accept'/'reject' otherwise
    prob: Fraction  # conditional probability of this outcome


@dataclass
class VerifierOutcome:
    stages: list[StageRecord]
    verdict: str  # 'accept' or 'reject'
    probability: Fraction  # absolute probability of this trajectory
    p_accept: Fraction  # acceptance probability of the witness


@dataclass
class MonteCarloRun:
    shots: int
    accepts: int
    seed: int
    p_accept_exact: Fraction


def _part_str(lam: Partition) -> str:
    return ",".join(map(str, lam))


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
    state: StateVector, stage: InvariantAverage
) -> tuple[Fraction, StateVector, StateVector]:
    """Binary invariant-average measurement: returns (accept probability,
    accept post-state, reject post-state), all exact and unnormalized."""
    if state.is_zero():
        raise InputError("cannot measure the zero state")
    post = apply_invariant_average(state, stage)
    p = post.norm_sq() / state.norm_sq()
    return p, post, state.minus(post)


def acceptance_probability(p: Pipeline, witness: StateVector) -> Fraction:
    """Single-shot form: apply the composed operator once and take
    <psi|E psi>/<psi|psi>.  Deferring all intermediate measurements to
    the end gives the same acceptance probability as the sequential
    protocol; the test suite asserts the two agree."""
    if witness.is_zero():
        raise InputError("witness must be nonzero")
    out = apply_pipeline(p, witness)
    return witness.inner(out) / witness.norm_sq()


def run_verifier(
    p: Pipeline,
    witness: StateVector,
    mode: str = "exact",
    *,
    seed: int = 0,
    shots: int = 1000,
):
    """Simulate the verifier on a witness.

    mode='exact': full branch distribution as a list of VerifierOutcome
    (one accepting trajectory plus every rejecting branch with positive
    probability); branch probabilities sum to exactly 1.

    mode='single_shot': acceptance probability only (see
    acceptance_probability).

    mode='monte_carlo': sample `shots` trajectories with per-shot seeds
    derived from (seed, shot index); returns a MonteCarloRun.
    """
    if witness.is_zero():
        raise InputError("witness must be nonzero")
    if mode == "single_shot":
        return acceptance_probability(p, witness)
    branches, spine, p_accept = _branch_distribution(p, witness)
    if mode == "exact":
        return branches
    if mode == "monte_carlo":
        return _monte_carlo(spine, p_accept, seed, shots)
    raise InputError(f"unknown mode {mode!r}")


def _branch_distribution(
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
            prob, post_accept, _ = gpe_accept_probability(state, stage)
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


def _monte_carlo(spine: list[StageRecord], p_accept: Fraction, seed: int, shots: int) -> MonteCarloRun:
    """Sample trajectories shot by shot.  Every shot starts from the same
    witness, so the per-stage conditional distributions are fixed; a shot
    walks the spine, continuing past each stage with its exact conditional
    probability (converted to float only for the draw).  A spine that ends
    at a probability-0 stage rejects every shot there."""
    conds = [float(rec.prob) for rec in spine]
    accepts = 0
    for shot in range(shots):
        rng = random.Random(seed * _SEED_STRIDE + shot)
        accepts += all(rng.random() < cond for cond in conds)
    return MonteCarloRun(shots, accepts, seed, p_accept)


def witness_spaces(p: Pipeline) -> WitnessSpaces:
    """Exact bases for the accepting subspace A = im(E) and the rejecting
    subspace R = ker(E) = im(I - E).

    Materializes the composed operator column by column (the batch
    evaluator applied to the identity), then one row reduction yields
    both bases: the nonzero reduced rows span the image (the operator is
    symmetric), the free columns give the kernel.  Bounded by
    WITNESS_SPACE_DIM_LIMIT because the reduction is dense."""
    dim = p.dim
    if dim > WITNESS_SPACE_DIM_LIMIT:
        raise BoundExceededError(
            f"witness spaces need a dense {dim} x {dim} reduction; "
            f"limit is {WITNESS_SPACE_DIM_LIMIT} (sample witnesses instead)"
        )
    ev = BatchEvaluator(p)
    den = ev.denominator
    columns = _exact_int_array(ev.apply(_basis_batch(dim, np.arange(dim))))
    # columns[b, t] = E[t, b] * den; E symmetric so this is also E[b, t] * den
    trace = sum(int(columns[i, i]) for i in range(dim))
    if trace % den:
        raise ConsistencyError("trace of composed operator is not integral")
    expected_rank = trace // den
    # the common factor den leaves the reduced row-echelon form unchanged
    rows = columns.tolist()
    pivots = echelon(rows)
    if len(pivots) != expected_rank:
        raise ConsistencyError(f"rank {len(pivots)} != trace {expected_rank}")
    # row i over its pivot entry is row i of the reduced row-echelon form
    accepting = [StateVector(p.n, p.k, dict(enumerate(row)), row[pc]) for row, pc in zip(rows, pivots)]
    kernel, kernel_den = rref_kernel(rows, pivots, dim)
    rejecting = [StateVector(p.n, p.k, dict(enumerate(vec)), kernel_den) for vec in kernel]
    return WitnessSpaces(p, accepting, rejecting)


def sample_witness(ws: WitnessSpaces, which: str, seed: int) -> StateVector:
    """Pseudo-random rational witness: a small-integer combination
    (coefficients in [-9, 9]) of the requested basis.  Deterministic for
    a given seed, never zero."""
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
    # one integer sum over the common denominator, normalised once
    den = lcm(*(vec.den for vec in basis))
    nums: dict[int, int] = {}
    for c, vec in zip(coeffs, basis):
        if c:
            scale = c * (den // vec.den)
            for f, v in vec.nums.items():
                nums[f] = nums.get(f, 0) + scale * v
    out = StateVector(ws.pipeline.n, ws.pipeline.k, nums, den)
    if out.is_zero():
        # the random combination landed in a linear relation; basis vectors
        # are independent so this cannot happen, but fail loudly if it does
        raise ConsistencyError("sampled witness collapsed to zero")
    return out


def sample_accepting_witness(p: Pipeline, seed: int) -> StateVector:
    """Accepting witness for pipelines too large for full witness_spaces:
    E applied to a random sparse integer vector (retrying until the image
    is nonzero).  The result lies in im(E) exactly."""
    return _probe_witness(
        p, seed, lambda v: apply_pipeline(p, v),
        "no accepting witness found; is the trace zero?",
    )


def sample_rejecting_witness(p: Pipeline, seed: int) -> StateVector:
    """Rejecting witness: v - E v for a random sparse integer v, which
    lies in ker(E) exactly (E is idempotent)."""
    return _probe_witness(
        p, seed, lambda v: v.minus(apply_pipeline(p, v)),
        "no rejecting witness found; is the operator the identity?",
    )


def _probe_witness(p: Pipeline, seed: int, project, failure: str) -> StateVector:
    """First nonzero project(v) over seeded random probes v, each with up
    to three nonzero integer entries."""
    for attempt in range(64):
        rng = random.Random(seed * _SEED_STRIDE + attempt)
        nums = {}
        for _ in range(3):
            flat = rng.randrange(p.dim)
            nums[flat] = rng.choice([x for x in range(-9, 10) if x])
        out = project(StateVector(p.n, p.k, nums))
        if not out.is_zero():
            return out
    raise ConsistencyError(failure)
