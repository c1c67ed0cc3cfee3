"""Verifier semantics on top of the projector pipelines: sequential
projective measurements, accepting/rejecting witness subspaces, exact
acceptance probabilities, and seeded Monte Carlo sampling.

Everything probabilistic is exact-rational first; floats only appear
when Monte Carlo converts a conditional probability into a sampling
threshold.  The sequential verifier pushes the witness through the
stages as one batch of integer limb rows, with no intermediate state
vector, and reads each outcome's probability off exact squared norms.
Because the composed pipeline operator is an exact projector,
acceptance probability is exactly 1 on accepting witnesses and exactly
0 on rejecting ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import mul

import numpy as np

from .errors import BoundExceededError, ConsistencyError, InputError
from .partitions import Partition, enumerate_partitions, partition_text
from .projectors import (
    BatchEvaluator,
    Isotypic,
    Pipeline,
    StateVector,
    _limb_join,
    _limb_norm_sq,
    _limb_split,
    _stage_kernel,
    apply_pipeline,
)
from .ratlinalg import echelon, rref_kernel

WITNESS_SPACE_DIM_LIMIT = 4096
_SEED_STRIDE = 1_000_003  # per-shot seed = seed * stride + shot index


@dataclass
class WitnessSpaces:
    """The accepting subspace (image of the composed projector) and the
    rejecting subspace (its kernel), held as the echelon rows and pivot
    columns of the operator's row space: row i over its pivot entry is
    row i of the reduced row-echelon form.  The exact bases are built
    from them on first read."""

    pipeline: Pipeline
    rows: list[list[int]]
    pivots: list[int]

    @property
    def dim_accept(self) -> int:
        return len(self.pivots)

    @property
    def dim_reject(self) -> int:
        return self.pipeline.dim - len(self.pivots)

    @cached_property
    def accepting_basis(self) -> list[StateVector]:
        """One vector per echelon row: the row over its pivot entry."""
        p = self.pipeline
        return [
            StateVector(p.n, p.k, {j: x for j, x in enumerate(row) if x}, row[pc])
            for row, pc in zip(self.rows, self.pivots)
        ]

    @cached_property
    def rejecting_basis(self) -> list[StateVector]:
        """One vector per free column, as rref_kernel reads them off the rows."""
        p = self.pipeline
        kernel, den = rref_kernel(self.rows, self.pivots, p.dim)
        return [StateVector(p.n, p.k, vec, den) for vec in kernel]


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


def acceptance_probability(p: Pipeline, witness: StateVector) -> Fraction:
    """Single-shot form: apply the composed operator once and take
    <psi|E psi>/<psi|psi>.  Deferring all intermediate measurements to
    the end gives the same acceptance probability as the sequential
    protocol; the test suite asserts the two agree.

    The witness's numerators x go through every stage as one batch of
    limb rows, giving E x over the evaluator's denominator; <x|E x> is one
    int64 dot product when that cannot overflow, and a sum of Python ints
    otherwise.  The witness's own denominator cancels."""
    if witness.is_zero():
        raise InputError("witness must be nonzero")
    if (p.n, p.k) != (witness.n, witness.k):
        raise InputError(f"{p.label} acts on (n, k) = {(p.n, p.k)}, not {(witness.n, witness.k)}")
    ev = BatchEvaluator(p)
    x, width = _limb_split(witness.nums, p.dim, prod(kern.l1 for kern in ev.kernels), p.label)
    y = ev.apply(x, start_max_abs=1 << width)
    if len(x) == 1 and int(np.abs(x).max()) * int(np.abs(y).max(initial=0)) * p.dim < 2**63:
        inner = int(x[0].astype(np.int64) @ y[0])
    else:
        cols, vals = _limb_join(y, width)
        image = dict(zip(cols.tolist(), vals))
        inner = sum(v * image.get(f, 0) for f, v in witness.nums.items())
    return Fraction(inner, ev.denominator * _limb_norm_sq(x, width))


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
    if mode not in ("exact", "single_shot", "monte_carlo"):
        raise InputError(f"unknown mode {mode!r}")
    if (p.n, p.k) != (witness.n, witness.k):
        raise InputError(f"{p.label} acts on (n, k) = {(p.n, p.k)}, not {(witness.n, witness.k)}")
    if witness.is_zero():
        raise InputError("witness must be nonzero")
    if mode == "single_shot":
        return acceptance_probability(p, witness)
    if mode == "monte_carlo" and shots < 0:
        raise InputError(f"shots must be nonnegative, got {shots}")
    branches, spine, p_accept = _branch_distribution(p, witness)
    return branches if mode == "exact" else _monte_carlo(spine, p_accept, seed, shots)


def _branch_distribution(
    p: Pipeline, witness: StateVector
) -> tuple[list[VerifierOutcome], list[StageRecord], Fraction]:
    """Sequential measurement semantics.  The trajectory tree is a spine:
    each stage either continues (its target outcome) or terminates in a
    reject branch.  Zero-probability branches are omitted.  Returns the
    branches, the spine's records (ending at the first stage whose target
    outcome has probability 0, if any) and the acceptance probability.

    The witness is one batch of limb rows, split once.  Each stage applies
    its outcome kernels K to the surviving batch x; an outcome's probability
    is |K x|^2 / (den^2 |x|^2), and an average's reject outcome takes the rest."""
    ev = BatchEvaluator(p)
    parts = enumerate_partitions(p.n)
    outcomes = [
        [_stage_kernel(p.n, Isotypic(s.factor, lam), p.k) for lam in parts] if isinstance(s, Isotypic) else [kern]
        for s, kern in zip(p.stages, ev.kernels)
    ]
    l1 = prod(max(kern.l1 for kern in kernels) for kernels in outcomes)
    x, width = _limb_split(witness.nums, p.dim, l1, p.label)
    norm = _limb_norm_sq(x, width)
    branches: list[VerifierOutcome] = []
    spine: list[StageRecord] = []
    prefix = Fraction(1)
    for stage, kernels in zip(p.stages, outcomes):
        if prefix == 0:
            break
        posts = [kern.apply(x, p.k, ev.space.nf) for kern in kernels]
        sq = [_limb_norm_sq(post, width) for post in posts]
        scale = kernels[0].den ** 2 * norm  # a stage's outcome kernels share one denominator
        if isinstance(stage, Isotypic):
            if sum(sq) != scale:
                raise ConsistencyError(f"isotypic outcome probabilities sum to {Fraction(sum(sq), scale)}")
            kind, names, target = "fourier", [partition_text(lam) for lam in parts], parts.index(stage.shape)
        else:
            kind, names, target = "invariant", ["accept", "reject"], 0
            sq.append(scale - sq[0])
        for i, (name, s) in enumerate(zip(names, sq)):
            if i != target and s:
                rec = StageRecord(kind, name, Fraction(s, scale))
                branches.append(VerifierOutcome(spine + [rec], "reject", prefix * rec.prob, Fraction(0)))
        spine.append(StageRecord(kind, names[target], Fraction(sq[target], scale)))
        prefix *= spine[-1].prob
        x, norm = posts[target], sq[target]
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
    at a probability-0 stage rejects every shot there.

    A draw lies in [0, 1), so it always passes a float condition of 1.0
    and never passes one of 0.0: a spine whose conditions are all 1.0
    accepts every shot, one with a 0.0 rejects every shot, and neither
    seeds a generator."""
    conds = [float(rec.prob) for rec in spine]
    certain = min(conds, default=1.0)
    if certain in (0.0, 1.0):
        return MonteCarloRun(shots, shots if certain else 0, seed, p_accept)
    accepts = 0
    for shot in range(shots):
        rng = random.Random(seed * _SEED_STRIDE + shot)
        accepts += all(rng.random() < cond for cond in conds)
    return MonteCarloRun(shots, accepts, seed, p_accept)


def witness_spaces(p: Pipeline) -> WitnessSpaces:
    """The accepting subspace A = im(E) and the rejecting subspace
    R = ker(E) = im(I - E), as echelon rows and pivots.

    Materializes the composed operator column by column (the batch
    evaluator applied to the identity); E is a projector, so its trace is
    its rank r.  The reduced row-echelon form of r independent rows yields
    both spaces: its rows span the image (the operator is symmetric), its
    free columns give the kernel.  Every call checks that the r rows span
    every column; the bases are built only when read.  Bounded by
    WITNESS_SPACE_DIM_LIMIT because the operator is dense."""
    dim = p.dim
    if dim > WITNESS_SPACE_DIM_LIMIT:
        raise BoundExceededError(
            f"witness spaces need a dense {dim} x {dim} reduction; "
            f"limit is {WITNESS_SPACE_DIM_LIMIT} (sample witnesses instead)"
        )
    ev = BatchEvaluator(p)
    den = ev.denominator
    columns = ev.apply(np.eye(dim))
    # columns[b, t] = E[t, b] * den; E symmetric so this is also E[b, t] * den
    trace = sum(columns.diagonal().tolist())  # Python ints: dim entries below 2^53 can pass 2^63
    if trace % den:
        raise ConsistencyError("trace of composed operator is not integral")
    # the common factor den leaves the reduced row-echelon form unchanged
    return WitnessSpaces(p, *_image_rows(columns, trace // den))


def _image_rows(columns: np.ndarray, rank: int) -> tuple[list[list[int]], list[int]]:
    """echelon's rows and pivots for the row space of an integer matrix of
    the given rank, reducing nonzero rows in order only until that rank is
    held; ConsistencyError unless every row lies in their span."""
    held: list[list[int]] = []
    pivots: list[int] = []
    nonzero = np.flatnonzero(columns.any(axis=1))
    while len(held) < rank:
        # only as many rows as are missing, so held never passes rank
        chunk, nonzero = nonzero[: rank - len(held)], nonzero[rank - len(held) :]
        if not len(chunk):
            raise ConsistencyError(f"rank {len(held)} < trace {rank}")
        held += columns[chunk].tolist()
        pivots = echelon(held)
        held = held[: len(pivots)]
    # x is in the span iff x * L == sum_i x[pc_i] * (L / a_i) * held_i, where
    # a_i = held_i[pc_i] and L = lcm(a); neither side passes max|x| * reach
    big = lcm(1, *(row[pc] for row, pc in zip(held, pivots)))
    scales = [big // row[pc] for row, pc in zip(held, pivots)]
    reach = rank * max((abs(s) * max(map(abs, row)) for s, row in zip(scales, held)), default=0)
    dtype = np.int64 if int(np.abs(columns).max(initial=0)) * reach < 2**63 else object
    x = columns.astype(dtype, copy=False)
    span = (x[:, pivots] * np.array(scales, dtype)) @ np.array(held, dtype).reshape(rank, x.shape[1])
    if not np.array_equal(x * big, span):
        raise ConsistencyError(f"rank > trace {rank}")
    return held, pivots


def sample_witness(ws: WitnessSpaces, which: str, seed: int) -> StateVector:
    """Pseudo-random rational witness: a small-integer combination
    (coefficients in [-9, 9], one draw per basis vector) of the requested
    basis.  Deterministic for a given seed, never zero.

    Both sides are summed from the echelon rows over den = lcm(a_i),
    a_i = row_i[pc_i], without building either basis: the accepting
    sum_i c_i row_i / a_i is sum_i c_i (den / a_i) row_i over den; the
    rejecting sum_fc c_fc v_fc of rref_kernel's vectors is c_fc den at each
    free column fc and -(den / a_i) sum_fc c_fc row_i[fc] at pivot pc_i."""
    if which == "accept":
        size = ws.dim_accept
    elif which == "reject":
        size = ws.dim_reject
    else:
        raise InputError(f"which must be 'accept' or 'reject', got {which!r}")
    if not size:
        raise InputError(f"the {which}ing subspace is empty")
    rng = random.Random(seed)
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(size)]
        if any(coeffs):
            break
    p = ws.pipeline
    den = lcm(1, *(row[pc] for row, pc in zip(ws.rows, ws.pivots)))
    dense = [0] * p.dim
    if which == "accept":  # one integer sum over den, normalised once
        for c, row, pc in zip(coeffs, ws.rows, ws.pivots):
            scale = c * (den // row[pc])
            dense = [x + scale * v for x, v in zip(dense, row)]
        nums = {f: x for f, x in enumerate(dense) if x}
    else:  # dense holds c_fc at each free column, 0 at the pivots
        nums = {}
        for fc, c in zip(sorted(set(range(p.dim)).difference(ws.pivots)), coeffs):
            dense[fc] = c
            nums[fc] = c * den
        for row, pc in zip(ws.rows, ws.pivots):
            nums[pc] = -(den // row[pc]) * sum(map(mul, dense, row))
    out = StateVector(p.n, p.k, nums, den)
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
