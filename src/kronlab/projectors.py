"""Commuting Hermitian projectors on the k-fold tensor power of the group
algebra of S_n, composed into the pipelines whose image dimensions are
the Kronecker and plethysm coefficients.

Every stage has one implementation, an integer kernel (`_stage_kernel`)
applied by `BatchEvaluator` to batches of vectors: a single-factor stage
is an nf x nf matrix multiplied into its factor, and the simultaneous
left average over S_n, the one stage acting on several factors, is an
orbit sum made of two index gathers.  Amplitudes stay
integer numerators over a running denominator; they are carried in
float64 arrays purely for speed, with an l1-norm bound asserted below
2^53 before every stage so every intermediate is exactly representable.
The projector-algebra check compares it with every stage's kernel.  The dense
trace reads one diagonal entry per orbit of the translations the composed
stages commute with (simultaneous left translation by the x commuting
with each factor's composed left averages between orbit stages, right
translation on each factor by the y commuting with its composed right
averages), weighted by the orbit size.  It splits the stages at the
multi-factor ones: the single-factor stages before them act on the basis
ket and those after them on the basis bra, one factor at a time, so only
the middle stages run on full-width rows.  State vectors (`StateVector`, `apply_*`, used by the
verifier protocol) are stored in the same format: integer numerators
keyed by flat basis index over one denominator.  Numerators too large
for the bound are split into base-2^b limbs (one batch row each) and
recombined in Python integers, so any rational amplitude stays exact.

`pipeline_trace_collapsed` is the independent closed-form route: it
expands every stage into its group sum and contracts with the per-factor
identity  trace(L_l R_tau) = z(type(tau)) [type(l) = type(tau)],
never touching a state vector.  It enumerates no group: the group sums
enter as closed-form cycle-type censuses (`permutations.class_census`),
and its one pass over S_n builds the class-count array with numpy.

All operators in play are real and rational in the permutation basis, so
no complex numbers appear anywhere.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import factorial, gcd, lcm, prod
from operator import mul

import numpy as np

from .characters import character_table
from .errors import BoundExceededError, ConsistencyError, InputError
from .partitions import Partition, check_partition, enumerate_partitions, hook_dimension
from .permutations import (
    Perm,
    SubgroupDescriptor,
    all_perms,
    block_permutations,
    centralizer_order,
    class_census,
    class_indices,
    enumerate_subgroup,
    full_group,
    perm_array,
    perm_ranks,
    wreath_product,
    young_subgroup,
)

FLOAT_EXACT_LIMIT = 1 << 53  # float64 holds integers exactly below this
DENSE_DIM_LIMIT = 24**3  # 13824; one factor never exceeds 6! = 720
DENSE_FACTOR_LIMIT = 720
# rows per dense-trace chunk, bounding its memory: an 868-row n = 4 trace took
# 162 ms at 2 MB, 196 ms at 1 MB and 142 ms at 8 MB (best of five, one thread,
# 2-core host); an n = 4 Kronecker trace has at most 12 rows, 18 fit in one
DENSE_CHUNK_BYTES = 1 << 21
# largest n whose collapsed first call stays within 10 s and 500 MB peak RSS
# on a 2-core host: n = 9 took 0.8 s and 54 MB, n = 10 took 14.3 s and 279 MB
COLLAPSED_DEGREE_LIMIT = 9


# ---------------------------------------------------------------------------
# stage and pipeline descriptions


@dataclass(frozen=True)
class Isotypic:
    """Projection of one tensor factor onto its lam-isotypic component,
    realized as (d(lam)/n!) sum_g chi_lam(g) L_g on that factor."""

    factor: int
    shape: Partition


@dataclass(frozen=True)
class InvariantAverage:
    """Average over a subgroup of the given one-sided actions,
    (1/|G|) sum_g prod of the listed (factor, side) actions of g."""

    group: SubgroupDescriptor
    actions: tuple[tuple[int, str], ...]  # (factor index, 'L' or 'R')


Stage = Isotypic | InvariantAverage


@dataclass(frozen=True)
class Pipeline:
    n: int
    k: int
    stages: tuple[Stage, ...]
    label: str

    @property
    def dim(self) -> int:
        return factorial(self.n) ** self.k


def kron_pipeline(lam: Partition, mu: Partition, nu: Partition) -> Pipeline:
    """Isotypic projections on the three factors, the simultaneous-left
    invariant average over all of S_n, then one right Young-subgroup
    average per factor."""
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    n = sum(lam)
    if sum(mu) != n or sum(nu) != n:
        raise InputError(f"sizes differ: {sum(lam)}, {sum(mu)}, {sum(nu)}")
    if n < 1:
        raise InputError("Kronecker pipeline needs n >= 1")
    stages: tuple[Stage, ...] = (
        Isotypic(0, lam),
        Isotypic(1, mu),
        Isotypic(2, nu),
        InvariantAverage(full_group(n), ((0, "L"), (1, "L"), (2, "L"))),
        InvariantAverage(young_subgroup(lam), ((0, "R"),)),
        InvariantAverage(young_subgroup(mu), ((1, "R"),)),
        InvariantAverage(young_subgroup(nu), ((2, "R"),)),
    )
    label = "kron(%s|%s|%s)" % (
        ",".join(map(str, lam)),
        ",".join(map(str, mu)),
        ",".join(map(str, nu)),
    )
    return Pipeline(n, 3, stages, label)


def truncated_kron_pipeline(lam: Partition, mu: Partition, nu: Partition) -> Pipeline:
    """The Kronecker pipeline without the right refinements; its trace is
    the coefficient rescaled by the three hook dimensions."""
    base = kron_pipeline(lam, mu, nu)
    return Pipeline(base.n, 3, base.stages[:4], base.label.replace("kron", "scaledkron"))


def pleth_pipeline(d: int, m: int, lam: Partition) -> Pipeline:
    """Single-factor pipeline: isotypic projection, left averages over the
    block Young subgroup and over block permutations (together: the
    wreath product), and the right Young-subgroup average."""
    lam = check_partition(lam)
    n = m * d
    if d < 1 or m < 1:
        raise InputError("d and m must be positive")
    if sum(lam) != n:
        raise InputError(f"|lam| = {sum(lam)} but md = {n}")
    stages: tuple[Stage, ...] = (
        Isotypic(0, lam),
        InvariantAverage(young_subgroup((m,) * d), ((0, "L"),)),
        InvariantAverage(block_permutations(m, d), ((0, "L"),)),
        InvariantAverage(young_subgroup(lam), ((0, "R"),)),
    )
    return Pipeline(n, 1, stages, f"pleth({d},{m}|{','.join(map(str, lam))})")


# ---------------------------------------------------------------------------
# sparse exact-rational state vectors


class _AmpsView(Mapping):
    """A state's amplitudes as Fractions keyed by permutation tuples,
    converted from the numerators on first read; len() converts nothing."""

    def __init__(self, state: "StateVector"):
        self._state = state

    def __len__(self) -> int:
        return len(self._state.nums)

    def __iter__(self):
        return iter(self._amps)

    def __getitem__(self, key: tuple[Perm, ...]) -> Fraction:
        return self._amps[key]

    @cached_property
    def _amps(self) -> dict[tuple[Perm, ...], Fraction]:
        s, perms = self._state, all_perms(self._state.n)
        keys = zip(*np.unravel_index(np.fromiter(s.nums, np.int64), (len(perms),) * s.k))
        return {tuple(perms[d] for d in key): Fraction(v, s.den) for key, v in zip(keys, s.nums.values())}


@dataclass
class StateVector:
    """Sparse rational vector over k-tuples of permutations of degree n, in
    BatchEvaluator's format: integer numerators keyed by flat tensor-basis
    index (factor 0 is the most significant digit; each digit is a rank in
    all_perms order) over one denominator.  Kept in lowest terms (den > 0,
    gcd 1, no stored zeros), so == is exact rational equality."""

    n: int
    k: int
    nums: dict[int, int]
    den: int = 1
    amps = property(_AmpsView, doc="Read-only view: amplitudes keyed by permutation tuples.")

    def __post_init__(self):
        if not self.den:
            raise InputError("state vector denominator is zero")
        g = gcd(*self.nums.values(), self.den) * (1 if self.den > 0 else -1)
        self.nums = {f: v // g for f, v in self.nums.items() if v}
        self.den //= g

    @staticmethod
    def zero(n: int, k: int) -> "StateVector":
        return StateVector(n, k, {})

    def is_zero(self) -> bool:
        return not self.nums

    def norm_sq(self) -> Fraction:
        return Fraction(sum(v * v for v in self.nums.values()), self.den * self.den)

    def inner(self, other: "StateVector") -> Fraction:
        if len(self.nums) > len(other.nums):
            return other.inner(self)
        total = sum(v * other.nums.get(f, 0) for f, v in self.nums.items())
        return Fraction(total, self.den * other.den)

    def scaled(self, c) -> "StateVector":
        c = Fraction(c)
        nums = {f: v * c.numerator for f, v in self.nums.items()}
        return StateVector(self.n, self.k, nums, self.den * c.denominator)

    def plus(self, other: "StateVector") -> "StateVector":
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = {f: v * a for f, v in self.nums.items()}
        for f, v in other.nums.items():
            out[f] = out.get(f, 0) + v * b
        return StateVector(self.n, self.k, out, den)

    def minus(self, other: "StateVector") -> "StateVector":
        return self.plus(other.scaled(-1))


def apply_isotypic(state: StateVector, factor: int, lam: Partition) -> StateVector:
    """Weak-Fourier-sampling projector on one factor:
    (d(lam)/n!) sum_g chi_lam(g) L_g."""
    lam = check_partition(lam)
    if sum(lam) != state.n:
        raise InputError(f"|lam| = {sum(lam)} but degree is {state.n}")
    return _apply_stages(state, (Isotypic(factor, lam),), f"isotypic({factor})")


def apply_invariant_average(state: StateVector, stage: InvariantAverage) -> StateVector:
    """(1/|G|) sum over the subgroup of the product of the stage's
    one-sided actions."""
    return _apply_stages(state, (stage,), "invariant_average")


def apply_pipeline(p: Pipeline, state: StateVector) -> StateVector:
    if (p.n, p.k) != (state.n, state.k):
        raise InputError(f"{p.label} acts on (n, k) = {(p.n, p.k)}, not {(state.n, state.k)}")
    return _apply_stages(state, p.stages, p.label)


def _apply_stages(state: StateVector, stages: tuple[Stage, ...], label: str) -> StateVector:
    """Push a state's numerators through the stage kernels as one batch.
    A numerator too large for the 2^53 guard is split into base-2^b limbs,
    one batch row per limb, and the rows are recombined in Python ints."""
    ev = BatchEvaluator(Pipeline(state.n, state.k, stages, label))
    if state.is_zero():
        return StateVector.zero(state.n, state.k)
    cols, nums = list(state.nums), list(state.nums.values())
    headroom = (FLOAT_EXACT_LIMIT - 1) // prod(kern.l1 for kern in ev.kernels)
    b = max(1, (headroom + 1).bit_length() - 1)  # limbs below 2^b pass the guard
    mask = (1 << b) - 1
    limbs = max(1, -(-max(abs(v) for v in nums).bit_length() // b))
    x = np.zeros((limbs, ev.pipeline.dim), dtype=np.float64)
    for j in range(limbs):
        x[j, cols] = [(abs(v) >> (b * j) & mask) * (1 if v > 0 else -1) for v in nums]
    rows = _exact_int_array(ev.apply(x, start_max_abs=mask)).tolist()
    out = rows[-1]
    for row in reversed(rows[:-1]):
        out = [(hi << b) + lo for hi, lo in zip(out, row)]
    return StateVector(state.n, state.k, dict(enumerate(out)), state.den * ev.denominator)


# ---------------------------------------------------------------------------
# indexed permutation space shared by the batch backends


class PermIndex:
    """S_n in all_perms order (identity first) as multiplication, inverse
    and cycle-type index tables."""

    def __init__(self, n: int):
        if factorial(n) > DENSE_FACTOR_LIMIT:
            raise BoundExceededError(f"S_{n} has more than {DENSE_FACTOR_LIMIT} elements to index")
        self.n = n
        self.nf = factorial(n)
        arr = perm_array(n)
        self.inv = perm_ranks(np.argsort(arr, axis=1))
        self.mult = np.empty((self.nf, self.nf), dtype=np.int64)
        rows = max(1, (1 << 21) // (self.nf * n * 8))  # about 2 MB of transient per block
        for i in range(0, self.nf, rows):  # mult[i, j] = index of a_i o a_j
            self.mult[i : i + rows] = perm_ranks(arr[i : i + rows][:, arr])
        self.classes = enumerate_partitions(n)
        self.type_index = class_indices(arr)


@lru_cache(maxsize=None)
def perm_index(n: int) -> PermIndex:
    return PermIndex(n)


@lru_cache(maxsize=256)
def _member_vector(n: int, group: SubgroupDescriptor) -> np.ndarray:
    """Indicator of the enumerated subgroup over S_n in all_perms order;
    memoised and read-only."""
    member = np.zeros(factorial(n), dtype=np.float64)
    member[perm_ranks(np.array(enumerate_subgroup(group)) - 1)] = 1.0
    member.flags.writeable = False
    return member


# ---------------------------------------------------------------------------
# integer batch evaluator


class _FactorKernel:
    """Stage acting on a single tensor factor through an nf x nf integer
    kernel, stored in the narrowest integer dtype that holds its entries
    and widened to exact-integer-valued float64 at use."""

    def __init__(self, factor: int, kernel: np.ndarray, den: int):
        self.factor = factor
        self._ints = kernel.astype(np.min_scalar_type(-int(np.abs(kernel).max()) - 1))
        self.den = den
        self.l1 = int(np.abs(kernel).sum(axis=1).max())

    @property
    def kernel(self) -> np.ndarray:
        return self._ints.astype(np.float64)

    def apply(self, x: np.ndarray, k: int, nf: int) -> np.ndarray:
        post = nf ** (k - self.factor - 1)  # x viewed as (rows * pre, nf, post)
        kernel = self.kernel
        if post == 1:
            return (x.reshape(-1, nf) @ kernel.T).reshape(x.shape)
        return np.matmul(kernel, x.reshape(-1, nf, post)).reshape(x.shape)


class _OrbitKernel:
    """The simultaneous left action of all of S_n on all k factors.  In
    the coordinates (s_1, s_1^-1 s_2, ..., s_1^-1 s_k) it moves only s_1,
    so the unnormalised sum over the group adds up each orbit.  back[r] is
    the orbit of flat index r, and gather[i, o] is the one member of orbit
    o whose first factor is perm i."""

    def __init__(self, space: PermIndex, k: int):
        flat = np.arange(space.nf**k, dtype=np.int64)
        digits = np.unravel_index(flat, (space.nf,) * k)
        rel = [space.mult[space.inv[digits[0]], d] for d in digits[1:]]
        self.back = np.ravel_multi_index(rel, (space.nf,) * (k - 1))
        self.gather = np.empty((space.nf, space.nf ** (k - 1)), dtype=np.int64)
        self.gather[digits[0], self.back] = flat
        self.den = self.l1 = space.nf

    def apply(self, x: np.ndarray, k: int, nf: int) -> np.ndarray:
        return x[:, self.gather].sum(axis=1)[:, self.back]


def _is_full_left(stage: InvariantAverage, n: int, k: int) -> bool:
    """True for the average over all of S_n acting on the left of every
    one of the k factors."""
    return (
        stage.group == full_group(n)
        and all(side == "L" for _, side in stage.actions)
        and sorted(f for f, _ in stage.actions) == list(range(k))
    )


@lru_cache(maxsize=256)
def _stage_kernel_cached(n: int, stage: Stage, k: int):
    """Kernels depend only on (n, k, stage), so pipelines sharing stages
    (every pipeline at one degree shares the left average, for instance)
    reuse them."""
    return _stage_kernel(perm_index(n), stage, k)


def _stage_kernel(space: PermIndex, stage: Stage, k: int):
    if isinstance(stage, Isotypic):
        table = character_table(space.n)
        chi = np.array(
            [table.chi(stage.shape, rho) for rho in space.classes], dtype=np.float64
        )
        d = hook_dimension(stage.shape)
        ts = space.mult[:, space.inv]  # ts[t, s] = index of perm_t o perm_s^-1
        kernel = d * chi[space.type_index[ts]]
        return _FactorKernel(stage.factor, kernel, factorial(space.n))
    if len(stage.actions) == 1:
        (f, side) = stage.actions[0]
        member = _member_vector(space.n, stage.group)
        if side == "L":
            ts = space.mult[:, space.inv]  # kernel[t, s] = [t o s^-1 in G]
            kernel = member[ts]
        else:
            st = space.mult[space.inv, :]  # st[s, t] = s^-1 o t
            kernel = member[st].T  # kernel[t, s] = [s^-1 o t in G]
        return _FactorKernel(f, kernel, stage.group.order())
    if not _is_full_left(stage, space.n, k):
        raise InputError(
            "the only stage acting on several factors is the average over "
            f"S_{space.n} on the left of all {k}, not {stage}"
        )
    return _OrbitKernel(space, k)


class BatchEvaluator:
    """Applies a pipeline's stage sequence to batches of vectors with
    integer amplitudes.  Tracks the common denominator and an l1 bound
    guaranteeing float64 exactness."""

    def __init__(self, p: Pipeline):
        self.pipeline = p
        if p.dim > DENSE_DIM_LIMIT:
            raise BoundExceededError(
                f"dense evaluation bound exceeded for {p.label}: dim {p.dim}"
            )
        self.space = perm_index(p.n)  # refuses n! > DENSE_FACTOR_LIMIT
        self.kernels = [_stage_kernel_cached(p.n, s, p.k) for s in p.stages]
        self.denominator = prod(kern.den for kern in self.kernels)

    def apply(self, x: np.ndarray, *, start_max_abs: int = 1) -> np.ndarray:
        """Push batch rows through every stage in pipeline order.  Returns
        integer-valued float64 amplitudes over self.denominator."""
        return self.apply_stages(x, range(len(self.kernels)), start_max_abs=start_max_abs)[0]

    def apply_stages(
        self, x: np.ndarray, stage_indices, *, start_max_abs: int = 1
    ) -> tuple[np.ndarray, int]:
        """Apply a subset of stages (in the given order); returns the batch
        and the denominator for that subset.  Every l1 bound is at least 1,
        so the subset's product bounds every intermediate."""
        kernels = [self.kernels[i] for i in stage_indices]
        if start_max_abs * prod(kern.l1 for kern in kernels) >= FLOAT_EXACT_LIMIT:
            raise BoundExceededError(
                f"integer amplitudes for {self.pipeline.label} would exceed exact float64 range"
            )
        for kern in kernels:
            x = kern.apply(x, self.pipeline.k, self.space.nf)
        return x, prod(kern.den for kern in kernels)


def _basis_batch(dim: int, cols) -> np.ndarray:
    x = np.zeros((len(cols), dim), dtype=np.float64)
    x[np.arange(len(cols)), cols] = 1.0
    return x


def _exact_int_array(x: np.ndarray) -> np.ndarray:
    # NaN, infinities and out-of-range values cast to some integer that
    # differs from them, so one comparison catches every kind of drift
    with np.errstate(invalid="ignore"):
        r = x.astype(np.int64)
    if not np.array_equal(r, x):
        raise ConsistencyError("batch amplitudes drifted off the integers")
    return r


@lru_cache(maxsize=256)
def _centraliser(n: int, runs: tuple[tuple[SubgroupDescriptor, ...], ...]) -> tuple[int, ...]:
    """Ranks of the x in S_n with x v x^-1 = v for each nonempty run's
    product v of group sums, from the member vectors (integers >= 0, exact
    in float64 under the dense l1 bound).  Conjugation is a bijection and
    v >= 0, so x fixes v once v(x h x^-1) = v(h) on v's support."""
    space = perm_index(n)
    xs = np.arange(space.nf)
    for groups in filter(None, runs):
        v = _member_vector(n, groups[0])
        for group in groups[1:]:
            a, b = np.flatnonzero(v), np.flatnonzero(_member_vector(n, group))
            v = np.bincount(space.mult[np.ix_(a, b)].ravel(), np.repeat(v[a], len(b)), space.nf)
        h = np.flatnonzero(v)
        conj = space.mult[space.mult[xs[:, None], h], space.inv[xs, None]]  # x h x^-1
        xs = xs[(v[conj] == v[h]).all(axis=1)]
    return tuple(xs.tolist())


def _commuting_translations(p: Pipeline) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Ranks of the translations the composed stages commute with: x by
    simultaneous left translation, and y_f by right translation on factor
    f.  Isotypic stages are central, and the orbit stage (the one
    multi-factor stage BatchEvaluator admits) commutes with both kinds.
    Between orbit stages a factor's left averages compose to left
    multiplication by the product v of their group sums, which x fixes
    when x v x^-1 = v; all its right averages commute with every left
    action and compose to one such product for y_f.  Reversing a product
    is its image under g -> g^-1, which commutes with conjugation, so its
    order does not matter.  This can exceed every stage's own group: the
    block Young and block-permutation averages compose to S_m wr S_d's."""
    runs: list[list[list[SubgroupDescriptor]]] = [[[] for _ in range(p.k)]]  # [segment][factor]
    right: list[list[SubgroupDescriptor]] = [[] for _ in range(p.k)]
    for stage in p.stages:
        if isinstance(stage, InvariantAverage) and len(stage.actions) > 1:
            runs.append([[] for _ in range(p.k)])
        elif isinstance(stage, InvariantAverage):
            ((f, side),) = stage.actions
            (runs[-1][f] if side == "L" else right[f]).append(stage.group)
    left = tuple(tuple(run) for segment in runs for run in segment)
    return _centraliser(p.n, left), tuple(_centraliser(p.n, (tuple(g),)) for g in right)


@lru_cache(maxsize=64)
def _trace_orbits(
    n: int, k: int, left: tuple[int, ...], right: tuple[tuple[int, ...], ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of the basis under (sigma_f) -> (x sigma_f y_f), x in the
    left group and y_f in factor f's right group, both given as ranks: the
    smallest flat index of each orbit, ascending, and the orbit sizes.
    Right translations move each digit within its right coset, so the
    tuples of coset minima stand for equally many basis vectors each, and
    the smallest flat index over the right translations takes each digit's
    coset minimum.  Left and right translations commute, so one pass over
    the left group then maps each tuple of coset minima to its orbit's
    minimum."""
    space = perm_index(n)
    nf, dim = space.nf, space.nf**k
    lowest = [space.mult[:, list(ys)].min(axis=1) for ys in right]
    minima = np.meshgrid(*(np.flatnonzero(low == np.arange(nf)) for low in lowest), indexing="ij")
    rep = np.full(minima[0].size, dim, dtype=np.int64)
    for x in left:
        moved = [lowest[f][space.mult[x, minima[f].ravel()]] for f in range(k)]
        np.minimum(rep, np.ravel_multi_index(moved, (nf,) * k), out=rep)
    sizes = np.bincount(rep, minlength=dim)
    reps = np.flatnonzero(sizes)
    sizes = sizes[reps] * (dim // rep.size)
    reps.flags.writeable = sizes.flags.writeable = False  # shared by every caller
    return reps, sizes


def _images(kernels, cols: np.ndarray, nf: int) -> np.ndarray:
    """Row j is K_m ... K_1 e_cols[j] for the integer kernels
    [K_1, ..., K_m] (the unit vectors when there are none), from K_1's
    columns by thin products: no nf x nf product is formed."""
    if not kernels:
        return _basis_batch(nf, cols)
    x = kernels[0][:, cols].astype(np.float64)
    for kern in kernels[1:]:
        x = kern.astype(np.float64) @ x
    return x.T


def pipeline_trace_dense(p: Pipeline) -> int:
    """Exact trace of the composed pipeline operator: the sum over basis
    vectors e_c of e_c^T (trailing stages)(middle stages)(leading stages) e_c,
    every stage applied in pipeline order.

    The diagonal is constant on orbits of the translations the composed
    stages commute with (`_commuting_translations`): if P commutes with a
    permutation matrix Q, then e_Qc^T P e_Qc = e_c^T Q^T P Q e_c =
    e_c^T P e_c.  So only one basis vector per orbit, its smallest flat
    index, is pushed through the stages, and its diagonal entry is
    weighted by the orbit size: 4 of 576 rows for `kron 3,1 2,2 2,1,1`,
    one for a truncated Kronecker trace, 2 of 720 for `pleth 2 3 4,2`.

    The kernels are split at the multi-factor stages.  The single-factor
    stages before the first one act on the ket: per factor, the images of
    the unit vectors the representatives use, and a ket row is the outer
    product of those images.  Only the middle stages run on full-width
    rows.  The single-factor stages after the last multi-factor stage act
    on the bra, e_c^T times that factor's kernels, and the diagonal entry
    is the contraction of the middle output with the bra rows, one factor
    at a time.  A pipeline with no multi-factor stage splits its stages
    into two halves around an empty middle.
    """
    ev = BatchEvaluator(p)
    dim, k, nf = p.dim, p.k, ev.space.nf
    multi = [i for i, kern in enumerate(ev.kernels) if not isinstance(kern, _FactorKernel)]
    lo, hi = (multi[0], multi[-1] + 1) if multi else (len(ev.kernels) // 2,) * 2
    middle = range(lo, hi)
    # Entries of the ket are at most the product of the leading kernels'
    # row l1 norms, and the bra's l1 norm is at most that of the trailing
    # ones.  So every partial sum of the kernel products, the middle stages
    # and the contraction stays under the product over all kernels: the
    # bound apply_stages checks, here on an empty batch before any mask,
    # orbit or product is built.
    outer = prod(kern.l1 for kern in ev.kernels[:lo] + ev.kernels[hi:])
    ev.apply_stages(np.empty((0, dim)), middle, start_max_abs=outer)
    reps, sizes = _trace_orbits(p.n, k, *_commuting_translations(p))
    # row j of ket[f] and bra[f] belongs to reps[j]; factor 0 is the most
    # significant digit
    ket, bra = [], []
    for f, digit in enumerate(np.unravel_index(reps, (nf,) * k)):
        ket.append(_images([kn._ints for kn in ev.kernels[:lo] if kn.factor == f], digit, nf))
        trailing = [kn._ints.T for kn in reversed(ev.kernels[hi:]) if kn.factor == f]
        bra.append(_images(trailing, digit, nf))  # e_digit^T times the stages

    chunk_rows = max(1, DENSE_CHUNK_BYTES // (8 * dim))
    total = 0
    for start in range(0, len(reps), chunk_rows):
        rows = slice(start, start + chunk_rows)
        x = ket[0][rows]
        for f in range(1, k):
            x = (x[:, :, None] * ket[f][rows][:, None, :]).reshape(len(x), -1)
        count = len(x)
        x, _ = ev.apply_stages(x, middle, start_max_abs=outer)
        for f in reversed(range(k)):
            x = np.matmul(x.reshape(count, -1, nf), bra[f][rows][:, :, None])
        diag = x.reshape(-1)
        # size * entry can pass 2^63, so the weighted sum is taken in Python ints
        total += sum(map(mul, sizes[rows].tolist(), _exact_int_array(diag).tolist()))
    value = Fraction(total, ev.denominator)
    if value.denominator != 1:
        raise ConsistencyError(f"dense trace of {p.label} is not integral: {value}")
    if value < 0:
        raise ConsistencyError(f"dense trace of {p.label} is negative: {value}")
    return int(value)


# ---------------------------------------------------------------------------
# collapsed (closed-form) trace


@lru_cache(maxsize=None)
def _shifted_class_counts(n: int) -> np.ndarray:
    """counts[a, b, c] = number of permutations l of type class_a with
    type(l * rep_b^-1) = class_c, rep_b the first of class_b in all_perms
    order (a class function of the representative).  One numpy pass over
    S_n per class b: l * rep_b^-1 permutes l's columns, and its class is
    read off its rank."""
    perms = perm_array(n)
    cls = class_indices(perms)
    columns = np.ascontiguousarray(perms.T)  # perm_ranks is fastest on contiguous columns
    p = len(enumerate_partitions(n))
    counts = np.empty((p, p, p), dtype=np.int64)
    for b, rep in enumerate(np.unique(cls, return_index=True)[1]):
        c = cls[perm_ranks(columns[np.argsort(perms[rep])].T)]
        counts[:, b, :] = np.bincount(cls * p + c, minlength=p * p).reshape(p, p)
    return counts


def _collapsed_template(p: Pipeline):
    """Split a kron/pleth-template pipeline into per-factor isotypic
    shapes, per-factor right groups, and the left-acting stage list."""
    iso: dict[int, Partition] = {}
    right: dict[int, SubgroupDescriptor] = {}
    left: list[SubgroupDescriptor] = []
    for stage in p.stages:
        if isinstance(stage, Isotypic):
            if stage.factor in iso:
                raise InputError("two isotypic stages on one factor")
            iso[stage.factor] = stage.shape
        elif all(side == "R" for _, side in stage.actions) and len(stage.actions) == 1:
            f = stage.actions[0][0]
            if f in right:
                raise InputError("two right averages on one factor")
            right[f] = stage.group
        elif all(side == "L" for _, side in stage.actions) and sorted(
            f for f, _ in stage.actions
        ) == list(range(p.k)):
            left.append(stage.group)
        else:
            raise InputError(f"stage {stage} does not fit the collapsed template")
    if sorted(iso) != list(range(p.k)):
        raise InputError("collapsed trace needs an isotypic stage on every factor")
    return iso, right, left


@lru_cache(maxsize=None)
def _left_census(n: int, groups: tuple[SubgroupDescriptor, ...]):
    """Cycle-type census of the composed left-acting elements (one product
    element per tuple of choices from the groups' sums), plus the product
    of the group orders.  The template lists are S_n alone and a block
    Young subgroup followed by its block permutations, whose products run
    once over S_m wr S_d; any other list is refused."""
    templates = {
        (young_subgroup((m,) * (n // m)), block_permutations(m, n // m)): wreath_product(m, n // m)
        for m in range(1, n + 1)
        if n % m == 0
    }
    templates[(full_group(n),)] = full_group(n)
    if groups not in templates:
        raise InputError(f"left stages {[g.label() for g in groups]} do not fit the collapsed template")
    return class_census(templates[groups]), templates[groups].order()


@lru_cache(maxsize=None)
def _factor_contraction(
    n: int, shape: Partition, right_group: SubgroupDescriptor | None
) -> tuple:
    """Per-factor trace contribution as a function of the left element's
    class: T(class b) = sum over right-subgroup classes rho_h of
    census(rho_h) * z(rho_h) * sum_{l ~ rho_h} chi_shape(l w_b^-1)."""
    table = character_table(n)
    chi = np.array([table.chi(shape, rho) for rho in table.classes], dtype=np.int64)
    inner = _shifted_class_counts(n) @ chi  # inner[a, b]; |entries| <= n! max|chi|
    census = class_census(right_group) if right_group is not None else {(1,) * n: 1}
    class_index = {rho: i for i, rho in enumerate(table.classes)}
    weights = [(class_index[rho], cnt * centralizer_order(rho)) for rho, cnt in census.items()]
    return tuple(
        sum(w * int(inner[a, b]) for a, w in weights) for b in range(len(table.classes))
    )


def pipeline_trace_collapsed(p: Pipeline) -> int:
    """Exact trace by group-sum contraction: expand stages into sums over
    group elements and contract factor by factor with
    trace(L_l R_tau) = z(type(tau)) [type(l) = type(tau)].  Group sums
    enter only through closed-form cycle-type censuses; the one pass over
    S_n is the class-count array.  Refused for n > COLLAPSED_DEGREE_LIMIT
    before anything is built."""
    if p.n > COLLAPSED_DEGREE_LIMIT:
        raise BoundExceededError(f"collapsed trace of {p.label}: n exceeds {COLLAPSED_DEGREE_LIMIT}")
    iso, right, left = _collapsed_template(p)
    n = p.n
    class_index = {rho: i for i, rho in enumerate(character_table(n).classes)}
    census, left_order = _left_census(n, tuple(left))
    factor_t = [_factor_contraction(n, iso[f], right.get(f)) for f in range(p.k)]
    grand = sum(cnt * prod(t[class_index[rho]] for t in factor_t) for rho, cnt in census.items())
    numer = grand * prod(hook_dimension(iso[f]) for f in range(p.k))
    denom = left_order * factorial(n) ** p.k * prod(g.order() for g in right.values())
    value = Fraction(numer, denom)
    if value.denominator != 1:
        raise ConsistencyError(f"collapsed trace of {p.label} is not integral: {value}")
    if value < 0:
        raise ConsistencyError(f"collapsed trace of {p.label} is negative: {value}")
    return int(value)


def truncated_kron_trace(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Dense trace of the Kronecker pipeline without the right refinements;
    equals d(lam) d(mu) d(nu) k(lam, mu, nu)."""
    return pipeline_trace_dense(truncated_kron_pipeline(lam, mu, nu))


# ---------------------------------------------------------------------------
# projector algebra checks


@dataclass
class AlgebraReport:
    pipeline_label: str
    mode: str  # 'exhaustive' or 'sampled'
    stage_idempotent: list[bool]
    stage_symmetric: list[bool]
    pair_commutes: dict[tuple[int, int], bool]
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_projector_algebra(p: Pipeline) -> AlgebraReport:
    """Idempotence and symmetry of every stage and commutation of every
    stage pair, decided on the stage kernels.  `mode` names the basis
    vectors the evaluator applies each stage to once: all of them up to
    1728 = 12^3 dimensions, else 192 drawn with seed 7.  Those rows must
    equal the stage's lift built without the evaluator, I (x) K (x) I from
    a factor stage's integer kernel K or the orbit sum from PermIndex.mult;
    a mismatch is drift and raises ConsistencyError.  Over its denominator
    den, a factor stage is idempotent when K K = den K and symmetric when
    K = K^T; stages on one factor commute when K_i K_j = K_j K_i, and on
    different factors always.  The orbit stage sum_g L_g (x) ... (x) L_g
    commutes with K exactly when K[g t, g s] = K[t, s] for every g, since
    the L_g^(x)(k-1) of distinct g have disjoint supports.  Its own
    idempotence and symmetry, and a pair of two orbit stages, are checked
    on evaluator rows.  So in sampled mode too the factor-stage algebra is
    decided on whole kernels, not on a sampled submatrix."""
    ev = BatchEvaluator(p)
    dim, k, nf, mult = p.dim, p.k, ev.space.nf, ev.space.mult
    mode = "exhaustive" if dim <= 1728 else "sampled"
    rng = np.random.default_rng(7)
    cols = np.arange(dim) if dim <= 1728 else np.sort(rng.choice(dim, size=192, replace=False))
    # float64 is exact: a kernel product's terms total at most l1^2, and den K <= 720 l1
    if max(kern.l1 for kern in ev.kernels) ** 2 >= FLOAT_EXACT_LIMIT:
        raise BoundExceededError(f"integer amplitudes for {p.label} would exceed exact float64 range")
    base = _basis_batch(dim, cols)
    rows, digits = np.arange(len(cols)), np.unravel_index(cols, (nf,) * k)
    failures: list[str] = []
    idempotent: list[bool] = []
    symmetric: list[bool] = []
    mats: dict[int, np.ndarray] = {}  # factor stages' kernels
    orbit_rows: dict[int, np.ndarray] = {}  # the orbit stages' evaluator rows
    for i, kern in enumerate(ev.kernels):
        out, den = ev.apply_stages(base, [i])
        lift = np.zeros(out.shape)
        if isinstance(kern, _FactorKernel):
            post = nf ** (k - kern.factor - 1)  # lift viewed as (rows, pre, nf, post)
            view = lift.reshape(len(cols), -1, nf, post)
            view[rows, cols // (nf * post), :, cols % post] = kern._ints[:, digits[kern.factor]].T
        else:
            lift[rows, np.ravel_multi_index([mult[:, d] for d in digits], (nf,) * k)] = 1
        if not np.array_equal(out, lift):
            raise ConsistencyError(f"stage {i} of {p.label}: the evaluator differs from its kernel")
        if int(np.abs(out).max(initial=0)) * den >= 2**62:
            raise BoundExceededError("idempotence comparison would overflow int64")
        if isinstance(kern, _FactorKernel):
            kernel = mats[i] = kern.kernel
            idempotent.append(bool(np.array_equal(kernel @ kernel, den * kernel)))
            symmetric.append(bool(np.array_equal(kernel, kernel.T)))
        else:
            twice, _ = ev.apply_stages(out, [i], start_max_abs=kern.l1)
            idempotent.append(bool(np.array_equal(_exact_int_array(twice), out * den)))
            sub = out[:, cols]  # sub[r, r'] = S[cols[r'], cols[r]]
            symmetric.append(bool(np.array_equal(sub, sub.T)))
            orbit_rows[i] = out
        if not idempotent[i]:
            failures.append(f"stage {i} not idempotent")
        if not symmetric[i]:
            failures.append(f"stage {i} not symmetric")

    pair_commutes: dict[tuple[int, int], bool] = {}
    for i, j in combinations(range(len(ev.kernels)), 2):
        if i in orbit_rows and j in orbit_rows:
            ij, _ = ev.apply_stages(orbit_rows[i], [j], start_max_abs=ev.kernels[i].l1)
            ji, _ = ev.apply_stages(orbit_rows[j], [i], start_max_abs=ev.kernels[j].l1)
            same = np.array_equal(_exact_int_array(ij), _exact_int_array(ji))
        elif i in orbit_rows or j in orbit_rows:
            kernel = mats[i] if j in orbit_rows else mats[j]  # nf <= 24, as k >= 2
            same = (kernel[mult[:, :, None], mult[:, None, :]] == kernel).all()
        elif ev.kernels[i].factor == ev.kernels[j].factor:
            same = np.array_equal(mats[i] @ mats[j], mats[j] @ mats[i])
        else:
            same = True  # (A (x) I)(I (x) B) = A (x) B = (I (x) B)(A (x) I)
        pair_commutes[(i, j)] = bool(same)
        if not same:
            failures.append(f"stages {i} and {j} do not commute")
    return AlgebraReport(p.label, mode, idempotent, symmetric, pair_commutes, failures)
