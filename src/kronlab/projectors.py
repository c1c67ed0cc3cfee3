"""Commuting Hermitian projectors on the k-fold tensor power of the group
algebra of S_n, composed into the pipelines whose image dimensions are
the Kronecker and plethysm coefficients.

A stage is `Isotypic` (weak Fourier sampling on one factor),
`InvariantAverage` (a subgroup average on one factor from one side) or
`DiagonalAverage` (phase estimation: the left S_n average on all k >= 2
factors at once).  Each has one implementation, an integer kernel
(`_stage_kernel`) applied by `BatchEvaluator` to batches of vectors.  A
single-factor stage is left or right multiplication by one group-algebra
element, stored as its n! values (d chi_lam(g), or a subgroup's int8
indicator): its nf x nf kernel, v(t s^-1) or v(s^-1 t) at (t, s), is one
gather of those values at the quotient tables `PermIndex` builds once,
formed only to multiply a batch.  The diagonal average is an orbit sum
made of two index gathers.  Amplitudes stay integer numerators over a
running denominator, carried in float64 arrays for speed under an
l1-norm bound asserted below 2^53 before every stage.  The
projector-algebra check decides each stage's algebra on its element or
orbit tables and runs the evaluator only as a drift check against the
kernels, once per kernel object per process: kernels are immutable once
built, and one corrupted after its check is not caught.  The dense trace
reads one diagonal entry per orbit of the translations the composed
stages commute with (simultaneous left translation by the x commuting
with each factor's composed left averages between diagonal averages,
right translation on each factor by the y commuting with its composed
right averages), weighted by the orbit size.
It splits the stages at the diagonal averages: the single-factor stages
before them act on the basis ket and those after them on the basis bra,
one factor at a time, as gathers of the stages' elements and sums over
their supports, so no nf x nf kernel is built and only the middle stages
run on full-width rows.  State vectors (`StateVector`, `apply_pipeline`,
the verifier's witnesses) are stored in the same format: integer numerators
keyed by flat basis index over one denominator.  Numerators too large
for the bound are split into signed base-2^b limbs (one batch row each)
and recombined in Python integers, so any rational amplitude stays
exact; the sequential verifier keeps its limb batch across all stages.

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
from weakref import WeakSet

import numpy as np

from .characters import character_table
from .errors import BoundExceededError, ConsistencyError, InputError
from .partitions import (
    Partition, check_partition, check_plethysm, check_triple, enumerate_partitions, hook_dimension, partition_text
)
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
# transient bytes per dense-trace chunk and per PermIndex table block: an
# 868-row n = 4 trace took 162 ms at 2 MB, 196 ms at 1 MB and 142 ms at 8 MB
# (best of five, one thread, 2-core host); an n = 4 Kronecker trace has at
# most 12 rows, 18 fit in one chunk
DENSE_CHUNK_BYTES = 1 << 21
# largest n whose collapsed first call stays within 10 s and 500 MB peak RSS
# on a 2-core host: n = 9 took 0.8 s and 54 MB, n = 10 took 14.3 s and 279 MB
COLLAPSED_DEGREE_LIMIT = 9
_DRIFT_CHECKED: WeakSet = WeakSet()  # kernels whose drift pass in check_projector_algebra matched


# ---------------------------------------------------------------------------
# stage and pipeline descriptions


@dataclass(frozen=True)
class Isotypic:
    """Projection of one tensor factor onto its lam-isotypic component,
    realized as (d(lam)/n!) sum_g chi_lam(g) L_g on that factor."""

    factor: int
    shape: Partition

    def __post_init__(self):
        object.__setattr__(self, "shape", check_partition(self.shape))


@dataclass(frozen=True)
class InvariantAverage:
    """Average over a subgroup acting on one tensor factor from one side,
    (1/|G|) sum_g L_g (side 'L') or R_g (side 'R') on that factor."""

    factor: int
    side: str  # 'L' or 'R'
    group: SubgroupDescriptor


@dataclass(frozen=True)
class DiagonalAverage:
    """(1/n!) sum_g L_g (x) ... (x) L_g over S_n on all k >= 2 factors; at
    k = 1 the same operator is InvariantAverage(0, 'L', full_group(n))."""


Stage = Isotypic | InvariantAverage | DiagonalAverage


@dataclass(frozen=True)
class Pipeline:
    n: int
    k: int
    stages: tuple[Stage, ...]
    label: str

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise InputError(f"{self.label}: a pipeline needs n >= 1 and k >= 1, not n = {self.n}, k = {self.k}")
        for s in self.stages:
            if isinstance(s, DiagonalAverage):
                continue
            if s.factor not in range(self.k):
                raise InputError(f"{self.label}: {s} names factor {s.factor}, but k = {self.k}")
            if isinstance(s, Isotypic):
                if sum(s.shape) != self.n:
                    raise InputError(f"{self.label}: {s} names no partition of {self.n}")
            elif s.side not in ("L", "R"):
                raise InputError(f"{self.label}: {s} has side {s.side!r}, not 'L' or 'R'")
            elif s.group.degree != self.n:
                raise InputError(f"{self.label}: {s.group.label()} is not a subgroup of S_{self.n}")
        if self.k == 1 and DiagonalAverage() in self.stages:
            raise InputError(f"{self.label}: a diagonal average needs k >= 2 factors")

    @property
    def dim(self) -> int:
        return factorial(self.n) ** self.k


@lru_cache(maxsize=None)
def _shape_stages(factor: int, shape: Partition) -> tuple[Isotypic, InvariantAverage]:
    """A factor's isotypic projection and right Young-subgroup average, for
    a canonical shape: the memo grows with the shapes seen, not the triples."""
    return Isotypic(factor, shape), InvariantAverage(factor, "R", young_subgroup(shape))


def kron_pipeline(lam: Partition, mu: Partition, nu: Partition) -> Pipeline:
    """Isotypic projections on the three factors, the diagonal average,
    then one right Young-subgroup average per factor.  The triple is
    validated once; each factor's two stages come from `_shape_stages`."""
    shapes = check_triple(lam, mu, nu)
    isotypic, right = zip(*map(_shape_stages, range(3), shapes))
    label = "kron(%s)" % "|".join(map(partition_text, shapes))
    return Pipeline(sum(shapes[0]), 3, (*isotypic, DiagonalAverage(), *right), label)


def truncated_kron_pipeline(lam: Partition, mu: Partition, nu: Partition) -> Pipeline:
    """The Kronecker pipeline without the right refinements; its trace is
    the coefficient rescaled by the three hook dimensions."""
    base = kron_pipeline(lam, mu, nu)
    return Pipeline(base.n, 3, base.stages[:4], base.label.replace("kron", "scaledkron"))


@lru_cache(maxsize=None, typed=True)
def _block_stages(m: int, d: int) -> tuple[InvariantAverage, InvariantAverage]:
    """The left block Young and block-permutation averages of S_m wr S_d."""
    return InvariantAverage(0, "L", young_subgroup((m,) * d)), InvariantAverage(0, "L", block_permutations(m, d))


def pleth_pipeline(d: int, m: int, lam: Partition) -> Pipeline:
    """Single-factor pipeline: isotypic projection, left averages over the
    block Young subgroup and over block permutations (together: the
    wreath product), and the right Young-subgroup average.  The stages
    come from memos keyed by the canonical shape and by (m, d)."""
    lam = check_plethysm(d, m, lam)
    isotypic, right = _shape_stages(0, lam)
    stages = (isotypic, *_block_stages(m, d), right)
    return Pipeline(m * d, 1, stages, f"pleth({d},{m}|{partition_text(lam)})")


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
        if s.nums and not 0 <= min(s.nums) <= max(s.nums) < len(perms) ** s.k:
            raise InputError(f"a basis index lies outside range({len(perms) ** s.k})")
        keys = zip(*np.unravel_index(np.fromiter(s.nums, np.int64), (len(perms),) * s.k))
        return {tuple(perms[d] for d in key): Fraction(v, s.den) for key, v in zip(keys, s.nums.values())}


@dataclass
class StateVector:
    """Sparse rational vector over k-tuples of permutations of degree n, in
    BatchEvaluator's format: integer numerators keyed by flat tensor-basis
    index (factor 0 is the most significant digit; each digit is a rank in
    all_perms order) over one denominator.  Kept in lowest terms (den > 0,
    gcd 1, no stored zeros), so == is exact rational equality; a nums
    already in lowest terms is taken over, not copied."""

    n: int
    k: int
    nums: dict[int, int]
    den: int = 1
    amps = property(_AmpsView, doc="Read-only view: amplitudes keyed by permutation tuples.")

    def __post_init__(self):
        if not self.den:
            raise InputError("state vector denominator is zero")
        g = gcd(*self.nums.values(), self.den) * (1 if self.den > 0 else -1)
        if g != 1 or 0 in self.nums.values():  # already in lowest terms otherwise
            self.nums = {f: v // g for f, v in self.nums.items() if v}
            self.den //= g

    @staticmethod
    def zero(n: int, k: int) -> "StateVector":
        return StateVector(n, k, {})

    def is_zero(self) -> bool:
        return not self.nums

    def norm_sq(self) -> Fraction:
        return Fraction(sum(v * v for v in self.nums.values()), self.den * self.den)

    def _check_shape(self, other: "StateVector") -> None:
        if (self.n, self.k) != (other.n, other.k):
            raise InputError(f"states on (n, k) = {(self.n, self.k)} and {(other.n, other.k)} do not combine")

    def inner(self, other: "StateVector") -> Fraction:
        self._check_shape(other)
        if len(self.nums) > len(other.nums):
            return other.inner(self)
        total = sum(v * other.nums.get(f, 0) for f, v in self.nums.items())
        return Fraction(total, self.den * other.den)

    def scaled(self, c) -> "StateVector":
        c = Fraction(c)
        nums = {f: v * c.numerator for f, v in self.nums.items()}
        return StateVector(self.n, self.k, nums, self.den * c.denominator)

    def plus(self, other: "StateVector") -> "StateVector":
        self._check_shape(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = {f: v * a for f, v in self.nums.items()}
        for f, v in other.nums.items():
            out[f] = out.get(f, 0) + v * b
        return StateVector(self.n, self.k, out, den)

    def minus(self, other: "StateVector") -> "StateVector":
        return self.plus(other.scaled(-1))


def apply_pipeline(p: Pipeline, state: StateVector) -> StateVector:
    """Push a state's numerators through the stage kernels as one limb batch
    and read the result's nonzero columns back as Python ints."""
    if (p.n, p.k) != (state.n, state.k):
        raise InputError(f"{p.label} acts on (n, k) = {(p.n, p.k)}, not {(state.n, state.k)}")
    ev = BatchEvaluator(p)
    if state.is_zero():
        return StateVector.zero(state.n, state.k)
    x, b = _limb_split(state.nums, p.dim, prod(kern.l1 for kern in ev.kernels), p.label)
    cols, nums = _limb_join(ev.apply(x, start_max_abs=1 << b), b)
    return StateVector(state.n, state.k, dict(zip(cols.tolist(), nums)), state.den * ev.denominator)


def _limb_split(nums: dict[int, int], dim: int, l1: int, label: str) -> tuple[np.ndarray, int]:
    """Numerators keyed by flat index as float64 base-2^b limb rows (the low
    ones in [0, 2^b), the top one signed), and b: the widest limb that
    kernels of l1-norm product l1 keep under the 2^53 guard."""
    b = ((FLOAT_EXACT_LIMIT - 1) // l1).bit_length() - 1  # limbs in [-2^b, 2^b) pass the guard
    if b < 1:
        raise BoundExceededError(f"integer amplitudes for {label} would exceed exact float64 range")
    cols, vals = np.fromiter(nums, np.int64, len(nums)), list(nums.values())
    if cols.min() < 0 or cols.max() >= dim:
        raise InputError(f"{label}: a basis index lies outside range({dim})")
    limbs = max(1, -(-max(map(abs, vals)).bit_length() // b))
    x = np.zeros((limbs, dim), dtype=np.float64)
    for j in range(limbs - 1):
        x[j, cols] = [v >> (b * j) & ((1 << b) - 1) for v in vals]
    x[-1, cols] = [v >> (b * (limbs - 1)) for v in vals] if limbs > 1 else vals
    return x, b


def _limb_join(rows: np.ndarray, b: int) -> tuple[np.ndarray, list[int]]:
    """The nonzero columns of drift-checked int64 base-2^b limb rows, and
    their values recombined as Python ints."""
    nonzero = np.flatnonzero(rows.any(axis=0))
    out = rows[-1, nonzero].tolist()
    for row in rows[-2::-1, nonzero].tolist():
        out = [(hi << b) + lo for hi, lo in zip(out, row)]
    return nonzero, out


def _limb_norm_sq(x: np.ndarray, b: int) -> int:
    """Exact squared norm of the vector a float64 batch holds as base-2^b
    limb rows, drift-checked: one int64 dot product if that cannot overflow."""
    rows = _exact_int_array(x)
    if len(rows) == 1 and int(np.abs(rows).max(initial=0)) ** 2 * rows.shape[1] < 2**63:
        return int(rows[0] @ rows[0])
    return sum(v * v for v in _limb_join(rows, b)[1])


# ---------------------------------------------------------------------------
# indexed permutation space shared by the batch backends


class PermIndex:
    """S_n in all_perms order (identity first) as multiplication, inverse and
    cycle-type index tables, and the quotient tables left[t, s] = rank(t o s^-1)
    and right[t, s] = rank(s^-1 o t).  Ranks are int16 (n! <= 720) and class
    indices uint8 (p(n) <= 11): read them only as indices, as int16 arithmetic wraps."""

    def __init__(self, n: int):
        if factorial(n) > DENSE_FACTOR_LIMIT:
            raise BoundExceededError(f"S_{n} has more than {DENSE_FACTOR_LIMIT} elements to index")
        self.n = n
        self.nf = factorial(n)
        arr = perm_array(n)
        self.inv = perm_ranks(np.argsort(arr, axis=1)).astype(np.int16)
        self.mult = np.empty((self.nf, self.nf), dtype=np.int16)
        rows = max(1, DENSE_CHUNK_BYTES // (self.nf * n * 8))
        for i in range(0, self.nf, rows):  # mult[i, j] = index of a_i o a_j
            self.mult[i : i + rows] = perm_ranks(arr[i : i + rows][:, arr])
        self.type_index = class_indices(arr).astype(np.uint8)
        self.left = self.mult[:, self.inv]
        self.right = self.mult[self.inv, :].T


@lru_cache(maxsize=None)
def perm_index(n: int) -> PermIndex:
    return PermIndex(n)


@lru_cache(maxsize=256)
def _member_vector(n: int, group: SubgroupDescriptor) -> np.ndarray:
    """int8 indicator of the subgroup over S_n in all_perms order; memoised and read-only."""
    member = np.zeros(factorial(n), dtype=np.int8)
    member[perm_ranks(np.array(enumerate_subgroup(group)) - 1)] = 1
    member.flags.writeable = False
    return member


# ---------------------------------------------------------------------------
# integer batch evaluator


def _narrowest(values: np.ndarray) -> np.ndarray:
    """Integers in the narrowest signed dtype holding +-max|value|, so abs cannot wrap."""
    return values.astype(np.min_scalar_type(-int(np.abs(values).max()) - 1), copy=False)


class _FactorKernel:
    """Stage acting on one tensor factor as left (side 'L') or right ('R')
    multiplication by one group-algebra element v, stored as its n! values
    in all_perms order, in the narrowest integer dtype that holds them.
    The kernel is K[t, s] = v[left[t, s]] = v(t s^-1) on the left and
    v[right[t, s]] = v(s^-1 t) on the right: every row of K is a
    permutation of v, K's column at the identity (rank 0) is v itself, and
    K^T is the same side with v(g^-1).  Left kernels compose as
    K_v K_w = K_(v*w) and right ones as K_(w*v), so a kernel and its
    products are determined by their identity columns."""

    def __init__(self, space: PermIndex, factor: int, side: str, values: np.ndarray, den: int):
        self.space, self.factor, self.side, self.den = space, factor, side, den
        self.values = _narrowest(values)
        self.values.flags.writeable = False  # immutable once built: its drift check holds for its lifetime
        self.l1 = int(np.abs(self.values).sum())  # every row's l1 norm
        # v(h) reads x at other[t, h]: s = h^-1 t on the left, t h^-1 on the right
        self.table, self.other = (space.left, space.right) if side == "L" else (space.right, space.left)

    @property
    def kernel(self) -> np.ndarray:
        """The nf x nf kernel as exact-integer float64, built only where a batch is multiplied by it."""
        return self.values.astype(np.float64)[self.table]

    def apply(self, x: np.ndarray, k: int, nf: int) -> np.ndarray:
        post = nf ** (k - self.factor - 1)  # x viewed as (rows * pre, nf, post)
        kernel = self.kernel
        if post == 1:
            return (x.reshape(-1, nf) @ kernel.T).reshape(x.shape)
        return np.matmul(kernel, x.reshape(-1, nf, post)).reshape(x.shape)

    def transposed(self) -> "_FactorKernel":
        return _FactorKernel(self.space, self.factor, self.side, self.values[self.space.inv], self.den)

    def columns(self, cols: np.ndarray) -> np.ndarray:
        """Row j is K e_cols[j], one gather of v, in float64."""
        return self.values.astype(np.float64)[self.table[:, cols].T]

    def times(self, x: np.ndarray) -> np.ndarray:
        """Row j is K x[j], summed over v's support as
        (K y)[t] = sum_h v(h) y[other[t, h]] with gathers of at most
        DENSE_CHUNK_BYTES each; no nf x nf kernel is formed."""
        support = np.flatnonzero(self.values)
        weights = self.values[support].astype(np.float64)
        step = max(1, DENSE_CHUNK_BYTES // (8 * x.size))
        out = np.zeros(x.shape)
        for start in range(0, len(support), step):
            h = slice(start, start + step)
            out += x[:, self.other[:, support[h]]] @ weights[h]
        return out

    def idempotent(self) -> bool:
        """K K = den K, on identity columns: v * v = den v."""
        v = self.values[None, :].astype(np.float64)
        return bool(np.array_equal(self.times(v), self.den * v))

    def symmetric(self) -> bool:
        """K = K^T, that is v(g^-1) = v(g)."""
        return bool(np.array_equal(self.values[self.space.inv], self.values))

    def commutes(self, other: "_FactorKernel | _OrbitKernel") -> bool:
        """K_i K_j = K_j K_i.  Stages on different factors commute
        ((A (x) I)(I (x) B) = A (x) B), and so do a left and a right one
        (the group algebra is associative); two on one side do when
        K_i v_j = K_j v_i, i.e. v_i * v_j = v_j * v_i.  The diagonal
        average sum_g L_g (x) ... (x) L_g commutes with K exactly when every
        L_g does, since the L_g (x) ... (x) L_g of distinct g on the other
        factors have disjoint supports: L_g K L_g^-1 [t, s] =
        K[g^-1 t, g^-1 s], which is v(g^-1 t s^-1 g) on the left, so v must
        be constant on conjugacy classes, and v(s^-1 t) unchanged on the right."""
        if isinstance(other, _OrbitKernel):
            if self.side == "R":
                return True
            mult, inv = self.space.mult, self.space.inv
            return bool((self.values[mult[mult, inv[:, None]]] == self.values).all())  # v(x h x^-1) = v(h)
        if self.factor != other.factor or self.side != other.side:
            return True
        vi, vj = (kern.values[None, :].astype(np.float64) for kern in (self, other))
        return bool(np.array_equal(self.times(vj), other.times(vi)))


class _OrbitKernel:
    """The diagonal average's kernel.  In the coordinates (s_1, s_1^-1 s_2,
    ..., s_1^-1 s_k) it moves only s_1, so the unnormalised sum over the
    group adds up each orbit.  back[r] is the orbit of flat index r, and
    gather[i, o] is the one member of orbit o whose first factor is perm i."""

    def __init__(self, space: PermIndex, k: int):
        flat = np.arange(space.nf**k, dtype=np.int64)
        digits = np.unravel_index(flat, (space.nf,) * k)
        rel = [space.right[d, digits[0]] for d in digits[1:]]  # rank(s_1^-1 o s_f)
        self.back = np.ravel_multi_index(rel, (space.nf,) * (k - 1))
        self.gather = np.empty((space.nf, space.nf ** (k - 1)), dtype=np.int64)
        self.gather[digits[0], self.back] = flat
        self.back.flags.writeable = self.gather.flags.writeable = False  # immutable once built
        self.den = self.l1 = space.nf

    def apply(self, x: np.ndarray, k: int, nf: int) -> np.ndarray:
        return x[:, self.gather].sum(axis=1)[:, self.back]

    def idempotent(self) -> bool:
        """S S = den S, on the tables.  S = P^T P with (P x)[o] the sum of
        x over gather[:, o] and (P^T y)[r] = y[back[r]], so S S = den S
        when P P^T = den I: each flat index lies in exactly one column of
        gather, and back maps each orbit's members to that orbit."""
        once = np.bincount(self.gather.ravel(), minlength=self.back.size) == 1
        return bool(once.all() and (self.back[self.gather] == np.arange(self.gather.shape[1])).all())

    def symmetric(self) -> bool:
        """S = S^T, on the tables idempotent() checks: when each flat index
        lies in exactly one column of gather and back maps it there, y[back]
        is the transpose of P, so S = P^T P is symmetric."""
        return self.idempotent()

    def commutes(self, other: "_FactorKernel | _OrbitKernel") -> bool:
        """Another diagonal average is the same operator; a factor stage decides."""
        return isinstance(other, _OrbitKernel) or other.commutes(self)


@lru_cache(maxsize=256)
def _stage_kernel(n: int, stage: Stage, k: int):
    """A stage's integer kernel: n! element values for a single-factor
    stage, the orbit tables for the diagonal average.  Kernels depend only
    on (n, stage, k), so pipelines sharing stages (every Kronecker pipeline
    at one degree shares the diagonal average, for instance) reuse them."""
    space = perm_index(n)
    if isinstance(stage, DiagonalAverage):
        return _OrbitKernel(space, k)
    if isinstance(stage, Isotypic):  # d chi(g): values per class, then per element; central, so either side
        values = hook_dimension(stage.shape) * np.array(character_table(n).row(stage.shape))
        return _FactorKernel(space, stage.factor, "L", _narrowest(values)[space.type_index], factorial(n))
    # the subgroup's indicator: K[t, s] = [t o s^-1 in G] on the left, [s^-1 o t in G] on the right
    return _FactorKernel(space, stage.factor, stage.side, _member_vector(n, stage.group), stage.group.order())


class BatchEvaluator:
    """Applies a pipeline's stage sequence to batches of vectors with
    integer amplitudes.  Tracks the common denominator and an l1 bound
    guaranteeing float64 exactness."""

    def __init__(self, p: Pipeline):
        self.pipeline = p
        if p.dim > DENSE_DIM_LIMIT:
            raise BoundExceededError(f"dense evaluation bound exceeded for {p.label}: dim {p.dim}")
        self.space = perm_index(p.n)  # refuses n! > DENSE_FACTOR_LIMIT
        self.kernels = [_stage_kernel(p.n, s, p.k) for s in p.stages]
        self.denominator = prod(kern.den for kern in self.kernels)

    def apply(self, x: np.ndarray, *, start_max_abs: int = 1) -> np.ndarray:
        """Push batch rows through every stage in pipeline order.  Returns
        the amplitudes over self.denominator as int64, drift-checked."""
        return _exact_int_array(self.apply_stages(x, range(len(self.kernels)), start_max_abs=start_max_abs)[0])

    def apply_stages(self, x: np.ndarray, stage_indices, *, start_max_abs: int = 1) -> tuple[np.ndarray, int]:
        """Apply a subset of stages (in the given order); returns the batch
        and the denominator for that subset.  Every l1 bound is at least 1,
        so the subset's product bounds every intermediate."""
        kernels = [self.kernels[i] for i in stage_indices]
        if start_max_abs * prod(kern.l1 for kern in kernels) >= FLOAT_EXACT_LIMIT:
            raise BoundExceededError(f"integer amplitudes for {self.pipeline.label} would exceed exact float64 range")
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
    f.  Isotypic stages are central, and the diagonal average commutes
    with both kinds.  Between diagonal averages a factor's left averages
    compose to left multiplication by the product v of their group sums,
    which x fixes when x v x^-1 = v; all its right averages commute with
    every left action and compose to one such product for y_f.  A reversed
    product is its image under g -> g^-1, which commutes with conjugation,
    so order does not matter.  This can exceed every stage's own group:
    the block Young and block-permutation averages compose to S_m wr S_d's."""
    runs: list[list[list[SubgroupDescriptor]]] = [[[] for _ in range(p.k)]]  # [segment][factor]
    right: list[list[SubgroupDescriptor]] = [[] for _ in range(p.k)]
    for stage in p.stages:
        if isinstance(stage, DiagonalAverage):
            runs.append([[] for _ in range(p.k)])
        elif isinstance(stage, InvariantAverage):
            (runs[-1][stage.factor] if stage.side == "L" else right[stage.factor]).append(stage.group)
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


def _images(kernels: list[_FactorKernel], cols: np.ndarray, nf: int) -> np.ndarray:
    """Row j is K_m ... K_1 e_cols[j] for the factor kernels
    [K_1, ..., K_m] (the unit vectors when there are none): K_1's columns
    by one gather, then each later kernel as a sum over its element's
    support.  No nf x nf kernel is formed."""
    if not kernels:
        return _basis_batch(nf, cols)
    x = kernels[0].columns(cols)
    for kern in kernels[1:]:
        x = kern.times(x)
    return x


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

    The kernels are split at the diagonal averages.  The single-factor
    stages before the first one act on the ket: per factor, the images of
    the unit vectors the representatives use, and a ket row is the outer
    product of those images.  Only the middle stages run on full-width
    rows.  The single-factor stages after the last diagonal average act
    on the bra, e_c^T times that factor's kernels (the images of e_c under
    their transposes, last stage first), and the diagonal entry is the
    contraction of the middle output with the bra rows, one factor at a
    time.  A factor's first kernel gives its columns by one gather of its
    element and each later one is a sum over its element's support, so no
    nf x nf kernel is built.  A pipeline with no diagonal average splits
    its stages into two halves around an empty middle.
    """
    ev = BatchEvaluator(p)
    dim, k, nf = p.dim, p.k, ev.space.nf
    diagonal = [i for i, stage in enumerate(p.stages) if isinstance(stage, DiagonalAverage)]
    lo, hi = (diagonal[0], diagonal[-1] + 1) if diagonal else (len(ev.kernels) // 2,) * 2
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
        ket.append(_images([kn for kn in ev.kernels[:lo] if kn.factor == f], digit, nf))
        trailing = [kn.transposed() for kn in reversed(ev.kernels[hi:]) if kn.factor == f]
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
        elif isinstance(stage, DiagonalAverage):
            left.append(full_group(p.n))
        elif stage.side == "R":
            if stage.factor in right:
                raise InputError("two right averages on one factor")
            right[stage.factor] = stage.group
        elif stage.side == "L" and p.k == 1:
            left.append(stage.group)
        else:
            raise InputError(f"stage {stage} does not fit the collapsed template")
    if sorted(iso) != list(range(p.k)):
        raise InputError("collapsed trace needs an isotypic stage on every factor")
    return iso, right, left


@lru_cache(maxsize=None)
def _left_census(n: int, groups: tuple[SubgroupDescriptor, ...]):
    """Cycle-type census of the composed left-acting elements (one product
    element per tuple of choices from the groups' sums) in class order,
    plus the product of the group orders.  The template lists are S_n
    alone and a block Young subgroup followed by its block permutations,
    whose products run once over S_m wr S_d; any other list is refused."""
    templates = {
        (young_subgroup((m,) * (n // m)), block_permutations(m, n // m)): wreath_product(m, n // m)
        for m in range(1, n + 1)
        if n % m == 0
    }
    templates[(full_group(n),)] = full_group(n)
    if groups not in templates:
        raise InputError(f"left stages {[g.label() for g in groups]} do not fit the collapsed template")
    census = class_census(templates[groups])
    return tuple(census.get(rho, 0) for rho in enumerate_partitions(n)), templates[groups].order()


@lru_cache(maxsize=None)
def _factor_contraction(n: int, shape: Partition, right_group: SubgroupDescriptor | None) -> tuple[int, ...]:
    """Per-factor trace contribution in the class order of the left element:
    T(class b) = sum over right-subgroup classes rho_h of
    census(rho_h) * z(rho_h) * sum_{l ~ rho_h} chi_shape(l w_b^-1)."""
    table = character_table(n)
    inner = _shifted_class_counts(n) @ np.array(table.row(shape), dtype=np.int64)  # |inner[a, b]| <= n! max|chi|
    census = class_census(right_group) if right_group is not None else {(1,) * n: 1}
    weights = [(table.classes.index(rho), cnt * centralizer_order(rho)) for rho, cnt in census.items()]
    return tuple(sum(w * int(inner[a, b]) for a, w in weights) for b in range(len(table.classes)))


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
    terms, left_order = _left_census(n, tuple(left))
    for f in range(p.k):  # census(rho) * prod_f T_f(rho), class by class
        terms = map(mul, terms, _factor_contraction(n, iso[f], right.get(f)))
    numer = sum(terms) * prod(map(hook_dimension, iso.values()))
    denom = left_order * factorial(n) ** p.k * prod(g.order() for g in right.values())
    value, rest = divmod(numer, denom)
    if rest:
        raise ConsistencyError(f"collapsed trace of {p.label} is not integral: {Fraction(numer, denom)}")
    if value < 0:
        raise ConsistencyError(f"collapsed trace of {p.label} is negative: {value}")
    return value


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
    stage pair, decided on every call on the stages' own tables.  The
    evaluator runs only as a drift check, once per kernel object per
    process (a WeakSet, not an id() memo, so a kernel rebuilt after
    eviction, or a copy, is checked again): the stage applied to the
    basis vectors `mode` names, all up to 1728 = 12^3 dimensions, else 192
    drawn with seed 7, in batches of DENSE_CHUNK_BYTES, must give its lift
    found without the evaluator (the columns of I (x) K (x) I gathered from
    a factor stage's element, or the orbit sum's ones at PermIndex.mult)
    and zeros elsewhere, or ConsistencyError (drift) is raised.  Kernels
    are immutable once built (read-only arrays); one corrupted after its
    check is not caught.

    A factor stage's algebra is decided on its group-algebra element v
    over its denominator den (`_FactorKernel`): idempotent when
    v * v = den v, symmetric when v(g^-1) = v(g), commuting as
    `_FactorKernel.commutes` says.  The diagonal average's is decided on
    its orbit tables (`_OrbitKernel`), and two diagonal averages are one
    operator, so in sampled mode too the algebra is complete."""
    ev = BatchEvaluator(p)
    dim, k, nf, mult = p.dim, p.k, ev.space.nf, ev.space.mult
    mode = "exhaustive" if dim <= 1728 else "sampled"
    # float64 is exact: an element product's terms total at most l1^2, and den v <= 720 l1
    if max(kern.l1 for kern in ev.kernels) ** 2 >= FLOAT_EXACT_LIMIT:
        raise BoundExceededError(f"integer amplitudes for {p.label} would exceed exact float64 range")
    if not all(kern in _DRIFT_CHECKED for kern in ev.kernels):
        # numpy.random loads on first touch, so exhaustive mode never imports it
        cols = np.arange(dim) if dim <= 1728 else np.sort(np.random.default_rng(7).choice(dim, 192, replace=False))
        step = max(1, DENSE_CHUNK_BYTES // (8 * dim))  # basis rows per batch
        for i, kern in enumerate(ev.kernels):
            if kern in _DRIFT_CHECKED:  # by an earlier call, or earlier in this pipeline
                continue
            for chunk in np.split(cols, range(step, len(cols), step)):
                out, _ = ev.apply_stages(_basis_batch(dim, chunk), [i])
                rows, digits = np.arange(len(chunk)), np.unravel_index(chunk, (nf,) * k)
                if isinstance(kern, _FactorKernel):
                    post = nf ** (k - kern.factor - 1)  # out viewed as (rows, pre, nf, post)
                    lifted = out.reshape(len(chunk), -1, nf, post)[rows, chunk // (nf * post), :, chunk % post]
                    expected = kern.columns(digits[kern.factor])
                else:  # a one at (g s_1, ..., g s_k) for every g
                    lifted = out[rows[:, None], np.ravel_multi_index([mult[:, d] for d in digits], (nf,) * k).T]
                    expected = np.ones(lifted.shape)
                if not (np.array_equal(lifted, expected) and np.count_nonzero(out) == np.count_nonzero(expected)):
                    raise ConsistencyError(f"stage {i} of {p.label}: the evaluator differs from its kernel")
            _DRIFT_CHECKED.add(kern)

    verdicts = {name: [getattr(kern, name)() for kern in ev.kernels] for name in ("idempotent", "symmetric")}
    pair_commutes = {(i, j): ev.kernels[i].commutes(ev.kernels[j]) for i, j in combinations(range(len(ev.kernels)), 2)}
    failures = [f"stage {i} not {name}" for i in range(len(ev.kernels)) for name, oks in verdicts.items() if not oks[i]]
    failures += [f"stages {i} and {j} do not commute" for (i, j), ok in pair_commutes.items() if not ok]
    return AlgebraReport(p.label, mode, verdicts["idempotent"], verdicts["symmetric"], pair_commutes, failures)
