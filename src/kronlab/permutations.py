"""Permutations, conjugacy classes, and the subgroups built from blocks.

A permutation of degree n is a tuple ``images`` of length n with
``images[i] = pi(i+1)``, i.e. one-line notation on {1..n}.  Composition
is ``compose(a, b)(x) = a(b(x))`` everywhere in the package; the
character-consistency tests pin this convention down.

A `SubgroupDescriptor` is a kind and its consecutive blocks: a Young
subgroup (S_n is the one-block case), the block permutations, or both
together, a wreath product.  `perm_array` holds S_n as uint8 rows for numpy
passes over the whole group, and `class_census` counts a subgroup's cycle
types without enumerating it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import factorial, prod

import numpy as np

from .errors import InputError
from .partitions import Partition, check_partition, enumerate_partitions

Perm = tuple[int, ...]


def check_perm(images) -> Perm:
    pi = tuple(int(x) for x in images)
    if sorted(pi) != list(range(1, len(pi) + 1)):
        raise InputError(f"{pi} is not a permutation of 1..{len(pi)}")
    return pi


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(a: Perm, b: Perm) -> Perm:
    """(a ∘ b)(x) = a(b(x))."""
    if len(a) != len(b):
        raise InputError(f"degree mismatch: {len(a)} vs {len(b)}")
    return tuple(a[x - 1] for x in b)


def inverse(a: Perm) -> Perm:
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x - 1] = i + 1
    return tuple(inv)


def cycle_type(pi: Perm) -> Partition:
    """Sorted cycle lengths, as a partition of the degree."""
    n = len(pi)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = pi[x] - 1
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def centralizer_order(rho: Partition) -> int:
    """z_rho = prod_i i^{m_i} m_i! where m_i = multiplicity of part i."""
    rho = check_partition(rho) if rho else ()
    z = 1
    for part in set(rho):
        m = rho.count(part)
        z *= part**m * factorial(m)
    return z


def class_size(rho: Partition) -> int:
    n = sum(rho)
    return factorial(n) // centralizer_order(rho)


def all_perms(n: int) -> list[Perm]:
    """All of S_n in lexicographic one-line order; identity comes first."""
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def perm_array(n: int) -> np.ndarray:
    """S_n as 0-based one-line uint8 rows, in all_perms order: the rows
    led by i are i followed by S_{n-1} on the other values, in order."""
    out = np.zeros((1, 0), dtype=np.uint8)
    for k in range(1, n + 1):
        lead = np.zeros((len(out), 1), dtype=np.uint8)
        out = np.concatenate([np.hstack([lead + i, out + (out >= i)]) for i in range(k)])
    return out


def perm_ranks(perms: np.ndarray) -> np.ndarray:
    """Position in all_perms of each 0-based one-line row (last axis),
    from its Lehmer code: digit i counts the later entries below entry i.
    Fastest when each position's column is contiguous."""
    n = perms.shape[-1]
    rank = np.zeros(perms.shape[:-1], dtype=np.int64)
    for i in range(n - 1):
        smaller = sum((perms[..., j] < perms[..., i] for j in range(i + 1, n)), np.uint8(0))
        rank += smaller * np.int64(factorial(n - 1 - i))
    return rank


def class_indices(perms: np.ndarray) -> np.ndarray:
    """Index in enumerate_partitions(n) of each 0-based one-line row's
    cycle type (last axis).  The fixed-point counts f_s of the powers
    pi^s, s = 1..n, determine the type (f_s sums the cycle lengths that
    divide s), and f_s <= n, so sum_s f_s (n+1)^(s-1) keys it; the keys
    fit int64 for n <= 15."""
    n = perms.shape[-1]
    key, power = 0, perms
    for s in range(1, n + 1):
        fixed = sum((power[..., i] == i for i in range(n)), np.uint8(0))  # f_s
        key = key + fixed * np.int64((n + 1) ** (s - 1))
        power = np.take_along_axis(perms, power, axis=-1)  # pi^(s+1) = pi o pi^s
    keys = [
        sum(sum(p for p in rho if s % p == 0) * (n + 1) ** (s - 1) for s in range(1, n + 1))
        for rho in enumerate_partitions(n)
    ]
    order = np.argsort(keys)
    return order[np.searchsorted(np.sort(keys), key)]


def wreath_embed(sigma: Perm, m: int) -> Perm:
    """Embed sigma in S_d as the block permutation of d consecutive blocks
    of size m inside S_{md}: position (a-1)m + b goes to (sigma(a)-1)m + b."""
    d = len(sigma)
    images = [0] * (m * d)
    for a in range(1, d + 1):
        for b in range(1, m + 1):
            images[(a - 1) * m + b - 1] = (sigma[a - 1] - 1) * m + b
    return tuple(images)


@dataclass(frozen=True)
class SubgroupDescriptor:
    """A subgroup of S_n acting on the consecutive blocks of {1..n} whose
    sizes `shape` lists (a partition of n = degree).

    kinds:
      'young'        permutes within each block: S_shape, and S_n for shape (n,)
      'block_perms'  permutes d equal blocks of size m as wholes (S_d in S_{md})
      'wreath'       both, on d equal blocks: S_m wr S_d inside S_{md}
    """

    kind: str
    shape: Partition

    def __post_init__(self):
        if self.kind not in ("young", "block_perms", "wreath"):
            raise InputError(f"unknown subgroup kind {self.kind!r}")
        object.__setattr__(self, "shape", check_partition(self.shape))
        if not self.shape:
            raise InputError(f"{self.kind} subgroup needs at least one block")
        if self.kind != "young" and len(set(self.shape)) != 1:
            raise InputError(f"{self.kind} subgroup needs equal blocks, not {self.shape}")

    @property
    def degree(self) -> int:
        return sum(self.shape)

    @property
    def m(self) -> int:
        return self.shape[0]

    @property
    def d(self) -> int:
        return len(self.shape)

    def order(self) -> int:
        return self._order

    @cached_property
    def _order(self) -> int:
        base = 1 if self.kind == "block_perms" else prod(factorial(b) for b in self.shape)
        return base * (1 if self.kind == "young" else factorial(self.d))

    def label(self) -> str:
        if self.kind == "young":
            return "S(" + ",".join(map(str, self.shape)) + ")"
        return f"S{self.m}wrS{self.d}" if self.kind == "wreath" else f"blocks({self.m}^{self.d})"


@lru_cache(maxsize=None)
def full_group(n: int) -> SubgroupDescriptor:
    return young_subgroup((n,))


def young_subgroup(mu: Partition) -> SubgroupDescriptor:
    return SubgroupDescriptor("young", mu)


@lru_cache(maxsize=None, typed=True)
def wreath_product(m: int, d: int) -> SubgroupDescriptor:
    return SubgroupDescriptor("wreath", (m,) * d)


def block_permutations(m: int, d: int) -> SubgroupDescriptor:
    return SubgroupDescriptor("block_perms", (m,) * d)


def enumerate_subgroup(g: SubgroupDescriptor) -> tuple[Perm, ...]:
    """All elements, each exactly once, in a deterministic order: the Young
    base (the blocks' permutations side by side, so all_perms order for
    S_n), each composed with the block permutations in all_perms order of
    S_d.  Only a wreath product has both."""
    if g.kind == "block_perms":
        base = [identity(g.degree)]
    else:  # the blocks are consecutive, so images concatenate
        starts = itertools.accumulate((0,) + g.shape[:-1])
        blocks = [itertools.permutations(range(s + 1, s + b + 1)) for s, b in zip(starts, g.shape)]
        base = [sum(pieces, ()) for pieces in itertools.product(*blocks)]
        if g.kind == "young":
            return tuple(base)
    tops = [wreath_embed(s, g.m) for s in all_perms(g.d)]
    out = tuple(compose(y, t) for y in base for t in tops)
    if len(set(out)) != g.order():
        raise AssertionError(f"{g.label()} enumeration produced duplicates")
    return out


@lru_cache(maxsize=None)
def cycle_type_census(g: SubgroupDescriptor) -> dict[Partition, int]:
    """Cycle-type counts over the enumeration; memoised, so do not mutate."""
    return dict(Counter(cycle_type(pi) for pi in enumerate_subgroup(g)))


def _disjoint_census(a: dict[Partition, int], b: dict[Partition, int]) -> Counter:
    """Census of a direct product of two groups moving disjoint points."""
    out: Counter = Counter()
    for (rho, x), (tau, y) in itertools.product(a.items(), b.items()):
        out[tuple(sorted(rho + tau, reverse=True))] += x * y
    return out


def _symmetric_census(p: int) -> dict[Partition, int]:
    """Census of S_p: p!/z_rho elements of each cycle type rho."""
    return {rho: class_size(rho) for rho in enumerate_partitions(p)}


def class_census(g: SubgroupDescriptor) -> dict[Partition, int]:
    """cycle_type_census from closed forms: a product of S_b censuses over
    the blocks for a Young subgroup, and Polya's Z(S_d)[Z(H)] for H on d
    blocks permuted by S_d (H = S_m for S_m wr S_d, trivial for block
    permutations): a cycle of length l whose cycle product in H has type
    tau gives cycles l*tau_i, and each cycle product is hit |H|^(l-1) times."""
    if g.kind == "young":
        return reduce(_disjoint_census, map(_symmetric_census, g.shape), {(): 1})
    base = _symmetric_census(g.m) if g.kind == "wreath" else {(1,) * g.m: 1}
    h = sum(base.values())
    out: Counter = Counter()
    for pi, count in _symmetric_census(g.d).items():
        cycles = (
            {tuple(ell * t for t in tau): h ** (ell - 1) * c for tau, c in base.items()} for ell in pi
        )
        out.update(reduce(_disjoint_census, cycles, {(): count}))
    return dict(out)


def encode_permutation(pi: Perm) -> str:
    """n^2 bits: the permutation matrix (row i has its 1 in column pi(i)),
    read row-wise."""
    n = len(pi)
    rows = []
    for i in range(n):
        row = ["0"] * n
        row[pi[i] - 1] = "1"
        rows.append("".join(row))
    return "".join(rows)
