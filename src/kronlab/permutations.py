"""Permutations, conjugacy classes, Young subgroups and wreath products.

A permutation of degree n is a tuple ``images`` of length n with
``images[i] = pi(i+1)``, i.e. one-line notation on {1..n}.  Composition
is ``compose(a, b)(x) = a(b(x))`` everywhere in the package; the
character-consistency tests pin this convention down.

`perm_array` holds S_n as uint8 rows for numpy passes over the whole group,
and `class_census` counts a subgroup's cycle types without enumerating it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
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
    """A named subgroup of S_degree.

    kinds:
      'full'         all of S_n                        (param: none)
      'young'        S_mu block subgroup               (param: shape mu)
      'wreath'       S_m wr S_d inside S_{md}          (param: (m, d))
      'block_perms'  image of S_d permuting m-blocks   (param: (m, d))
    """

    kind: str
    degree: int
    shape: Partition = ()
    m: int = 0
    d: int = 0

    def order(self) -> int:
        if self.kind == "full":
            return factorial(self.degree)
        if self.kind == "young":
            return prod(factorial(p) for p in self.shape)
        if self.kind == "wreath":
            return factorial(self.m) ** self.d * factorial(self.d)
        if self.kind == "block_perms":
            return factorial(self.d)
        raise InputError(f"unknown subgroup kind {self.kind!r}")

    def label(self) -> str:
        if self.kind == "full":
            return f"S{self.degree}"
        if self.kind == "young":
            return "S(" + ",".join(map(str, self.shape)) + ")"
        if self.kind == "wreath":
            return f"S{self.m}wrS{self.d}"
        if self.kind == "block_perms":
            return f"blocks({self.m}^{self.d})"
        raise InputError(f"unknown subgroup kind {self.kind!r}")

    def contains(self, pi: Perm) -> bool:
        """Membership test independent of the enumeration."""
        if len(pi) != self.degree:
            return False
        if self.kind == "full":
            return True
        if self.kind == "young":
            start = 0
            for p in self.shape:
                block = set(range(start + 1, start + p + 1))
                if any(pi[x - 1] not in block for x in block):
                    return False
                start += p
            return True
        if self.kind == "wreath":
            return self._block_map(pi) is not None
        if self.kind == "block_perms":
            blocks = self._block_map(pi)
            if blocks is None:
                return False
            return pi == wreath_embed(blocks, self.m)
        raise InputError(f"unknown subgroup kind {self.kind!r}")

    def _block_map(self, pi: Perm) -> Perm | None:
        """Induced permutation of the d size-m blocks, or None if pi does
        not map blocks onto blocks."""
        m, d = self.m, self.d
        images = []
        for a in range(d):
            targets = {(pi[a * m + b] - 1) // m for b in range(m)}
            if len(targets) != 1:
                return None
            images.append(targets.pop() + 1)
        if sorted(images) != list(range(1, d + 1)):
            return None
        return tuple(images)


def full_group(n: int) -> SubgroupDescriptor:
    return SubgroupDescriptor("full", n)


def young_subgroup(mu: Partition) -> SubgroupDescriptor:
    mu = check_partition(mu)
    return SubgroupDescriptor("young", sum(mu), shape=mu)


def wreath_product(m: int, d: int) -> SubgroupDescriptor:
    if m < 1 or d < 1:
        raise InputError("wreath product needs m, d >= 1")
    return SubgroupDescriptor("wreath", m * d, m=m, d=d)


def block_permutations(m: int, d: int) -> SubgroupDescriptor:
    if m < 1 or d < 1:
        raise InputError("block permutations need m, d >= 1")
    return SubgroupDescriptor("block_perms", m * d, m=m, d=d)


def enumerate_subgroup(g: SubgroupDescriptor) -> tuple[Perm, ...]:
    """All elements, each exactly once, in a deterministic order."""
    n = g.degree
    if g.kind == "full":
        return tuple(all_perms(n))
    if g.kind == "young":  # the blocks are consecutive, so images concatenate
        starts = itertools.accumulate((0,) + g.shape[:-1])
        blocks = [itertools.permutations(range(s + 1, s + p + 1)) for s, p in zip(starts, g.shape)]
        return tuple(sum(pieces, ()) for pieces in itertools.product(*blocks))
    if g.kind == "block_perms":
        return tuple(wreath_embed(s, g.m) for s in all_perms(g.d))
    if g.kind == "wreath":
        base = enumerate_subgroup(young_subgroup((g.m,) * g.d))
        tops = enumerate_subgroup(block_permutations(g.m, g.d))
        out = [compose(y, t) for y in base for t in tops]
        if len(set(out)) != g.order():
            raise AssertionError("wreath enumeration produced duplicates")
        return tuple(out)
    raise InputError(f"unknown subgroup kind {g.kind!r}")


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


def class_census(g: SubgroupDescriptor) -> dict[Partition, int]:
    """cycle_type_census from closed forms: n!/z_rho in S_n, products of
    those for a Young subgroup, and Polya's Z(S_d)[Z(H)] for H on d blocks
    permuted by S_d (H = S_m for S_m wr S_d, trivial for block
    permutations): a cycle of length l whose cycle product in H has type
    tau gives cycles l*tau_i, and each cycle product is hit |H|^(l-1) times."""
    if g.kind == "full":
        return {rho: class_size(rho) for rho in enumerate_partitions(g.degree)}
    if g.kind == "young":
        return reduce(_disjoint_census, (class_census(full_group(p)) for p in g.shape), {(): 1})
    if g.kind not in ("wreath", "block_perms"):
        raise InputError(f"unknown subgroup kind {g.kind!r}")
    base = class_census(full_group(g.m)) if g.kind == "wreath" else {(1,) * g.m: 1}
    h = sum(base.values())
    out: Counter = Counter()
    for pi, count in class_census(full_group(g.d)).items():
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


def decode_permutation(bits: str) -> Perm:
    """Inverse of encode_permutation; rejects non permutation matrices."""
    if any(c not in "01" for c in bits):
        raise InputError("permutation encoding must be 0/1 characters")
    n = round(len(bits) ** 0.5)
    if n * n != len(bits):
        raise InputError(f"encoding length {len(bits)} is not a square")
    images = []
    for i in range(n):
        row = bits[i * n : (i + 1) * n]
        if row.count("1") != 1:
            raise InputError(f"row {i + 1} of the matrix is not one-hot")
        images.append(row.index("1") + 1)
    if sorted(images) != list(range(1, n + 1)):
        raise InputError("matrix columns are not one-hot")
    return tuple(images)
