"""Test-only helpers: permutations from cycle notation, a subgroup
membership test independent of the enumeration, and basis states.  The
package itself needs none of them."""

import itertools
from math import factorial

import numpy as np

from kronlab.errors import InputError
from kronlab.permutations import check_perm, identity, perm_ranks, wreath_embed
from kronlab.projectors import StateVector


def from_cycles(n, cycles):
    """A permutation of S_n from disjoint cycles, e.g. [(1,2),(3,4)]."""
    images = list(range(1, n + 1))
    for cyc in cycles:
        for k in range(len(cyc)):
            images[cyc[k] - 1] = cyc[(k + 1) % len(cyc)]
    return check_perm(images)


def contains(g, pi):
    """Whether the SubgroupDescriptor g contains pi, from the permutation
    pi induces on g's blocks, so sharing no code with enumerate_subgroup."""
    blocks = _block_map(g, pi) if len(pi) == g.degree else None
    if g.kind == "young":
        return blocks == identity(g.d)
    return blocks is not None and (g.kind == "wreath" or pi == wreath_embed(blocks, g.m))


def _block_map(g, pi):
    """Induced permutation of g's blocks, or None if pi does not map
    blocks onto blocks."""
    owner = [a for a, b in enumerate(g.shape, 1) for _ in range(b)]  # block of each point
    starts = itertools.accumulate((0,) + g.shape[:-1])
    targets = [{owner[x - 1] for x in pi[s : s + b]} for s, b in zip(starts, g.shape)]
    images = tuple(t.pop() for t in targets if len(t) == 1)
    return images if sorted(images) == list(range(1, g.d + 1)) else None


def basis_state(n, perms):
    """The StateVector with amplitude 1 on the tensor of the given
    permutations of degree n."""
    if any(len(check_perm(p)) != n for p in perms):
        raise InputError(f"basis state needs permutations of degree {n}")
    ranks = perm_ranks(np.array(perms, dtype=np.int64).reshape(len(perms), n) - 1).tolist()
    flat = sum(r * factorial(n) ** i for i, r in enumerate(reversed(ranks)))
    return StateVector(n, len(perms), {flat: 1})
