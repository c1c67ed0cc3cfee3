"""Test-only helpers: permutations from cycle notation, a subgroup
membership test independent of the enumeration, basis states, one-stage
projections of a state, stage kernels built from the scalar reference
tables, perturbed stage elements, and the partition check's reference
loop.  The package itself needs none of them."""

import itertools
from functools import lru_cache
from math import factorial

import numpy as np
from collapsed_reference import reference_index_tables

from kronlab.characters import character_table
from kronlab.errors import InputError
from kronlab.partitions import enumerate_partitions, hook_dimension
from kronlab.permutations import all_perms, check_perm, enumerate_subgroup, identity, perm_ranks, wreath_embed
from kronlab.projectors import Isotypic, Pipeline, StateVector, _FactorKernel, apply_pipeline


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


def apply_isotypic(state, factor, lam):
    """Weak-Fourier-sampling projector on one factor:
    (d(lam)/n!) sum_g chi_lam(g) L_g."""
    return apply_pipeline(Pipeline(state.n, state.k, (Isotypic(factor, lam),), f"isotypic({factor})"), state)


def apply_invariant_average(state, stage):
    """(1/|G|) sum over the stage's group of its action on the state."""
    return apply_pipeline(Pipeline(state.n, state.k, (stage,), "invariant_average"), state)


@lru_cache(maxsize=None)
def reference_tables(n):
    """(mult, inv, type_index) of S_n from the scalar reference, memoised per degree."""
    return reference_index_tables(n)


def reference_kernel(n, stage):
    """A single-factor stage's n! x n! integer kernel, entry by entry from
    the scalar reference tables: d chi at the class of t o s^-1, or the
    subgroup indicator at t o s^-1 (left) or s^-1 o t (right)."""
    mult, inv, type_index = reference_tables(n)
    if isinstance(stage, Isotypic):
        table = character_table(n)
        chi = np.array([table.chi(stage.shape, rho) for rho in enumerate_partitions(n)])
        return hook_dimension(stage.shape) * chi[type_index[mult[:, inv]]]
    index = {g: i for i, g in enumerate(all_perms(n))}
    member = np.zeros(factorial(n), dtype=np.int64)
    member[[index[g] for g in enumerate_subgroup(stage.group)]] = 1
    return member[mult[:, inv] if stage.side == "L" else mult[inv, :].T]


def reference_conjugation_invariant(n, kernel):
    """Whether K[g t, g s] = K[t, s] for every g, t and s."""
    mult = reference_tables(n)[0]
    return bool((kernel[mult[:, :, None], mult[:, None, :]] == kernel).all())


def perturbed(kern, changes):
    """A factor-stage kernel whose element is moved by delta at each rank
    g of changes {g: delta}; side, factor and denominator are kept."""
    values = kern.values.astype(np.int64)
    for g, delta in changes.items():
        values[g] += delta
    return _FactorKernel(kern.space, kern.factor, kern.side, values, kern.den)


def cycle_rank(n, *cycle):
    """all_perms rank of the cycle of S_n, e.g. cycle_rank(4, 1, 2, 3)."""
    return all_perms(n).index(from_cycles(n, [cycle]))


def reference_check_partition(parts):
    """The partition check as one loop over the parts: the first part that
    is not positive, or that a later part exceeds, raises."""
    lam = tuple(int(p) for p in parts)
    for i, p in enumerate(lam):
        if p < 1:
            raise InputError(f"partition parts must be positive, got {lam}")
        if i + 1 < len(lam) and lam[i + 1] > p:
            raise InputError(f"partition parts must be weakly decreasing, got {lam}")
    return lam
