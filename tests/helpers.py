"""Test-only helpers: permutations from cycle notation, a subgroup
membership test independent of the enumeration, basis states, one-stage
projections of a state, stage kernels built from the scalar reference
tables, perturbed stage elements, the partition check's reference loop,
the decoders inverse to the `encode` command's encoders, diagram
containment and horizontal strips, and GL_N dimensions by the
content/hook product.  The package itself needs none of them."""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np
from collapsed_reference import reference_index_tables

from kronlab.characters import character_table
from kronlab.errors import InputError
from kronlab.partitions import enumerate_partitions, hook_dimension, hook_lengths, transpose
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


def decode_diagram(bits):
    """Inverse of encode_diagram; rejects strings that are not a partition."""
    if any(c not in "01" for c in bits):
        raise InputError(f"diagram encoding must be 0/1 characters, got {bits!r}")
    n = len(bits) + 1
    rows = []
    prev = 0
    for i, c in enumerate(bits, start=1):
        if c == "1":
            rows.append(i - prev)
            prev = i
    rows.append(n - prev)
    lam = tuple(rows)
    if any(lam[i + 1] > lam[i] for i in range(len(lam) - 1)):
        raise InputError(f"bits {bits!r} decode to non-monotone rows {lam}")
    return lam


def diagram_contains(mu, lam):
    """mu fits inside lam as a diagram."""
    if len(mu) > len(lam):
        return False
    return all(mu[i] <= lam[i] for i in range(len(mu)))


def is_horizontal_strip(mu, lam):
    """True iff mu is contained in lam and lam \\ mu has at most one box per column."""
    if not diagram_contains(mu, lam):
        return False
    lamt, mut = transpose(lam), transpose(mu)
    return all(lamt[i] - (mut[i] if i < len(mut) else 0) <= 1 for i in range(len(lamt)))


def schur_dim_gl(lam, num_vars):
    """Dimension of the irreducible GL_N representation of type lam,
    N = num_vars, via the content/hook product.  Zero when the diagram
    has more rows than N."""
    if num_vars < 1:
        raise InputError("num_vars must be positive")
    if len(lam) > num_vars:
        return 0
    hooks = hook_lengths(lam)
    value = Fraction(1)
    for i in range(len(lam)):
        for j in range(lam[i]):
            value *= Fraction(num_vars + j - i, hooks[i][j])
    if value.denominator != 1:
        raise AssertionError(f"content/hook product not integral for {lam}, N={num_vars}")
    return int(value)


def decode_permutation(bits):
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
