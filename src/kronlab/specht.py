"""Irreducible S_n matrices in Young's seminormal form, all entries exact
rationals, plus subgroup-invariant dimensions computed from them.

The generator matrix convention: for an adjacent transposition s_k and a
standard tableau T, let D be the axial distance from k to k+1 in T,
D = (col(k+1) - row(k+1)) - (col(k) - row(k)).  If swapping k and k+1
breaks standardness the diagonal entry at T is 1/D (then D = +-1);
otherwise the pair (T, T') with T' = s_k T carries the 2x2 block

    [[1/D, 1 - 1/D^2],
     [1,   -1/D     ]]

anchored at whichever of T, T' comes first in the basis order.  The form
is rational, not unitary; everything downstream only needs traces and
ranks, which are basis-independent.  The Coxeter relations and the
character traces are the tests that pin the convention down.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

from .errors import BoundExceededError, ConsistencyError, InputError
from .partitions import Partition, check_partition, enumerate_syt
from .permutations import (
    Perm,
    SubgroupDescriptor,
    check_perm,
    class_census,
    from_cycles,
    identity,
)
from .ratlinalg import (
    Matrix,
    clear_denominators,
    echelon,
    identity_matrix,
    mat_eq,
    mat_kron,
    mat_mul,
    mat_trace,
    zero_matrix,
)


def _cell_of(tab, value) -> tuple[int, int]:
    for r, row in enumerate(tab):
        for c, x in enumerate(row):
            if x == value:
                return r, c
    raise ValueError(f"{value} not in tableau")


def _swap_values(tab, a, b):
    return tuple(tuple(b if x == a else a if x == b else x for x in row) for row in tab)


@dataclass
class SpechtRep:
    """Matrices of the irreducible S_n representation of type shape."""

    shape: Partition
    basis: tuple  # standard tableaux, in enumerate_syt order
    generators: list[Matrix]  # generators[k-1] is the matrix of (k, k+1)
    _matrix_cache: dict[Perm, Matrix] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return sum(self.shape)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix(self, pi: Perm) -> Matrix:
        """Matrix of pi: generator product along an adjacent-transposition
        factorization (bubble sort of the one-line form).  Cached."""
        pi = check_perm(pi)
        if len(pi) != self.n:
            raise InputError(f"permutation degree {len(pi)} != {self.n}")
        cached = self._matrix_cache.get(pi)
        if cached is not None:
            return cached
        # sort pi to the identity by right-multiplying adjacent swaps:
        # pi * s_{a1} * ... * s_{am} = id  =>  pi = s_{am} * ... * s_{a1}
        word = []
        q = list(pi)
        done = False
        while not done:
            done = True
            for i in range(len(q) - 1):
                if q[i] > q[i + 1]:
                    q[i], q[i + 1] = q[i + 1], q[i]
                    word.append(i)  # s_{i+1}, stored 0-based
                    done = False
        mat = identity_matrix(self.dim)
        for k in reversed(word):
            mat = mat_mul(mat, self.generators[k])
        self._matrix_cache[pi] = mat
        return mat


def build_seminormal(lam: Partition) -> SpechtRep:
    lam = check_partition(lam) if lam else ()
    if not lam:
        raise InputError("empty shape has no representation")
    basis = enumerate_syt(lam)
    index = {t: i for i, t in enumerate(basis)}
    n = sum(lam)
    dim = len(basis)
    generators = []
    for k in range(1, n):
        mat = zero_matrix(dim, dim)
        seen = set()
        for t_idx, tab in enumerate(basis):
            if t_idx in seen:
                continue
            rk, ck = _cell_of(tab, k)
            rk1, ck1 = _cell_of(tab, k + 1)
            dist = (ck1 - rk1) - (ck - rk)
            swapped = _swap_values(tab, k, k + 1)
            if swapped not in index:
                # same row or same column: axial distance is +-1
                mat[t_idx][t_idx] = Fraction(1, dist)
                seen.add(t_idx)
                continue
            s_idx = index[swapped]
            if s_idx < t_idx:
                t_idx, s_idx = s_idx, t_idx
                dist = -dist
            a = Fraction(1, dist)
            mat[t_idx][t_idx] = a
            mat[t_idx][s_idx] = 1 - a * a
            mat[s_idx][t_idx] = Fraction(1)
            mat[s_idx][s_idx] = -a
            seen.update((t_idx, s_idx))
        generators.append(mat)
    return SpechtRep(lam, basis, generators)


def check_coxeter(rep: SpechtRep) -> None:
    """Exact generator relations; raises on any failure."""
    gens = rep.generators
    ident = identity_matrix(rep.dim)
    for k, m in enumerate(gens):
        if not mat_eq(mat_mul(m, m), ident):
            raise ConsistencyError(f"s_{k + 1}^2 != 1 for shape {rep.shape}")
    for k in range(len(gens) - 1):
        lhs = mat_mul(gens[k], mat_mul(gens[k + 1], gens[k]))
        rhs = mat_mul(gens[k + 1], mat_mul(gens[k], gens[k + 1]))
        if not mat_eq(lhs, rhs):
            raise ConsistencyError(f"braid relation fails at k={k + 1}, shape {rep.shape}")
    for k in range(len(gens)):
        for l in range(k + 2, len(gens)):
            if not mat_eq(mat_mul(gens[k], gens[l]), mat_mul(gens[l], gens[k])):
                raise ConsistencyError(
                    f"distant generators s_{k + 1}, s_{l + 1} do not commute, shape {rep.shape}"
                )


DEFAULT_DIM_BOUND = 5000
# the Coxeter check and the trace average cost about n^2 d^3 and
# p(n) n d^3 Fraction operations per factor of dimension d, which the
# tensor dimension does not bound.  Measured on a 2-core host, one process
# each: (21,1),(21,1),(22) took 17 s and (10,1,1),(12),(12) (d = 55) 2.4 s;
# (24,1),(25),(25) took 19 s, (29,1),(30),(30) 98 s, (40),(40),(40) 34 s
# and (9,3),(12),(12) (d = 154) 18 s
SPECHT_DEGREE_LIMIT = 22
SPECHT_FACTOR_DIM_LIMIT = 64


def invariant_dim(reps: list[SpechtRep], subgroup: SubgroupDescriptor) -> int:
    """Dimension of the subgroup-invariant subspace of the tensor product
    of the given representations under the diagonal action.

    The subgroup must be generated by the adjacent transpositions s_k it
    contains (all of S_n, or a Young subgroup).  The invariant subspace is
    their common fixed space, the kernel of the integer rows of
    L (A_k x B_k x ... - I), reduced one generator at a time.  Two checks
    share no code with that elimination: the Coxeter relations on every
    factor, and the trace average (1/|G|) sum_g prod_r tr rho_r(g) of the
    Specht matrices, summed over the subgroup's closed-form cycle-type
    census, which must be an integer equal to the nullity.
    """
    if not reps:
        raise InputError("need at least one representation")
    n = reps[0].n
    if any(r.n != n for r in reps):
        raise InputError("representations must share one degree")
    if subgroup.degree != n:
        raise InputError(f"subgroup degree {subgroup.degree} != {n}")
    total_dim = prod(r.dim for r in reps)
    if total_dim > DEFAULT_DIM_BOUND:
        raise BoundExceededError(f"tensor dimension {total_dim} exceeds bound {DEFAULT_DIM_BOUND}")
    # the s_k in the subgroup generate a Young subgroup whose order is the
    # product over k of the length of the run of generators ending at k
    gens, young_order, run = [], 1, 1
    for k in range(n - 1):
        s_k = list(identity(n))
        s_k[k], s_k[k + 1] = s_k[k + 1], s_k[k]
        run = run + 1 if subgroup.contains(tuple(s_k)) else 1
        if run > 1:
            gens.append(k)
        young_order *= run
    if young_order != subgroup.order():
        raise InputError(
            f"{subgroup.label()} is not generated by the adjacent transpositions it contains"
        )
    for r in reps:
        check_coxeter(r)
    held: list[list[int]] = []
    for k in gens:
        rows, den = clear_denominators(reps[0].generators[k])
        for r in reps[1:]:
            ints, d = clear_denominators(r.generators[k])
            rows, den = mat_kron(rows, ints), den * d
        for i, row in enumerate(rows):
            row[i] -= den
        held += rows
        held = held[: len(echelon(held))]
    nullity = total_dim - len(held)
    # tr rho_r is a class function of S_n, so one product per cycle type,
    # taken at its consecutive-cycle representative (which need not lie in
    # the subgroup)
    total = Fraction(0)
    for rho, count in class_census(subgroup).items():
        starts = list(itertools.accumulate(rho, initial=0))
        rep = from_cycles(n, [range(s + 1, e + 1) for s, e in zip(starts, starts[1:])])
        total += count * prod(mat_trace(r.matrix(rep)) for r in reps)
    average = total / subgroup.order()
    if average != nullity:
        raise ConsistencyError(
            f"nullity {nullity} != trace average {average} for {subgroup.label()}"
        )
    return nullity
