"""Irreducible S_n representations in Young's seminormal form, all entries
exact rationals, plus Young-subgroup-invariant dimensions computed from them.

A standard tableau T is read through its content vector c: c[i-1] is
col - row of the cell holding i, and c determines T, since step i adds the
one addable cell on diagonal c[i-1].  For an adjacent transposition s_k
the axial distance is D = c[k] - c[k-1].  If no tableau has c with those
two entries swapped, s_k T is not standard and the diagonal entry at T is
1/D (then D = +-1); otherwise that tableau is T' = s_k T, and the pair
(T, T') carries the 2x2 block

    [[1/D, 1 - 1/D^2],
     [1,   -1/D     ]]

anchored at whichever of T, T' comes first in the basis order.  The form
is rational, not unitary; everything downstream only needs traces and
ranks, which are basis-independent.  The Coxeter relations and the
character traces check the representation; a literal test of (3, 2)
pins the convention down.

Each generator is stored only as these blocks: one sparse row per
tableau, at most two nonzeros each.  No full matrix is ever formed.  A
word in the generators acts on a sparse row vector from the left, so the
Coxeter relations are checked, and class traces taken, one basis vector
e_t at a time; the fixed-space rows are built from the blocks directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .errors import BoundExceededError, ConsistencyError, InputError
from .partitions import Partition, check_partition, enumerate_syt
from .permutations import SubgroupDescriptor, class_census
from .ratlinalg import echelon

Row = dict[int, Fraction]  # sparse row vector: basis index -> nonzero entry


@dataclass
class SpechtRep:
    """The irreducible S_n representation of type shape, by its generators."""

    shape: Partition
    basis: tuple  # standard tableaux, in enumerate_syt order
    # generators[k-1][t] is row t of the matrix of (k, k+1), nonzeros only
    generators: list[list[Row]]

    @property
    def n(self) -> int:
        return sum(self.shape)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def apply(self, row: Row, word) -> Row:
        """The row vector row * s_{k1} * s_{k2} * ... for word = (k1 - 1,
        k2 - 1, ...), applied left to right by reading generator rows."""
        for k in word:
            gen = self.generators[k]
            out: Row = {}
            for t, x in row.items():
                for s, y in gen[t].items():
                    out[s] = out.get(s, 0) + x * y
            row = {s: x for s, x in out.items() if x}
        return row


def build_seminormal(lam: Partition) -> SpechtRep:
    lam = check_partition(lam) if lam else ()
    if not lam:
        raise InputError("empty shape has no representation")
    basis = enumerate_syt(lam)
    n = sum(lam)
    cells = ({x: j - i for i, row in enumerate(tab) for j, x in enumerate(row)} for tab in basis)
    contents = [tuple(c[x] for x in range(1, n + 1)) for c in cells]
    index = {c: i for i, c in enumerate(contents)}
    generators = []
    for k in range(1, n):
        # the loop meets each pair (T, s_k T) first at its anchor, which
        # fills both rows of the block
        rows: list[Row] = [{} for _ in basis]
        for t_idx, c in enumerate(contents):
            if rows[t_idx]:
                continue
            a = Fraction(1, c[k] - c[k - 1])
            s_idx = index.get(c[: k - 1] + (c[k], c[k - 1]) + c[k + 1 :])
            if s_idx is None:
                # same row or same column: axial distance is +-1
                rows[t_idx][t_idx] = a
                continue
            rows[t_idx].update({t_idx: a, s_idx: 1 - a * a})
            rows[s_idx].update({t_idx: Fraction(1), s_idx: -a})
        generators.append(rows)
    return SpechtRep(lam, basis, generators)


def check_coxeter(rep: SpechtRep) -> None:
    """Exact generator relations; raises on any failure.  Both sides of
    each relation are applied to every basis vector, so they pass only as
    equal matrices."""
    m = len(rep.generators)
    relations = [((k, k), (), f"s_{k + 1}^2 != 1 for") for k in range(m)]
    relations += [
        ((k, k + 1, k), (k + 1, k, k + 1), f"braid relation fails at k={k + 1},")
        for k in range(m - 1)
    ]
    relations += [
        ((k, l), (l, k), f"distant generators s_{k + 1}, s_{l + 1} do not commute,")
        for k in range(m)
        for l in range(k + 2, m)
    ]
    for lhs, rhs, failure in relations:
        for t in range(rep.dim):
            e_t = {t: Fraction(1)}
            if rep.apply(e_t, lhs) != rep.apply(e_t, rhs):
                raise ConsistencyError(f"{failure} shape {rep.shape}")


def class_trace(rep: SpechtRep, rho) -> Fraction:
    """Character of rep at cycle type rho: the trace of the word
    s_{a+1} ... s_{b-1} over each block (a, b] of consecutive cycles,
    read one basis vector at a time."""
    starts = list(itertools.accumulate(rho, initial=0))
    word = [k for a, b in zip(starts, starts[1:]) for k in range(a, b - 1)]
    diagonal = (rep.apply({t: Fraction(1)}, word).get(t, 0) for t in range(rep.dim))
    return sum(diagonal, Fraction(0))


DEFAULT_DIM_BOUND = 5000
# the degree and factor limits bound the two checks, which the tensor
# dimension does not: the Coxeter check applies about n^2 short words to
# each of the d basis vectors of a factor, and the trace average applies
# a word of up to n - 1 generators to each basis vector once per cycle
# type, about p(n) n d^2 Fraction operations per distinct shape.  Measured
# on a 2-core host, one fresh process each: (21,1),(21,1),(22) took 4.0-5.7 s,
# mostly class traces over the p(22) = 1002 cycle types, and
# (10,1,1),(12),(12) (d = 55) 0.8 s.  Past the limits, timed in-process:
# (24,1),(25),(25) 11.2 s and (40),(40),(40) 7.5 s, almost all class traces,
# and (9,3),(12),(12) (d = 154) 1.9 s
SPECHT_DEGREE_LIMIT = 22
SPECHT_FACTOR_DIM_LIMIT = 64


def invariant_dim(reps: list[SpechtRep], subgroup: SubgroupDescriptor) -> int:
    """Dimension of the subgroup-invariant subspace of the tensor product
    of the given representations under the diagonal action.

    The subgroup must be a Young subgroup (S_n is the one-block case);
    any other kind raises InputError.  Its generators are read off the
    blocks: the s_{k+1} with k+1 not a block end.  The invariant subspace
    is their common fixed space, the kernel of the integer rows of
    L (A_k x B_k x ... - I), built from the generator blocks and reduced
    one generator at a time.  Two checks share no code with that
    elimination: the Coxeter relations on each distinct shape (repeated
    shapes must have equal generators), and the trace average
    (1/|G|) sum_g prod_r tr rho_r(g) by class_trace over the subgroup's
    closed-form cycle-type census, which must equal the nullity.
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
    if subgroup.kind != "young":
        raise InputError(f"{subgroup.label()} is not a Young subgroup")
    # s_{k+1} permutes within a block unless k+1 ends one
    ends = set(itertools.accumulate(subgroup.shape))
    gens = [k for k in range(n - 1) if k + 1 not in ends]
    shapes = {r.shape: r for r in reps}  # a repeated shape is checked and traced once
    if any(r.generators != shapes[r.shape].generators for r in reps):
        raise ConsistencyError("two representations of one shape have different generators")
    for r in shapes.values():
        check_coxeter(r)
    held: list[list[int]] = []
    for k in gens:
        # integer rows of L (A_k x B_k x ... - I): each factor scaled by the
        # lcm of its own generator's denominators, L the product of those
        rows: list[dict[int, int]] = [{0: 1}]
        den = 1
        for r in reps:
            gen = r.generators[k]
            d = lcm(*(x.denominator for row in gen for x in row.values()))
            ints = [{j: int(y * d) for j, y in row.items()} for row in gen]
            rows = [
                {i * r.dim + j: x * y for i, x in row.items() for j, y in irow.items()}
                for row in rows
                for irow in ints
            ]
            den *= d
        for i, row in enumerate(rows):
            dense = [0] * total_dim
            for j, x in row.items():
                dense[j] = x
            dense[i] -= den
            held.append(dense)
        held = held[: len(echelon(held))]
    nullity = total_dim - len(held)
    # tr rho_r is a class function of S_n, so one product per cycle type,
    # taken at its consecutive-cycle word (which need not lie in the subgroup)
    total = Fraction(0)
    for rho, count in class_census(subgroup).items():
        traces = {shape: class_trace(r, rho) for shape, r in shapes.items()}
        total += count * prod(traces[r.shape] for r in reps)
    average = total / subgroup.order()
    if average != nullity:
        raise ConsistencyError(
            f"nullity {nullity} != trace average {average} for {subgroup.label()}"
        )
    return nullity
