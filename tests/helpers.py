"""Test-only constructors: permutations from cycle notation and basis
states.  The package itself never needs either."""

from math import factorial

import numpy as np

from kronlab.errors import InputError
from kronlab.permutations import check_perm, perm_ranks
from kronlab.projectors import StateVector


def from_cycles(n, cycles):
    """A permutation of S_n from disjoint cycles, e.g. [(1,2),(3,4)]."""
    images = list(range(1, n + 1))
    for cyc in cycles:
        for k in range(len(cyc)):
            images[cyc[k] - 1] = cyc[(k + 1) % len(cyc)]
    return check_perm(images)


def basis_state(n, perms):
    """The StateVector with amplitude 1 on the tensor of the given
    permutations of degree n."""
    if any(len(check_perm(p)) != n for p in perms):
        raise InputError(f"basis state needs permutations of degree {n}")
    ranks = perm_ranks(np.array(perms, dtype=np.int64).reshape(len(perms), n) - 1).tolist()
    flat = sum(r * factorial(n) ** i for i, r in enumerate(reversed(ranks)))
    return StateVector(n, len(perms), {flat: 1})
