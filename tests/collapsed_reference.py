"""Scalar references for the vectorised permutation-array code: the
collapsed route's class-count array and the dense route's index tables,
both built one Python compose and cycle_type call at a time."""

import numpy as np

from kronlab.partitions import enumerate_partitions
from kronlab.permutations import all_perms, compose, cycle_type, inverse


def reference_shifted_class_counts(n):
    """counts[a, b, c] = #{l of class a : type(l * rep_b^-1) = class c},
    rep_b the first permutation of class b in all_perms order."""
    classes = enumerate_partitions(n)
    class_index = {rho: i for i, rho in enumerate(classes)}
    reps = {}
    for pi in all_perms(n):
        reps.setdefault(cycle_type(pi), pi)
    p = len(classes)
    counts = np.zeros((p, p, p), dtype=np.int64)
    rep_invs = [inverse(reps[rho]) for rho in classes]
    for l in all_perms(n):
        a = class_index[cycle_type(l)]
        for b in range(p):
            c = class_index[cycle_type(compose(l, rep_invs[b]))]
            counts[a, b, c] += 1
    return counts


def reference_index_tables(n):
    """(mult, inv, type_index) of S_n in all_perms order."""
    perms = all_perms(n)
    index = {p: i for i, p in enumerate(perms)}
    class_index = {rho: i for i, rho in enumerate(enumerate_partitions(n))}
    mult = np.array([[index[compose(a, b)] for b in perms] for a in perms], dtype=np.int64)
    inv = np.array([index[inverse(p)] for p in perms], dtype=np.int64)
    type_index = np.array([class_index[cycle_type(p)] for p in perms], dtype=np.int64)
    return mult, inv, type_index
