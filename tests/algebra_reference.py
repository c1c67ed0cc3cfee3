"""The projector-algebra check with every stage pair applied in both
orders: the reference `check_projector_algebra` is compared against.  It
pushes the same basis vectors through the same batch engine, but decides
commutation by comparing S_i S_j with S_j S_i directly."""

import numpy as np

from kronlab.errors import BoundExceededError
from kronlab.projectors import AlgebraReport, BatchEvaluator, _basis_batch, _exact_int_array


def reference_algebra(p):
    ev = BatchEvaluator(p)
    dim = p.dim
    if dim <= 1728:
        mode = "exhaustive"
        cols = np.arange(dim, dtype=np.int64)
    else:
        mode = "sampled"
        cols = np.sort(np.random.default_rng(7).choice(dim, size=192, replace=False))
    base = _basis_batch(dim, cols)
    failures = []
    once, idempotent, symmetric = [], [], []
    for i in range(len(p.stages)):
        out1, den = ev.apply_stages(base, [i])
        out2, _ = ev.apply_stages(out1, [i], start_max_abs=ev.kernels[i].l1)
        a, b = _exact_int_array(out2), _exact_int_array(out1)
        if int(np.abs(b).max(initial=0)) * den >= 2**62:
            raise BoundExceededError("idempotence comparison would overflow int64")
        idempotent.append(bool(np.array_equal(a, b * np.int64(den))))
        if not idempotent[-1]:
            failures.append(f"stage {i} not idempotent")
        sub = b[:, cols]
        symmetric.append(bool(np.array_equal(sub, sub.T)))
        if not symmetric[-1]:
            failures.append(f"stage {i} not symmetric")
        once.append(out1)
    pair_commutes = {}
    for i in range(len(p.stages)):
        for j in range(i + 1, len(p.stages)):
            ij, _ = ev.apply_stages(once[i], [j], start_max_abs=ev.kernels[i].l1)
            ji, _ = ev.apply_stages(once[j], [i], start_max_abs=ev.kernels[j].l1)
            pair_commutes[(i, j)] = bool(np.array_equal(_exact_int_array(ij), _exact_int_array(ji)))
            if not pair_commutes[(i, j)]:
                failures.append(f"stages {i} and {j} do not commute")
    return AlgebraReport(p.label, mode, idempotent, symmetric, pair_commutes, failures)
