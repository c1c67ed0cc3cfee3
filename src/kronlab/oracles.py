"""Classical reference computations for Kronecker and plethysm
coefficients.  These are the ground truth the projector pipelines are
checked against, so they deliberately use nothing but character sums and
explicit group enumeration.

Every average here is an integer for structural reasons; a non-integral
result is raised as a ConsistencyError instead of being rounded, because
it means something upstream (characters, enumeration) is broken.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from .characters import character_table
from .errors import BoundExceededError, ConsistencyError
from .partitions import Partition, check_plethysm, check_triple, hook_dimension
from .permutations import cycle_type_census, full_group, wreath_product
from .specht import SPECHT_DEGREE_LIMIT, SPECHT_FACTOR_DIM_LIMIT, build_seminormal, invariant_dim

WREATH_ORDER_LIMIT = factorial(9)  # 362880 elements, enumerated in a few seconds


@dataclass
class CoefficientResult:
    value: int
    method: str


def _exact_int(num: int, den: int, what: str) -> int:
    """num / den for den > 0, or ConsistencyError unless it is an integer."""
    value, rest = divmod(num, den)
    if rest:
        raise ConsistencyError(f"{what} came out non-integral: {Fraction(num, den)}")
    return value


def kron_char(lam: Partition, mu: Partition, nu: Partition) -> CoefficientResult:
    """Kronecker coefficient as the normalized character product sum
    (1/n!) sum over classes of |class| * chi_lam * chi_mu * chi_nu."""
    lam, mu, nu = check_triple(lam, mu, nu)
    n = sum(lam)
    table = character_table(n)
    total = sum(map(prod, zip(table.class_sizes, table.row(lam), table.row(mu), table.row(nu))))
    value = _exact_int(total, factorial(n), "Kronecker class sum")
    if value < 0:
        raise ConsistencyError(f"negative multiplicity {value}")
    return CoefficientResult(value, "character")


def scaled_kron(lam: Partition, mu: Partition, nu: Partition) -> int:
    """d(lam) d(mu) d(nu) k(lam, mu, nu)."""
    k = kron_char(lam, mu, nu).value
    return hook_dimension(tuple(lam)) * hook_dimension(tuple(mu)) * hook_dimension(tuple(nu)) * k


def pleth_wreath(d: int, m: int, lam: Partition) -> CoefficientResult:
    """Plethysm coefficient a_lam(d, m) as the average of chi_lam over the
    wreath product S_m wr S_d, enumerated explicitly inside S_{md}.
    Refused before anything is built when |S_m wr S_d| = m!^d d! exceeds
    WREATH_ORDER_LIMIT."""
    lam = check_plethysm(d, m, lam)
    group = wreath_product(m, d)
    if group.order() > WREATH_ORDER_LIMIT:
        raise BoundExceededError(
            f"S_{m} wr S_{d} has more than {WREATH_ORDER_LIMIT} elements to enumerate"
        )
    table = character_table(m * d)
    chi = dict(zip(table.classes, table.row(lam)))
    total = sum(count * chi[rho] for rho, count in cycle_type_census(group).items())
    value = _exact_int(total, group.order(), "wreath average")
    if value < 0:
        raise ConsistencyError(f"negative multiplicity {value}")
    return CoefficientResult(value, "wreath")


def kron_invariant_def(lam: Partition, mu: Partition, nu: Partition) -> CoefficientResult:
    """Kronecker coefficient straight from its definition: the dimension of
    the invariant subspace of [lam] x [mu] x [nu] under the diagonal
    S_n action, computed as the common fixed space of the adjacent
    transpositions on explicit Specht matrices.  Refused before any matrix
    is built for n > SPECHT_DEGREE_LIMIT or a factor of dimension above
    SPECHT_FACTOR_DIM_LIMIT."""
    lam, mu, nu = check_triple(lam, mu, nu)
    n = sum(lam)
    if n > SPECHT_DEGREE_LIMIT:
        raise BoundExceededError(f"Specht matrices at degree {n}: n exceeds {SPECHT_DEGREE_LIMIT}")
    dims = [hook_dimension(shape) for shape in (lam, mu, nu)]
    if max(dims) > SPECHT_FACTOR_DIM_LIMIT:
        raise BoundExceededError(f"Specht factor dimensions {dims}: one exceeds {SPECHT_FACTOR_DIM_LIMIT}")
    reps = [build_seminormal(lam), build_seminormal(mu), build_seminormal(nu)]
    value = invariant_dim(reps, full_group(n))
    return CoefficientResult(value, "specht")
