"""Definitional group sums on dict-of-Fraction states (amplitudes keyed by
permutation tuples): the reference the stage kernels are checked against
at n <= 3, and the translation symmetry the dense trace's orbits use.
It shares no code with the kernels or the orbit search; every stage is
summed element by element over its group."""

import itertools
from fractions import Fraction
from math import factorial

from helpers import basis_state
from kronlab.characters import character_table
from kronlab.errors import InputError
from kronlab.partitions import hook_dimension
from kronlab.permutations import all_perms, compose, cycle_type, enumerate_subgroup, identity, inverse
from kronlab.projectors import DiagonalAverage, Isotypic, StateVector


def state_of(n, k, amps):
    """The StateVector with the given dict-of-Fraction amplitudes, built
    from basis states only."""
    out = StateVector.zero(n, k)
    for key, amp in amps.items():
        out = out.plus(basis_state(n, key).scaled(amp))
    return out


def _act(amps, actions, g):
    """The listed one-sided actions of g on a dict state: L sends sigma to
    g*sigma, R sends sigma to sigma*g^-1.  Pure basis relabeling."""
    ginv = inverse(g)
    out = {}
    for key, amp in amps.items():
        comps = list(key)
        for f, side in actions:
            comps[f] = compose(g, comps[f]) if side == "L" else compose(comps[f], ginv)
        out[tuple(comps)] = amp
    return out


def apply_action(state, factor, side, g):
    """One-sided action of g on one tensor factor of a StateVector."""
    if side not in ("L", "R"):
        raise InputError(f"side must be 'L' or 'R', got {side!r}")
    return state_of(state.n, state.k, _act(state.amps, ((factor, side),), g))


def reference_stage(amps, stage, n, k):
    """sum over the stage's group of coeff(g) * (its actions of g) amps, on
    k-tuples of permutations of degree n."""
    if isinstance(stage, Isotypic):
        chi = character_table(n).chi
        c = Fraction(hook_dimension(stage.shape), factorial(n))
        terms = [(c * chi(stage.shape, cycle_type(g)), g) for g in all_perms(n)]
        actions = ((stage.factor, "L"),)
    else:
        diagonal = isinstance(stage, DiagonalAverage)
        elements = all_perms(n) if diagonal else enumerate_subgroup(stage.group)
        terms = [(Fraction(1, len(elements)), g) for g in elements]
        actions = tuple((f, "L") for f in range(k)) if diagonal else ((stage.factor, stage.side),)
    out = {}
    for coeff, g in terms:
        for key, amp in _act(amps, actions, g).items():
            out[key] = out.get(key, 0) + coeff * amp
    return {key: a for key, a in out.items() if a}


def reference_pipeline(p, amps):
    for stage in p.stages:
        amps = reference_stage(amps, stage, p.n, p.k)
    return amps


def _composed_sum(groups, n):
    """The product of the groups' sums in list order, as multiplicities
    keyed by permutation, one compose per pair of terms."""
    out = {identity(n): 1}
    for group in groups:
        step = {}
        for a, c in out.items():
            for g in enumerate_subgroup(group):
                ag = compose(a, g)
                step[ag] = step.get(ag, 0) + c
        out = step
    return out


def _centralising(products, n):
    """Every x in S_n with x v x^-1 = v for each of the products v."""
    return [
        x
        for x in all_perms(n)
        if all({compose(compose(x, g), inverse(x)): c for g, c in v.items()} == v for v in products)
    ]


def reference_orbit_sizes(p):
    """Sorted orbit sizes of the k-tuples of S_n under the translations
    (s_f) -> (x s_f y_f), each orbit listed.  The groups are found by brute
    force: x commutes with the composed left averages of every factor
    between diagonal averages, and y_f with factor f's composed right
    averages, each product composed element by element."""
    runs, right = [[[] for _ in range(p.k)]], [[] for _ in range(p.k)]
    for stage in p.stages:
        if isinstance(stage, DiagonalAverage):
            runs.append([[] for _ in range(p.k)])
        elif not isinstance(stage, Isotypic):
            (runs[-1][stage.factor] if stage.side == "L" else right[stage.factor]).append(stage.group)
    xs = _centralising([_composed_sum(run, p.n) for segment in runs for run in segment], p.n)
    ys = [_centralising([_composed_sum(groups, p.n)], p.n) for groups in right]
    seen, sizes = set(), []
    for key in itertools.product(all_perms(p.n), repeat=p.k):
        if key not in seen:
            orbit = {
                tuple(compose(compose(x, s), y) for s, y in zip(key, yy))
                for x in xs
                for yy in itertools.product(*ys)
            }
            seen |= orbit
            sizes.append(len(orbit))
    return sorted(sizes)
