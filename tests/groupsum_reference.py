"""Definitional group sums on dict-of-Fraction states (amplitudes keyed by
permutation tuples): the reference the stage kernels are checked against
at n <= 3.  It shares no code with the kernels; every stage is summed
element by element over its group."""

from fractions import Fraction
from math import factorial

from kronlab.characters import character_table
from kronlab.errors import InputError
from kronlab.partitions import hook_dimension
from kronlab.permutations import all_perms, compose, cycle_type, enumerate_subgroup, inverse
from kronlab.projectors import Isotypic, StateVector


def state_of(n, k, amps):
    """The StateVector with the given dict-of-Fraction amplitudes, built
    from basis states only."""
    out = StateVector.zero(n, k)
    for key, amp in amps.items():
        out = out.plus(StateVector.basis_state(n, key).scaled(amp))
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


def reference_stage(amps, stage):
    """sum over the stage's group of coeff(g) * (its actions of g) amps."""
    if isinstance(stage, Isotypic):
        n = sum(stage.shape)
        chi = character_table(n).chi
        c = Fraction(hook_dimension(stage.shape), factorial(n))
        terms = [(c * chi(stage.shape, cycle_type(g)), g) for g in all_perms(n)]
        actions = ((stage.factor, "L"),)
    else:
        elements = enumerate_subgroup(stage.group)
        terms = [(Fraction(1, len(elements)), g) for g in elements]
        actions = stage.actions
    out = {}
    for coeff, g in terms:
        for key, amp in _act(amps, actions, g).items():
            out[key] = out.get(key, 0) + coeff * amp
    return {key: a for key, a in out.items() if a}


def reference_pipeline(p, amps):
    for stage in p.stages:
        amps = reference_stage(amps, stage)
    return amps
