"""Definitional group sums on dict-of-Fraction states: the reference the
stage kernels are checked against at n <= 3.  It shares no code with the
kernels; every stage is summed element by element over its group."""

from fractions import Fraction
from math import factorial

from kronlab.characters import character_table
from kronlab.partitions import hook_dimension
from kronlab.permutations import all_perms, compose, cycle_type, enumerate_subgroup, inverse
from kronlab.projectors import Isotypic, StateVector


def reference_stage(state, stage):
    """sum over the stage's group of coeff(g) * (its actions of g) state."""
    if isinstance(stage, Isotypic):
        chi = character_table(state.n).chi
        c = Fraction(hook_dimension(stage.shape), factorial(state.n))
        terms = [(c * chi(stage.shape, cycle_type(g)), g) for g in all_perms(state.n)]
        actions = ((stage.factor, "L"),)
    else:
        elements = enumerate_subgroup(stage.group)
        terms = [(Fraction(1, len(elements)), g) for g in elements]
        actions = stage.actions
    out = {}
    for coeff, g in terms:
        ginv = inverse(g)
        for key, amp in state.amps.items():
            comps = list(key)
            for f, side in actions:
                comps[f] = compose(g, comps[f]) if side == "L" else compose(comps[f], ginv)
            out[tuple(comps)] = out.get(tuple(comps), 0) + coeff * amp
    return StateVector(state.n, state.k, {key: a for key, a in out.items() if a})


def reference_pipeline(p, state):
    for stage in p.stages:
        state = reference_stage(state, stage)
    return state
