"""Property tests: random rational states through the stage kernels, and
random witnesses through the verifier."""

from fractions import Fraction
from functools import lru_cache

from groupsum_reference import reference_pipeline, reference_stage
from hypothesis import given, settings
from hypothesis import strategies as st

from kronlab.partitions import enumerate_partitions
from kronlab.permutations import all_perms
from kronlab.projectors import StateVector, apply_pipeline, apply_stage, kron_pipeline
from kronlab.protocol import acceptance_probability, witness_spaces

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def kron_triples(draw, degrees=(2, 3)):
    n = draw(st.sampled_from(degrees))
    parts = enumerate_partitions(n)
    return tuple(draw(st.sampled_from(parts)) for _ in range(3))


@st.composite
def rational_states(draw, n):
    perms = all_perms(n)
    keys = st.tuples(*[st.sampled_from(perms)] * 3)
    values = st.fractions(max_denominator=1 << 62).filter(bool)
    amps = draw(st.dictionaries(keys, values, min_size=1, max_size=12))
    return StateVector(n, 3, amps)


@given(data=st.data(), triple=kron_triples())
@SETTINGS
def test_every_stage_matches_group_sums(data, triple):
    p = kron_pipeline(*triple)
    state = data.draw(rational_states(p.n))
    for stage in p.stages:
        assert apply_stage(state, stage).amps == reference_stage(state, stage).amps
    assert apply_pipeline(p, state).amps == reference_pipeline(p, state).amps


@lru_cache(maxsize=None)
def _spaces(triple):
    return witness_spaces(kron_pipeline(*triple))


def _combination(data, basis):
    picks = data.draw(st.lists(st.sampled_from(range(len(basis))), min_size=1, max_size=6, unique=True))
    coeffs = data.draw(st.lists(st.integers(-9, 9).filter(bool), min_size=len(picks), max_size=len(picks)))
    out = StateVector.zero(basis[0].n, basis[0].k)
    for i, c in zip(picks, coeffs):
        out = out.plus(basis[i].scaled(c))
    return out


@given(data=st.data(), triple=kron_triples(degrees=(3,)))
@SETTINGS
def test_witness_combinations_accepted_exactly(data, triple):
    ws = _spaces(triple)
    if ws.accepting_basis:
        w = _combination(data, ws.accepting_basis)
        assert acceptance_probability(ws.pipeline, w) == Fraction(1)
    w = _combination(data, ws.rejecting_basis)
    assert acceptance_probability(ws.pipeline, w) == Fraction(0)
