"""Property tests: random rational states through the stage kernels,
random witnesses through the verifier, random integer matrices through
the elimination, and random triples through every in-bound backend."""

from fractions import Fraction
from functools import lru_cache

from groupsum_reference import reference_pipeline, reference_stage
from hypothesis import given, settings
from hypothesis import strategies as st
from rref_reference import rref

from kronlab.oracles import kron_char, kron_invariant_def
from kronlab.partitions import enumerate_partitions
from kronlab.permutations import all_perms
from kronlab.projectors import (
    StateVector,
    apply_pipeline,
    apply_stage,
    kron_pipeline,
    pipeline_trace_collapsed,
    pipeline_trace_dense,
)
from kronlab.protocol import acceptance_probability, witness_spaces
from kronlab.ratlinalg import echelon, rref_kernel

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


@st.composite
def low_rank_matrices(draw):
    """rows x cols integer matrices of rank at most r: a product of random
    rows x r and r x cols factors."""
    rows, cols, r = draw(st.integers(1, 7)), draw(st.integers(1, 7)), draw(st.integers(0, 4))
    entries = st.integers(-5, 5)
    left = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=r, max_size=r))
    if not r:
        return [[0] * cols for _ in range(rows)]
    return [[sum(a * b for a, b in zip(lrow, col)) for col in zip(*right)] for lrow in left]


@given(m=low_rank_matrices())
@SETTINGS
def test_echelon_matches_reference_rref(m):
    reduced, ref_pivots = rref(m)
    rows = [list(row) for row in m]
    pivots = echelon(rows)
    assert pivots == ref_pivots
    scaled = [[Fraction(x, row[pc]) for x in row] for row, pc in zip(rows, pivots)]
    assert scaled == reduced[: len(pivots)]
    assert not any(any(row) for row in rows[len(pivots):])
    cols = len(m[0])
    kernel = rref_kernel(rows, pivots, cols)
    assert len(kernel) == cols - len(pivots)
    for vec in kernel:
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in m)


@st.composite
def same_size_triples(draw):
    n = draw(st.integers(2, 5))
    return n, tuple(draw(st.sampled_from(enumerate_partitions(n))) for _ in range(3))


@given(case=same_size_triples())
@SETTINGS
def test_every_in_bound_backend_agrees(case):
    n, triple = case
    expected = kron_char(*triple).value
    p = kron_pipeline(*triple)
    assert pipeline_trace_collapsed(p) == expected
    assert kron_invariant_def(*triple).value == expected
    if n <= 3:
        assert pipeline_trace_dense(p) == expected
