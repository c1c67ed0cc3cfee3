"""Property tests: random rational states through the state arithmetic
and the stage kernels, random witnesses through the verifier, random
integer matrices through the elimination, and random triples through
every in-bound backend."""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd
from unittest import mock

import numpy as np
import pytest
from algebra_reference import reference_algebra
from groupsum_reference import reference_orbit_sizes, reference_pipeline, reference_stage, state_of
from hypothesis import given, settings
from hypothesis import strategies as st
from rref_reference import kernel, rref

from kronlab import projectors
from kronlab.errors import ConsistencyError
from kronlab.oracles import kron_char, kron_invariant_def
from kronlab.partitions import enumerate_partitions
from kronlab.permutations import all_perms, block_permutations, full_group, wreath_product, young_subgroup
from kronlab.projectors import (
    InvariantAverage,
    Isotypic,
    Pipeline,
    StateVector,
    _commuting_translations,
    _FactorKernel,
    _stage_kernel_cached,
    _trace_orbits,
    apply_pipeline,
    check_projector_algebra,
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
def rational_amps(draw, n):
    """dict-of-Fraction amplitudes on (S_n)^3, keyed by permutation tuples."""
    perms = all_perms(n)
    keys = st.tuples(*[st.sampled_from(perms)] * 3)
    values = st.fractions(max_denominator=1 << 62).filter(bool)
    return draw(st.dictionaries(keys, values, min_size=1, max_size=12))


@given(data=st.data(), triple=kron_triples())
@SETTINGS
def test_every_stage_matches_group_sums(data, triple):
    p = kron_pipeline(*triple)
    amps = data.draw(rational_amps(p.n))
    state = state_of(p.n, 3, amps)
    for stage in p.stages:
        one_stage = Pipeline(p.n, p.k, (stage,), "one stage")
        assert apply_pipeline(one_stage, state).amps == reference_stage(amps, stage)
    assert apply_pipeline(p, state).amps == reference_pipeline(p, amps)


@st.composite
def mixed_pipelines(draw, sizes=((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1))):
    """Pipelines of the given (n, k) made of single-factor isotypic stages
    and left and right averages (Young subgroups; at n = 4 also S_2 wr S_2
    and its block permutations), placed before, between and after up to
    two full-left orbit stages; k = 1 pipelines and some k = 2, 3 ones have
    none.  At n <= 3 the single-factor stages on one factor all commute, so
    k = 1 pipelines also run at n = 4, where S_(2,2) and S_(3,1) averages
    do not and the per-factor kernel products are not symmetric."""
    n, k = draw(st.sampled_from(sizes))
    shapes, factors = st.sampled_from(enumerate_partitions(n)), st.integers(0, k - 1)
    groups = st.builds(young_subgroup, shapes)
    if n == 4:  # with m = 1 or d = 1 these are S_n or trivial
        groups = st.one_of(groups, st.sampled_from((block_permutations(2, 2), wreath_product(2, 2))))
    single = st.one_of(
        st.builds(Isotypic, factors, shapes),
        st.builds(
            lambda f, group, side: InvariantAverage(group, ((f, side),)),
            factors,
            groups,
            st.sampled_from("LR"),
        ),
    )
    orbit = InvariantAverage(full_group(n), tuple((f, "L") for f in range(k)))
    stages = draw(st.lists(single, max_size=4))
    for _ in range(draw(st.integers(0, 2 if k > 1 else 0))):
        stages += [orbit] + draw(st.lists(single, max_size=2))
    return Pipeline(n, k, tuple(stages) or (orbit,), "mixed")


def _check_dense_trace(p):
    # stages that do not commute can make the trace fractional or
    # negative, and the dense trace must then refuse it rather than round;
    # its orbits are those of the symmetry group found by brute force
    _, sizes = _trace_orbits(p.n, p.k, *_commuting_translations(p))
    assert sorted(sizes.tolist()) == reference_orbit_sizes(p)
    expected = Fraction(0)
    for key in itertools.product(all_perms(p.n), repeat=p.k):
        expected += reference_pipeline(p, {key: Fraction(1)}).get(key, Fraction(0))
    if expected.denominator == 1 and expected >= 0:
        assert pipeline_trace_dense(p) == expected
    else:
        with pytest.raises(ConsistencyError):
            pipeline_trace_dense(p)


@given(p=mixed_pipelines())
@SETTINGS
def test_dense_trace_matches_group_sums_on_every_basis_vector(p):
    _check_dense_trace(p)


@given(p=mixed_pipelines(sizes=((4, 1),)))
@SETTINGS
def test_dense_trace_over_composed_symmetries_at_n4(p):
    # S_(2,2) and block-permutation averages compose to the S_2 wr S_2
    # average, whose symmetry neither stage has alone
    _check_dense_trace(p)


@given(data=st.data(), triple=kron_triples())
@SETTINGS
def test_perturbed_kernel_algebra_matches_reference(data, triple):
    # one entry of one factor-stage kernel moved by 1 to 3 either way: each
    # kernel-level criterion agrees with applying every pair in both orders
    p = kron_pipeline(*triple)
    kernels = [_stage_kernel_cached(p.n, stage, p.k) for stage in p.stages]
    i = data.draw(st.sampled_from([i for i, kern in enumerate(kernels) if isinstance(kern, _FactorKernel)]))
    ints = kernels[i]._ints.astype(np.int64)
    entry = data.draw(st.tuples(*[st.integers(0, len(ints) - 1)] * 2))
    ints[entry] += data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    perturbed = _FactorKernel(kernels[i].factor, ints, kernels[i].den)
    cached = projectors._stage_kernel_cached
    with mock.patch.object(
        projectors, "_stage_kernel_cached", lambda n, s, k: perturbed if s == p.stages[i] else cached(n, s, k)
    ):
        assert check_projector_algebra(p) == reference_algebra(p)


@given(p=mixed_pipelines())
@SETTINGS
def test_mixed_pipeline_algebra_matches_reference(p):
    # stages on one factor that do not commute, and up to two orbit stages
    assert check_projector_algebra(p) == reference_algebra(p)


@st.composite
def raw_states(draw, nf):
    """Unreduced numerators on (S_n)^3, n! = nf, keyed by flat index: they
    may be near 2^80 or zero, over a denominator that may be negative."""
    big = st.integers(-(1 << 80), 1 << 80)
    nums = draw(st.dictionaries(st.integers(0, nf**3 - 1), st.one_of(st.integers(-9, 9), big), max_size=8))
    return nums, draw(st.one_of(st.integers(-9, 9), big).filter(bool))


def _ref_plus(a, b):
    out = dict(a)
    for f, x in b.items():
        out[f] = out.get(f, 0) + x
    return {f: x for f, x in out.items() if x}


@given(
    x=raw_states(6),
    y=raw_states(6),
    c=st.fractions(max_denominator=1 << 40),
    m=st.integers(-(1 << 70), 1 << 70),
)
@SETTINGS
def test_state_arithmetic_matches_fraction_dicts(x, y, c, m):
    (xn, xd), (yn, yd) = x, y
    a, b = StateVector(3, 3, dict(xn), xd), StateVector(3, 3, dict(yn), yd)
    ra = {f: Fraction(v, xd) for f, v in xn.items() if v}
    rb = {f: Fraction(v, yd) for f, v in yn.items() if v}
    for got, ref in (
        (a, ra),
        (a.plus(b), _ref_plus(ra, rb)),
        (a.minus(b), _ref_plus(ra, {f: -v for f, v in rb.items()})),
        (a.scaled(c), {f: v * c for f, v in ra.items() if c}),
        (StateVector.zero(3, 3).plus(b), rb),
    ):
        # lowest terms, so == below is exact rational equality
        assert got.den > 0 and all(got.nums.values()) and gcd(*got.nums.values(), got.den) == 1
        assert {f: Fraction(v, got.den) for f, v in got.nums.items()} == ref
        assert got.is_zero() == (not ref)
    assert a.inner(b) == b.inner(a) == sum((v * rb.get(f, 0) for f, v in ra.items()), Fraction(0))
    assert a.norm_sq() == sum((v * v for v in ra.values()), Fraction(0))
    assert (a == b) == (ra == rb)
    if m:
        assert StateVector(3, 3, {f: v * m for f, v in xn.items()}, xd * m) == a
    assert a.minus(a) == StateVector.zero(3, 3)


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
    vectors, den = rref_kernel(rows, pivots, cols)
    assert len(vectors) == cols - len(pivots)
    for vec in vectors:
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in m)
    assert [[Fraction(x, den) for x in vec] for vec in vectors] == kernel(reduced, pivots, cols)


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
