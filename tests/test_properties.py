"""Property tests: random rational states through the state arithmetic
and the stage kernels, random witnesses through the verifier and its
per-stage reference, random integer matrices through the elimination,
and random triples through every in-bound backend."""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, prod
from unittest import mock

import numpy as np
import pytest
from algebra_reference import reference_algebra
from groupsum_reference import reference_orbit_sizes, reference_pipeline, reference_stage, state_of
from helpers import perturbed
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from rref_reference import kernel, rref
from verifier_reference import (
    reference_acceptance_probability,
    reference_branch_distribution,
    reference_monte_carlo,
    reference_sample_witness,
)

from kronlab import projectors, protocol
from kronlab.errors import ConsistencyError, InputError
from kronlab.oracles import kron_char, kron_invariant_def
from kronlab.partitions import enumerate_partitions
from kronlab.permutations import all_perms, block_permutations, full_group, wreath_product, young_subgroup
from kronlab.projectors import (
    DiagonalAverage,
    InvariantAverage,
    Isotypic,
    Pipeline,
    StateVector,
    _commuting_translations,
    _FactorKernel,
    _stage_kernel,
    _trace_orbits,
    apply_pipeline,
    check_projector_algebra,
    kron_pipeline,
    pipeline_trace_collapsed,
    pipeline_trace_dense,
    pleth_pipeline,
    truncated_kron_pipeline,
)
from kronlab.protocol import (
    StageRecord,
    _image_rows,
    acceptance_probability,
    run_verifier,
    sample_witness,
    witness_spaces,
)
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
        assert apply_pipeline(one_stage, state).amps == reference_stage(amps, stage, p.n, p.k)
    assert apply_pipeline(p, state).amps == reference_pipeline(p, amps)


@st.composite
def mixed_pipelines(draw, sizes=((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1))):
    """Pipelines of the given (n, k) made of single-factor isotypic stages
    and left and right averages (Young subgroups; at n = 4 also S_2 wr S_2
    and its block permutations), placed before, between and after up to
    two diagonal averages; k = 1 pipelines and some k = 2, 3 ones have
    none, and an empty k = 1 list gets the left S_n average, the same
    operator on one factor.  At n <= 3 the single-factor stages on one factor all commute, so
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
            lambda f, group, side: InvariantAverage(f, side, group),
            factors,
            groups,
            st.sampled_from("LR"),
        ),
    )
    orbit = DiagonalAverage() if k > 1 else InvariantAverage(0, "L", full_group(n))
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
    # one factor stage's element moved by 1 to 3 either way at one element g,
    # or at both g and g^-1 (which keeps the kernel symmetric): each element
    # criterion agrees with applying every pair in both orders
    p = kron_pipeline(*triple)
    kernels = [_stage_kernel(p.n, stage, p.k) for stage in p.stages]
    i = data.draw(st.sampled_from([i for i, kern in enumerate(kernels) if isinstance(kern, _FactorKernel)]))
    g = data.draw(st.integers(0, len(kernels[i].values) - 1))
    delta = data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    changes = {g: delta}
    if data.draw(st.booleans()):
        changes[int(kernels[i].space.inv[g])] = delta  # the same rank when g is an involution
    moved = perturbed(kernels[i], changes)
    cached = projectors._stage_kernel
    with mock.patch.object(projectors, "_stage_kernel", lambda n, s, k: moved if s == p.stages[i] else cached(n, s, k)):
        assert check_projector_algebra(p) == reference_algebra(p)


@given(p=mixed_pipelines())
@SETTINGS
def test_mixed_pipeline_algebra_matches_reference(p):
    # stages on one factor that do not commute, and up to two orbit stages
    assert check_projector_algebra(p) == reference_algebra(p)


@st.composite
def raw_states(draw, nf, k=3):
    """Unreduced numerators on (S_n)^k, n! = nf, keyed by flat index: they
    may be near 2^80 or zero, over a denominator that may be negative."""
    big = st.integers(-(1 << 80), 1 << 80)
    nums = draw(st.dictionaries(st.integers(0, nf**k - 1), st.one_of(st.integers(-9, 9), big), max_size=8))
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


SMALL_PIPELINES = (
    [kron_pipeline(*t) for n in (2, 3) for t in itertools.product(enumerate_partitions(n), repeat=3)]
    + [truncated_kron_pipeline(*t) for t in itertools.product(enumerate_partitions(3), repeat=3)]
    + [pleth_pipeline(d, m, lam) for d, m in ((1, 2), (2, 1), (1, 3), (3, 1)) for lam in enumerate_partitions(d * m)]
)


@given(data=st.data(), p=st.sampled_from(SMALL_PIPELINES))
@SETTINGS
def test_sequential_verifier_matches_reference(data, p):
    nums, den = data.draw(raw_states(factorial(p.n), p.k))
    w = StateVector(p.n, p.k, nums, den)
    assume(not w.is_zero())
    branches, spine, p_accept = reference_branch_distribution(p, w)
    assert repr(run_verifier(p, w, "exact")) == repr(branches)
    assert run_verifier(p, w, "monte_carlo", seed=1, shots=30) == protocol._monte_carlo(spine, p_accept, 1, 30)


WITNESS_PIPELINES = [kron_pipeline(*t) for t in itertools.product(enumerate_partitions(3), repeat=3)] + [
    pleth_pipeline(2, 2, lam) for lam in enumerate_partitions(4)
]


@given(p=st.sampled_from(WITNESS_PIPELINES), which=st.sampled_from(["accept", "reject"]), seed=st.integers(0, 1 << 40))
@SETTINGS
def test_sampled_witness_matches_reference(p, which, seed):
    # the reject route sums the echelon rows without building the basis
    ws = witness_spaces(p)
    if not (ws.dim_accept if which == "accept" else ws.dim_reject):
        with pytest.raises(InputError, match=f"the {which}ing subspace is empty"):
            sample_witness(ws, which, seed)
        return
    assert sample_witness(ws, which, seed) == reference_sample_witness(ws, which, seed)


@given(
    data=st.data(),
    p=st.sampled_from(WITNESS_PIPELINES),
    seeds=st.tuples(st.integers(0, 1 << 30), st.integers(0, 1 << 30)),
    shift=st.sampled_from([0, 24, 60]),
)
@SETTINGS
def test_witness_verdicts_match_references(data, p, seeds, shift):
    # numerators scaled by 2^24 fit one limb but may overflow the int64
    # inner product; scaled by 2^60 they take at least two limbs
    ws = witness_spaces(p)
    a = data.draw(st.integers(-3, 3)) if ws.dim_accept else 0
    r = data.draw(st.integers(-3, 3).filter(lambda r: r or a))
    w = StateVector.zero(p.n, p.k)
    if a:
        w = w.plus(sample_witness(ws, "accept", seeds[0]).scaled(a))
    if r:
        w = w.plus(sample_witness(ws, "reject", seeds[1]).scaled(r))
    w = StateVector(p.n, p.k, {f: v << shift for f, v in w.nums.items()}, w.den)
    if shift == 60:
        assert max(map(abs, w.nums.values())) >= 1 << 53
    expected = reference_acceptance_probability(p, w)
    assert acceptance_probability(p, w) == run_verifier(p, w, "single_shot") == expected
    _, spine, p_accept = reference_branch_distribution(p, w)
    assert p_accept == expected
    mc = run_verifier(p, w, "monte_carlo", seed=seeds[0], shots=30)
    assert mc == reference_monte_carlo(spine, p_accept, seeds[0], 30)


CONDITIONS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 10**400), 1 - Fraction(1, 10**20)]),
    st.fractions(0, 1),
)


@given(probs=st.lists(CONDITIONS, max_size=6), seed=st.integers(0, 1 << 30), shots=st.integers(0, 40))
@example(probs=[], seed=3, shots=7)
@example(probs=[Fraction(1)] * 4, seed=3, shots=7)
@example(probs=[Fraction(1), 1 - Fraction(1, 10**20)], seed=3, shots=7)  # float 1.0: every draw passes
@example(probs=[Fraction(1, 2), Fraction(0)], seed=3, shots=7)
@example(probs=[Fraction(1), Fraction(1, 10**400)], seed=3, shots=7)  # float 0.0: no draw passes
@example(probs=[Fraction(1, 3), Fraction(1), Fraction(2, 3)], seed=3, shots=40)
@SETTINGS
def test_monte_carlo_matches_drawing_reference(probs, seed, shots):
    # spines whose float conditions are all 1.0, or hold a 0.0, are decided
    # without drawing; every other spine draws as the reference does
    spine = [StageRecord("invariant", "accept", q) for q in probs]
    p_accept = prod(probs, start=Fraction(1))
    assert protocol._monte_carlo(spine, p_accept, seed, shots) == reference_monte_carlo(spine, p_accept, seed, shots)


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


@st.composite
def padded_matrices(draw):
    """Low-rank matrices with all-zero rows and copies of their own rows
    spliced in, so the elimination may start with zero rows and clear
    rows on the way."""
    m = draw(low_rank_matrices())
    for _ in range(draw(st.integers(0, 6))):
        extra = [0] * len(m[0]) if draw(st.booleans()) else list(draw(st.sampled_from(m)))
        m.insert(draw(st.integers(0, len(m))), extra)
    return m


@given(m=padded_matrices())
@example(m=[[1, 0], [1, 0], [0, 1], [1, 0]])  # the first pivot clears rows 1 and 3 around live row 2
@SETTINGS
def test_echelon_matches_reference_rref(m):
    reduced, ref_pivots = rref(m)
    rows = [list(row) for row in m]
    pivots = echelon(rows)
    assert pivots == ref_pivots
    scaled = [[Fraction(x, row[pc]) for x in row] for row, pc in zip(rows, pivots)]
    assert scaled == reduced[: len(pivots)]
    assert not any(any(row) for row in rows[len(pivots):])
    assert len(rows) == len(m)
    cols = len(m[0])
    vectors, den = rref_kernel(rows, pivots, cols)
    assert len(vectors) == cols - len(pivots)
    for vec in vectors:
        assert all(sum(row[j] * x for j, x in vec.items()) == 0 for row in m)
    dense = [[Fraction(vec.get(j, 0), den) for j in range(cols)] for vec in vectors]
    assert dense == kernel(reduced, pivots, cols)


@given(m=padded_matrices())
@example(m=[[0, 0], [0, 0]])  # rank 0: nothing is reduced, and only rank 1 is wrong
@SETTINGS
def test_image_rows_match_echelon(m):
    # given the true rank, the rows it reduces give echelon's pivots and
    # reduced rows on the whole matrix; given any other rank, it raises
    rows = [list(row) for row in m]
    pivots = echelon(rows)
    matrix = np.array(m, dtype=np.int64)
    held, held_pivots = _image_rows(matrix, len(pivots))
    assert held_pivots == pivots

    def reduced(rows):
        return [[Fraction(x, row[pc]) for x in row] for row, pc in zip(rows, pivots)]

    assert reduced(held) == reduced(rows)
    for wrong in (len(pivots) - 1, len(pivots) + 1):
        if wrong >= 0:
            with pytest.raises(ConsistencyError):
                _image_rows(matrix, wrong)


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
