import copy
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from collapsed_reference import reference_shifted_class_counts
from algebra_reference import reference_algebra
from groupsum_reference import apply_action, reference_orbit_sizes, reference_pipeline, reference_stage, state_of
from helpers import (
    basis_state,
    cycle_rank,
    from_cycles,
    perturbed,
    reference_conjugation_invariant,
    reference_kernel,
    reference_tables,
)

import kronlab
from kronlab import projectors
from kronlab.characters import cache_settings
from kronlab.errors import BoundExceededError, ConsistencyError, InputError
from kronlab.oracles import kron_char, pleth_wreath, scaled_kron
from kronlab.partitions import enumerate_partitions, hook_dimension
from kronlab.permutations import (
    all_perms,
    block_permutations,
    enumerate_subgroup,
    full_group,
    identity,
    young_subgroup,
)
from kronlab.projectors import (
    COLLAPSED_DEGREE_LIMIT,
    BatchEvaluator,
    DiagonalAverage,
    InvariantAverage,
    Isotypic,
    PermIndex,
    Pipeline,
    StateVector,
    apply_invariant_average,
    apply_isotypic,
    apply_pipeline,
    check_projector_algebra,
    kron_pipeline,
    pipeline_trace_collapsed,
    pipeline_trace_dense,
    pleth_pipeline,
    truncated_kron_pipeline,
    truncated_kron_trace,
    _FactorKernel,
    _basis_batch,
    _commuting_translations,
    _exact_int_array,
    _left_census,
    _shifted_class_counts,
    _stage_kernel,
    _trace_orbits,
)


def random_rational_state(n, k, seed, density=0.5):
    rng = random.Random(seed)
    amps = {}
    for key_parts in _sample_keys(n, k, rng, density):
        c = rng.randint(-5, 5)
        if c:
            amps[key_parts] = Fraction(c)
    if not amps:
        amps[(identity(n),) * k] = Fraction(1)
    return state_of(n, k, amps)


def _sample_keys(n, k, rng, density):
    perms = all_perms(n)
    if k == 1:
        return [(p,) for p in perms if rng.random() < density]
    out = []
    for _ in range(int(density * 40)):
        out.append(tuple(rng.choice(perms) for _ in range(k)))
    return set(out)


class TestActions:
    def test_identity_action(self):
        sv = basis_state(3, (from_cycles(3, [(1, 2)]),))
        assert apply_action(sv, 0, "L", identity(3)).amps == sv.amps

    def test_left_inverse_cancels(self):
        g = from_cycles(3, [(1, 2, 3)])
        sv = random_rational_state(3, 1, seed=2)
        out = apply_action(apply_action(sv, 0, "L", g), 0, "L", from_cycles(3, [(1, 3, 2)]))
        assert out.amps == sv.amps

    def test_left_right_commute(self):
        sv = basis_state(3, (from_cycles(3, [(1, 2, 3)]),))
        a = from_cycles(3, [(1, 2)])
        b = from_cycles(3, [(2, 3)])
        lr = apply_action(apply_action(sv, 0, "L", a), 0, "R", b)
        rl = apply_action(apply_action(sv, 0, "R", b), 0, "L", a)
        assert lr.amps == rl.amps

    def test_norm_preserved(self):
        sv = random_rational_state(3, 2, seed=3)
        out = apply_action(sv, 1, "R", from_cycles(3, [(1, 3)]))
        assert out.norm_sq() == sv.norm_sq()


class TestIsotypicProjector:
    def test_trivial_shape_gives_uniform(self):
        sv = basis_state(3, (from_cycles(3, [(1, 2)]),))
        out = apply_isotypic(sv, 0, (3,))
        assert set(out.amps.values()) == {Fraction(1, 6)}
        assert len(out.amps) == 6

    def test_resolution_of_identity_sparse(self):
        for n in (2, 3):
            psi = random_rational_state(n, 1, seed=n)
            total = StateVector.zero(n, 1)
            for lam in enumerate_partitions(n):
                total = total.plus(apply_isotypic(psi, 0, lam))
            assert total.amps == psi.amps

    def test_resolution_of_identity_kernels(self):
        # sum over shapes of the isotypic kernels is n! times the identity
        from math import factorial

        for n in (2, 3, 4):
            from kronlab.projectors import perm_index

            nf = perm_index(n).nf
            acc = np.zeros((nf, nf))
            for lam in enumerate_partitions(n):
                acc += _stage_kernel(n, Isotypic(0, lam), 1).kernel
            assert np.array_equal(acc, float(factorial(n)) * np.eye(nf))

    def test_idempotent_sparse(self):
        psi = random_rational_state(3, 1, seed=9)
        once = apply_isotypic(psi, 0, (2, 1))
        twice = apply_isotypic(once, 0, (2, 1))
        assert once.amps == twice.amps

    def test_isotypic_trace_is_squared_dimension(self):
        # diagonal of the kernel sums to d(lam)^2 * n! / n!
        for n in (2, 3, 4, 5):
            for lam in enumerate_partitions(n):
                kern = _stage_kernel(n, Isotypic(0, lam), 1)
                trace = Fraction(int(np.trace(kern.kernel)), kern.den)
                assert trace == hook_dimension(lam) ** 2, (n, lam)


class TestInvariantAverageProjector:
    def test_full_left_average_is_uniform(self):
        sv = basis_state(3, (from_cycles(3, [(1, 3)]),))
        stage = InvariantAverage(0, "L", full_group(3))
        out = apply_invariant_average(sv, stage)
        assert set(out.amps.values()) == {Fraction(1, 6)}

    def test_trivial_young_subgroup_is_identity(self):
        sv = random_rational_state(4, 1, seed=5)
        stage = InvariantAverage(0, "L", young_subgroup((1, 1, 1, 1)))
        assert apply_invariant_average(sv, stage).amps == sv.amps

    def test_right_young_average_trace(self):
        # each diagonal entry is 1/|G|; over n! basis states: n!/|G|
        kern = _stage_kernel(3, InvariantAverage(0, "R", young_subgroup((2, 1))), 1)
        assert Fraction(int(np.trace(kern.kernel)), kern.den) == 3

    def test_invariance_of_output(self):
        stage = InvariantAverage(0, "R", young_subgroup((2, 2)))
        psi = random_rational_state(4, 1, seed=7)
        out = apply_invariant_average(psi, stage)
        for g in (from_cycles(4, [(1, 2)]), from_cycles(4, [(3, 4)])):
            assert apply_action(out, 0, "R", g).amps == out.amps


class TestPipelineConstruction:
    def test_kron_stage_list(self):
        p = kron_pipeline((2, 1), (2, 1), (3,))
        assert p.k == 3 and p.n == 3 and len(p.stages) == 7
        kinds = [type(s).__name__ for s in p.stages]
        assert kinds == ["Isotypic"] * 3 + ["DiagonalAverage"] + ["InvariantAverage"] * 3
        assert [s.factor for s in p.stages[:3]] == [0, 1, 2]
        assert [(s.factor, s.side) for s in p.stages[4:]] == [(0, "R"), (1, "R"), (2, "R")]
        assert [s.group.shape for s in p.stages[4:]] == [(2, 1), (2, 1), (3,)]

    def test_pleth_stage_list(self):
        p = pleth_pipeline(2, 3, (4, 2))
        assert p.k == 1 and p.n == 6 and len(p.stages) == 4
        kinds = [type(s).__name__ for s in p.stages]
        assert kinds == ["Isotypic"] + ["InvariantAverage"] * 3
        assert [(s.factor, s.side) for s in p.stages[1:]] == [(0, "L"), (0, "L"), (0, "R")]
        assert p.stages[1].group.kind == "young" and p.stages[1].group.shape == (3, 3)
        assert p.stages[2].group.kind == "block_perms"
        assert p.stages[3].group.shape == (4, 2)

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            kron_pipeline((2, 1), (2, 1), (2, 2))
        with pytest.raises(InputError):
            pleth_pipeline(2, 2, (3, 2))

    def test_diagonal_average_refused_at_one_factor(self):
        # the orbit kernel assumes k >= 2; on one factor the same operator
        # is InvariantAverage(0, "L", full_group(n))
        with pytest.raises(InputError):
            Pipeline(3, 1, (Isotypic(0, (2, 1)), DiagonalAverage()), "diagonal-k1")

    @pytest.mark.parametrize("lam", enumerate_partitions(3))
    def test_stage_on_missing_factor_refused(self, lam):
        # the dense trace dropped a kernel on a factor the pipeline lacks
        # and kept only its denominator, giving 1 for every lam
        with pytest.raises(InputError):
            pipeline_trace_dense(Pipeline(3, 1, (Isotypic(1, lam),), "bad"))

    @pytest.mark.parametrize(
        "index, stage",
        [
            (4, InvariantAverage(0, "R", young_subgroup((1, 1)))),
            (4, InvariantAverage(0, "R", young_subgroup((2, 2)))),
            (0, Isotypic(0, (2, 2))),
        ],
    )
    def test_stage_of_another_degree_refused(self, index, stage):
        # with an S_2 average in place of stage 4 the dense trace read S_2
        # ranks as S_3 ranks and gave 2 (the pipeline's trace is 1), and
        # the collapsed trace raised KeyError; degree 4 raised IndexError
        stages = list(kron_pipeline((2, 1), (2, 1), (2, 1)).stages)
        stages[index] = stage
        for trace in (pipeline_trace_dense, pipeline_trace_collapsed):
            with pytest.raises(InputError):
                trace(Pipeline(3, 3, tuple(stages), "bad"))

    def test_isotypic_stage_refuses_a_non_partition(self):
        # the character table has no row (1, 2): KeyError on every route
        with pytest.raises(InputError):
            Isotypic(0, (1, 2))

    def test_one_factor_average_of_another_degree_refused(self):
        # the S_2 ranks were read as ranks in S_3: dense trace 3
        with pytest.raises(InputError):
            pipeline_trace_dense(Pipeline(3, 1, (InvariantAverage(0, "L", young_subgroup((2,))),), "bad"))

    @pytest.mark.parametrize("n, k", [(3, -1), (3, 0), (0, 3), (0, 1)])
    def test_degenerate_pipeline_refused(self, n, k):
        # k = -1 gave dim 1/6; k = 0 raised IndexError in the dense trace and
        # ValueError in the algebra check, n = 0 ZeroDivisionError
        for route in (pipeline_trace_dense, pipeline_trace_collapsed, check_projector_algebra):
            with pytest.raises(InputError):
                route(Pipeline(n, k, (), "degenerate"))

    def test_unknown_side_refused(self):
        # the dense kernels applied side 'l' as a right average (trace 3)
        # while the collapsed trace refused the same pipeline
        with pytest.raises(InputError):
            pipeline_trace_dense(Pipeline(3, 1, (InvariantAverage(0, "l", young_subgroup((2, 1))),), "bad"))


class TestDenseTrace:
    @pytest.mark.parametrize(
        "p, rows",
        [
            (kron_pipeline((2, 1), (2, 1), (3,)), 2),
            (truncated_kron_pipeline((2, 1), (2, 1), (3,)), 1),
            (kron_pipeline((3, 1), (2, 2), (2, 1, 1)), 4),
            (pleth_pipeline(2, 2, (2, 2)), 2),
            (pleth_pipeline(2, 3, (4, 2)), 2),
        ],
        ids=["kron", "truncated", "kron-n4", "pleth", "pleth-n6"],
    )
    def test_basis_rows_applied(self, p, rows, monkeypatch):
        # one row per orbit of the translations the composed stages commute
        # with, counted as it passes the middle stages (none, for
        # plethysm): the expected orbits are listed by brute force
        expected = reference_orbit_sizes(p)
        assert len(expected) == rows
        reps, sizes = _trace_orbits(p.n, p.k, *_commuting_translations(p))
        assert sorted(sizes.tolist()) == expected and sum(expected) == p.dim
        applied = []
        apply_stages = BatchEvaluator.apply_stages

        def counting(self, x, stage_indices, **kwargs):
            applied.append(len(x))
            return apply_stages(self, x, stage_indices, **kwargs)

        monkeypatch.setattr(BatchEvaluator, "apply_stages", counting)
        pipeline_trace_dense(p)
        assert sum(applied) == rows

    @pytest.mark.parametrize("n", [2, 3])
    def test_kron_matches_oracle(self, n):
        parts = enumerate_partitions(n)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    got = pipeline_trace_dense(kron_pipeline(lam, mu, nu))
                    assert got == kron_char(lam, mu, nu).value, (lam, mu, nu)

    def test_left_translation_equivariance_of_kron_stages(self):
        # the identity behind the dense trace's identity-first rows,
        # checked stage by stage:
        # conjugating by a simultaneous left translation fixes each stage
        p = kron_pipeline((2, 1), (2, 1), (2, 1))
        ev = BatchEvaluator(p)
        dim = p.dim
        rng = np.random.default_rng(0)
        cols = rng.choice(dim, size=24, replace=False)
        from kronlab.projectors import perm_index

        space = perm_index(3)
        for tau_idx in (1, 3, 5):
            tau = all_perms(3)[tau_idx]
            # build the translation as a one-element "average"
            batch = _basis_batch(dim, cols)
            translate = _translation_batch(space, tau, batch, k=3)
            for idx in range(len(p.stages)):
                a, _ = ev.apply_stages(translate.copy(), [idx])
                b, _ = ev.apply_stages(batch.copy(), [idx])
                b = _translation_batch(space, tau, b, k=3)
                assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "p, right",
        [(kron_pipeline((2, 1), (2, 1), (3,)), ((2, 1), (2, 1), (3,))), (pleth_pipeline(2, 2, (2, 2)), ((2, 2),))],
        ids=["kron", "pleth"],
    )
    def test_right_translation_equivariance_of_stages(self, p, right):
        # the identity behind the dense trace's orbits on the right, checked
        # stage by stage: right translation on factor f by a member of its
        # right group commutes with each stage
        ev = BatchEvaluator(p)
        cols = np.random.default_rng(1).choice(p.dim, size=min(24, p.dim), replace=False)
        batch = _basis_batch(p.dim, cols)
        from kronlab.projectors import perm_index

        space = perm_index(p.n)
        for f, shape in enumerate(right):
            for h in enumerate_subgroup(young_subgroup(shape)):
                translate = _right_translation_batch(space, f, h, batch, p.k)
                for idx in range(len(p.stages)):
                    a, _ = ev.apply_stages(translate, [idx])
                    b, _ = ev.apply_stages(batch, [idx])
                    assert np.array_equal(a, _right_translation_batch(space, f, h, b, p.k))

    def test_right_groups_on_one_factor_intersect(self):
        # two right averages on one factor: only {id, (1 2)}, their
        # intersection, commutes with the product of their group sums.
        # Neither group alone is a symmetry here, and each alone would make
        # one of the fractional traces below integral.  On the left,
        # <(1 2), (3 4)> normalises S_(2,1,1) and so commutes with its sum
        def left(shape):
            return InvariantAverage(0, "L", young_subgroup(shape))

        def right(shape):
            return InvariantAverage(0, "R", young_subgroup(shape))

        def reference_trace(p):
            return sum(reference_pipeline(p, {(g,): Fraction(1)}).get((g,), 0) for g in all_perms(4))

        p = Pipeline(4, 1, (Isotypic(0, (4,)), left((2, 1, 1)), right((3, 1)), right((2, 2))), "intersect")
        reps, _ = _trace_orbits(4, 1, *_commuting_translations(p))
        assert len(reps) == len(reference_orbit_sizes(p)) == 4
        assert pipeline_trace_dense(p) == reference_trace(p) == 1
        for shape, expected in (((2, 1, 1), Fraction(5, 3)), ((3, 1), Fraction(4, 3))):
            q = Pipeline(4, 1, (left(shape), right((3, 1)), right((2, 2))), "fractional")
            assert reference_trace(q) == expected
            with pytest.raises(ConsistencyError):
                pipeline_trace_dense(q)

    def test_runs_split_at_orbit_stages_and_products_fixed_by_value(self):
        # Left averages on one factor on either side of an orbit stage are
        # separate runs: S_(2,2) and the block permutations compose to the
        # S_2 wr S_2 average, but with the orbit stage between them only
        # what fixes each counts, and the wider group makes this trace of 1
        # read 5/6.  And x must fix a product's values, not only its
        # support: S_(3,1) S_(2,2) S_(3,1) has support S_4, and taking all
        # of S_4 turns this trace of 5/3 into 2.
        def avg(group, f, side):
            return InvariantAverage(f, side, group)

        orbit = DiagonalAverage()
        right31 = [avg(young_subgroup((3, 1)), f, "R") for f in (0, 1)]
        split = Pipeline(
            4, 2, (avg(young_subgroup((2, 2)), 0, "L"), orbit, avg(block_permutations(2, 2), 0, "L"), *right31), "split"
        )
        right = [avg(young_subgroup(s), 0, "R") for s in ((3, 1), (2, 2), (3, 1))]
        composed = Pipeline(4, 1, (avg(young_subgroup((2, 1, 1)), 0, "L"), *right), "composed")
        for p, trace in ((split, 1), (composed, Fraction(5, 3))):
            ev = BatchEvaluator(p)
            full = _exact_int_array(ev.apply(_basis_batch(p.dim, np.arange(p.dim))))
            assert Fraction(int(np.trace(full)), ev.denominator) == trace
            reps, _ = _trace_orbits(p.n, p.k, *_commuting_translations(p))
            assert len(reps) == len(reference_orbit_sizes(p))
        assert pipeline_trace_dense(split) == 1
        with pytest.raises(ConsistencyError):
            pipeline_trace_dense(composed)

    def test_pleth_dense_matches_oracle(self):
        for lam in enumerate_partitions(4):
            got = pipeline_trace_dense(pleth_pipeline(2, 2, lam))
            assert got == pleth_wreath(2, 2, lam).value

    def test_pleth_degenerate_block_count(self):
        # d = 1: the wreath product is all of S_m, so only the trivial
        # shape survives
        for lam in enumerate_partitions(3):
            expected = 1 if lam == (3,) else 0
            assert pipeline_trace_dense(pleth_pipeline(1, 3, lam)) == expected

    def test_left_average_factorization(self):
        # averaging over the block Young subgroup and then over the block
        # permutations is exactly the wreath-product average: the product
        # of the two integer kernels equals the wreath kernel
        from kronlab.permutations import block_permutations, wreath_product

        for m, d in [(2, 2), (2, 3), (3, 2)]:
            ky = _stage_kernel(
                m * d, InvariantAverage(0, "L", young_subgroup((m,) * d)), 1
            )
            kb = _stage_kernel(
                m * d, InvariantAverage(0, "L", block_permutations(m, d)), 1
            )
            kw = _stage_kernel(
                m * d, InvariantAverage(0, "L", wreath_product(m, d)), 1
            )
            assert ky.den * kb.den == kw.den
            assert np.array_equal(ky.kernel @ kb.kernel, kw.kernel)

    def test_bound_exceeded(self):
        with pytest.raises(BoundExceededError):
            pipeline_trace_dense(kron_pipeline((4, 1), (4, 1), (4, 1)))

    def test_degenerate_degree_one(self):
        p = kron_pipeline((1,), (1,), (1,))
        assert pipeline_trace_dense(p) == 1
        assert pipeline_trace_collapsed(p) == 1
        assert pipeline_trace_dense(pleth_pipeline(1, 1, (1,))) == 1

    def test_float_exactness_guard_trips(self):
        # the l1-norm bound must refuse amplitudes that could leave the
        # exactly-representable integer range
        p = kron_pipeline((2, 1), (2, 1), (2, 1))
        ev = BatchEvaluator(p)
        with pytest.raises(BoundExceededError):
            ev.apply(_basis_batch(p.dim, np.arange(4)), start_max_abs=1 << 53)

    def test_non_commuting_stages_in_pipeline_order(self):
        # S_(3,1) and S_(2,2) averages do not commute, so the kernel
        # products are not symmetric: the ket must take their columns and
        # the bra their rows.  Reading either the other way gives 4/3
        # here, and a fractional trace is refused, not rounded.
        def left(shape):
            return InvariantAverage(0, "L", young_subgroup(shape))

        def reference_trace(p):
            return sum(reference_pipeline(p, {(g,): Fraction(1)}).get((g,), 0) for g in all_perms(4))

        p = Pipeline(4, 1, (left((3, 1)), left((2, 2)), left((2, 2)), left((3, 1))), "non-commuting")
        assert pipeline_trace_dense(p) == reference_trace(p) == 2
        right = InvariantAverage(0, "R", young_subgroup((3, 1)))
        q = Pipeline(4, 1, (left((3, 1)), left((3, 1)), left((2, 2)), right), "fractional")
        assert reference_trace(q) == Fraction(4, 3)
        with pytest.raises(ConsistencyError):
            pipeline_trace_dense(q)

    def test_bra_takes_transposed_elements(self, monkeypatch):
        # every stage's element has v(g^-1) = v(g), so only an asymmetric
        # one shows that the bra applies K^T: (2,1)'s element moved by 3 at
        # a 3-cycle g gives trace (v * v)(e) / 3! = 2, and K in place of
        # K^T would give 21/6.  Left multiplications have a constant
        # diagonal, so the one-orbit reduction still holds
        p = Pipeline(3, 1, (Isotypic(0, (2, 1)),) * 2, "isotypic^2")
        _replace_kernel(monkeypatch, p.stages[0], perturbed(_stage_kernel(3, p.stages[0], 1), {cycle_rank(3, 1, 2, 3): 3}))
        ev = BatchEvaluator(p)
        full = _exact_int_array(ev.apply(_basis_batch(p.dim, np.arange(p.dim))))
        assert pipeline_trace_dense(p) == Fraction(int(np.trace(full)), ev.denominator) == 2

    def test_non_commuting_stages_around_the_orbit(self):
        # around a middle stage the per-factor products must also be taken
        # in pipeline order: reversing both gives a fractional trace here.
        # The reference applies every stage to every basis vector.
        def left(shape, f):
            return InvariantAverage(f, "L", young_subgroup(shape))

        stages = (
            left((3, 1), 1),
            left((2, 2), 1),
            DiagonalAverage(),
            left((2, 2), 0),
            left((3, 1), 1),
        )
        p = Pipeline(4, 2, stages, "non-commuting")
        ev = BatchEvaluator(p)
        full = _exact_int_array(ev.apply(_basis_batch(p.dim, np.arange(p.dim))))
        assert pipeline_trace_dense(p) == Fraction(int(np.trace(full)), ev.denominator) == 2

    def test_dense_trace_guard_covers_every_kernel(self):
        # each half of the kernels stays under 2^53 but their l1 product
        # reaches it: the trace is refused before any kernel product or
        # basis row is built
        iso = Isotypic(0, (3, 2, 1))
        p = Pipeline(6, 1, (iso,) * 6, "isotypic^6")
        ev = BatchEvaluator(p)  # kernels built and cached outside the trace
        l1 = ev.kernels[0].l1
        assert l1**3 < 1 << 53 <= l1**6
        tracemalloc.start()
        try:
            with pytest.raises(BoundExceededError):
                pipeline_trace_dense(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # one 720 x 720 float64 product is 4 MB

    def test_dense_trace_builds_no_factor_kernel(self, monkeypatch):
        # the ket and bra take a factor's first kernel as columns of its
        # element and later kernels as sums over the element's support, so
        # the traces stay exact with the nf x nf materialiser refused, and a
        # degree-6 plethysm trace peaks under one 720 x 720 int16 array
        # (1.04 MB)
        def refuse(kern):
            raise AssertionError(f"an nf x nf kernel was built for factor {kern.factor}")

        monkeypatch.setattr(_FactorKernel, "kernel", property(refuse))
        for lam in enumerate_partitions(6):
            p = pleth_pipeline(2, 3, lam)
            assert pipeline_trace_dense(p) == pleth_wreath(2, 3, lam).value
            tracemalloc.start()
            try:
                pipeline_trace_dense(p)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000, lam
        triple = ((3, 1), (2, 2), (2, 1, 1))
        assert pipeline_trace_dense(kron_pipeline(*triple)) == kron_char(*triple).value

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.5, 1e300])
    def test_drift_check_refuses_non_integers(self, bad):
        x = np.arange(12, dtype=np.float64).reshape(3, 4)
        assert np.array_equal(_exact_int_array(x), x)
        x[1, 2] = bad
        with pytest.raises(ConsistencyError):
            _exact_int_array(x)

    def test_matches_sparse_application(self):
        # the float64 batch path and the definitional group sums on
        # exact-rational states are the same operator
        p = kron_pipeline((2,), (1, 1), (1, 1))
        ev = BatchEvaluator(p)
        out = ev.apply(_basis_batch(p.dim, np.arange(p.dim)))
        ints = _exact_int_array(out)
        perms = all_perms(2)

        def key_of(flat):
            digits = []
            for _ in range(3):
                digits.append(flat % 2)
                flat //= 2
            return tuple(perms[i] for i in reversed(digits))

        for col in range(p.dim):
            sparse_out = reference_pipeline(p, {key_of(col): Fraction(1)})
            for col2 in range(p.dim):
                expected = sparse_out.get(key_of(col2), Fraction(0))
                assert Fraction(int(ints[col, col2]), ev.denominator) == expected


def _translation_batch(space, tau, batch, k):
    """Apply the simultaneous left translation by tau to batch rows."""
    nf = space.nf
    ti = all_perms(space.n).index(tau)
    lm = space.mult[ti]
    dim = nf**k
    src = np.arange(dim, dtype=np.int64)
    digits = []
    rem = src
    for _ in range(k):
        digits.append(rem % nf)
        rem = rem // nf
    digits = digits[::-1]
    dest = lm[digits[0]]
    for f in range(1, k):
        dest = dest * nf + lm[digits[f]]
    out = np.zeros_like(batch)
    out[:, dest] = batch[:, src]
    return out


def _right_translation_batch(space, f, h, batch, k):
    """Apply right translation by h on factor f to batch rows."""
    nf = space.nf
    digits = list(np.unravel_index(np.arange(nf**k), (nf,) * k))
    digits[f] = space.mult[digits[f], all_perms(space.n).index(h)]
    out = np.zeros_like(batch)
    out[:, np.ravel_multi_index(digits, (nf,) * k)] = batch
    return out


class TestCollapsedTrace:
    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_dense_kron(self, n):
        parts = enumerate_partitions(n)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    p = kron_pipeline(lam, mu, nu)
                    assert pipeline_trace_collapsed(p) == pipeline_trace_dense(p)

    def test_agrees_with_dense_pleth(self):
        for lam in enumerate_partitions(4):
            p = pleth_pipeline(2, 2, lam)
            assert pipeline_trace_collapsed(p) == pipeline_trace_dense(p)

    def test_n4_sample_against_oracle(self):
        triples = [
            ((3, 1), (3, 1), (2, 2)),
            ((2, 2), (2, 1, 1), (3, 1)),
            ((2, 1, 1), (2, 1, 1), (2, 1, 1)),
            ((4,), (2, 2), (2, 2)),
        ]
        for lam, mu, nu in triples:
            p = kron_pipeline(lam, mu, nu)
            assert pipeline_trace_collapsed(p) == kron_char(lam, mu, nu).value

    def test_n4_full_against_oracle(self):
        parts = enumerate_partitions(4)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    p = kron_pipeline(lam, mu, nu)
                    assert pipeline_trace_collapsed(p) == kron_char(lam, mu, nu).value

    def test_n5_against_oracle(self):
        lam = (3, 1, 1)
        p = kron_pipeline(lam, lam, lam)
        assert pipeline_trace_collapsed(p) == kron_char(lam, lam, lam).value

    def test_n9_sample_against_oracle(self):
        assert pipeline_trace_collapsed(kron_pipeline(*[(4, 4, 1)] * 3)) == 2
        parts = enumerate_partitions(9)
        rng = random.Random(9)
        for lam, mu, nu in (rng.sample(parts, 3) for _ in range(8)):
            p = kron_pipeline(lam, mu, nu)
            assert pipeline_trace_collapsed(p) == kron_char(lam, mu, nu).value

    def test_degree_bound_before_anything_is_built(self, tmp_path):
        n = COLLAPSED_DEGREE_LIMIT + 1
        pipelines = [kron_pipeline((n - 1, 1), (n - 1, 1), (n,)), pleth_pipeline(2, n // 2, (n,))]
        built = _shifted_class_counts.cache_info().currsize
        with cache_settings(tmp_path):
            tracemalloc.start()
            try:
                for p in pipelines:
                    with pytest.raises(BoundExceededError):
                        pipeline_trace_collapsed(p)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 1 << 20
        assert _shifted_class_counts.cache_info().currsize == built
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "groups",
        [
            (),
            (young_subgroup((2, 2)),),
            (block_permutations(2, 2), young_subgroup((2, 2))),
            (young_subgroup((2, 2)), block_permutations(1, 4)),
            (full_group(4), full_group(4)),
        ],
    )
    def test_other_left_stage_lists_refused(self, groups):
        with pytest.raises(InputError):
            _left_census(4, groups)

    def test_one_factor_left_average_refused_at_three_factors(self):
        # the template's left averages act on one factor only when k = 1
        with pytest.raises(InputError, match="does not fit the collapsed template"):
            pipeline_trace_collapsed(_mutated_pipeline())


class TestVectorisedTables:
    """The numpy-built class counts and index tables against one-call-per-
    permutation scalar code."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_shifted_class_counts(self, n):
        assert np.array_equal(_shifted_class_counts(n), reference_shifted_class_counts(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_perm_index_tables(self, n):
        space = PermIndex(n)
        mult, inv, type_index = reference_tables(n)
        assert np.array_equal(space.mult, mult)
        assert np.array_equal(space.inv, inv)
        assert np.array_equal(space.type_index, type_index)
        assert np.array_equal(space.left, mult[:, inv])
        assert np.array_equal(space.right, mult[inv, :].T)

    def test_perm_index_dtypes(self):
        # ranks fit int16 (n! <= 720) and class indices uint8 (p(n) <= 11)
        space = projectors.perm_index(6)
        assert (space.mult.dtype, space.inv.dtype, space.type_index.dtype) == (np.int16, np.int16, np.uint8)
        assert (space.left.dtype, space.right.dtype) == (np.int16, np.int16)

    def test_perm_index_transient(self):
        # mult is built in row blocks: beyond the tables it keeps (the
        # 720 x 720 int16 mult is 1.0 MB), at most 2 MB is live at once
        tracemalloc.start()
        try:
            space = PermIndex(6)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert space.mult.nbytes < kept
        assert peak - kept < 2 << 20


def _template_pipelines(n):
    """Every Kronecker pipeline at degree n <= 4 and every plethysm
    pipeline with md = n <= 6."""
    pipelines = [kron_pipeline(*t) for t in itertools.product(enumerate_partitions(n), repeat=3) if n <= 4]
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return pipelines + [pleth_pipeline(d, n // d, lam) for d in divisors for lam in enumerate_partitions(n)]


def _single_factor_stages(n):
    """(k, stage) for the single-factor stages of the template pipelines."""
    return {(p.k, s) for p in _template_pipelines(n) for s in p.stages if not isinstance(s, DiagonalAverage)}


class TestStageKernels:
    """Stage elements against kernels built entry by entry from the scalar
    reference tables, as the per-degree quotient-table gather built them."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_kernels_match_reference(self, n):
        for k, stage in _single_factor_stages(n):
            kern = _stage_kernel(n, stage, k)
            expected = reference_kernel(n, stage)
            assert kern.values.shape == (factorial(n),), stage
            assert np.array_equal(kern.values[kern.table], expected), stage
            assert np.array_equal(kern.transposed().values[kern.table], expected.T), stage
            assert kern.values.dtype == np.min_scalar_type(-int(np.abs(expected).max()) - 1), stage
            assert kern.l1 == np.abs(expected).sum(axis=1).max(), stage

    @pytest.mark.parametrize("n", range(1, 7))
    def test_element_algebra_matches_matrices(self, n):
        # every decision made on elements against the same decision on the
        # reference kernels: K K = den K, K = K^T, K_i K_j = K_j K_i for the
        # stages on one factor, and K[g t, g s] = K[t, s] against the
        # diagonal average; each stage and pair once
        matrix = {}
        for k, stage in _single_factor_stages(n):
            kern = _stage_kernel(n, stage, k)
            m = matrix[stage] = reference_kernel(n, stage).astype(np.float64)
            assert kern.idempotent() == np.array_equal(m @ m, kern.den * m), stage
            assert kern.symmetric() == np.array_equal(m, m.T), stage
            if k > 1:
                diagonal = _stage_kernel(n, DiagonalAverage(), k)
                assert kern.commutes(diagonal) == reference_conjugation_invariant(n, m), stage
        pairs = set()
        for p in _template_pipelines(n):
            stages = [s for s in p.stages if not isinstance(s, DiagonalAverage)]
            pairs |= {(p.k, a, b) for a, b in itertools.combinations(stages, 2) if a.factor == b.factor}
        for k, a, b in pairs:
            ab = matrix[a] @ matrix[b]
            # K_b K_a = (K_a K_b)^T when both are symmetric, as every template kernel is
            ba = ab.T if all(np.array_equal(matrix[s], matrix[s].T) for s in (a, b)) else matrix[b] @ matrix[a]
            same = np.array_equal(ab, ba)
            assert _stage_kernel(n, a, k).commutes(_stage_kernel(n, b, k)) == same, (a, b)

    def test_kernels_are_read_only(self):
        # the drift check runs once per kernel object, so its arrays may
        # not change after it is built
        p = kron_pipeline((2, 1), (2, 1), (2, 1))
        isotypic, orbit, average = (_stage_kernel(3, p.stages[i], 3) for i in (0, 3, 4))
        for array in (isotypic.values, average.values, orbit.back, orbit.gather):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_isotypic_kernel_transient(self):
        # the cached kernel is the 720 values d chi(g) in int16, with no
        # 720 x 720 array on the way
        stage = Isotypic(0, (3, 2, 1))
        _stage_kernel(6, stage, 1)  # builds the tables and the character table
        tracemalloc.start()
        try:
            kern = _stage_kernel.__wrapped__(6, stage, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kern.values.dtype == np.int16 and kern.values.shape == (720,)
        assert peak < 100_000


class TestTruncatedPipeline:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_scaled_kron(self, n):
        parts = enumerate_partitions(n)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    assert truncated_kron_trace(lam, mu, nu) == scaled_kron(lam, mu, nu)

    def test_collapsed_method(self):
        assert pipeline_trace_collapsed(truncated_kron_pipeline((2, 1), (2, 1), (2, 1))) == 8

    def test_rescaling_gap(self):
        lam = (2, 1)
        assert truncated_kron_trace(lam, lam, lam) == 8
        assert pipeline_trace_dense(kron_pipeline(lam, lam, lam)) == 1


def _mutated_pipeline():
    # negative control: a left-acting average over a non-normal subgroup
    # on one factor cannot commute with the simultaneous left average
    base = kron_pipeline((2, 1), (2, 1), (2, 1))
    stage = InvariantAverage(0, "L", young_subgroup((2, 1)))
    return Pipeline(3, 3, base.stages[:4] + (stage,) + base.stages[5:], "mutated")


def _two_orbit_pipeline():
    # no template repeats the orbit stage, but the evaluator admits it
    base = kron_pipeline((2, 1), (2, 1), (2, 1))
    return Pipeline(3, 3, base.stages + (base.stages[3],), "two-orbit")


def _replace_kernel(monkeypatch, stage, kernel):
    cached = projectors._stage_kernel
    monkeypatch.setattr(
        projectors, "_stage_kernel", lambda n, s, k: kernel if s == stage else cached(n, s, k)
    )


def _skewed_kernel(p, index):
    # moved at the 3-cycle (1 2 3) but not at its inverse: K != K^T
    return perturbed(_stage_kernel(p.n, p.stages[index], p.k), {cycle_rank(p.n, 1, 2, 3): 1})


class TestProjectorAlgebra:
    @pytest.fixture(autouse=True)
    def fresh_kernels(self):
        """The drift pass runs once per kernel object per process; rebuild
        the kernels so each test reaches ones not checked yet."""
        _stage_kernel.cache_clear()

    def test_all_checks_pass_exhaustively_n3(self):
        report = check_projector_algebra(kron_pipeline((2, 1), (2, 1), (2, 1)))
        assert report.mode == "exhaustive"
        assert report.ok
        assert all(report.stage_idempotent) and all(report.stage_symmetric)
        assert len(report.pair_commutes) == 21
        assert all(report.pair_commutes.values())

    def test_n2_pipelines_pass(self):
        for lam in enumerate_partitions(2):
            for mu in enumerate_partitions(2):
                report = check_projector_algebra(kron_pipeline(lam, mu, (2,)))
                assert report.ok

    def test_pleth_pipeline_passes(self):
        report = check_projector_algebra(pleth_pipeline(2, 2, (2, 2)))
        assert report.ok

    def test_sampled_mode_at_n4(self):
        report = check_projector_algebra(kron_pipeline((3, 1), (2, 2), (2, 1, 1)))
        assert report.mode == "sampled"
        assert report.ok

    def test_mutated_pipeline_fails_commutation(self):
        report = check_projector_algebra(_mutated_pipeline())
        assert not report.ok
        bad_pairs = [pair for pair, ok in report.pair_commutes.items() if not ok]
        assert (3, 4) in bad_pairs  # the left average vs the mutated stage

    @pytest.mark.parametrize(
        "p",
        [
            pleth_pipeline(2, 2, (2, 2)),
            kron_pipeline((3, 1), (2, 2), (2, 1, 1)),
            kron_pipeline((2, 1, 1), (2, 1, 1), (2, 1, 1)),
            _mutated_pipeline(),
            _two_orbit_pipeline(),
            pleth_pipeline(2, 3, (4, 2)),
        ],
        ids=["pleth", "sampled-n4", "sampled-n4-211", "mutated", "two-orbit", "pleth-n6"],
    )
    def test_report_matches_both_orders_reference(self, p):
        assert check_projector_algebra(p) == reference_algebra(p)

    def test_report_matches_both_orders_reference_n3(self):
        parts = enumerate_partitions(3)
        for triple in itertools.product(parts, repeat=3):
            p = kron_pipeline(*triple)
            assert check_projector_algebra(p) == reference_algebra(p), triple

    def test_asymmetric_kernel_applies_both_orders(self, monkeypatch):
        # one stage's element moved at a 3-cycle g but not at g^-1, so its
        # kernel is asymmetric: the element criteria still give the
        # both-orders reference's report.  On the left isotypic stage 0
        # the element is no longer constant on conjugacy classes, so it
        # stops commuting with the diagonal average but still commutes with
        # the right average on its factor; the right average 4 still
        # commutes with every stage
        p = kron_pipeline((2, 1), (2, 1), (2, 1))
        for index in (0, 4):
            with monkeypatch.context() as m:
                _replace_kernel(m, p.stages[index], _skewed_kernel(p, index))
                report = check_projector_algebra(p)
                assert report == reference_algebra(p)
            assert report.mode == "exhaustive" and not report.stage_symmetric[index]
            others = {pair: ok for pair, ok in report.pair_commutes.items() if index in pair}
            if index == 0:
                assert not others.pop((0, 3)) and others[(0, 4)]
            assert all(others.values())

    def test_symmetric_kernel_that_does_not_commute(self, monkeypatch):
        # the block-permutation element moved at a 3-cycle g and at g^-1
        # stays symmetric, yet no longer commutes with the block Young
        # average on the same side: v_i * v_j = v_j * v_i sees it
        p = pleth_pipeline(2, 2, (2, 2))
        kern = _stage_kernel(4, p.stages[2], 1)
        _replace_kernel(monkeypatch, p.stages[2], perturbed(kern, {cycle_rank(4, 1, 2, 3): 1, cycle_rank(4, 1, 3, 2): 1}))
        report = check_projector_algebra(p)
        assert report == reference_algebra(p)
        assert report.stage_symmetric[2] and not report.pair_commutes[(1, 2)]

    def test_exhaustive_mode_never_imports_numpy_random(self):
        # numpy loads numpy.random on first touch; only sampled mode draws
        code = (
            "import sys, kronlab\n"
            "from kronlab.projectors import check_projector_algebra, kron_pipeline\n"
            "assert check_projector_algebra(kron_pipeline((2, 1), (2, 1), (2, 1))).mode == 'exhaustive'\n"
            "print('numpy.random' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(kronlab.__file__).resolve().parents[1]))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert result.stdout.strip() == "False"

    @pytest.mark.parametrize(
        "p, calls",
        [
            # each kernel once: the orbit stage's idempotence is decided on its tables
            (kron_pipeline((2, 1), (2, 1), (2, 1)), [[0], [1], [2], [3], [4], [5], [6]]),
            (kron_pipeline((3, 1), (2, 2), (2, 1, 1)), [[0], [1], [2], [3], [4], [5], [6]]),
            (pleth_pipeline(2, 2, (2, 2)), [[0], [1], [2], [3]]),
            # two orbit stages are one operator: their pair applies nothing,
            # and stage 7 is stage 3's kernel, already checked
            (_two_orbit_pipeline(), [[0], [1], [2], [3], [4], [5], [6]]),
        ],
        ids=["n3", "sampled-n4", "pleth", "two-orbit"],
    )
    def test_one_evaluator_pass_per_stage(self, monkeypatch, p, calls):
        seen = []
        apply_stages = BatchEvaluator.apply_stages

        def counted(self, x, stage_indices, **kwargs):
            seen.append(list(stage_indices))
            return apply_stages(self, x, stage_indices, **kwargs)

        monkeypatch.setattr(BatchEvaluator, "apply_stages", counted)
        assert check_projector_algebra(p).ok
        assert seen == calls
        seen.clear()
        assert check_projector_algebra(p).ok  # every kernel is checked now
        assert seen == []

    def test_factor_stage_on_wrong_factor_raises(self, monkeypatch):
        # every stage kernel still forms a commuting projector family, so
        # only comparing the evaluator with the kernel's lift sees this
        apply = _FactorKernel.apply

        def wrong_factor(self, x, k, nf):
            moved = copy.copy(self)
            moved.factor = (self.factor + 1) % k
            return apply(moved, x, k, nf)

        monkeypatch.setattr(_FactorKernel, "apply", wrong_factor)
        with pytest.raises(ConsistencyError, match="differs from its kernel"):
            check_projector_algebra(kron_pipeline((2, 1), (2, 1), (2, 1)))

    def test_stray_entry_outside_the_lift_raises(self, monkeypatch):
        # the lift's nonzero entries are read and the rest only counted, so
        # one extra entry outside them must still be drift: row 0 is e_0,
        # whose lift on factor 0 lies where the other digits are 0
        apply = _FactorKernel.apply

        def stray(self, x, k, nf):
            out = apply(self, x, k, nf)
            out[0, -1] += 1
            return out

        monkeypatch.setattr(_FactorKernel, "apply", stray)
        with pytest.raises(ConsistencyError, match="stage 0 .* differs from its kernel"):
            check_projector_algebra(kron_pipeline((2, 1), (2, 1), (2, 1)))

    @pytest.mark.parametrize(
        "p, index", [(kron_pipeline((2, 1), (2, 1), (2, 1)), 6), (pleth_pipeline(2, 2, (2, 2)), 3)]
    )
    def test_factor_stage_with_untransposed_kernel_raises(self, monkeypatch, p, index):
        # all template kernels are symmetric, so one is skewed first; the
        # skewed pipeline alone reports failures but raises nothing
        _replace_kernel(monkeypatch, p.stages[index], _skewed_kernel(p, index))
        assert not check_projector_algebra(p).ok

        def untransposed(self, x, k, nf):
            post = nf ** (k - self.factor - 1)
            return np.matmul(self.kernel.T, x.reshape(-1, nf, post)).reshape(x.shape)

        monkeypatch.setattr(_FactorKernel, "apply", untransposed)
        # the skewed kernel passed its drift check above; a fresh one has not
        _replace_kernel(monkeypatch, p.stages[index], _skewed_kernel(p, index))
        with pytest.raises(ConsistencyError, match=f"stage {index} .* differs from its kernel"):
            check_projector_algebra(p)

    def test_rebuilt_kernel_is_checked_again(self, monkeypatch):
        # a kernel rebuilt after the cache is cleared is a new object, so
        # its drift pass runs again and sees an evaluator patched since
        p = kron_pipeline((2, 1), (2, 1), (2, 1))
        assert check_projector_algebra(p).ok
        apply = _FactorKernel.apply

        def stray(self, x, k, nf):
            out = apply(self, x, k, nf)
            out[0, -1] += 1
            return out

        monkeypatch.setattr(_FactorKernel, "apply", stray)
        assert check_projector_algebra(p).ok  # every kernel passed before the patch
        _stage_kernel.cache_clear()
        with pytest.raises(ConsistencyError, match="stage 0 .* differs from its kernel"):
            check_projector_algebra(p)

    def test_corrupted_copy_of_a_checked_kernel_raises(self, monkeypatch):
        # copy.copy keeps the attributes but not the verdict: the check is
        # recorded per object, not on the kernel
        p = kron_pipeline((2, 1), (2, 1), (2, 1))
        assert check_projector_algebra(p).ok
        orbit = copy.copy(_stage_kernel(3, p.stages[3], 3))
        back = orbit.back.copy()
        back[[0, 1]] = back[[1, 0]]
        orbit.back = back
        _replace_kernel(monkeypatch, p.stages[3], orbit)
        with pytest.raises(ConsistencyError, match="stage 3 .* differs from its kernel"):
            check_projector_algebra(p)

    def test_reports_match_reference_with_cold_and_warm_kernels_n3(self):
        triples = list(itertools.product(enumerate_partitions(3), repeat=3))
        for triple in triples:
            _stage_kernel.cache_clear()
            p = kron_pipeline(*triple)
            assert check_projector_algebra(p) == reference_algebra(p), triple
        for triple in triples:
            p = kron_pipeline(*triple)
            assert check_projector_algebra(p) == reference_algebra(p), triple

    @pytest.mark.parametrize("array", ["back", "gather"])
    def test_corrupted_orbit_kernel_raises(self, monkeypatch, array):
        # swap two entries that belong to different orbits
        p = kron_pipeline((2, 1), (2, 1), (2, 1))
        orbit = copy.copy(_stage_kernel(3, p.stages[3], 3))
        index = getattr(orbit, array).copy()
        index.flat[[0, 1]] = index.flat[[1, 0]]
        setattr(orbit, array, index)
        assert not orbit.idempotent() and not orbit.symmetric()  # decided on the tables alone
        _replace_kernel(monkeypatch, p.stages[3], orbit)
        with pytest.raises(ConsistencyError, match="stage 3 .* differs from its kernel"):
            check_projector_algebra(p)

    def test_stage_order_irrelevant_for_composition(self):
        # commuting stages: shuffled application orders give the same
        # composed operator on every basis vector, for every triple at n=3
        rng = random.Random(0)
        parts = enumerate_partitions(3)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    p = kron_pipeline(lam, mu, nu)
                    ev = BatchEvaluator(p)
                    base = _basis_batch(p.dim, np.arange(p.dim))
                    ref, den = ev.apply_stages(base.copy(), range(len(p.stages)))
                    orders = [list(reversed(range(len(p.stages))))]
                    for _ in range(2):
                        order = list(range(len(p.stages)))
                        rng.shuffle(order)
                        orders.append(order)
                    for order in orders:
                        out, den2 = ev.apply_stages(base.copy(), order)
                        assert den == den2
                        assert np.array_equal(_exact_int_array(out), _exact_int_array(ref))

    def test_stage_order_irrelevant_n4_sampled(self):
        p = kron_pipeline((3, 1), (2, 2), (2, 1, 1))
        ev = BatchEvaluator(p)
        rng_np = np.random.default_rng(3)
        cols = np.sort(rng_np.choice(p.dim, size=160, replace=False))
        base = _basis_batch(p.dim, cols)
        ref, _ = ev.apply_stages(base.copy(), range(len(p.stages)))
        rng = random.Random(3)
        for _ in range(3):
            order = list(range(len(p.stages)))
            rng.shuffle(order)
            out, _ = ev.apply_stages(base.copy(), order)
            assert np.array_equal(_exact_int_array(out), _exact_int_array(ref))


class TestOrbitKernel:
    def test_full_left_stage_matches_reference_n4(self):
        # the orbit sum against the element-by-element group sum, on
        # seeded basis states and one random rational state
        stage = kron_pipeline((3, 1), (2, 2), (2, 1, 1)).stages[3]
        rng = random.Random(4)
        perms = all_perms(4)
        sources = [{tuple(rng.choice(perms) for _ in range(3)): Fraction(1)} for _ in range(3)]
        sources.append({
            tuple(rng.choice(perms) for _ in range(3)): Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            for _ in range(6)
        })
        for amps in sources:
            assert apply_invariant_average(state_of(4, 3, amps), stage).amps == reference_stage(amps, stage, 4, 3)


class TestSparseVsOtherBackends:
    @pytest.mark.parametrize(
        "p",
        [
            kron_pipeline((1, 1), (2,), (1, 1)),
            kron_pipeline((1, 1, 1), (3,), (1, 1, 1)),
            pleth_pipeline(2, 2, (2, 2)),  # not left-translation equivariant: every basis row
        ],
        ids=["2", "3", "pleth"],
    )
    def test_diagonal_entries_match(self, p):
        # the dense trace against the sum of every diagonal entry of the
        # element-by-element group sums
        total = Fraction(0)
        for key in itertools.product(all_perms(p.n), repeat=p.k):
            total += reference_pipeline(p, {key: Fraction(1)}).get(key, Fraction(0))
        assert total == pipeline_trace_dense(p)


class TestStateVectorEngine:
    def test_large_numerators_and_denominators_exact(self):
        # numerators near 2^80 over a 2^61 - 1 denominator need several
        # limbs per amplitude; the result must still be the exact one
        rng = random.Random(80)
        for n, shapes in ((2, ((2,), (1, 1), (1, 1))), (3, ((2, 1), (2, 1), (3,)))):
            p = kron_pipeline(*shapes)
            perms = all_perms(n)
            amps = {}
            for _ in range(8):
                key = tuple(rng.choice(perms) for _ in range(3))
                amps[key] = Fraction(rng.choice([-1, 1]) * rng.randint(1 << 79, 1 << 80), (1 << 61) - 1)
            state = state_of(n, 3, amps)
            assert apply_pipeline(p, state).amps == reference_pipeline(p, amps)

    def test_negative_top_limb_at_its_bound(self):
        # -(2^m - 1) with m a multiple of the limb width b has top limb
        # -2^b, one past the low limbs' largest magnitude 2^b - 1
        p = kron_pipeline((2,), (1, 1), (1, 1))
        perms = all_perms(2)
        for m in range(1, 160):
            amps = {(perms[0],) * 3: Fraction(1 - (1 << m)), (perms[1],) * 3: Fraction(3)}
            assert apply_pipeline(p, state_of(2, 3, amps)).amps == reference_pipeline(p, amps)

    def test_arithmetic_across_shapes_refused(self):
        a, b = StateVector(3, 3, {0: 1}), StateVector(2, 2, {0: 1})
        for op, other in ((a.plus, b), (a.minus, b), (a.inner, b), (b.inner, a)):
            with pytest.raises(InputError):
                op(other)

    def test_bound_checked_before_allocation(self):
        # (5!)^3 = 1.7M basis states: refused before any kernel, index
        # table or batch row is built
        p = kron_pipeline((3, 1, 1), (3, 1, 1), (3, 1, 1))
        state = basis_state(5, (identity(5),) * 3)
        tracemalloc.start()
        try:
            with pytest.raises(BoundExceededError):
                apply_pipeline(p, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_factor_bound_checked_before_index_tables(self):
        # S_8 would need a 40320 x 40320 multiplication table
        tracemalloc.start()
        try:
            with pytest.raises(BoundExceededError):
                pipeline_trace_dense(pleth_pipeline(2, 4, (8,)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_pipeline_and_state_degree_must_match(self):
        with pytest.raises(InputError):
            apply_pipeline(kron_pipeline((2, 1), (2, 1), (2, 1)), basis_state(2, (identity(2),) * 3))

    @pytest.mark.parametrize("perms", [((1, 2),), ((1, 2, 3), (1, 1, 3)), ((1, 2, 3, 4),)])
    def test_basis_state_refuses_wrong_permutations(self, perms):
        with pytest.raises(InputError):
            basis_state(3, perms)

    @pytest.mark.parametrize("index", [-1, 6])
    def test_basis_index_outside_the_space_refused(self, index):
        # numpy wrapped -1 to flat index 5; 6 raised a bare IndexError
        state = StateVector(3, 1, {index: 1})
        with pytest.raises(InputError):
            apply_isotypic(state, 0, (2, 1))

    @pytest.mark.parametrize("index", [-1, 6, 1 << 70])
    def test_amps_view_refuses_index_outside_the_space(self, index):
        # the view raised numpy's bare ValueError for -1 and 6
        state = StateVector(3, 1, {index: 1})
        assert len(state.amps) == 1  # len() converts nothing
        with pytest.raises(InputError, match=r"outside range\(6\)"):
            dict(state.amps)

    def test_zero_denominator_refused(self):
        with pytest.raises(InputError):
            StateVector(3, 1, {0: 1}, 0)
