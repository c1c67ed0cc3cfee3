"""Acceptance suite: one test per criterion, exact equalities throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.
"""

import math
import time

from helpers import schur_dim_gl

from kronlab.characters import character_table
from kronlab.oracles import kron_char, pleth_wreath, scaled_kron
from kronlab.partitions import (
    enumerate_partitions,
    encode_diagram,
    hook_dimension,
    kostka,
)
from kronlab.permutations import enumerate_subgroup, young_subgroup
from kronlab.projectors import (
    InvariantAverage,
    Pipeline,
    check_projector_algebra,
    kron_pipeline,
    pipeline_trace_collapsed,
    pipeline_trace_dense,
    pleth_pipeline,
    truncated_kron_trace,
)
from kronlab.protocol import (
    acceptance_probability,
    run_verifier,
    sample_accepting_witness,
    sample_rejecting_witness,
    sample_witness,
    witness_spaces,
)
from kronlab.specht import build_seminormal, invariant_dim


def _report(number: int, description: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"\n[criterion {number:02d}] {status}: {description}")
    assert not failures, f"criterion {number}: {failures[:10]}"


def test_criterion_01_regular_representation_dimension():
    start = time.perf_counter()
    failures = []
    for n in range(1, 11):
        total = sum(hook_dimension(lam) ** 2 for lam in enumerate_partitions(n))
        if total != math.factorial(n):
            failures.append((n, total))
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _report(1, "sum of squared dimensions equals n! for n = 1..10", failures)


def test_criterion_02_character_table_integrity():
    start = time.perf_counter()
    failures = []
    for n in range(1, 9):
        try:
            character_table(n).check_orthogonality()  # computes, caches
            character_table(n).check_orthogonality()  # reloads from cache
        except Exception as exc:
            failures.append((n, repr(exc)))
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    _report(2, "row and column orthogonality exact for n <= 8, cached", failures)


def test_criterion_03_lemma_one_exhaustive():
    start = time.perf_counter()
    failures = []
    for n in range(1, 7):
        parts = enumerate_partitions(n)
        for lam in parts:
            rep = build_seminormal(lam)
            for mu in parts:
                got = invariant_dim([rep], young_subgroup(mu))
                expected = kostka(lam, mu)
                if got != expected:
                    failures.append((lam, mu, got, expected))
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.0f}s, budget 300s")
    _report(3, "Young-invariant dimensions equal Kostka numbers for all pairs, n <= 6", failures)


def test_criterion_04_kron_pipeline_dense():
    start = time.perf_counter()
    failures = []
    cases = 0
    for n in (2, 3, 4):
        parts = enumerate_partitions(n)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    got = pipeline_trace_dense(kron_pipeline(lam, mu, nu))
                    expected = kron_char(lam, mu, nu).value
                    cases += 1
                    if got != expected:
                        failures.append((lam, mu, nu, got, expected))
    elapsed = time.perf_counter() - start
    if cases != 8 + 27 + 125:
        failures.append(f"ran {cases} cases, expected 160")
    if elapsed >= 600.0:
        failures.append(f"took {elapsed:.0f}s, budget 600s")
    _report(4, f"dense pipeline trace equals the character oracle on all {cases} "
               f"triples at n = 2, 3, 4 ({elapsed:.0f}s)", failures)


def test_criterion_05_kron_pipeline_collapsed():
    start = time.perf_counter()
    failures = []
    cases = 0
    for n in (5, 6):
        parts = enumerate_partitions(n)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    got = pipeline_trace_collapsed(kron_pipeline(lam, mu, nu))
                    expected = kron_char(lam, mu, nu).value
                    cases += 1
                    if got != expected:
                        failures.append((lam, mu, nu, got, expected))
    elapsed = time.perf_counter() - start
    if cases != 343 + 1331:
        failures.append(f"ran {cases} cases, expected 1674")
    if elapsed >= 1800.0:
        failures.append(f"took {elapsed:.0f}s, budget 1800s")
    _report(5, f"collapsed pipeline trace equals the character oracle on all {cases} "
               f"triples at n = 5, 6 ({elapsed:.0f}s)", failures)


def test_criterion_06_projector_algebra():
    failures = []
    parts3 = enumerate_partitions(3)
    for lam in parts3:
        for mu in parts3:
            for nu in parts3:
                report = check_projector_algebra(kron_pipeline(lam, mu, nu))
                if report.mode != "exhaustive" or not report.ok:
                    failures.append((lam, mu, nu, report.failures))
    for triple in [((3, 1), (2, 2), (2, 1, 1)), ((2, 1, 1),) * 3]:
        report = check_projector_algebra(kron_pipeline(*triple))
        if report.mode != "sampled" or not report.ok:
            failures.append((triple, report.failures))
    # negative control: left average over a non-normal subgroup on one
    # factor must fail commutation against the simultaneous left average
    base = kron_pipeline((2, 1), (2, 1), (2, 1))
    mutated = Pipeline(
        3,
        3,
        base.stages[:4] + (InvariantAverage(0, "L", young_subgroup((2, 1))),) + base.stages[5:],
        "mutated-control",
    )
    control = check_projector_algebra(mutated)
    if control.ok:
        failures.append("mutated pipeline unexpectedly passed")
    if all(control.pair_commutes.values()):
        failures.append("mutated pipeline commutation did not fail")
    _report(6, "stages idempotent, symmetric, pairwise commuting (n = 3 exhaustive, "
               "n = 4 sampled); mutated control fails", failures)


def test_criterion_07_pleth_pipeline_matches_oracle():
    start = time.perf_counter()
    failures = []
    for d, m in [(2, 2), (3, 2), (2, 3)]:
        for lam in enumerate_partitions(d * m):
            p = pleth_pipeline(d, m, lam)
            dense = pipeline_trace_dense(p)
            collapsed = pipeline_trace_collapsed(p)
            expected = pleth_wreath(d, m, lam).value
            if not (dense == collapsed == expected):
                failures.append((d, m, lam, dense, collapsed, expected))
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.0f}s, budget 300s")
    _report(7, "plethysm pipeline traces (dense and collapsed) equal the wreath "
               f"oracle for (d,m) in (2,2),(3,2),(2,3) ({elapsed:.0f}s)", failures)


def test_criterion_08_plethysm_dimension_identity():
    failures = []
    for d in range(1, 9):
        for m in range(1, 9):
            if d * m > 8:
                continue
            big_n = d * m
            total = sum(
                pleth_wreath(d, m, lam).value * schur_dim_gl(lam, big_n)
                for lam in enumerate_partitions(d * m)
            )
            expected = math.comb(math.comb(big_n + m - 1, m) + d - 1, d)
            if total != expected:
                failures.append((d, m, total, expected))
    _report(8, "sum of a_lam(d,m) s_lam(1^N) equals dim Sym^d(Sym^m) for all md <= 8",
            failures)


def test_criterion_09_verifier_perfection():
    failures = []
    accept_checked = 0
    reject_checked = 0
    mc_checked = 0

    instances = []
    for n in (2, 3):
        parts = enumerate_partitions(n)
        instances += [
            ("kron", kron_pipeline(lam, mu, nu), kron_char(lam, mu, nu).value)
            for lam in parts
            for mu in parts
            for nu in parts
        ]
    instances += [
        ("pleth", pleth_pipeline(2, 2, lam), pleth_wreath(2, 2, lam).value)
        for lam in enumerate_partitions(4)
    ]

    positive = [x for x in instances if x[2] > 0]
    per_instance_accept = -(-100 // len(positive))  # ceil
    per_instance_reject = -(-100 // len(instances))

    for kind, p, expected in instances:
        ws = witness_spaces(p)
        trace = pipeline_trace_dense(p)
        if not (ws.dim_accept == trace == expected):
            failures.append((p.label, ws.dim_accept, trace, expected))
            continue
        if ws.dim_accept:
            for seed in range(per_instance_accept):
                w = sample_witness(ws, "accept", seed)
                if acceptance_probability(p, w) != 1:
                    failures.append((p.label, "accept", seed))
                accept_checked += 1
        if ws.dim_reject:
            for seed in range(per_instance_reject):
                w = sample_witness(ws, "reject", seed)
                if acceptance_probability(p, w) != 0:
                    failures.append((p.label, "reject", seed))
                reject_checked += 1

    # n = 4 three-factor instances, sampled without materializing the spaces
    for triple in [((2, 1, 1), (2, 1, 1), (2, 1, 1)), ((3, 1), (3, 1), (2, 2))]:
        p = kron_pipeline(*triple)
        aw = sample_accepting_witness(p, seed=17)
        rw = sample_rejecting_witness(p, seed=18)
        if acceptance_probability(p, aw) != 1:
            failures.append((p.label, "accept-n4"))
        if acceptance_probability(p, rw) != 0:
            failures.append((p.label, "reject-n4"))
        accept_checked += 1
        reject_checked += 1

    if accept_checked < 100:
        failures.append(f"only {accept_checked} accepting witnesses checked")
    if reject_checked < 100:
        failures.append(f"only {reject_checked} rejecting witnesses checked")

    # Monte Carlo at 10^4 shots within 4 sigma of the exact probability
    p = kron_pipeline((2, 1), (2, 1), (2, 1))
    ws = witness_spaces(p)
    mix = sample_witness(ws, "accept", 1).plus(sample_witness(ws, "reject", 2))
    for seed in (3, 4):
        mc = run_verifier(p, mix, "monte_carlo", seed=seed, shots=10_000)
        p_exact = float(mc.p_accept_exact)
        sigma = math.sqrt(p_exact * (1 - p_exact) / mc.shots)
        if abs(mc.accepts / mc.shots - p_exact) > 4 * sigma:
            failures.append((seed, mc.accepts / mc.shots, p_exact))
        mc_checked += 1
    pure = sample_witness(ws, "accept", 5)
    mc = run_verifier(p, pure, "monte_carlo", seed=9, shots=10_000)
    if mc.accepts != mc.shots:
        failures.append(("pure accept run", mc.accepts))

    _report(9, f"verifier perfection: {accept_checked} accepting witnesses at "
               f"probability exactly 1, {reject_checked} rejecting at exactly 0, "
               "dim A = trace = oracle, Monte Carlo within 4 sigma", failures)


def test_criterion_10_scaled_kron_relation():
    start = time.perf_counter()
    failures = []
    cases = 0
    for n in (2, 3, 4):
        parts = enumerate_partitions(n)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    got = truncated_kron_trace(lam, mu, nu)
                    expected = scaled_kron(lam, mu, nu)
                    cases += 1
                    if got != expected:
                        failures.append((lam, mu, nu, got, expected))
    elapsed = time.perf_counter() - start
    _report(10, f"truncated pipeline trace equals d*d*d*k on all {cases} triples "
                f"at n <= 4 ({elapsed:.0f}s)", failures)


def test_criterion_11_anchored_point_values():
    failures = []
    if kostka((3, 1), (2, 1, 1)) != 2:
        failures.append("Kostka (3,1),(2,1,1)")
    expected_klein = {(1, 2, 3, 4), (2, 1, 3, 4), (1, 2, 4, 3), (2, 1, 4, 3)}
    if set(enumerate_subgroup(young_subgroup((2, 2)))) != expected_klein:
        failures.append("Young subgroup (2,2) enumeration")
    if encode_diagram((5, 3)) != "0000100":
        failures.append("diagram encoding of (5,3)")
    _report(11, "anchored point values: Kostka 2, Klein four-group, 0000100", failures)
