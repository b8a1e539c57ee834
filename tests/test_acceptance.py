"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line (visible under ``pytest -s``)
and then asserts, so a red run still shows which guarantee broke.
"""

from __future__ import annotations

import random
import time
from typing import Callable, List

from conftest import (
    SEED_ENUM_CORPUS,
    SEED_LIFT_CORPUS,
    SEED_SCHED_CORPUS,
    enumerate_min_makespan,
)

from fairchores import (
    Allocation,
    GeneratorConfig,
    Instance,
    ThresholdVector,
    builtin_fixtures,
    exact_mms,
    generate,
    greedy_fill,
    lift_allocation,
    naive_test,
    optimal_makespan,
    ordered_instance,
    schedule_119,
    schedule_lpt,
    search_threshold,
    solve_existence_119,
    solve_poly_54,
    threshold_test,
)
from fairchores.scheduling import _pigeonhole

TIMING_REPEATS = 9


def verdict(criterion: int, passed: bool, detail: str) -> None:
    tag = "PASS" if passed else "FAIL"
    line = f"[{tag}] criterion {criterion}: {detail}"
    print(line)
    assert passed, line


def best_ms(fn: Callable[[], object], repeats: int = TIMING_REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


def sorted_values(inst: Instance, bundle) -> tuple:
    return tuple(sorted((inst.row(0)[c] for c in bundle), reverse=True))


def test_criterion_1_lower_bound_fixture():
    fixture = builtin_fixtures()[0]
    ordd = ordered_instance(fixture.instance)
    n = fixture.instance.num_agents

    at_19 = greedy_fill(ordd, ThresholdVector.uniform(n, 19))
    at_20 = greedy_fill(ordd, ThresholdVector.uniform(n, 20))
    rounds = tuple(
        sorted_values(ordd.instance, at_19.allocation.bundles[i])
        for i in at_19.assignment[:3]
    )
    ok = (
        len(at_19.allocation.leftover) > 0
        and not at_20.allocation.leftover
        and rounds == ((9, 7), (6, 5, 5), (4, 4, 4, 4))
    )
    ms = max(
        best_ms(lambda: greedy_fill(ordd, ThresholdVector.uniform(n, 19))),
        best_ms(lambda: greedy_fill(ordd, ThresholdVector.uniform(n, 20))),
    )
    ok = ok and ms < 1.0
    verdict(
        1,
        ok,
        f"threshold 19 strands {len(at_19.allocation.leftover)}, 20 strands 0, "
        f"first rounds {rounds}, {ms:.3f} ms",
    )


def test_criterion_2_non_monotone_fixture():
    fixture = builtin_fixtures()[1]
    inst = fixture.instance
    passes_150 = naive_test(inst, 0, 150)
    fails_152 = not naive_test(inst, 0, 152)
    at_152 = greedy_fill(
        ordered_instance(inst), ThresholdVector.uniform(inst.num_agents, 152)
    )
    stranded = len(at_152.allocation.leftover)
    ms = max(
        best_ms(lambda: naive_test(inst, 0, 150)),
        best_ms(lambda: naive_test(inst, 0, 152)),
    )
    ok = passes_150 and fails_152 and stranded == 2 and ms < 1.0
    verdict(
        2,
        ok,
        f"s=150 pass {passes_150}, s=152 fail {fails_152}, "
        f"{stranded} stranded at 152, {ms:.3f} ms",
    )


def per_agent_naive_threshold(inst: Instance, agent: int) -> int:
    # Smallest passing point; the naive test is non-monotone, so a binary
    # search could overshoot it.
    lower = _pigeonhole(sorted(inst.row(agent), reverse=True), inst.num_agents)
    for s in range(lower, 2 * lower + 1):
        if naive_test(inst, agent, s):
            return s
    raise AssertionError(f"no naive pass point in [l, 2l] for agent {agent}")


def test_criterion_3_trial_fails_poly_rescues():
    fixture = builtin_fixtures()[2]
    inst = fixture.instance
    ordd = ordered_instance(inst)
    thresholds = ThresholdVector(
        tuple(per_agent_naive_threshold(inst, i) for i in range(inst.num_agents))
    )
    trial = greedy_fill(ordd, thresholds)
    stranded = len(trial.allocation.leftover)

    poly = solve_poly_54(inst)
    shares = [exact_mms(inst, i)[0] for i in range(inst.num_agents)]
    loads_ok = poly.allocation.complete and all(
        4 * inst.value(i, poly.allocation.bundles[i]) <= 5 * shares[i]
        for i in range(inst.num_agents)
    )
    ms = best_ms(lambda: (greedy_fill(ordd, thresholds), solve_poly_54(inst)))
    ok = stranded == 2 and loads_ok and ms < 10.0
    verdict(
        3,
        ok,
        f"trial strands {stranded}, 5/4 completion within bound {loads_ok}, "
        f"{ms:.3f} ms",
    )


def test_criterion_4_existence_bound_corpus(corpus_500, profiles_500):
    profiles = profiles_500
    violations = 0
    mismatches = 0
    started = time.perf_counter()
    for inst, profile in zip(corpus_500, profiles):
        result = solve_existence_119(inst)
        # The solver's own oracle run must give mms_profile's shares.
        if result.profile.values != profile.values:
            mismatches += 1
        for i in range(inst.num_agents):
            load = inst.value(i, result.allocation.bundles[i])
            if 9 * load > 11 * profile.values[i]:
                violations += 1
    total = time.perf_counter() - started
    ok = violations == 0 and mismatches == 0 and total < 120.0
    verdict(
        4,
        ok,
        f"{len(corpus_500)} instances, {violations} bound violations, "
        f"{mismatches} profiles unlike mms_profile's, "
        f"{total:.1f} s including the oracle",
    )


def test_criterion_5_threshold_test_ray(corpus_500, profiles_500):
    profiles = profiles_500
    ray_violations = 0
    search_violations = 0
    checked = 0
    for inst, profile in zip(corpus_500, profiles):
        for i in range(inst.num_agents):
            mu = profile.values[i]
            for s in {mu, mu + 1, 2 * mu}:
                if s < 1:
                    continue
                checked += 1
                if not threshold_test(inst, i, s):
                    ray_violations += 1
            lo = _pigeonhole(sorted(inst.row(i), reverse=True), inst.num_agents)
            star = search_threshold(inst, i)
            if not lo <= star <= mu:
                search_violations += 1
    ok = ray_violations == 0 and search_violations == 0
    verdict(
        5,
        ok,
        f"{checked} pass-ray points, {ray_violations} test failures, "
        f"{search_violations} search results outside [l, mms]",
    )


def test_criterion_6_lift_dominance():
    config = GeneratorConfig(
        seed=SEED_LIFT_CORPUS, agents=(2, 5), chores=(2, 14), value_max=50
    )
    rng = random.Random(SEED_LIFT_CORPUS)
    violations = 0
    for inst in generate(config, 200):
        n, m = inst.num_agents, inst.num_chores
        ordd = ordered_instance(inst)
        groups: List[List[int]] = [[] for _ in range(n)]
        for position in range(m):
            groups[rng.randrange(n)].append(position)
        ord_alloc = Allocation(tuple(frozenset(g) for g in groups), frozenset())
        lifted = lift_allocation(ordd, ord_alloc)
        for i in range(n):
            lifted_load = inst.value(i, lifted.bundles[i])
            ordered_load = ordd.instance.value(i, ord_alloc.bundles[i])
            if lifted_load > ordered_load:
                violations += 1
    verdict(6, violations == 0, f"200 instances, {violations} dominance violations")


def test_criterion_7_scheduling_bounds():
    rng = random.Random(SEED_SCHED_CORPUS)
    greedy_violations = 0
    lpt_violations = 0
    started = time.perf_counter()
    for _ in range(300):
        machines = rng.randint(1, 5)
        jobs = [rng.randint(0, 50) for _ in range(rng.randint(1, 14))]
        opt = optimal_makespan(jobs, machines)
        if 9 * schedule_119(jobs, machines).makespan > 11 * opt:
            greedy_violations += 1
        if 3 * schedule_lpt(jobs, machines).makespan > 4 * opt:
            lpt_violations += 1
    elapsed = time.perf_counter() - started
    ok = greedy_violations == 0 and lpt_violations == 0
    verdict(
        7,
        ok,
        f"300 workloads, {greedy_violations} greedy and {lpt_violations} LPT "
        f"violations, {elapsed:.1f} s for all three solvers",
    )


def test_criterion_8_oracle_self_consistency(corpus_500, profiles_500):
    config = GeneratorConfig(
        seed=SEED_ENUM_CORPUS, agents=(2, 4), chores=(2, 10), value_max=50
    )
    mismatches = 0
    for inst in generate(config, 100):
        for i in range(inst.num_agents):
            row = inst.row(i)
            if exact_mms(inst, i)[0] != enumerate_min_makespan(row, inst.num_agents):
                mismatches += 1

    profiles = profiles_500
    pigeonhole_violations = 0
    for inst, profile in zip(corpus_500, profiles):
        for i in range(inst.num_agents):
            lo = _pigeonhole(sorted(inst.row(i), reverse=True), inst.num_agents)
            if not lo <= profile.values[i] <= 2 * lo:
                pigeonhole_violations += 1
    ok = mismatches == 0 and pigeonhole_violations == 0
    verdict(
        8,
        ok,
        f"100 enumerated instances, {mismatches} oracle mismatches, "
        f"{pigeonhole_violations} pigeonhole violations over the big corpus",
    )
