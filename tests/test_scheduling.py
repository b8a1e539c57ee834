"""Schedulers: searched-threshold greedy and the LPT baseline."""

from __future__ import annotations

import heapq
import random

import pytest
from conftest import SEED_SCHED_CORPUS
from hypothesis import given, settings
from hypothesis import strategies as st

from fairchores import scheduling
from fairchores import (
    InputError,
    Instance,
    OracleLimits,
    ScheduleResult,
    SolverInvariantError,
    ThresholdVector,
    builtin_fixtures,
    greedy_fill,
    lift_allocation,
    naive_test,
    optimal_makespan,
    ordered_instance,
    schedule_119,
    schedule_lpt,
    search_bounds,
)


def clone_greedy(row, machines, s):
    """Reference: the round greedy at uniform cap s on n clones of one row."""
    inst = Instance.from_rows([list(row)] * machines)
    ordd = ordered_instance(inst)
    return inst, ordd, greedy_fill(ordd, ThresholdVector.uniform(machines, s))


def reference_schedule_119(jobs, machines):
    """schedule_119 built from the public primitives: clone, greedy, lift."""
    lo = max(-(-sum(jobs) // machines), max(jobs, default=0))
    hi = 2 * lo
    assert clone_greedy(jobs, machines, hi)[2].allocation.complete
    while lo < hi:
        mid = (lo + hi) // 2
        if clone_greedy(jobs, machines, mid)[2].allocation.complete:
            hi = mid
        else:
            lo = mid + 1
    inst, ordd, result = clone_greedy(jobs, machines, lo)
    lifted = lift_allocation(inst, ordd, result.allocation)
    loads = tuple(inst.value(b, lifted.bundles[b]) for b in range(machines))
    return ScheduleResult(
        allocation=lifted, loads=loads, makespan=max(loads), threshold=lo
    )


def sched_corpus():
    """Seeded job lists with zero jobs, empty lists, ties and spare machines."""
    cases = [([], 1), ([], 4), ([0, 0, 0], 2), ([0, 5, 0, 5], 3), ([7, 2], 5)]
    rng = random.Random(SEED_SCHED_CORPUS)
    for _ in range(300):
        machines = rng.randint(1, 6)
        top = rng.choice((3, 12, 50))
        jobs = [rng.randint(0, top) for _ in range(rng.randint(0, 16))]
        cases.append((jobs, machines))
    return cases


class TestSchedule119:
    def test_small_example(self):
        result = schedule_119([3, 3, 2, 2, 2], 2)
        assert result.makespan == 6
        assert result.threshold == 6
        assert sorted(result.loads) == [6, 6]
        assert result.allocation.complete

    def test_single_machine(self):
        result = schedule_119([4, 1, 7], 1)
        assert result.makespan == 12
        assert result.loads == (12,)

    def test_no_jobs(self):
        result = schedule_119([], 3)
        assert result.makespan == 0
        assert result.loads == (0, 0, 0)

    def test_fixture_jobs_within_eleven_ninths(self):
        jobs = list(builtin_fixtures()[1].instance.row(0))
        result = schedule_119(jobs, 4)
        opt = optimal_makespan(jobs, 4, OracleLimits(max_chores=17))
        assert opt == 150
        assert 9 * result.makespan <= 11 * opt
        assert result.makespan <= result.threshold

    def test_searched_threshold_that_does_not_pack(self, monkeypatch):
        # The bracket starts at 5, the largest job; one below it, the
        # packing leaves that job over and the re-check catches it.
        monkeypatch.setattr(scheduling, "_boundary_search", lambda passes, lo, hi: lo - 1)
        with pytest.raises(
            SolverInvariantError,
            match="^packing at the searched threshold 4 is incomplete or over it$",
        ):
            schedule_119([5, 1], 2)

    def test_input_validation(self):
        with pytest.raises(InputError):
            schedule_119([1, 2], 0)
        with pytest.raises(InputError):
            schedule_119([1, -2], 2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 40), min_size=0, max_size=9),
        st.integers(1, 4),
    )
    def test_within_bound_and_partitions(self, jobs, machines):
        result = schedule_119(jobs, machines)
        opt = optimal_makespan(jobs, machines)
        assert 9 * result.makespan <= 11 * opt
        assert result.makespan <= result.threshold
        assert result.allocation.complete
        assert sum(len(b) for b in result.allocation.bundles) == len(jobs)
        assert result.loads == tuple(
            sum(jobs[j] for j in b) for b in result.allocation.bundles
        )


class TestFirstFitDecreasingMatchesCloneAndLift:
    def test_schedule_119_equals_reference(self):
        for jobs, machines in sched_corpus():
            assert schedule_119(jobs, machines) == reference_schedule_119(
                jobs, machines
            ), (jobs, machines)

    def test_naive_test_equals_clone_greedy_on_fixtures(self):
        for fixture in builtin_fixtures():
            inst = fixture.instance
            n = inst.num_agents
            for agent in range(n):
                bounds = search_bounds(inst, agent)
                row = inst.row(agent)
                for s in range(bounds.lower, bounds.upper + 1):
                    complete = clone_greedy(row, n, s)[2].allocation.complete
                    assert naive_test(inst, agent, s) == complete, (
                        fixture.name,
                        agent,
                        s,
                    )


class TestScheduleLpt:
    def test_small_example(self):
        result = schedule_lpt([3, 3, 2, 2, 2], 2)
        assert result.makespan == 7

    def test_more_machines_than_jobs(self):
        result = schedule_lpt([5, 2], 4)
        assert result.makespan == 5
        assert sorted(result.loads, reverse=True) == [5, 2, 0, 0]

    def test_equal_values_balance(self):
        result = schedule_lpt([5] * 6, 3)
        assert result.loads == (10, 10, 10)

    def test_ties_go_to_lowest_machine(self):
        result = schedule_lpt([4], 3)
        assert result.allocation.bundles[0] == frozenset({0})

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 40), min_size=0, max_size=9),
        st.integers(1, 4),
    )
    def test_graham_bound(self, jobs, machines):
        result = schedule_lpt(jobs, machines)
        opt = optimal_makespan(jobs, machines)
        assert 3 * result.makespan <= 4 * opt
        assert result.allocation.complete


def frozen_schedule_lpt(values, machines):
    """Reference: the heap-based LPT as written before it shared the
    library's row-sorting and LPT helpers. Returns bundles, loads and
    makespan."""
    order = sorted(range(len(values)), key=lambda j: (-values[j], j))
    heap = [(0, b) for b in range(machines)]
    heapq.heapify(heap)
    bundles = [[] for _ in range(machines)]
    for job in order:
        load, machine = heapq.heappop(heap)
        bundles[machine].append(job)
        heapq.heappush(heap, (load + values[job], machine))
    loads = tuple(sum(values[j] for j in b) for b in bundles)
    return tuple(frozenset(b) for b in bundles), loads, max(loads)


def lpt_outcome(jobs, machines):
    result = schedule_lpt(jobs, machines)
    assert result.allocation.leftover == frozenset()
    return result.allocation.bundles, result.loads, result.makespan


class TestScheduleLptMatchesFrozenCopy:
    def test_sched_corpus(self):
        cases = sched_corpus()
        assert any(not jobs for jobs, _ in cases)
        assert any(0 in jobs for jobs, _ in cases)
        assert any(len(set(jobs)) < len(jobs) for jobs, _ in cases)
        assert any(machines > len(jobs) > 0 for jobs, machines in cases)
        for jobs, machines in cases:
            assert lpt_outcome(jobs, machines) == frozen_schedule_lpt(
                jobs, machines
            ), (jobs, machines)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 12), max_size=16), st.integers(1, 6))
    def test_random_lists(self, jobs, machines):
        assert lpt_outcome(jobs, machines) == frozen_schedule_lpt(jobs, machines)


@pytest.mark.parametrize("schedule", [schedule_119, schedule_lpt])
def test_jobs_above_64_bit_range_are_rejected(schedule):
    with pytest.raises(InputError, match=r"^job 0 exceeds 64-bit range$"):
        schedule([2**63, 1], 2)
    assert schedule([2**63 - 1, 1], 2).makespan == 2**63 - 1


class TestCorpusComparison:
    def test_both_schedulers_beat_their_bounds(self):
        rng = random.Random(717)
        for _ in range(100):
            machines = rng.randint(1, 5)
            m = rng.randint(1, 14)
            jobs = [rng.randint(0, 50) for _ in range(m)]
            opt = optimal_makespan(jobs, machines)
            greedy = schedule_119(jobs, machines)
            lpt = schedule_lpt(jobs, machines)
            assert 9 * greedy.makespan <= 11 * opt
            assert 3 * lpt.makespan <= 4 * opt
