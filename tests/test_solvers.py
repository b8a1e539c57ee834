"""Solvers: naive test, threshold test, binary search, both pipelines."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairchores import solvers
from fairchores import (
    Allocation,
    InputError,
    Instance,
    MmsProfile,
    OracleLimits,
    SolverInvariantError,
    ThresholdVector,
    builtin_fixtures,
    exact_mms,
    mms_profile,
    naive_test,
    search_bounds,
    search_threshold,
    solve_existence_119,
    solve_poly_54,
    threshold_test,
)


def identical(row, n=4) -> Instance:
    return Instance.from_rows([list(row)] * n)


def count_probes(monkeypatch) -> list:
    """Record the threshold of every ``_pack_large`` call the search makes."""
    probes: list = []
    pack = solvers._pack_large

    def counted(desc, n, s):
        probes.append(s)
        return pack(desc, n, s)

    monkeypatch.setattr(solvers, "_pack_large", counted)
    return probes


@st.composite
def small_instances(draw, max_agents=4, max_chores=7, max_value=30):
    n = draw(st.integers(1, max_agents))
    m = draw(st.integers(n, max(n, max_chores)))
    rows = [
        draw(st.lists(st.integers(0, max_value), min_size=m, max_size=m))
        for _ in range(n)
    ]
    return Instance.from_rows(rows)


class TestNaiveTest:
    def test_non_monotone_fixture(self):
        f2 = builtin_fixtures()[1]
        assert naive_test(f2.instance, 0, 150)
        assert not naive_test(f2.instance, 0, 152)

    def test_total_always_passes(self):
        inst = identical([8, 6, 1], n=3)
        assert naive_test(inst, 0, 15)

    def test_below_max_value_fails(self):
        inst = identical([8, 6, 1], n=3)
        assert not naive_test(inst, 0, 7)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            naive_test(identical([1]), 0, -1)


class TestThresholdTest:
    def test_no_large_chores_passes_immediately(self):
        inst = identical([2, 2, 2], n=3)
        outcome = threshold_test(inst, 0, 9)
        assert outcome.passed
        assert outcome.really_large_count == 0
        assert all(not b for b in outcome.benchmark.bundles)

    def test_passes_at_exact_share(self):
        f1 = builtin_fixtures()[0]
        outcome = threshold_test(f1.instance, 0, 17)
        assert outcome.passed
        assert outcome.really_large_count == 1

    def test_special_agent_at_share(self):
        f3 = builtin_fixtures()[2]
        assert threshold_test(f3.instance, 3, 450).passed

    def test_too_many_really_large_fails(self):
        inst = identical([10, 10, 10], n=2)
        outcome = threshold_test(inst, 0, 15)
        assert not outcome.passed
        assert outcome.really_large_count == 3

    def test_threshold_floor(self):
        with pytest.raises(InputError):
            threshold_test(identical([1]), 0, 0)

    @settings(max_examples=40, deadline=None)
    @given(small_instances(max_agents=3, max_chores=6, max_value=25))
    def test_pass_ray_above_share(self, inst):
        for agent in range(inst.num_agents):
            mu, _ = exact_mms(inst, agent)
            for s in (mu, mu + 1, -(-11 * mu // 10), 2 * mu):
                if s >= 1:
                    assert threshold_test(inst, agent, s).passed

    @settings(max_examples=40, deadline=None)
    @given(small_instances(max_agents=3, max_chores=6, max_value=25), st.integers(1, 90))
    def test_benchmark_covers_large_set_when_passed(self, inst, s):
        for agent in range(inst.num_agents):
            outcome = threshold_test(inst, agent, s)
            row = inst.row(agent)
            large = {c for c in range(inst.num_chores) if 4 * row[c] > s}
            placed = set().union(*outcome.benchmark.bundles) if large else set()
            if outcome.passed:
                assert placed == large
            assert outcome.benchmark.num_chores == inst.num_chores


class TestSearchThreshold:
    def test_bounds(self):
        inst = identical([9, 7, 6, 5, 5] + [4] * 9, n=4)
        bounds = search_bounds(inst, 0)
        assert bounds.lower == 17
        assert bounds.upper == 34

    def test_forced_lower_bound(self):
        inst = identical([10, 10, 10], n=3)
        assert search_threshold(inst, 0) == 10

    def test_boundary_fixture_pinned(self):
        f1 = builtin_fixtures()[0]
        assert search_threshold(f1.instance, 0) == 17

    def test_all_zero_row(self):
        inst = identical([0, 0], n=2)
        assert search_threshold(inst, 0) == 0

    def test_one_probe_when_the_lower_bound_passes(self, monkeypatch):
        probes = count_probes(monkeypatch)
        for fixture in builtin_fixtures():
            inst = fixture.instance
            for agent in range(inst.num_agents):
                probes.clear()
                lower = search_bounds(inst, agent).lower
                assert search_threshold(inst, agent) == lower
                assert probes == [lower]

    def test_full_bracket_when_the_lower_bound_fails(self, monkeypatch):
        # Three 2s on two agents: the pigeonhole bound 3 has three chores
        # above s/2 for two bundles, so it fails and the share is 4.
        probes = count_probes(monkeypatch)
        inst = identical([2, 2, 2], n=2)
        assert search_threshold(inst, 0) == 4
        # The probe at lower, then the boundary search over [3, 6]: its
        # top, then the midpoints 4 (passes) and 3 (fails).
        assert probes == [3, 6, 4, 3]

    def test_zero_rows_settle_at_the_first_probe(self, monkeypatch):
        # The pigeonhole bound of an all-zero or empty row is 0, and no
        # chore lies above 0/4, so the probe at lower passes there.
        probes = count_probes(monkeypatch)
        for inst in (identical([0, 0, 0], n=2), identical([], n=3)):
            probes.clear()
            assert search_threshold(inst, 0) == 0
            assert probes == [0]

    @settings(max_examples=80, deadline=None)
    @given(small_instances(max_agents=5, max_chores=12, max_value=60))
    def test_bracket_top_passes(self, inst):
        # Both searches rely on this instead of widening the bracket.
        for agent in range(inst.num_agents):
            top = search_bounds(inst, agent).upper
            if top > 0:
                assert threshold_test(inst, agent, top).passed
                assert naive_test(inst, agent, top)

    @settings(max_examples=40, deadline=None)
    @given(small_instances(max_agents=3, max_chores=6, max_value=25))
    def test_bracketed_by_share(self, inst):
        for agent in range(inst.num_agents):
            mu, _ = exact_mms(inst, agent)
            s_star = search_threshold(inst, agent)
            assert search_bounds(inst, agent).lower <= s_star <= mu


class TestSolveExistence119:
    def test_boundary_fixture_ratio(self):
        f1 = builtin_fixtures()[0]
        result = solve_existence_119(f1.instance)
        assert result.allocation.complete
        assert max(result.ratios) == Fraction(20, 17)
        assert max(result.ratios) <= Fraction(11, 9)

    def test_more_agents_than_chores(self):
        inst = Instance.from_rows([[7, 3], [5, 4], [6, 6]])
        result = solve_existence_119(inst)
        assert result.allocation.complete
        assert max(result.ratios) <= 1

    def test_seeded_corpus(self):
        rng = random.Random(515)
        for _ in range(200):
            n = rng.randint(2, 5)
            m = rng.randint(n, 14)
            inst = Instance.from_rows(
                [[rng.randint(0, 50) for _ in range(m)] for _ in range(n)]
            )
            result = solve_existence_119(inst)
            assert result.allocation.complete
            for i in range(n):
                load = inst.value(i, result.allocation.bundles[i])
                assert 9 * load <= 11 * result.profile.values[i]

    def test_precomputed_profile_checked(self):
        inst = Instance.from_rows([[1, 2], [2, 1]])
        with pytest.raises(InputError):
            solve_existence_119(inst, profile=MmsProfile(values=(1,)))

    def test_oracle_limits_propagate(self):
        from fairchores import InstanceTooLargeError

        inst = identical([1] * 25, n=2)
        with pytest.raises(InstanceTooLargeError):
            solve_existence_119(inst)
        result = solve_existence_119(inst, OracleLimits(max_chores=25))
        assert result.allocation.complete


class TestSolvePoly54:
    def test_trial_fixture_rescued(self):
        f3 = builtin_fixtures()[2]
        result = solve_poly_54(f3.instance)
        assert result.allocation.complete
        assert result.s_values == (450, 450, 450, 450)
        profile = mms_profile(f3.instance, OracleLimits(max_chores=17))
        for i in range(4):
            load = f3.instance.value(i, result.allocation.bundles[i])
            assert 4 * load <= 5 * profile.values[i]

    def test_all_zero_valuations(self):
        inst = identical([0, 0, 0], n=2)
        result = solve_poly_54(inst)
        assert result.allocation.complete
        assert result.s_values == (0, 0)
        assert all(cert.load == 0 for cert in result.certificates)

    def test_certificates_exact(self):
        rng = random.Random(545)
        for _ in range(100):
            n = rng.randint(2, 5)
            m = rng.randint(n, 14)
            inst = Instance.from_rows(
                [[rng.randint(0, 50) for _ in range(m)] for _ in range(n)]
            )
            result = solve_poly_54(inst)
            assert result.allocation.complete
            profile = mms_profile(inst)
            for cert in result.certificates:
                assert cert.satisfied
                assert 4 * cert.load <= 5 * result.s_values[cert.agent]
                assert result.s_values[cert.agent] <= profile.values[cert.agent]


class TestInvariantRechecks:
    """Each re-check fires, with its message, when a layer breaks its promise."""

    def test_greedy_leaving_chores_over(self, monkeypatch):
        greedy = solvers.greedy_fill

        def at_zero_caps(ordd, caps):
            return greedy(ordd, ThresholdVector.uniform(len(caps.thresholds), 0))

        monkeypatch.setattr(solvers, "greedy_fill", at_zero_caps)
        with pytest.raises(SolverInvariantError, match="^greedy left chores over"):
            solve_poly_54(identical([3, 2, 1], n=2))

    def test_lift_loading_an_agent_past_the_cap(self, monkeypatch):
        def all_to_agent_0(inst, ordd, allocation):
            rest = [()] * (inst.num_agents - 1)
            return Allocation((range(inst.num_chores), *rest), ())

        monkeypatch.setattr(solvers, "lift_allocation", all_to_agent_0)
        # s = 3 for both agents, so the caps are 15/4 and agent 0 carries 6.
        with pytest.raises(
            SolverInvariantError, match="^agent 0 carries 6 above their cap 15/4$"
        ):
            solve_poly_54(identical([3, 2, 1], n=2))

    def test_search_failing_at_the_top_of_its_bracket(self, monkeypatch):
        monkeypatch.setattr(
            solvers, "_pack_large", lambda desc, n, s: ([[]] * n, [0], 0)
        )
        # The bracket is [3, 6]; the probe at 3 fails, then the top at 6.
        with pytest.raises(
            SolverInvariantError,
            match=r"^test fails at the top of its bracket \(s=6\)$",
        ):
            search_threshold(identical([3, 2, 1], n=2), 0)
