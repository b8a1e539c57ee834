"""Solvers: naive test, threshold test, threshold search, both pipelines."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from conftest import reference_large_test
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairchores import solvers
from fairchores import (
    GeneratorConfig,
    InputError,
    Instance,
    MmsProfile,
    OracleLimits,
    SolverInvariantError,
    builtin_fixtures,
    exact_mms,
    generate,
    mms_profile,
    naive_test,
    search_threshold,
    solve_existence_119,
    solve_poly_54,
    threshold_test,
)
from fairchores.instances import allocation_loads
from fairchores.scheduling import _pigeonhole


def identical(row, n=4) -> Instance:
    return Instance.from_rows([list(row)] * n)


def lower_of(inst: Instance, agent: int) -> int:
    """The pigeonhole bound of one agent's row, sorted as ``_pigeonhole`` takes it."""
    return _pigeonhole(sorted(inst.row(agent), reverse=True), inst.num_agents)


def count_probes(monkeypatch) -> list:
    """Record the threshold of every ``_large_fits`` call the search makes."""
    probes: list = []
    fits = solvers._large_fits

    def counted(desc, n, s):
        probes.append(s)
        return fits(desc, n, s)

    monkeypatch.setattr(solvers, "_large_fits", counted)
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
        # The floor is naive_test's, 0: two chores above 0/2 outnumber one bundle.
        with pytest.raises(InputError, match="threshold s must be at least 0"):
            threshold_test(identical([1]), 0, -1)
        assert not threshold_test(identical([1, 1], n=1), 0, 0).passed


class TestSearchThreshold:
    def test_bounds(self, monkeypatch):
        inst = identical([9, 7, 6, 5, 5] + [4] * 9, n=4)
        assert _pigeonhole(inst.row(0), 4) == 17
        # A probe failing everywhere shows the gallop: lower, then steps
        # of 1, 2, 4 and 8, then the top of the bracket.
        probes = []

        def failing(desc, n, s):
            probes.append(s)
            return False

        monkeypatch.setattr(solvers, "_large_fits", failing)
        with pytest.raises(SolverInvariantError):
            search_threshold(inst, 0)
        assert probes == [17, 18, 20, 24, 32, 34]

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
                lower = lower_of(inst, agent)
                assert search_threshold(inst, agent) == lower
                assert probes == [lower]

    def test_full_bracket_when_the_lower_bound_fails(self, monkeypatch):
        # Three 2s on two agents: the pigeonhole bound 3 has three chores
        # above s/2 for two bundles, so it fails and the share is 4.
        probes = count_probes(monkeypatch)
        inst = identical([2, 2, 2], n=2)
        assert search_threshold(inst, 0) == 4
        # The probe at lower fails and the first gallop step, 4, passes;
        # no gap is left to bisect.
        assert probes == [3, 4]

    def test_zero_rows_settle_at_the_first_probe(self, monkeypatch):
        # The pigeonhole bound of an all-zero or empty row is 0, and no
        # chore lies above 0/4, so the probe at lower passes there.
        probes = count_probes(monkeypatch)
        for inst in (identical([0, 0, 0], n=2), identical([], n=3)):
            probes.clear()
            assert search_threshold(inst, 0) == 0
            assert probes == [0]

    def test_a_zero_row_searched_threshold_passes_the_test(self):
        # The search settles a zero row at s = 0; threshold_test takes it.
        for inst in (Instance.from_rows([[0, 0], [0, 0]]), Instance.from_rows([[0, 0], [3, 1]])):
            s = search_threshold(inst, 0)
            assert s == 0
            assert threshold_test(inst, 0, s).passed

    @settings(max_examples=80, deadline=None)
    @given(small_instances(max_agents=5, max_chores=12, max_value=60))
    def test_bracket_top_passes(self, inst):
        # Both searches rely on this instead of widening the bracket.
        for agent in range(inst.num_agents):
            top = 2 * lower_of(inst, agent)
            if top > 0:
                assert threshold_test(inst, agent, top).passed
                assert naive_test(inst, agent, top)

    @settings(max_examples=80, deadline=None)
    @given(small_instances(max_agents=5, max_chores=12, max_value=60))
    def test_searched_point_passes_and_its_predecessor_fails(self, inst):
        for agent in range(inst.num_agents):
            lower = lower_of(inst, agent)
            s_star = search_threshold(inst, agent)
            assert threshold_test(inst, agent, s_star).passed
            if s_star > lower:
                assert not threshold_test(inst, agent, s_star - 1).passed

    @settings(max_examples=40, deadline=None)
    @given(small_instances(max_agents=3, max_chores=6, max_value=25))
    def test_bracketed_by_share(self, inst):
        for agent in range(inst.num_agents):
            mu, _ = exact_mms(inst, agent)
            s_star = search_threshold(inst, agent)
            assert lower_of(inst, agent) <= s_star <= mu


class TestLargeFits:
    """The search's probe answers as the positional reference does."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.lists(st.integers(0, 40), max_size=12), st.booleans())
    @example(n=2, values=[10, 10, 10], zero=False)  # k > n from s = 0 to 19
    @example(n=3, values=[9, 9, 1], zero=False)  # large == k at s = 0, 1 and 4 to 17
    @example(n=2, values=[3, 3, 3], zero=True)  # an all-zero row
    # At s = 7 the seeded room of 2 takes nothing, and stage two stops
    # early after one of its two bins.
    @example(n=3, values=[5, 3, 3, 3, 3, 3], zero=False)
    @example(n=2, values=[7, 3], zero=False)  # a seeded room of -1 at s = 6
    # At s = 7 nothing is seeded and stage two packs 3 + 3 + 2 and 3 + 2 + 2
    # into two bins of cap 8, the first exactly full.
    @example(n=2, values=[3, 3, 3, 2, 2, 2], zero=False)
    def test_matches_the_packer(self, n, values, zero):
        # Every s from 0, below every positive value, past the bracket's top.
        desc = sorted([0] * len(values) if zero else values, reverse=True)
        for s in range(2 * _pigeonhole(desc, n) + 3):
            assert solvers._large_fits(desc, n, s) == reference_large_test(desc, n, s)[0]


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

    def test_loads_are_the_allocation_loads(self):
        # The CLI prints result.loads, so they must be the bundles' costs.
        corpus = [f.instance for f in builtin_fixtures()]
        corpus += generate(GeneratorConfig(seed=34, value_max=1000), 60)
        for inst in corpus:
            result = solve_existence_119(inst, OracleLimits(max_chores=17))
            assert result.loads == allocation_loads(inst, result.allocation)
            for load, share in zip(result.loads, result.profile.values):
                assert 9 * load <= 11 * share

    def test_share_above_maxsize(self):
        # Shares above sys.maxsize are real: one agent's share is the total.
        big = Instance.from_rows([[2**63 - 1, 2**63 - 1]])
        assert solve_existence_119(big).ratios == (Fraction(1),)

    # Each value is at or above its row's pigeonhole bound, but the true
    # shares are (20, 33, 9, 29) and the greedy leaves chores over at 11/9
    # of these values.
    BELOW_SHARES = (
        [
            [11, 1, 15, 16, 7, 17, 5],
            [15, 16, 18, 18, 19, 3, 16],
            [2, 6, 4, 9, 5, 4, 0],
            [13, 19, 17, 19, 5, 16, 0],
        ],
        (18, 27, 9, 23),
    )

    def test_oracle_profile_below_the_shares_is_an_invariant_error(self, monkeypatch):
        # The solver takes its shares only from its oracle, which must hold.
        rows, values = self.BELOW_SHARES
        assert mms_profile(Instance.from_rows(rows)).values == (20, 33, 9, 29)
        monkeypatch.setattr(
            solvers, "_profile", lambda ordd, limits: MmsProfile(values=values)
        )
        with pytest.raises(SolverInvariantError, match="^greedy left chores over"):
            solve_existence_119(Instance.from_rows(rows))

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
        assert result.loads == (0, 0)

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
            for i, (load, cap) in enumerate(zip(result.loads, result.thresholds)):
                s = result.s_values[i]
                assert load == inst.value(i, result.allocation.bundles[i])
                assert cap == Fraction(5 * s, 4)
                assert 4 * load <= 5 * s
                assert s <= profile.values[i]


class TestInvariantRechecks:
    """Each re-check fires, with its message, when a layer breaks its promise."""

    def test_greedy_leaving_chores_over(self, monkeypatch):
        fill = solvers._fill

        def at_zero_caps(rows, caps):
            return fill(rows, [0] * len(caps))

        monkeypatch.setattr(solvers, "_fill", at_zero_caps)
        with pytest.raises(SolverInvariantError, match="^greedy left chores over"):
            solve_poly_54(identical([3, 2, 1], n=2))

    def test_lift_loading_an_agent_past_the_cap(self, monkeypatch):
        def all_to_agent_0(ordd, bundles):
            inst = ordd.instance
            rest = [[] for _ in range(inst.num_agents - 1)]
            return [list(range(inst.num_chores)), *rest]

        monkeypatch.setattr(solvers, "_lift", all_to_agent_0)
        # s = 3 for both agents, so the caps are 15/4 and agent 0 carries 6.
        with pytest.raises(
            SolverInvariantError, match="^agent 0 carries 6 above their cap 15/4$"
        ):
            solve_poly_54(identical([3, 2, 1], n=2))

    def test_lift_loading_an_agent_one_unit_past_the_cap(self, monkeypatch):
        # s = 3 for both agents and 5 * 3 % 4 == 3: the cap 15/4 floors to
        # 3, and a load of 4 is one unit above it, with 4 * 4 == 5 * 3 + 1.
        inst = identical([3, 2, 1], n=2)
        monkeypatch.setattr(solvers, "_lift", lambda ordd, bundles: [[0], [1, 2]])
        assert solve_poly_54(inst).loads == (3, 3)
        monkeypatch.setattr(solvers, "_lift", lambda ordd, bundles: [[0, 2], [1]])
        with pytest.raises(
            SolverInvariantError, match="^agent 0 carries 4 above their cap 15/4$"
        ):
            solve_poly_54(inst)

    def test_search_failing_at_the_top_of_its_bracket(self, monkeypatch):
        monkeypatch.setattr(solvers, "_large_fits", lambda desc, n, s: False)
        # The bracket is [3, 6]; the gallop probes 3 and 4, then the top at 6.
        with pytest.raises(
            SolverInvariantError,
            match=r"^test fails at the top of its bracket \(s=6\)$",
        ):
            search_threshold(identical([3, 2, 1], n=2), 0)
