"""Builtin fixtures: shapes, shared order, and every pinned expectation."""

from __future__ import annotations

from fractions import Fraction

from fairchores import (
    OracleLimits,
    ThresholdVector,
    builtin_fixtures,
    greedy_fill,
    ido_order,
    mms_profile,
    naive_test,
    ordered_instance,
    solve_poly_54,
)

LIMITS = OracleLimits(max_chores=17)


def fill(inst, threshold):
    return greedy_fill(
        ordered_instance(inst), ThresholdVector.uniform(inst.num_agents, threshold)
    )


class TestCatalog:
    def test_names_and_shapes(self):
        fixtures = builtin_fixtures()
        assert [f.name for f in fixtures] == [
            "lower-bound-20-17",
            "non-monotone",
            "trial-fails",
        ]
        assert [f.scale for f in fixtures] == [17, 20, 60]
        assert [f.instance.num_chores for f in fixtures] == [14, 17, 17]
        assert all(f.instance.num_agents == 4 for f in fixtures)

    def test_all_fixtures_share_one_order(self):
        for fixture in builtin_fixtures():
            assert ido_order(fixture.instance) is not None

    def test_pinned_share_values(self):
        for fixture in builtin_fixtures():
            profile = mms_profile(fixture.instance, LIMITS)
            assert profile.values == fixture.expected["mms"]


class TestLowerBoundFixture:
    def test_leftovers_by_threshold(self):
        fixture = builtin_fixtures()[0]
        for threshold, size in fixture.expected["leftover_by_threshold"].items():
            result = fill(fixture.instance, threshold)
            assert len(result.allocation.leftover) == size

    def test_round_bundle_values(self):
        fixture = builtin_fixtures()[0]
        result = fill(fixture.instance, 19)
        row = ordered_instance(fixture.instance).instance.row(0)
        observed = tuple(
            tuple(sorted((row[c] for c in result.allocation.bundles[i]), reverse=True))
            for i in result.assignment
        )
        assert observed == fixture.expected["round_bundle_values"]

    def test_max_ratio(self):
        fixture = builtin_fixtures()[0]
        result = fill(fixture.instance, 20)
        loads = [
            fixture.instance.value(i, result.allocation.bundles[i]) for i in range(4)
        ]
        mu = fixture.expected["mms"][0]
        assert Fraction(max(loads), mu) == fixture.expected["max_ratio"]


class TestNonMonotoneFixture:
    def test_pass_then_fail(self):
        fixture = builtin_fixtures()[1]
        assert naive_test(fixture.instance, 0, fixture.expected["naive_pass"])
        assert not naive_test(fixture.instance, 0, fixture.expected["naive_fail"])

    def test_leftover_size_at_fail(self):
        fixture = builtin_fixtures()[1]
        result = fill(fixture.instance, fixture.expected["naive_fail"])
        assert len(result.allocation.leftover) == fixture.expected["leftover_at_fail"]


class TestTrialFailsFixture:
    def test_naive_thresholds_each_pass(self):
        fixture = builtin_fixtures()[2]
        for agent, s in enumerate(fixture.expected["naive_thresholds"]):
            assert naive_test(fixture.instance, agent, s)

    def test_trial_approach_strands_chores(self):
        fixture = builtin_fixtures()[2]
        caps = ThresholdVector(
            tuple(Fraction(s) for s in fixture.expected["naive_thresholds"])
        )
        result = greedy_fill(ordered_instance(fixture.instance), caps)
        assert len(result.allocation.leftover) == fixture.expected["trial_leftover"]
        # Only the fourth agent can afford the opening bundle.
        assert result.assignment[0] == 3

    def test_certified_solver_rescues(self):
        fixture = builtin_fixtures()[2]
        result = solve_poly_54(fixture.instance)
        assert result.allocation.complete
