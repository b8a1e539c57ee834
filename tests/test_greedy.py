"""Threshold greedy: fixture rounds, invariants, share-ratio checking."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairchores import (
    Allocation,
    InputError,
    Instance,
    MmsProfile,
    ThresholdVector,
    builtin_fixtures,
    check_amms,
    greedy_fill,
    greedy_trace,
    mms_profile,
    ordered_instance,
)


def uniform_fill(inst: Instance, threshold) -> "GreedyResult":
    return greedy_fill(
        ordered_instance(inst), ThresholdVector.uniform(inst.num_agents, threshold)
    )


def uniform_trace(inst: Instance, threshold):
    return greedy_trace(
        ordered_instance(inst), ThresholdVector.uniform(inst.num_agents, threshold)
    )


def bundle_values(inst: Instance, result, agent_view=0):
    ordered = ordered_instance(inst).instance.row(agent_view)
    return [
        tuple(sorted((ordered[c] for c in b), reverse=True))
        for b in result.round_bundles()
    ]


@st.composite
def ido_instances(draw, max_agents=4, max_chores=8, max_value=30):
    n = draw(st.integers(1, max_agents))
    m = draw(st.integers(0, max_chores))
    rows = []
    for _ in range(n):
        row = sorted(
            draw(st.lists(st.integers(0, max_value), min_size=m, max_size=m)),
            reverse=True,
        )
        rows.append(row)
    return Instance.from_rows(rows)


class TestGreedyFill:
    def test_boundary_fixture_at_19(self):
        f1 = builtin_fixtures()[0]
        result = uniform_fill(f1.instance, 19)
        assert bundle_values(f1.instance, result) == [
            (9, 7),
            (6, 5, 5),
            (4, 4, 4, 4),
            (4, 4, 4, 4),
        ]
        assert len(result.allocation.leftover) == 1

    def test_boundary_fixture_at_20(self):
        f1 = builtin_fixtures()[0]
        result = uniform_fill(f1.instance, 20)
        assert result.allocation.complete
        loads = [
            f1.instance.value(i, result.allocation.bundles[i]) for i in range(4)
        ]
        assert max(loads) == 20

    def test_single_agent_total_threshold(self):
        inst = Instance.from_rows([[5, 3, 2]])
        result = uniform_fill(inst, 10)
        assert result.allocation.bundles[0] == frozenset({0, 1, 2})
        assert result.allocation.complete

    def test_empty_bundle_rounds(self):
        inst = Instance.from_rows([[10, 10], [10, 10]])
        result = uniform_fill(inst, 0)
        assert result.allocation.bundles == (frozenset(), frozenset())
        assert result.allocation.leftover == frozenset({0, 1})
        assert result.assignment == (0, 1)

    def test_raw_instance_rejected(self):
        # Identically ordered or not, a raw instance goes through
        # ordered_instance first.
        for rows in ([[3, 2, 1], [6, 4, 2]], [[3, 1], [1, 3]]):
            inst = Instance.from_rows(rows)
            with pytest.raises(InputError, match=r"ordered_instance\(inst\)"):
                greedy_fill(inst, ThresholdVector.uniform(2, 10))

    def test_threshold_length_checked(self):
        inst = Instance.from_rows([[3, 2], [3, 2]])
        with pytest.raises(InputError):
            greedy_fill(ordered_instance(inst), ThresholdVector.uniform(3, 10))

    def test_deterministic(self):
        f2 = builtin_fixtures()[1]
        first = uniform_fill(f2.instance, 152)
        second = uniform_fill(f2.instance, 152)
        assert first == second

    @settings(max_examples=80)
    @given(ido_instances(), st.integers(0, 120))
    def test_partition_and_threshold_invariants(self, inst, threshold):
        result = uniform_fill(inst, threshold)
        alloc = result.allocation
        assert alloc.num_chores == inst.num_chores
        for i in range(inst.num_agents):
            assert inst.value(i, alloc.bundles[i]) <= threshold
        # Within a round, accepted values never increase.
        trace = uniform_trace(inst, threshold)
        ordered_row = ordered_instance(inst).instance.row(0)
        for k in range(inst.num_agents):
            values = [ordered_row[e["chore"]] for e in trace if e["round"] == k]
            assert values == sorted(values, reverse=True)

    @settings(max_examples=30, deadline=None)
    @given(ido_instances(max_agents=3, max_chores=6, max_value=20))
    def test_generous_caps_drain_everything(self, inst):
        profile = mms_profile(inst)
        for factor in (Fraction(11, 9), Fraction(2)):
            caps = ThresholdVector(tuple(factor * mu for mu in profile.values))
            result = greedy_fill(ordered_instance(inst), caps)
            assert result.allocation.complete


class TestCheckAmms:
    def test_witness_is_one_mms(self):
        inst = Instance.from_rows([[9, 7, 6, 5, 5] + [4] * 9] * 4)
        profile = mms_profile(inst)
        report = check_amms(inst, profile.witnesses[0], profile, Fraction(1))
        assert report.passed
        assert max(r for r in report.ratios) <= 1

    def test_boundary_ratio_cutoff(self):
        f1 = builtin_fixtures()[0]
        result = uniform_fill(f1.instance, 20)
        profile = mms_profile(f1.instance)
        assert check_amms(
            f1.instance, result.allocation, profile, Fraction(20, 17)
        ).passed
        assert not check_amms(
            f1.instance, result.allocation, profile, Fraction(19, 17)
        ).passed

    def test_all_zero_valuations(self):
        inst = Instance.from_rows([[0, 0], [0, 0]])
        profile = mms_profile(inst)
        alloc = Allocation(
            bundles=(frozenset({0, 1}), frozenset()), leftover=frozenset()
        )
        report = check_amms(inst, alloc, profile, Fraction(1, 100))
        assert report.passed
        assert report.ratios == (Fraction(0), Fraction(0))

    def test_zero_share_with_positive_load_fails(self):
        inst = Instance.from_rows([[5]])
        alloc = Allocation(bundles=(frozenset({0}),), leftover=frozenset())
        fake = MmsProfile(values=(0,))
        report = check_amms(inst, alloc, fake, Fraction(2))
        assert not report.passed
        assert report.ratios == (None,)

    def test_incomplete_rejected(self):
        inst = Instance.from_rows([[5]])
        partial = Allocation(bundles=(frozenset(),), leftover=frozenset({0}))
        with pytest.raises(InputError):
            check_amms(inst, partial, MmsProfile(values=(5,)), Fraction(1))

    def test_short_profile_rejected(self):
        inst = Instance.from_rows([[5], [5]])
        alloc = Allocation(bundles=(frozenset({0}), frozenset()), leftover=frozenset())
        with pytest.raises(InputError, match="^profile does not match the instance$"):
            check_amms(inst, alloc, MmsProfile(values=(5,)), Fraction(1))
