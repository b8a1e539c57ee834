"""Threshold greedy: fixture rounds, edge cases, bisections, share-ratio checking."""

from __future__ import annotations

import bisect
import random
import re
from fractions import Fraction

import pytest

from fairchores import (
    Allocation,
    GeneratorConfig,
    InputError,
    Instance,
    MmsProfile,
    ThresholdVector,
    builtin_fixtures,
    check_amms,
    generate,
    greedy,
    greedy_fill,
    mms_profile,
    ordered_instance,
)


def uniform_fill(inst: Instance, threshold) -> "GreedyResult":
    return greedy_fill(
        ordered_instance(inst), ThresholdVector.uniform(inst.num_agents, threshold)
    )


def bundle_values(inst: Instance, result, agent_view=0):
    ordered = ordered_instance(inst).instance.row(agent_view)
    return [
        tuple(sorted((ordered[c] for c in result.allocation.bundles[i]), reverse=True))
        for i in result.assignment
    ]


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


def untaken_bisections(ordd, result) -> int:
    """Bisections of the untaken positions that ``result`` took.

    Each round's scan pointer starts at the first untaken position. A
    chore accepted at the pointer needs none; any other accepted chore,
    and the search that ends a round short of the untaken list's end,
    need one each.
    """
    left = list(range(ordd.instance.num_chores))
    count = 0
    for owner in result.assignment:
        at = 0
        for chore in sorted(result.allocation.bundles[owner]):
            count += left[at] != chore
            at = left.index(chore)
            del left[at]
        count += at < len(left)
    return count


def test_untaken_positions_bisected_only_off_the_pointer(monkeypatch):
    calls = {"row": 0, "untaken": 0}

    def counting(seq, x, lo=0, hi=None, *, key=None):
        calls["untaken" if key is None else "row"] += 1
        return bisect.bisect_left(seq, x, lo, len(seq) if hi is None else hi, key=key)

    monkeypatch.setattr(greedy, "bisect_left", counting)
    rng = random.Random(2025)
    config = GeneratorConfig(seed=2025, agents=(1, 5), chores=(0, 20), value_max=50)
    corpus = [f.instance for f in builtin_fixtures()] + list(generate(config, 200))
    accepted = incomplete = 0
    for inst in corpus:
        ordd = ordered_instance(inst)
        n = inst.num_agents
        caps = ThresholdVector(
            tuple(Fraction(rng.randint(7, 14) * sum(row), 10 * n) for row in inst.valuations)
        )
        before = calls["untaken"]
        result = greedy_fill(ordd, caps)
        assert calls["untaken"] - before == untaken_bisections(ordd, result)
        accepted += inst.num_chores - len(result.allocation.leftover)
        incomplete += not result.allocation.complete
    # The corpus takes chores both at and off the pointer, and strands some.
    assert 0 < calls["untaken"] < accepted
    assert calls["row"] > 0 and incomplete > 0


def test_greedy_completes_at_13_11_of_the_shares():
    """Observed on a pinned corpus; Huang & Segal-Halevi (2023) prove it.

    The 11/9 solver's caps stay the bound this library proves.
    """
    config = GeneratorConfig(seed=2024, agents=(2, 5), chores=(12, 14), value_max=1000)
    corpus = [f.instance for f in builtin_fixtures()]
    for k, inst in enumerate(generate(config, 400)):
        # Every second instance gives all agents one shared row.
        corpus.append(Instance.from_rows([inst.row(0)] * inst.num_agents) if k % 2 == 0 else inst)
    stranded = []
    for inst in corpus:
        caps = ThresholdVector(tuple(Fraction(13 * mu, 11) for mu in mms_profile(inst).values))
        if not greedy_fill(ordered_instance(inst), caps).allocation.complete:
            stranded.append(inst)
    assert len(corpus) == 403 and stranded == []


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

    @pytest.mark.parametrize(
        "values, alpha, message",
        [
            ((5, 5), "5/4", "alpha must be an integer or a Fraction, got '5/4'"),
            ((5, 5), None, "alpha must be an integer or a Fraction, got None"),
            ((5, 5), 1.5, "alpha must be an integer or a Fraction, got 1.5"),
            ((5, 5), True, "alpha must be an integer or a Fraction, got True"),
            ((1.5, 5), Fraction(1), "profile value 0 must be an integer, got 1.5"),
            ((5, "2"), Fraction(1), "profile value 1 must be an integer, got '2'"),
            ((-3, 5), Fraction(1), "profile value 0 must be at least 0"),
        ],
    )
    def test_inputs_follow_the_caps_and_integer_rules(self, values, alpha, message):
        inst = Instance.from_rows([[5], [5]])
        alloc = Allocation(bundles=(frozenset({0}), frozenset()), leftover=frozenset())
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            check_amms(inst, alloc, MmsProfile(values=values), alpha)
