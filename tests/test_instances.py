"""Data model: construction contracts, ordering, lifting, verification."""

from __future__ import annotations

import json
import re
import sys
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairchores import (
    Allocation,
    GeneratorConfig,
    InputError,
    Instance,
    MmsProfile,
    OracleLimits,
    OrderedInstance,
    ThresholdVector,
    check_amms,
    exact_mms,
    generate,
    greedy_fill,
    greedy_trace,
    ido_order,
    lift_allocation,
    mms_profile,
    naive_test,
    optimal_makespan,
    ordered_instance,
    schedule_119,
    schedule_lpt,
    search_threshold,
    solve_existence_119,
    solve_poly_54,
    threshold_test,
    verify_allocation,
)
from fairchores.instances import (
    MAX_VALUE,
    _as_int,
    allocation_from_json,
    allocation_to_json,
    instance_from_json,
    instance_to_json,
)


def make_instance(rows) -> Instance:
    return Instance.from_rows(rows)


@st.composite
def instances(draw, max_agents=4, max_chores=8, max_value=30):
    n = draw(st.integers(1, max_agents))
    m = draw(st.integers(0, max_chores))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, max_value), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    return Instance.from_rows(rows)


class TestInstance:
    def test_basic_fields(self):
        inst = make_instance([[3, 1, 2], [1, 2, 3]])
        assert inst.num_agents == 2
        assert inst.num_chores == 3
        assert inst.value(0, {0, 2}) == 5
        assert sum(inst.row(1)) == 6

    def test_rejects_empty_agent_list(self):
        with pytest.raises(InputError):
            make_instance([])

    def test_rejects_ragged_rows(self):
        with pytest.raises(InputError):
            Instance(num_agents=2, num_chores=2, valuations=((1, 2), (1,)))

    def test_rejects_negative_values(self):
        with pytest.raises(InputError):
            make_instance([[1, -1]])

    def test_rejects_non_integer_values(self):
        with pytest.raises(InputError):
            make_instance([[1.5, 2]])
        with pytest.raises(InputError):
            make_instance([[True, 2]])

    def test_rejects_oversized_values(self):
        with pytest.raises(InputError):
            make_instance([[2**63]])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Instance.from_rows([5]), "agent 0: expected a row of values, got 5"),
            (lambda: Instance.from_rows([[1, 2], 3]), "agent 1: expected a row of values, got 3"),
            (lambda: Instance.from_rows([None]), "agent 0: expected a row of values, got None"),
            (lambda: Instance(1, 1, [None]), "agent 0: expected a row of values, got None"),
            (lambda: Instance.from_rows(5), "valuations must be a sequence of rows"),
        ],
        ids=["int-row", "second-int-row", "None-row", "Instance-None-row", "int-rows"],
    )
    def test_rejects_rows_that_are_not_iterable(self, build, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            build()

    def test_rejects_bad_counts(self):
        with pytest.raises(InputError, match="^num_agents must be at least 1$"):
            Instance(num_agents=0, num_chores=0, valuations=())
        with pytest.raises(InputError, match="^num_chores must be at least 0$"):
            Instance(num_agents=1, num_chores=-1, valuations=((),))

    def test_agent_index_checked(self):
        inst = make_instance([[1, 2]])
        with pytest.raises(InputError):
            inst.row(1)

    # The chores are priced under an Allocation's rules: the index rule
    # first, then a repeat is refused rather than counted twice, and so
    # is a value that is no collection.
    @pytest.mark.parametrize(
        "chores, message",
        [
            ([0, 0], "chores list chore 0 more than once"),
            ((1, 0, 1), "chores list chore 1 more than once"),
            ([0, 0, 2], "chore index must be at most 1"),
            (None, "chores must be a collection of chore indices, got None"),
        ],
        ids=["repeat", "later-repeat", "index-rule-first", "None"],
    )
    def test_value_follows_the_allocation_rules(self, chores, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            make_instance([[5, 3]]).value(0, chores)


# The one integer rule at every public entry point that takes a count,
# an index, a limit or a threshold: (id, what, call, lo, hi), where a
# bound of None means the site takes every integer on that side.
_TWO = Instance.from_rows([[3, 2, 1], [3, 2, 1]])
_INTEGER_SITES = [
    ("row", "agent index", _TWO.row, 0, 1),
    ("value", "chore index", lambda c: _TWO.value(0, [0, c]), 0, 2),
    ("seed", "seed", GeneratorConfig, None, None),
    ("exact_mms", "agent index", lambda a: exact_mms(_TWO, a), 0, 1),
    ("search_threshold", "agent index", lambda a: search_threshold(_TWO, a), 0, 1),
    ("naive_test", "threshold s", lambda s: naive_test(_TWO, 0, s), 0, sys.maxsize),
    ("threshold_test", "threshold s", lambda s: threshold_test(_TWO, 0, s), 0, sys.maxsize),
    ("max_chores", "max_chores", lambda v: OracleLimits(max_chores=v), 1, sys.maxsize),
    ("node_budget", "node_budget", lambda v: OracleLimits(node_budget=v), 1, sys.maxsize),
    ("agents0", "agents[0]", lambda v: GeneratorConfig(1, agents=(v, 5)), 1, sys.maxsize),
    ("agents1", "agents[1]", lambda v: GeneratorConfig(1, agents=(2, v)), 2, sys.maxsize),
    ("chores0", "chores[0]", lambda v: GeneratorConfig(1, chores=(v, 14)), 0, sys.maxsize),
    ("chores1", "chores[1]", lambda v: GeneratorConfig(1, chores=(2, v)), 2, sys.maxsize),
    ("value_max", "value_max", lambda v: GeneratorConfig(1, value_max=v), 1, MAX_VALUE),
    ("generate", "count", lambda v: generate(GeneratorConfig(1), v), 0, sys.maxsize),
]


def _integer_rule_cases():
    for site, what, call, lo, hi in _INTEGER_SITES:
        for bad in (True, 2.5, "2"):
            message = f"{what} must be an integer, got {bad!r}"
            yield pytest.param(call, bad, message, id=f"{site}-{bad!r}")
        if lo is not None:
            below = f"{what} must be at least {lo}"
            yield pytest.param(call, lo - 1, below, id=f"{site}-below")
        if hi is not None:
            above = f"{what} must be at most {hi}"
            yield pytest.param(call, hi + 1, above, id=f"{site}-above")


@pytest.mark.parametrize("call, bad, message", _integer_rule_cases())
def test_integer_rule(call, bad, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call(bad)


# The integer rule from 0 to MAX_VALUE at every public entry point that
# takes a row of values: (id, call on one row, label of value c in that row).
_VALUE_SITES = [
    ("Instance", lambda row: Instance(2, len(row), ([0] * len(row), row)), "valuations[1][{}]"),
    ("from_rows", lambda row: Instance.from_rows([row]), "valuations[0][{}]"),
    (
        "instance_from_json",
        lambda row: instance_from_json({"agents": 1, "chores": len(row), "valuations": [row]}),
        "valuations[0][{}]",
    ),
    ("schedule_119", lambda row: schedule_119(row, 2), "job {}"),
    ("schedule_lpt", lambda row: schedule_lpt(row, 2), "job {}"),
    ("optimal_makespan", lambda row: optimal_makespan(row, 2), "job {}"),
]


# Each bad value with the end of its message.
_BAD_VALUES = [
    (True, "must be an integer, got True"),
    (1.5, "must be an integer, got 1.5"),
    ("3", "must be an integer, got '3'"),
    (None, "must be an integer, got None"),
    (-1, "must be at least 0"),
    (2**63, "must be at most 9223372036854775807"),
]


def _value_rule_cases():
    for site, call, label in _VALUE_SITES:
        for bad, end in _BAD_VALUES:
            for c in (0, 2, 4):
                message = f"{label.format(c)} {end}"
                yield pytest.param(call, bad, c, message, id=f"{site}-{bad!r}-at-{c}")


@pytest.mark.parametrize("call, bad, c, message", _value_rule_cases())
def test_value_rule(call, bad, c, message):
    # The row is otherwise valid, so the first bad value is the one at c.
    row = [4, 3, 2, 1, MAX_VALUE]
    row[c] = bad
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call(row)


@pytest.mark.parametrize("bad", [-1, 2**63, 1.0, True, "3"], ids=repr)
@pytest.mark.parametrize(
    "call, label", [site[1:] for site in _VALUE_SITES], ids=[site[0] for site in _VALUE_SITES]
)
def test_value_rule_is_the_integer_rule(call, label, bad):
    # Each site raises exactly what the integer rule says of that value.
    for c in (0, 2, 4):
        row = [4, 3, 2, 1, MAX_VALUE]
        row[c] = bad
        with pytest.raises(InputError) as expected:
            _as_int(bad, label.format(c), 0, MAX_VALUE)
        with pytest.raises(InputError) as raised:
            call(row)
        assert str(raised.value) == str(expected.value)


class _Level(IntEnum):
    HIGH = 7


@pytest.mark.parametrize("call", [call for _, call, _ in _VALUE_SITES])
def test_value_rule_accepts_int_subclasses_and_empty_rows(call):
    assert call([5, _Level.HIGH, 0]) == call([5, 7, 0])
    call([])


# Each entry point that takes a checked object refuses a look-alike with
# an InputError, rather than reading it unchecked or failing on a missing
# attribute: (id, call, message).
_WHOLE = Allocation(bundles=(frozenset({0}), frozenset({1, 2})), leftover=frozenset())
_ROWS = [list(row) for row in _TWO.valuations]
_NOT_INSTANCE = "inst must be an Instance, got list"
_LIMITS = {"max_chores": 24, "node_budget": 100}
_NOT_LIMITS = "limits must be an OracleLimits, got dict"
_OBJECT_SITES = [
    (
        "verify_allocation",
        lambda: verify_allocation(_TWO, _WHOLE, [0.5, 0.5]),
        "thresholds must be a ThresholdVector, got list",
    ),
    (
        "greedy_fill",
        lambda: greedy_fill(ordered_instance(_TWO), [Fraction(5)] * 2),
        "thresholds must be a ThresholdVector, got list",
    ),
    (
        "greedy_trace",
        lambda: greedy_trace(ordered_instance(_TWO), [Fraction(5)] * 2),
        "thresholds must be a ThresholdVector, got list",
    ),
    (
        "check_amms",
        lambda: check_amms(_TWO, _WHOLE, (3, 3), Fraction(1)),
        "profile must be an MmsProfile, got tuple",
    ),
    (
        "lift_allocation",
        lambda: lift_allocation(_TWO, _WHOLE),
        "lift_allocation needs ordered_instance(inst), not a raw instance",
    ),
    ("ordered_instance-rows", lambda: ordered_instance(_ROWS), _NOT_INSTANCE),
    ("mms_profile-rows", lambda: mms_profile(_ROWS), _NOT_INSTANCE),
    ("solve_poly_54-rows", lambda: solve_poly_54(_ROWS), _NOT_INSTANCE),
    ("solve_existence_119-rows", lambda: solve_existence_119(_ROWS), _NOT_INSTANCE),
    ("search_threshold-rows", lambda: search_threshold(_ROWS, 0), _NOT_INSTANCE),
    ("naive_test-rows", lambda: naive_test(_ROWS, 0, 1), _NOT_INSTANCE),
    ("threshold_test-rows", lambda: threshold_test(_ROWS, 0, 1), _NOT_INSTANCE),
    ("exact_mms-rows", lambda: exact_mms(_ROWS, 0), _NOT_INSTANCE),
    ("ido_order-rows", lambda: ido_order(_ROWS), _NOT_INSTANCE),
    (
        "verify_allocation-dict",
        lambda: verify_allocation(_TWO, allocation_to_json(_WHOLE), ThresholdVector.uniform(2, 5)),
        "alloc must be an Allocation, got dict",
    ),
    (
        "verify_allocation-tuple",
        lambda: verify_allocation(_TWO, tuple(_WHOLE.bundles), ThresholdVector.uniform(2, 5)),
        "alloc must be an Allocation, got tuple",
    ),
    (
        "check_amms-dict",
        lambda: check_amms(_TWO, allocation_to_json(_WHOLE), MmsProfile((3, 3)), Fraction(1)),
        "alloc must be an Allocation, got dict",
    ),
    (
        "check_amms-tuple",
        lambda: check_amms(_TWO, tuple(_WHOLE.bundles), MmsProfile((3, 3)), Fraction(1)),
        "alloc must be an Allocation, got tuple",
    ),
    (
        "OrderedInstance",
        lambda: OrderedInstance([[1]]),
        "source must be an Instance, got list",
    ),
    (
        "generate",
        lambda: generate({"seed": 1}, 1),
        "config must be a GeneratorConfig, got dict",
    ),
    ("mms_profile-limits", lambda: mms_profile(_TWO, _LIMITS), _NOT_LIMITS),
    ("exact_mms-limits", lambda: exact_mms(_TWO, 0, _LIMITS), _NOT_LIMITS),
    ("optimal_makespan-limits", lambda: optimal_makespan([2, 1], 2, _LIMITS), _NOT_LIMITS),
    ("solve_existence_119-limits", lambda: solve_existence_119(_TWO, _LIMITS), _NOT_LIMITS),
    (
        "MmsProfile-values",
        lambda: MmsProfile(values=None),
        "profile values must be an Iterable, got NoneType",
    ),
    (
        "MmsProfile-witnesses",
        lambda: MmsProfile(values=(3,), witnesses=5),
        "profile witnesses must be an Iterable, got int",
    ),
    (
        "MmsProfile-witness-count",
        lambda: MmsProfile(values=(3,), witnesses=("x", "y")),
        "expected 1 profile witnesses, got 2",
    ),
    (
        "MmsProfile-witness",
        lambda: MmsProfile(values=(3, 3), witnesses=(_WHOLE, "y")),
        "profile witness 1 must be an Allocation, got str",
    ),
    (
        "ThresholdVector",
        lambda: ThresholdVector(thresholds=None),
        "thresholds must be an Iterable, got NoneType",
    ),
    (
        "GeneratorConfig-agents",
        lambda: GeneratorConfig(seed=1, agents=None),
        "agents must be an Iterable, got NoneType",
    ),
    (
        "GeneratorConfig-chores",
        lambda: GeneratorConfig(seed=1, chores=None),
        "chores must be an Iterable, got NoneType",
    ),
]


@pytest.mark.parametrize(
    "call, message", [pytest.param(c, m, id=site) for site, c, m in _OBJECT_SITES]
)
def test_argument_objects_are_checked(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()


def test_profile_keeps_one_allocation_per_share():
    assert MmsProfile(values=[3, 3], witnesses=[_WHOLE, _WHOLE]).witnesses == (_WHOLE, _WHOLE)
    assert MmsProfile(values=(3,)).witnesses is None


class TestAllocation:
    def test_overlap_rejected(self):
        with pytest.raises(InputError):
            Allocation(bundles=(frozenset({0}), frozenset({0})), leftover=frozenset())

    def test_gap_rejected(self):
        # Chore 1 is missing entirely.
        with pytest.raises(InputError):
            Allocation(bundles=(frozenset({0}), frozenset({2})), leftover=frozenset())

    @pytest.mark.parametrize(
        "bundles, leftover, message",
        [
            ([{1.0}, {0}], [2], "chore index must be an integer, got 1.0"),
            ([{True}, {0}], [2], "chore index must be an integer, got True"),
            ([[0, 0], [1]], [], "bundle 0 lists a chore more than once"),
            ([[0], [1]], [2, 2], "leftover lists a chore more than once"),
            (None, [0], "bundles and leftover must be collections of chore indices"),
        ],
        ids=["float-index", "bool-index", "repeat-in-bundle", "repeat-in-leftover", "None-bundles"],
    )
    def test_chore_indices_are_checked(self, bundles, leftover, message):
        # The JSON reader's index rule, for every caller: a float or a bool
        # would pass as an equal int, and a frozenset merges a repeat.
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            Allocation(bundles=bundles, leftover=leftover)

    def test_complete_flag(self):
        alloc = Allocation(bundles=(frozenset({0, 1}),), leftover=frozenset())
        assert alloc.complete
        partial = Allocation(bundles=(frozenset({0}),), leftover=frozenset({1}))
        assert not partial.complete
        assert partial.num_chores == 2


class TestThresholdVector:
    def test_uniform(self):
        caps = ThresholdVector.uniform(3, Fraction(11, 9))
        assert len(caps) == 3
        assert caps[2] == Fraction(11, 9)

    def test_negative_rejected(self):
        with pytest.raises(InputError, match="^threshold 0 must be at least 0$"):
            ThresholdVector((Fraction(-1),))

    def test_ints_become_fractions(self):
        caps = ThresholdVector((3, Fraction(5, 4), 0))
        assert caps.thresholds == (Fraction(3), Fraction(5, 4), Fraction(0))
        assert all(type(t) is Fraction for t in caps.thresholds)

    @pytest.mark.parametrize(
        "bad", [True, False, 0.1, 1.0, float("nan"), "x", "5/4", None]
    )
    def test_only_ints_and_fractions_are_caps(self, bad):
        # A bool would read as 0 or 1, a float as a long binary fraction,
        # and a string is not a number: each is refused, not converted.
        message = f"^threshold 1 must be an integer or a Fraction, got {re.escape(repr(bad))}$"
        with pytest.raises(InputError, match=message):
            ThresholdVector((Fraction(1), bad))

    def test_uniform_checks_its_count_and_value(self):
        assert ThresholdVector.uniform(0, 5).thresholds == ()
        with pytest.raises(InputError, match="^threshold count must be an integer, got 2.0$"):
            ThresholdVector.uniform(2.0, 5)
        with pytest.raises(InputError, match="^threshold count must be an integer, got True$"):
            ThresholdVector.uniform(True, 5)
        with pytest.raises(InputError, match="^threshold count must be at least 0$"):
            ThresholdVector.uniform(-1, 5)
        with pytest.raises(InputError, match="^threshold 0 must be at least 0$"):
            ThresholdVector.uniform(2, -1)
        with pytest.raises(InputError, match="^threshold 0 must be an integer or a Fraction, got 0.5$"):
            ThresholdVector.uniform(2, 0.5)


class TestOrderedInstance:
    def test_small_example(self):
        ordd = ordered_instance(make_instance([[3, 1, 2], [1, 2, 3]]))
        assert ordd.instance.valuations == ((3, 2, 1), (3, 2, 1))
        assert ordd.source_ranks == ((0, 2, 1), (2, 1, 0))

    def test_sorted_rows_keep_identity_permutation(self):
        inst = make_instance([[5, 3, 1], [5, 3, 1]])
        ordd = ordered_instance(inst)
        assert ordd.source_ranks == ((0, 1, 2), (0, 1, 2))
        assert ordd.instance.valuations == inst.valuations

    def test_ties_broken_by_chore_index(self):
        ordd = ordered_instance(make_instance([[4, 7, 4]]))
        assert ordd.source_ranks == ((1, 0, 2),)

    @settings(max_examples=60)
    @given(instances())
    def test_idempotent_on_own_output(self, inst):
        once = ordered_instance(inst)
        twice = ordered_instance(once.instance)
        assert twice.instance == once.instance
        assert all(
            rank == tuple(range(inst.num_chores)) for rank in twice.source_ranks
        )


class TestIsIdo:
    def test_shared_order(self):
        assert ido_order(make_instance([[3, 2, 1], [6, 4, 2]])) is not None

    def test_opposite_orders(self):
        assert ido_order(make_instance([[3, 1], [1, 3]])) is None

    def test_tie_conflict(self):
        assert ido_order(make_instance([[2, 2, 1], [1, 2, 2]])) is None

    def test_tie_resolvable(self):
        assert ido_order(make_instance([[2, 2, 1], [3, 2, 2]])) is not None

    def test_ido_order_is_valid_when_present(self):
        inst = make_instance([[2, 2, 1], [3, 2, 2]])
        order = ido_order(inst)
        for row in inst.valuations:
            assert all(row[a] >= row[b] for a, b in zip(order, order[1:]))

    @settings(max_examples=60)
    @given(instances())
    def test_ordered_instance_always_ido(self, inst):
        assert ido_order(ordered_instance(inst).instance) is not None


class TestLiftAllocation:
    def test_hand_walked_example(self):
        inst = make_instance([[3, 1, 2], [1, 2, 3]])
        ordd = ordered_instance(inst)
        ord_alloc = Allocation(
            bundles=(frozenset({0}), frozenset({1, 2})), leftover=frozenset()
        )
        lifted = lift_allocation(ordd, ord_alloc)
        assert lifted.bundles == (frozenset({2}), frozenset({0, 1}))
        assert inst.value(0, lifted.bundles[0]) == 2
        assert inst.value(1, lifted.bundles[1]) == 3

    def test_equal_chores_go_highest_index_first(self):
        # Agent 0 values chores 1 and 2 equally; agent 1 finds chore 2 costliest.
        inst = make_instance([[5, 2, 2], [1, 3, 4]])
        ordd = ordered_instance(inst)
        ord_alloc = Allocation(
            bundles=(frozenset({2}), frozenset({0, 1})), leftover=frozenset()
        )
        lifted = lift_allocation(ordd, ord_alloc)
        # Position 2: agent 0 takes chore 2 of their tie {1, 2}. Positions 1
        # and 0: agent 1 takes chore 0 (cost 1), then chore 1 (cost 3).
        assert lifted.bundles == (frozenset({2}), frozenset({0, 1}))
        assert inst.value(1, lifted.bundles[1]) == 4

    def test_identical_rows_preserve_loads(self):
        inst = make_instance([[9, 7, 4, 4], [9, 7, 4, 4]])
        ordd = ordered_instance(inst)
        ord_alloc = Allocation(
            bundles=(frozenset({0, 3}), frozenset({1, 2})), leftover=frozenset()
        )
        lifted = lift_allocation(ordd, ord_alloc)
        for i in range(2):
            ordered_load = ordd.instance.value(i, ord_alloc.bundles[i])
            assert inst.value(i, lifted.bundles[i]) == ordered_load

    def test_rejects_leftover(self):
        inst = make_instance([[3, 1], [1, 3]])
        ordd = ordered_instance(inst)
        partial = Allocation(
            bundles=(frozenset({0}), frozenset()), leftover=frozenset({1})
        )
        with pytest.raises(InputError):
            lift_allocation(ordd, partial)

    def test_rejects_mismatched_shapes(self):
        inst = make_instance([[3, 1], [1, 3]])
        ordd = ordered_instance(inst)
        one_bundle = Allocation(bundles=(frozenset({0, 1}),), leftover=frozenset())
        with pytest.raises(InputError, match="^ordered allocation does not match"):
            lift_allocation(ordd, one_bundle)


class TestVerifyAllocation:
    def test_all_leftover(self):
        inst = make_instance([[5, 5], [5, 5]])
        alloc = Allocation(
            bundles=(frozenset(), frozenset()), leftover=frozenset({0, 1})
        )
        report = verify_allocation(inst, alloc, ThresholdVector.uniform(2, 10))
        assert report.loads == (0, 0)
        assert not report.complete

    def test_zero_thresholds_fail_nonzero_loads(self):
        inst = make_instance([[5, 5], [5, 5]])
        alloc = Allocation(
            bundles=(frozenset({0}), frozenset({1})), leftover=frozenset()
        )
        report = verify_allocation(inst, alloc, ThresholdVector.uniform(2, 0))
        assert report.within_threshold == (False, False)
        assert report.complete

    def test_a_load_at_its_cap_is_within_and_one_above_is_not(self):
        inst = make_instance([[5, 5], [5, 5]])
        alloc = Allocation(bundles=(frozenset({0}), frozenset({1})), leftover=frozenset())
        report = verify_allocation(inst, alloc, ThresholdVector((5, 4)))
        assert report.within_threshold == (True, False)

    def test_dimension_mismatch(self):
        inst = make_instance([[5, 5], [5, 5]])
        alloc = Allocation(bundles=(frozenset({0, 1}),), leftover=frozenset())
        with pytest.raises(InputError):
            verify_allocation(inst, alloc, ThresholdVector.uniform(1, 10))
        short = Allocation(bundles=(frozenset({0}), frozenset()), leftover=frozenset())
        with pytest.raises(InputError):
            verify_allocation(inst, short, ThresholdVector.uniform(2, 10))

    def test_short_threshold_vector(self):
        inst = make_instance([[5, 5], [5, 5]])
        alloc = Allocation(bundles=(frozenset({0}), frozenset({1})), leftover=frozenset())
        for count in (1, 3):
            with pytest.raises(InputError, match="^threshold vector length"):
                verify_allocation(inst, alloc, ThresholdVector.uniform(count, 10))


class TestJsonInterchange:
    def test_instance_round_trip(self):
        inst = make_instance([[3, 1, 2], [1, 2, 3]])
        obj = instance_to_json(inst)
        assert instance_from_json(json.loads(json.dumps(obj))) == inst

    def test_allocation_round_trip_is_stable(self):
        alloc = Allocation(
            bundles=(frozenset({2, 0}), frozenset({1})), leftover=frozenset({3})
        )
        first = json.dumps(allocation_to_json(alloc), sort_keys=True)
        second = json.dumps(
            allocation_to_json(allocation_from_json(json.loads(first))),
            sort_keys=True,
        )
        assert first == second

    def test_bad_shapes_rejected(self):
        with pytest.raises(InputError):
            instance_from_json({"agents": 1, "chores": 1})
        with pytest.raises(InputError):
            instance_from_json({"agents": 2, "chores": 1, "valuations": [[1]]})
        with pytest.raises(InputError):
            allocation_from_json({"bundles": "nope", "leftover": []})
        with pytest.raises(InputError):
            allocation_from_json({"bundles": [[0]], "leftover": [0]})

    def test_chore_repeated_within_one_part_rejected(self):
        # A frozenset would merge the repeat into a valid-looking bundle.
        with pytest.raises(InputError, match="^bundle 0 lists a chore more than once$"):
            allocation_from_json({"bundles": [[0, 0], [1, 2]], "leftover": []})
        with pytest.raises(InputError, match="^leftover lists a chore more than once$"):
            allocation_from_json({"bundles": [[0], [1]], "leftover": [2, 2]})
        # Repeats across parts keep their own message.
        with pytest.raises(InputError, match="pairwise disjoint"):
            allocation_from_json({"bundles": [[0], [0, 1]], "leftover": []})

    def test_malformed_fields_rejected(self):
        with pytest.raises(InputError, match="^agents must be an integer"):
            instance_from_json({"agents": "2", "chores": 1, "valuations": [[1], [1]]})
        with pytest.raises(InputError, match="^valuations must be a list of rows$"):
            instance_from_json({"agents": 1, "chores": 1, "valuations": [1]})
        with pytest.raises(InputError, match="^allocation JSON must be an object$"):
            allocation_from_json([[0]])
        with pytest.raises(InputError, match="^allocation JSON missing key 'leftover'$"):
            allocation_from_json({"bundles": [[0]]})
        with pytest.raises(InputError, match="^leftover must be an index list$"):
            allocation_from_json({"bundles": [[0]], "leftover": 1})
