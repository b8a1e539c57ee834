"""The package's frozen records behave as the frozen dataclasses they replace.

For each of the 15 record classes, one representative object: its repr
is pinned to the string the dataclass version printed, it equals and
hashes as a copy rebuilt through its constructor, it survives deepcopy
and pickle, and it refuses assignment and deletion. Construction takes
the fields by position, by keyword and from their defaults, and any
other call raises ``TypeError``.
"""

from __future__ import annotations

import copy
import inspect
import pickle
from fractions import Fraction

import pytest
from conftest import RECORD_FIELDS, rebuilt

import fairchores as fc
from fairchores.instances import _trusted
from fairchores.solvers import threshold_test

INST = fc.Instance.from_rows([[3, 1, 2], [2, 2, 1]])
ALLOC = fc.Allocation(bundles=[[0], [1, 2]], leftover=[])
PROFILE = fc.mms_profile(INST)

# Each class's representative and the repr its frozen dataclass printed.
WITNESSES = (
    "(Allocation(bundles=(frozenset({0}), frozenset({1, 2})), leftover=frozenset()), "
    "Allocation(bundles=(frozenset({0, 2}), frozenset({1})), leftover=frozenset()))"
)
GREEDY_ALLOC = "Allocation(bundles=(frozenset({1}), frozenset({0, 2})), leftover=frozenset())"
REPRESENTATIVES = [
    (
        INST,
        "Instance(num_agents=2, num_chores=3, valuations=((3, 1, 2), (2, 2, 1)))",
    ),
    (
        fc.ordered_instance(INST),
        "OrderedInstance(source=Instance(num_agents=2, num_chores=3, "
        "valuations=((3, 1, 2), (2, 2, 1))))",
    ),
    (
        ALLOC,
        "Allocation(bundles=(frozenset({0}), frozenset({1, 2})), leftover=frozenset())",
    ),
    (
        fc.ThresholdVector((Fraction(5, 2), 3)),
        "ThresholdVector(thresholds=(Fraction(5, 2), Fraction(3, 1)))",
    ),
    (
        fc.verify_allocation(INST, ALLOC, fc.ThresholdVector.uniform(2, 3)),
        "VerificationReport(loads=(3, 3), within_threshold=(True, True), complete=True)",
    ),
    (
        fc.Fixture(name="tiny", instance=INST, scale=1, expected={"mms": (3, 3)}),
        "Fixture(name='tiny', instance=Instance(num_agents=2, num_chores=3, "
        "valuations=((3, 1, 2), (2, 2, 1))), scale=1, expected={'mms': (3, 3)})",
    ),
    (
        fc.GeneratorConfig(seed=1),
        "GeneratorConfig(seed=1, agents=(2, 5), chores=(2, 14), value_max=50, ido_only=False)",
    ),
    (
        fc.greedy_fill(fc.ordered_instance(INST), fc.ThresholdVector.uniform(2, 3)),
        f"GreedyResult(allocation={GREEDY_ALLOC}, assignment=(1, 0))",
    ),
    (
        fc.schedule_119([3, 3, 2, 2, 2], 2),
        "ScheduleResult(allocation=Allocation(bundles=(frozenset({0, 1}), "
        "frozenset({2, 3, 4})), leftover=frozenset()), loads=(6, 6), makespan=6)",
    ),
    (
        fc.OracleLimits(),
        "OracleLimits(max_chores=24, node_budget=100000000)",
    ),
    (
        PROFILE,
        f"MmsProfile(values=(3, 3), witnesses={WITNESSES})",
    ),
    (
        fc.check_amms(INST, ALLOC, PROFILE, Fraction(11, 9)),
        "AmmsReport(passed=True, within=(True, True), "
        "ratios=(Fraction(1, 1), Fraction(1, 1)))",
    ),
    (
        threshold_test(INST, 0, 4),
        "TestOutcome(passed=True, really_large_count=1)",
    ),
    (
        fc.solve_existence_119(INST),
        f"ExistenceResult(allocation={GREEDY_ALLOC}, "
        f"profile=MmsProfile(values=(3, 3), witnesses={WITNESSES}), "
        "ratios=(Fraction(1, 3), Fraction(1, 1)), "
        "thresholds=ThresholdVector(thresholds=(Fraction(11, 3), Fraction(11, 3))), "
        "loads=(1, 3))",
    ),
    (
        fc.solve_poly_54(INST),
        f"PolyResult(allocation={GREEDY_ALLOC}, "
        "thresholds=ThresholdVector(thresholds=(Fraction(15, 4), Fraction(15, 4))), "
        "s_values=(3, 3), loads=(1, 3))",
    ),
]
OBJECTS = [obj for obj, _ in REPRESENTATIVES]
IDS = [type(obj).__name__ for obj in OBJECTS]

# The fields that have defaults, and those defaults.
DEFAULTS = {
    fc.GeneratorConfig: {"agents": (2, 5), "chores": (2, 14), "value_max": 50, "ido_only": False},
    fc.OracleLimits: {"max_chores": 24, "node_budget": 100_000_000},
    fc.MmsProfile: {"witnesses": None},
}


def values(obj) -> list:
    return [getattr(obj, name) for name in RECORD_FIELDS[type(obj)]]


def test_every_record_class_has_a_representative():
    assert set(map(type, OBJECTS)) == set(RECORD_FIELDS)
    assert len(OBJECTS) == len(RECORD_FIELDS) == 15


@pytest.mark.parametrize("obj", OBJECTS, ids=IDS)
def test_fields_and_signature(obj):
    cls = type(obj)
    fields = RECORD_FIELDS[cls]
    assert cls.__match_args__ == fields
    signature = inspect.signature(cls)
    assert tuple(signature.parameters) == fields
    defaults = {
        name: p.default
        for name, p in signature.parameters.items()
        if p.default is not inspect.Parameter.empty
    }
    assert defaults == DEFAULTS.get(cls, {})


@pytest.mark.parametrize(("obj", "pinned"), REPRESENTATIVES, ids=IDS)
def test_repr(obj, pinned):
    assert repr(obj) == pinned


@pytest.mark.parametrize("obj", OBJECTS, ids=IDS)
def test_eq_and_hash_against_a_rebuilt_copy(obj):
    twin = rebuilt(obj)
    assert twin is not obj
    assert twin == obj and not twin != obj
    if isinstance(obj, fc.Fixture):
        # Its expected outcomes are a dict, so neither version hashes.
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(twin) == hash(obj)
    # Another class, or one field that differs, is not equal.
    assert obj.__eq__(tuple(values(obj))) is NotImplemented
    fields = dict(zip(RECORD_FIELDS[type(obj)], values(obj)))
    last = RECORD_FIELDS[type(obj)][-1]
    assert _trusted(type(obj), **{**fields, last: object()}) != obj


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy]
    + [
        lambda obj, p=protocol: pickle.loads(pickle.dumps(obj, protocol=p))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ],
    ids=["copy", "deepcopy"] + [f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)],
)
@pytest.mark.parametrize("obj", OBJECTS, ids=IDS)
def test_copy_and_pickle_round_trips(obj, clone):
    twin = clone(obj)
    assert type(twin) is type(obj)
    assert twin == obj
    assert repr(twin) == repr(obj)


@pytest.mark.parametrize("obj", OBJECTS, ids=IDS)
def test_assigning_or_deleting_raises(obj):
    before = repr(obj)
    for name in (*RECORD_FIELDS[type(obj)], "not_a_field"):
        with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
            delattr(obj, name)
    assert repr(obj) == before


@pytest.mark.parametrize("obj", OBJECTS, ids=IDS)
def test_construction(obj):
    cls, fields, args = type(obj), RECORD_FIELDS[type(obj)], values(obj)
    keywords = dict(zip(fields, args))
    assert cls(*args) == obj
    assert cls(**keywords) == obj
    assert cls(**dict(reversed(keywords.items()))) == obj
    assert cls(*args[:1], **dict(list(keywords.items())[1:])) == obj
    defaults = DEFAULTS.get(cls, {})
    required = {name: value for name, value in keywords.items() if name not in defaults}
    built = cls(**required)
    for name, default in defaults.items():
        assert getattr(built, name) == default
        assert name == "witnesses" or getattr(cls, name) == default
    for name in required:
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in keywords.items() if k != name})
    for bad in (
        lambda: cls(*args, **{"not_a_field": 0}),
        lambda: cls(*args, None),
        lambda: cls(*args[:1], **keywords),
    ):
        with pytest.raises(TypeError):
            bad()
