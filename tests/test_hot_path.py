"""Differential tests: the integer-only hot path against its earlier code.

Each ``reference_*`` function is a frozen copy of the layer as it was
before caps were floored to integers, rows were sorted once per agent
and the lift walked per-agent pointers. ``reference_greedy_fill`` also
still scans every remaining chore against every agent, which the
packed greedy no longer does. The current layers must agree
with them exactly on the builtin fixtures and a seeded corpus with zero
values, ties, fewer chores than agents and no chores at all, and the
greedy also at the edges of its field width.

``reference_greedy_fill`` still scans a raw identically-ordered instance
in ``ido_order``, as ``greedy_fill`` once did. ``greedy_fill`` now takes
only ``ordered_instance(inst)``, and on such instances its result, with
each position p read as chore ``ido_order(inst)[p]``, must equal the
raw scan's.

``reference_lift_allocation`` breaks ties between equal chores highest
index first: the lift reads each owner's ``ordered_instance`` row from
its cheap end, and ``_descending`` lists equal chores lowest index
first, so from that end the highest index comes first.

``reference_ordered_instance`` sorts each row's chores by (-value,
index) on its own; an ``OrderedInstance`` built from its source must
hold exactly those sorted rows and ranks.
"""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import pytest
from conftest import SEED_HOT_PATH_CORPUS, oracle_corpus, rebuilt, reference_large_test

from fairchores import (
    Allocation,
    GeneratorConfig,
    GreedyResult,
    Instance,
    OracleLimits,
    OrderedInstance,
    TestOutcome as Outcome,
    ThresholdVector,
    builtin_fixtures,
    generate,
    greedy_fill,
    greedy_trace,
    ido_order,
    lift_allocation,
    mms_profile,
    ordered_instance,
    schedule_119,
    schedule_lpt,
    search_threshold,
    solve_existence_119,
    solve_poly_54,
    threshold_test,
)
from fairchores import greedy, instances, solvers
from fairchores.instances import MAX_VALUE, allocation_loads
from fairchores.scheduling import _pigeonhole


def reference_greedy_fill(
    target, thresholds: ThresholdVector
) -> Tuple[GreedyResult, List[dict]]:
    """The round greedy comparing integer loads against ``Fraction`` caps.

    Returns the result and, apart from it, the trace ``greedy_trace``
    gives: one record per accepted chore, in acceptance order.
    """
    if isinstance(target, OrderedInstance):
        inst = target.instance
        scan = list(range(inst.num_chores))
    else:
        inst = target
        scan = list(ido_order(inst))
    n = inst.num_agents
    rows = inst.valuations
    unassigned = list(range(n))
    bundles: List[frozenset] = [frozenset()] * n
    assignment: List[int] = []
    trace: List[dict] = []
    for round_index in range(n):
        loads = {i: 0 for i in unassigned}
        bundle: List[int] = []
        kept: List[int] = []
        for chore in scan:
            witness: Optional[int] = None
            for i in unassigned:
                if loads[i] + rows[i][chore] <= thresholds[i]:
                    witness = i
                    break
            if witness is None:
                kept.append(chore)
                continue
            bundle.append(chore)
            for i in unassigned:
                loads[i] += rows[i][chore]
            trace.append(
                {"round": round_index, "chore": chore, "witness": witness,
                 "load": loads[witness]}
            )
        owner = next(i for i in unassigned if loads[i] <= thresholds[i])
        bundles[owner] = frozenset(bundle)
        assignment.append(owner)
        unassigned.remove(owner)
        scan = kept
    allocation = Allocation(bundles=tuple(bundles), leftover=frozenset(scan))
    return GreedyResult(allocation=allocation, assignment=tuple(assignment)), trace


def reference_threshold_test(inst: Instance, agent: int, s: int) -> Outcome:
    """The two-stage test re-sorting the row and running the positional
    reference, ``conftest.reference_large_test``, on it."""
    desc = sorted(inst.row(agent), reverse=True)
    passed, k = reference_large_test(desc, inst.num_agents, s)
    return Outcome(passed=passed, really_large_count=k)


def reference_search_threshold(inst: Instance, agent: int) -> int:
    """Boundary search over [lower, 2*lower] calling the reference test."""
    lower = _pigeonhole(sorted(inst.row(agent), reverse=True), inst.num_agents)
    if lower == 0:
        return 0
    lo, hi = lower, 2 * lower
    assert reference_threshold_test(inst, agent, hi).passed
    while lo < hi:
        mid = (lo + hi) // 2
        if reference_threshold_test(inst, agent, mid).passed:
            hi = mid
        else:
            lo = mid + 1
    return lo


def reference_lift_allocation(inst: Instance, ord_alloc: Allocation) -> Allocation:
    """The lift taking ``min`` over the set of remaining chores."""
    n, m = inst.num_agents, inst.num_chores
    owner = [0] * m
    for i, bundle in enumerate(ord_alloc.bundles):
        for j in bundle:
            owner[j] = i
    remaining = set(range(m))
    picked: List[List[int]] = [[] for _ in range(n)]
    for j in range(m - 1, -1, -1):
        agent = owner[j]
        row = inst.valuations[agent]
        chore = min(remaining, key=lambda c: (row[c], -c))
        picked[agent].append(chore)
        remaining.remove(chore)
    return Allocation(
        bundles=tuple(frozenset(b) for b in picked), leftover=frozenset()
    )


def reference_ordered_instance(inst: Instance) -> Tuple[Instance, Tuple[Tuple[int, ...], ...]]:
    """The sorted rows and their ranks, each row's chores by (-value, index)."""
    ranks = tuple(
        tuple(sorted(range(inst.num_chores), key=lambda c: (-row[c], c)))
        for row in inst.valuations
    )
    rows = tuple(tuple(row[c] for c in rank) for row, rank in zip(inst.valuations, ranks))
    return Instance(inst.num_agents, inst.num_chores, rows), ranks


def ido_instance(rng: random.Random, n: int, m: int, top: int) -> Instance:
    """Rows that share one descending order, with chores relabelled at random."""
    base = sorted((rng.randint(0, top) for _ in range(m)), reverse=True)
    rows = []
    for _ in range(n):
        row = sorted((max(0, v + rng.randint(-2, 2)) for v in base), reverse=True)
        rows.append(row)
    labels = list(range(m))
    rng.shuffle(labels)
    return Instance.from_rows([[row[labels[c]] for c in range(m)] for row in rows])


def hot_path_corpus() -> List[Instance]:
    """Seeded instances: small values for ties and zeros, m from 0 past n."""
    rng = random.Random(SEED_HOT_PATH_CORPUS)
    corpus = [
        Instance.from_rows([[]]),
        Instance.from_rows([[], [], []]),
        Instance.from_rows([[0, 0], [0, 0], [0, 0]]),
        Instance.from_rows([[5, 5, 5, 5, 5]] * 2),
    ]
    for idx in range(150):
        n = rng.randint(1, 6)
        m = rng.randint(0, 20)
        top = rng.choice((1, 4, 30))
        if idx % 3 == 0:
            corpus.append(ido_instance(rng, n, m, top))
        else:
            corpus.append(
                Instance.from_rows(
                    [[rng.randint(0, top) for _ in range(m)] for _ in range(n)]
                )
            )
    return corpus


CORPUS = hot_path_corpus()
FIXTURES = [f.instance for f in builtin_fixtures()]


def ido_edge_cases() -> List[tuple]:
    """Pinned IDO instances, some with chore labels out of order, and caps."""
    uneven = [1, 3, 5, 1, 3, 5]  # descending order 2, 5, 1, 4, 0, 3
    return [
        (Instance.from_rows([[]]), (0,)),  # n = 1, m = 0
        (Instance.from_rows([[], [], []]), (1, 0, 2)),  # m = 0
        (Instance.from_rows([[3] * 5]), (7,)),  # n = 1, three chores stranded
        # All-equal rows: each round starts past the chores earlier ones took.
        (Instance.from_rows([[2] * 9, [2] * 9, [3] * 9]), (5, 4, Fraction(13, 2))),
        # Zero caps keep the zero chores and strand the rest.
        (Instance.from_rows([[0, 4, 0, 2], [0, 5, 0, 1]]), (0, 0)),
        # Round 1's bisection lands on a 1 that round 0 took and skips it
        # to the other 1, stranding a 3.
        (Instance.from_rows([uneven, uneven]), (5, Fraction(23, 2))),
    ]


def width_edge_cases() -> List[tuple]:
    """Instances and caps at the edges of ``greedy._fill``'s field width.

    The width holds the largest cap and m times the largest value with 2
    bits to spare, so a top of 30, 31, 62 and 63 bits needs fields of
    exactly 32, 33, 64 and 65 bits. In each pinned case agent 0 takes
    chore 0 in round 0, and round 1 charges that served agent's field
    three values of 2^(b-2) - 1 while agent 1 fills its room of 3
    exactly. At 31 and 63 bits, with one bit less to spare, that charge
    would borrow from agent 1's field.
    """
    rng = random.Random(SEED_HOT_PATH_CORPUS)
    cases = []
    for bits in (30, 31, 62, 63):
        v = (1 << (bits - 2)) - 1
        cases.append((Instance.from_rows([[v] * 4, [4, 1, 1, 1]]), (v, 3)))
        # The same top from a cap over small values, and from the values.
        cases.append((Instance.from_rows([[3, 2, 2], [2, 2, 1]]), ((1 << bits) - 1, 3)))
        for _ in range(10):
            n, m = rng.randint(1, 4), rng.randint(1, 6)
            high = ((1 << bits) - 1) // m
            values = [rng.randint(high // 2, high) for _ in range(n * m)]
            values[0] = high
            inst = Instance.from_rows([values[i * m:(i + 1) * m] for i in range(n)])
            caps = tuple(Fraction(rng.randint(0, 3 * sum(row)), 3) for row in inst.valuations)
            cases.append((inst, caps))
    return cases + [
        # Rows of MAX_VALUE, at caps of whole values and above 2^64.
        (Instance.from_rows([[MAX_VALUE] * 3, [MAX_VALUE, 1, 0]]), (MAX_VALUE, 2 * MAX_VALUE)),
        (Instance.from_rows([[MAX_VALUE] * 3] * 2), (2**64 + 1, 2**70)),
        (Instance.from_rows([[7, 5, 0], [6, 6, 1]]), (2**64, 3)),
        # Zero caps, all-zero rows, no chores and one agent.
        (Instance.from_rows([[0, 0, 0], [0, 0, 0]]), (0, 0)),
        (Instance.from_rows([[0, 0], [0, 0]]), (2**65, 0)),
        (Instance.from_rows([[4, 3], [5, 1]]), (0, 0)),
        (Instance.from_rows([[], []]), (0, 2**64)),
        (Instance.from_rows([[MAX_VALUE, 2, 1]]), (3,)),
    ]


def untaken_bisections(ordd: OrderedInstance, result: GreedyResult) -> int:
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


def sweep(inst: Instance, agent: int) -> range:
    """Every s in [lower, 2*lower], with lower 0 read as 1 so that a zero row sweeps [1, 2]."""
    lower = max(_pigeonhole(sorted(inst.row(agent), reverse=True), inst.num_agents), 1)
    return range(lower, 2 * lower + 1)


def assert_threshold_test_matches(inst: Instance) -> None:
    for agent in range(inst.num_agents):
        for s in sweep(inst, agent):
            got = threshold_test(inst, agent, s)
            want = reference_threshold_test(inst, agent, s)
            assert got.passed == want.passed, (agent, s)
            assert got.really_large_count == want.really_large_count, (agent, s)


def assert_search_matches(inst: Instance) -> None:
    for agent in range(inst.num_agents):
        assert search_threshold(inst, agent) == reference_search_threshold(inst, agent)


def cap_vectors(inst: Instance, rng: random.Random) -> List[ThresholdVector]:
    """Caps at 5s/4 of the searched thresholds, then at random fractions.

    The random caps lie between 0 and twice the pigeonhole bound with
    denominators up to 12, so most are not integers and some strand
    chores in the leftover.
    """
    n = inst.num_agents
    s_values = [search_threshold(inst, i) for i in range(n)]
    caps = [ThresholdVector(tuple(Fraction(5 * s, 4) for s in s_values))]
    lowers = [_pigeonhole(sorted(row, reverse=True), n) for row in inst.valuations]
    for _ in range(3):
        den = rng.randint(2, 12)
        caps.append(
            ThresholdVector(
                tuple(
                    Fraction(rng.randint(0, 2 * den * max(1, lower)), den)
                    for lower in lowers
                )
            )
        )
    return caps


def as_chores(
    result: GreedyResult, trace: List[dict], order: Sequence[int]
) -> Tuple[GreedyResult, List[dict]]:
    """The ordered-instance result and trace with each position p read as order[p]."""

    def chores(positions) -> frozenset:
        return frozenset(order[p] for p in positions)

    alloc = result.allocation
    mapped = GreedyResult(
        allocation=Allocation(
            bundles=tuple(map(chores, alloc.bundles)), leftover=chores(alloc.leftover)
        ),
        assignment=result.assignment,
    )
    return mapped, [{**e, "chore": order[e["chore"]]} for e in trace]


def assert_greedy_matches(inst: Instance, caps: ThresholdVector) -> None:
    ordd = ordered_instance(inst)
    got = greedy_fill(ordd, caps), greedy_trace(ordd, caps)
    assert got == reference_greedy_fill(ordd, caps)
    order = ido_order(inst)
    if order is not None:
        assert as_chores(*got, order) == reference_greedy_fill(inst, caps)


def owned(inst: Instance, owners: List[int]) -> Allocation:
    """The complete ordered allocation giving position j to ``owners[j]``."""
    bundles = tuple(
        frozenset(j for j, o in enumerate(owners) if o == i)
        for i in range(inst.num_agents)
    )
    return Allocation(bundles=bundles, leftover=frozenset())


def assert_lift_matches(inst: Instance, owners: List[int]) -> None:
    ordd = ordered_instance(inst)
    ord_alloc = owned(inst, owners)
    got = lift_allocation(ordd, ord_alloc)
    assert got == reference_lift_allocation(inst, ord_alloc)


class TestThresholdTest:
    def test_corpus_and_fixtures(self):
        for inst in CORPUS + FIXTURES:
            assert_threshold_test_matches(inst)


class TestSearchThreshold:
    def test_corpus_and_fixtures(self):
        for inst in CORPUS + FIXTURES:
            assert_search_matches(inst)


class TestGreedyFill:
    def test_corpus_at_fractional_caps(self):
        rng = random.Random(SEED_HOT_PATH_CORPUS)
        fractional = [0, 0]  # at 5s/4 (s not divisible by 4), at random caps
        for inst in CORPUS:
            for idx, caps in enumerate(cap_vectors(inst, rng)):
                fractional[idx > 0] += sum(t.denominator > 1 for t in caps.thresholds)
                assert_greedy_matches(inst, caps)
        assert min(fractional) > 0

    def test_fixtures_and_small_corpus_at_eleven_ninths_of_the_share(self):
        fractional = 0
        for inst in FIXTURES + CORPUS[:60]:
            caps = ThresholdVector(
                tuple(Fraction(11 * mu, 9) for mu in mms_profile(inst).values)
            )
            fractional += sum(t.denominator > 1 for t in caps.thresholds)
            assert_greedy_matches(inst, caps)
        assert fractional > 0

    def test_pinned_ido_edge_cases_on_both_paths(self):
        stranded = 0
        for inst, caps in ido_edge_cases():
            caps = ThresholdVector(caps)
            assert ido_order(inst) is not None
            assert_greedy_matches(inst, caps)
            result = greedy_fill(ordered_instance(inst), caps)
            stranded += bool(result.allocation.leftover)
        assert stranded >= 3

    def test_corpus_takes_chores_at_and_off_the_pointer(self):
        rng = random.Random(2025)
        config = GeneratorConfig(seed=2025, agents=(1, 5), chores=(0, 20), value_max=50)
        bisections = accepted = incomplete = 0
        for inst in FIXTURES + list(generate(config, 200)):
            n = inst.num_agents
            caps = ThresholdVector(
                tuple(Fraction(rng.randint(7, 14) * sum(row), 10 * n) for row in inst.valuations)
            )
            assert_greedy_matches(inst, caps)
            ordd = ordered_instance(inst)
            result = greedy_fill(ordd, caps)
            bisections += untaken_bisections(ordd, result)
            accepted += inst.num_chores - len(result.allocation.leftover)
            incomplete += not result.allocation.complete
        # The corpus takes chores both at and off the pointer, and strands some.
        assert 0 < bisections < accepted and incomplete > 0

    def test_field_width_edges(self):
        for inst, caps in width_edge_cases():
            assert_greedy_matches(inst, ThresholdVector(caps))

    def test_large_ido_instance_at_five_quarters(self):
        inst = ido_instance(random.Random(SEED_HOT_PATH_CORPUS), 60, 600, 1000)
        assert ido_order(inst) is not None
        caps = ThresholdVector(
            tuple(Fraction(5 * search_threshold(inst, i), 4) for i in range(60))
        )
        assert_greedy_matches(inst, caps)


class TestLiftAllocation:
    def test_corpus_and_fixtures(self):
        rng = random.Random(SEED_HOT_PATH_CORPUS)
        for inst in CORPUS + FIXTURES:
            for _ in range(3):
                owners = [
                    rng.randrange(inst.num_agents) for _ in range(inst.num_chores)
                ]
                assert_lift_matches(inst, owners)


def reference_allocate_within(
    ordd: OrderedInstance, bases: Sequence[int], num: int, den: int
) -> Tuple[ThresholdVector, Allocation, Tuple[int, ...]]:
    """``solvers._allocate_within`` as the public layers compose it:
    ``Fraction`` caps, ``greedy_fill``, ``lift_allocation`` and
    ``allocation_loads``, with both re-checks as assertions."""
    caps = ThresholdVector(tuple(Fraction(num * b, den) for b in bases))
    result = greedy_fill(ordd, caps)
    assert result.allocation.complete
    lifted = lift_allocation(ordd, result.allocation)
    loads = allocation_loads(ordd.source, lifted)
    assert all(load <= cap for load, cap in zip(loads, caps.thresholds))
    return caps, lifted, loads


class TestAllocateWithin:
    """The solvers' final step, on list cores and integer caps, returns
    exactly what the public greedy, lift and loads return."""

    def test_corpora_and_fixtures(self):
        limits = OracleLimits(max_chores=20)
        for inst in oracle_corpus() + CORPUS + FIXTURES:
            ordd = ordered_instance(inst)
            shares = mms_profile(inst, limits).values
            searched = [search_threshold(inst, i) for i in range(inst.num_agents)]
            for bases, num, den in ((shares, 11, 9), (searched, 5, 4)):
                got = solvers._allocate_within(ordd, bases, num, den)
                assert got == reference_allocate_within(ordd, bases, num, den)


class TestOrderedInstance:
    """An ordered instance is built from its source alone, and a copy keeps
    the sorted rows and ranks built from it."""

    def test_built_from_its_source(self):
        for inst in oracle_corpus() + CORPUS + FIXTURES:
            ordd = OrderedInstance(inst)
            assert ordd == ordered_instance(inst)
            assert ordd.source is inst
            assert (ordd.instance, ordd.source_ranks) == reference_ordered_instance(inst)

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy]
        + [
            lambda obj, p=protocol: pickle.loads(pickle.dumps(obj, protocol=p))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ],
        ids=["copy", "deepcopy"] + [f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)],
    )
    def test_copies_keep_the_sorted_rows_and_ranks(self, clone):
        rng = random.Random(SEED_HOT_PATH_CORPUS)
        for inst in FIXTURES + CORPUS[:30]:
            ordd = ordered_instance(inst)
            twin = clone(ordd)
            assert twin.source == inst
            assert twin.instance == ordd.instance
            assert twin.source_ranks == ordd.source_ranks
            owners = [rng.randrange(inst.num_agents) for _ in range(inst.num_chores)]
            ord_alloc = owned(inst, owners)
            assert lift_allocation(twin, ord_alloc) == lift_allocation(ordd, ord_alloc)


class TestTrustedBuilds:
    """Every object built through ``instances._trusted`` passes its checks.

    ``_trusted`` skips ``__post_init__`` for what the package derives
    from a checked instance: the greedy's allocations, allocations from
    ``_chore_allocation`` (each share witness, both schedules and
    threshold_test's benchmark) and from ``lift_allocation``, the sorted
    rows of an ``OrderedInstance``, and caps.
    Rebuilding each through its public constructor must give it back
    unchanged, so the skipped checks are shown to be redundant.
    """

    def test_corpora_and_fixtures(self, monkeypatch):
        built = []
        trusted = instances._trusted

        def recorded(cls, **fields):
            obj = trusted(cls, **fields)
            built.append(obj)
            return obj

        for module in (instances, solvers, greedy):
            monkeypatch.setattr(module, "_trusted", recorded)
        limits = OracleLimits(max_chores=20)
        for inst in oracle_corpus() + CORPUS:
            solve_existence_119(inst, limits)
            solve_poly_54(inst)
            for i, row in enumerate(inst.valuations):
                schedule_119(row, inst.num_agents)
                schedule_lpt(row, inst.num_agents)
                threshold_test(inst, i, search_threshold(inst, i))
        kinds = {type(obj) for obj in built}
        assert kinds == {Allocation, Instance, ThresholdVector}
        for obj in built:
            assert rebuilt(obj) == obj
