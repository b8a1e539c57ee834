"""Exact oracle: fixture values, limit handling and two references.

Shares are checked against ``conftest.enumerate_min_makespan``, which
keeps every reachable vector of loads. Witnesses, node counts and budget
stops are checked against ``recursive_search``, the oracle's search
written recursively, which runs with and without its waste bound: the
two give the same share and witness on every row, so the bound only
prunes, and the oracle takes the pruned search's nodes, node for node.
"""

from __future__ import annotations

import bisect
import copy
import hashlib
import json
import math
import pickle
import random
import sys
import tracemalloc
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairchores import (
    Allocation,
    GeneratorConfig,
    InputError,
    Instance,
    InstanceTooLargeError,
    MmsProfile,
    NodeBudgetError,
    OracleLimits,
    builtin_fixtures,
    exact_mms,
    generate,
    mms_profile,
    optimal_makespan,
    schedule_lpt,
    solve_existence_119,
)
from fairchores import instances, oracle
from fairchores.instances import allocation_to_json
from conftest import (
    SEED_ORACLE_CORPUS,
    SEED_PROFILE_CORPUS,
    enumerate_min_makespan,
    oracle_corpus,
    rebuilt,
)


# 7 sevens, 7 fives and 8 threes: on 3 bins LPT misses the share 36.
SEVENS_FIVES_THREES = [7] * 7 + [5] * 7 + [3] * 8
# The same row with each value times 4096 plus 1: gcd 1, past SUBSET_CAP.
PAST_THE_GATE = [v * 4096 + 1 for v in SEVENS_FIVES_THREES]
# 5 values 9K + 1, 5 values 6K + 1 and 6 values 4K + 1, K = 2**20.
NINES_SIXES_FOURS_NEAR_2_TO_THE_20 = [v * 2**20 + 1 for v in [9] * 5 + [6] * 5 + [4] * 6]


def identical(row, n=4) -> Instance:
    return Instance.from_rows([list(row)] * n)


@st.composite
def job_lists(draw, max_len=8, max_value=30):
    return draw(st.lists(st.integers(0, max_value), min_size=0, max_size=max_len))


class TestExactMms:
    def test_boundary_fixture_value(self):
        f1 = builtin_fixtures()[0]
        value, witness = exact_mms(f1.instance, 0)
        assert value == 17
        assert max(f1.instance.value(0, b) for b in witness.bundles) == 17
        assert witness.complete

    def test_non_monotone_fixture_value(self):
        f2 = builtin_fixtures()[1]
        value, _ = exact_mms(f2.instance, 0, OracleLimits(max_chores=17))
        assert value == 150

    def test_single_agent_gets_everything(self):
        inst = Instance.from_rows([[4, 9, 2]])
        value, witness = exact_mms(inst, 0)
        assert value == 15
        assert witness.bundles[0] == frozenset({0, 1, 2})

    def test_more_agents_than_chores(self):
        inst = identical([8, 3], n=5)
        value, _ = exact_mms(inst, 0)
        assert value == 8

    def test_no_chores(self):
        value, witness = exact_mms(identical([], n=3), 0)
        assert value == 0
        assert witness.complete and witness.num_chores == 0

    def test_witness_load_equals_value(self):
        rng = random.Random(99)
        for _ in range(50):
            n = rng.randint(2, 4)
            m = rng.randint(n, 8)
            row = [rng.randint(0, 40) for _ in range(m)]
            inst = identical(row, n=n)
            value, witness = exact_mms(inst, 0)
            assert witness.complete
            assert max(inst.value(0, b) for b in witness.bundles) == value

    @settings(max_examples=40, deadline=None)
    @given(job_lists(max_len=7, max_value=25), st.integers(2, 4))
    def test_matches_exhaustive_enumeration(self, row, machines):
        inst = identical(row, n=machines)
        value, _ = exact_mms(inst, 0)
        assert value == enumerate_min_makespan(row, machines)

    @settings(max_examples=40, deadline=None)
    @given(job_lists(max_len=8), st.integers(2, 4), st.integers(1, 5))
    def test_row_scaling_scales_value(self, row, machines, factor):
        base, _ = exact_mms(identical(row, n=machines), 0)
        scaled, _ = exact_mms(identical([factor * v for v in row], n=machines), 0)
        assert scaled == factor * base

    @settings(max_examples=60, deadline=None)
    @given(job_lists(), st.integers(2, 5))
    def test_pigeonhole_bracket(self, row, machines):
        inst = identical(row, n=machines)
        value, _ = exact_mms(inst, 0)
        total = sum(row)
        top = max(row) if row else 0
        lower = max(-(-total // machines), top)
        assert lower <= value <= 2 * lower


class TestLimits:
    def test_instance_too_large(self):
        inst = identical([1] * 25, n=2)
        with pytest.raises(InstanceTooLargeError):
            exact_mms(inst, 0)
        value, _ = exact_mms(inst, 0, OracleLimits(max_chores=25))
        assert value == 13

    def test_node_budget_is_a_hard_error(self):
        # LPT yields 7 here while the bracket floor is 6, so the
        # search must actually branch and trips a one-node budget.
        inst = identical([3, 3, 2, 2, 2], n=2)
        with pytest.raises(NodeBudgetError):
            exact_mms(inst, 0, OracleLimits(node_budget=1))
        value, _ = exact_mms(inst, 0)
        assert value == 6

    def test_limit_validation(self):
        with pytest.raises(InputError):
            OracleLimits(max_chores=0)
        with pytest.raises(InputError):
            OracleLimits(node_budget=0)


class TestProfile:
    def test_identical_rows_identical_values(self):
        # Two of {5, 4, 3} must share a bundle, so 7 beats the pigeonhole 6.
        profile = mms_profile(identical([6, 5, 4, 3], n=3))
        assert profile.values == (7, 7, 7)
        assert profile.witnesses is not None

    def test_single_agent_profile_is_total(self):
        profile = mms_profile(Instance.from_rows([[2, 3, 4]]))
        assert profile.values == (9,)

    def test_one_search_per_distinct_sorted_row(self, monkeypatch):
        searched = []
        search = oracle._min_makespan

        def counting(desc, n, limits):
            searched.append(tuple(desc))
            return search(desc, n, limits)

        monkeypatch.setattr(oracle, "_min_makespan", counting)
        a = [7, 5, 4, 4, 3, 1]
        b = [6, 6, 5, 2, 2, 1]
        profile = mms_profile(Instance.from_rows([a, a[::-1], b, a, b[3:] + b[:3]]))
        assert searched == [tuple(sorted(a, reverse=True)), tuple(sorted(b, reverse=True))]
        assert profile.values == (7, 7, 6, 7, 6)

    def test_witnesses_are_exact_mms_witnesses(self):
        rng = random.Random(SEED_ORACLE_CORPUS)
        base = [rng.randint(0, 1000) for _ in range(13)]
        permuted = []
        for _ in range(4):
            row = base.copy()
            rng.shuffle(row)
            permuted.append(row)
        limits = OracleLimits(max_chores=17)
        for inst in oracle_corpus() + [Instance.from_rows(permuted)]:
            profile = mms_profile(inst, limits)
            # The solver searches its own ordered instance with the same core.
            assert solve_existence_119(inst, limits).profile == profile
            for agent, (value, witness) in enumerate(
                zip(profile.values, profile.witnesses)
            ):
                assert (value, witness) == exact_mms(inst, agent, limits)
                assert witness.complete
                assert max(inst.value(agent, b) for b in witness.bundles) == value

    # Every (share, witness) pair of solve_existence_119 on 300 generated
    # instances (n 2-5, m 12-14, values 0-1000). allocation_sha256 pins
    # only the allocations, so this pins the witnesses the oracle picks.
    PROFILE_SHA256 = "5ce76fb0fa23e46acbe10f48444fa1f352b6a049d34a9ccd2afff789f743ebec"
    # The nodes the searches of those solves take, one search per distinct
    # sorted row: the work a pruning rule saves, which no clock can blur.
    PROFILE_NODES = 70_980

    def test_profile_digest_is_pinned(self, monkeypatch):
        nodes = []
        search = oracle._min_makespan

        def counted(desc, n, limits):
            found = search(desc, n, limits)
            nodes.append(found[2])
            return found

        monkeypatch.setattr(oracle, "_min_makespan", counted)
        config = GeneratorConfig(
            seed=SEED_PROFILE_CORPUS, agents=(2, 5), chores=(12, 14), value_max=1000
        )
        digest = hashlib.sha256()
        for inst in generate(config, 300):
            profile = solve_existence_119(inst).profile
            for share, witness in zip(profile.values, profile.witnesses):
                line = json.dumps([share, allocation_to_json(witness)])
                digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == self.PROFILE_SHA256
        assert sum(nodes) == self.PROFILE_NODES

    def test_solver_sorts_each_row_once(self, monkeypatch):
        calls = []
        sort = instances._descending

        def counted(row):
            calls.append(len(row))
            return sort(row)

        # Every module that binds the sort, so a second sort anywhere counts.
        for name, module in list(sys.modules.items()):
            if name.startswith("fairchores") and hasattr(module, "_descending"):
                monkeypatch.setattr(module, "_descending", counted)
        for inst in oracle_corpus():
            calls.clear()
            solve_existence_119(inst, OracleLimits(max_chores=17))
            # Equal rows share one sort.
            assert calls == [inst.num_chores] * len(set(inst.valuations))

    def test_witnesses_are_built_on_first_read(self, monkeypatch):
        built = []
        witness = instances._witness

        def counted(order, bins, n):
            built.append(n)
            return witness(order, bins, n)

        # Every module that binds the name, so a build anywhere counts.
        for name, module in list(sys.modules.items()):
            if name.startswith("fairchores") and hasattr(module, "_witness"):
                monkeypatch.setattr(module, "_witness", counted)
        limits = OracleLimits(max_chores=17)
        for inst in oracle_corpus():
            built.clear()
            profiles = [solve_existence_119(inst, limits).profile, mms_profile(inst, limits)]
            assert built == []
            for profile in profiles:
                first = profile.witnesses
                assert profile.witnesses is first
            assert built == [inst.num_agents] * (2 * inst.num_agents)

    def test_unread_profile_equals_eager_one(self):
        limits = OracleLimits(max_chores=17)
        for inst in oracle_corpus():
            values, witnesses = zip(
                *(exact_mms(inst, agent, limits) for agent in range(inst.num_agents))
            )
            eager = MmsProfile(values=values, witnesses=witnesses)
            assert mms_profile(inst, limits) == eager
            assert repr(mms_profile(inst, limits)) == repr(eager)
            assert hash(mms_profile(inst, limits)) == hash(eager)
            assert rebuilt(mms_profile(inst, limits)) == eager

    @pytest.mark.parametrize(
        "clones",
        [
            lambda profile: [copy.copy(profile)],
            lambda profile: [copy.deepcopy(profile)],
            lambda profile: [
                pickle.loads(pickle.dumps(profile, protocol=p))
                for p in range(pickle.HIGHEST_PROTOCOL + 1)
            ],
        ],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_of_an_unread_profile(self, clones):
        limits = OracleLimits(max_chores=17)
        for inst in oracle_corpus():
            values, witnesses = zip(
                *(exact_mms(inst, agent, limits) for agent in range(inst.num_agents))
            )
            eager = MmsProfile(values=values, witnesses=witnesses)
            for unread in (mms_profile(inst, limits), solve_existence_119(inst, limits).profile):
                for copied in clones(unread):
                    # The copy carries the recipe, not built witnesses.
                    assert sorted(vars(copied)) == ["_pending", "values"]
                    assert copied == eager
                    assert copied.witnesses == witnesses
                assert "witnesses" not in vars(unread)


class TestOptimalMakespan:
    def test_two_machine_example(self):
        assert optimal_makespan([3, 3, 2, 2, 2], 2) == 6

    def test_single_machine_is_total(self):
        assert optimal_makespan([4, 1, 7], 1) == 12

    def test_non_monotone_fixture_jobs(self):
        row = builtin_fixtures()[1].instance.row(0)
        assert optimal_makespan(row, 4, OracleLimits(max_chores=17)) == 150

    # 2 machines x 400 fives, 400 fours and 401 threes: LPT misses the
    # pigeonhole bound 2402, and the search without the waste rule took
    # 167,052 nodes. Trailing zeros add no subset sum, so the rule still
    # fires; the search takes 1,502 nodes plus one per zero.
    @pytest.mark.parametrize("zeros", [0, 1, 5])
    def test_five_four_three_row_fits_a_small_budget(self, zeros):
        row = [5] * 400 + [4] * 400 + [3] * 401 + [0] * zeros
        limits = OracleLimits(max_chores=5000, node_budget=10_000)
        assert optimal_makespan(row, 2, limits) == 2402
        assert oracle._min_makespan(row, 2, limits)[2] == 1502 + zeros

    # Machines past one per job stay idle: the search gets one bin per
    # job, so the value is the uncapped search's and the memory is flat.
    @settings(max_examples=60, deadline=None)
    @given(job_lists(), st.integers(1, 16))
    def test_matches_the_search_on_every_machine(self, row, machines):
        desc = sorted(row, reverse=True)
        assert optimal_makespan(row, machines) == oracle._min_makespan(
            desc, machines, OracleLimits()
        )[0]

    def test_idle_machines_cost_no_memory(self):
        tracemalloc.start()
        try:
            assert optimal_makespan([3, 2, 2], 10**5) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_machine_count_checked(self):
        with pytest.raises(InputError):
            optimal_makespan([1, 2], 0)

    def test_machine_count_checked_before_any_value(self):
        with pytest.raises(InputError, match="machines must be at least 1"):
            optimal_makespan([True, -1, 2**63], 0)

    # The jobs are checked as the schedulers check them: the 64-bit cap
    # applies and the messages name the job.
    @pytest.mark.parametrize(
        "bad, message",
        [
            (True, r"^job 1 must be an integer, got True$"),
            (-1, r"^job 1 must be at least 0$"),
            (2**63, r"^job 1 must be at most 9223372036854775807$"),
        ],
        ids=["True", "-1", "2**63"],
    )
    def test_jobs_are_checked_as_a_job_list(self, bad, message):
        with pytest.raises(InputError, match=message):
            optimal_makespan([4, bad, 1], 2)


def recursive_search(
    inst: Instance, agent: int, limits: OracleLimits, waste_rule: bool = True
) -> Tuple[int, Allocation, int]:
    """The current search, written recursively, with its node count.

    The row is searched divided by its gcd and the makespan multiplied
    back, and a depth returns as soon as a bin carries the incumbent, so
    the witness is the first schedule in depth-first order that reaches
    the optimum. With ``waste_rule``, a placement short of the last
    depth is counted but not descended into when the bins' unusable room
    exceeds the slack. The subset sums of each suffix are taken at a
    resolution q: ``first_cap // oracle.SUBSET_CAP + 1`` for the first
    cap (the LPT makespan minus one), raised until the table fits
    ``oracle.SUBSET_BITS`` or reads every value as 0. They are the sums
    of the values divided by q and rounded down, up to ``first_cap // q``.
    Later values that fit in a room floor to at most the largest such
    sum F at or below ``room // q``, each losing less than q, so they
    fill at most ``q * F + (q - 1) * c`` for c positive values: no more
    than remain, nor than ``room // p``, p the smallest positive value.
    A room below p is wasted whole, a larger one its room minus that
    fill, when positive.
    """
    row = inst.row(agent)
    n, m = inst.num_agents, inst.num_chores
    if m > limits.max_chores:
        raise InstanceTooLargeError(f"{m} chores exceeds the oracle limit of {limits.max_chores}")

    order = sorted(range(m), key=lambda c: (-row[c], c))
    g = math.gcd(*row) or 1
    values = [row[c] // g for c in order]
    total = sum(values)
    lower = max(-(-total // n), values[0]) if m else 0
    p = min((v for v in values if v), default=0)

    seed = schedule_lpt(row, n)
    incumbent, witness = seed.makespan // g, seed.allocation
    nodes = 0
    first_cap = incumbent - 1
    q = max(first_cap, 0) // oracle.SUBSET_CAP + 1
    while first_cap // q > 0 and (m + 1) * (first_cap // q + 1) > oracle.SUBSET_BITS:
        q += 1
    # suffix_sums[k]: the sorted subset sums of the values[k:] divided by
    # q and rounded down, up to first_cap // q.
    suffix_sums: List[List[int]] = [[0]]
    if waste_rule:
        sums = {0}
        for v in reversed(values):
            sums |= {s + v // q for s in sums if s + v // q <= first_cap // q}
            suffix_sums.insert(0, sorted(sums))

    def wasted(k: int) -> int:
        """Room in the bins that the values after depth k cannot use."""
        cap = incumbent - 1
        sums = suffix_sums[k + 1]
        waste = 0
        for load in loads:
            room = cap - load
            fit = sums[bisect.bisect_right(sums, room // q) - 1]
            fill = q * fit + (q - 1) * min(m - k - 1, room // p)
            waste += room if room < p else max(room - fill, 0)
        return waste

    if m and incumbent > lower:
        loads = [0] * n
        assign = [0] * m
        budget = limits.node_budget
        best_assign: Optional[List[int]] = None

        def descend(k: int) -> None:
            nonlocal incumbent, best_assign, nodes
            if k == m:
                incumbent = max(loads)
                best_assign = assign.copy()
                return
            value = values[k]
            tried: set = set()
            for b in range(n):
                load = loads[b]
                if load in tried:
                    continue
                tried.add(load)
                if load + value < incumbent:
                    nodes += 1
                    if nodes > budget:
                        raise NodeBudgetError(
                            f"node budget {budget} exhausted on a "
                            f"{n}-agent, {m}-chore search"
                        )
                    loads[b] = load + value
                    assign[k] = b
                    prune = waste_rule and k < m - 1 and wasted(k) > n * (incumbent - 1) - total
                    if not prune:
                        descend(k + 1)
                    loads[b] = load
                    if incumbent == lower or incumbent in loads:
                        return
                if load == 0:
                    break

        descend(0)

        if best_assign is not None:
            bundles: List[set] = [set() for _ in range(n)]
            for pos, bundle in enumerate(best_assign):
                bundles[bundle].add(order[pos])
            witness = Allocation(
                bundles=tuple(frozenset(b) for b in bundles), leftover=frozenset()
            )
    return incumbent * g, witness, nodes


def reference_exact_mms(
    inst: Instance, agent: int, limits: OracleLimits
) -> Tuple[int, Allocation]:
    """The current search, written recursively."""
    return recursive_search(inst, agent, limits)[:2]


def outcome(oracle, inst: Instance, agent: int, limits: OracleLimits):
    try:
        value, witness = oracle(inst, agent, limits)
    except NodeBudgetError as exc:
        return str(exc)
    return value, witness.bundles, witness.leftover


def corpus_rows() -> List[Tuple[Instance, int]]:
    return [(inst, agent) for inst in oracle_corpus() for agent in range(inst.num_agents)]


def rows_past_the_subset_cap(top: int) -> List[Tuple[Instance, int]]:
    """40 rows of 10-16 values up to ``top`` on 2-5 bins, each with gcd 1
    and an LPT makespan past SUBSET_CAP, so read at a resolution q > 1."""
    rng = random.Random(top)
    rows = []
    for _ in range(40):
        n = rng.randint(2, 5)
        row = [rng.randint(1, top) for _ in range(rng.randint(10, 16))]
        assert math.gcd(*row) == 1
        assert schedule_lpt(row, n).makespan > oracle.SUBSET_CAP
        rows.append((identical(row, n), 0))
    return rows


def waste_rule_totals(rows: List[Tuple[Instance, int]]) -> List[int]:
    """The reference's node totals on ``rows`` without and with its waste
    rule, after checking that the rule keeps every share and witness,
    which are ``exact_mms``'s, never adds nodes, and that the oracle takes
    the pruned reference's nodes."""
    limits = OracleLimits()
    totals = [0, 0]
    for inst, agent in rows:
        value, witness, nodes = recursive_search(inst, agent, limits)
        before = recursive_search(inst, agent, limits, waste_rule=False)
        assert exact_mms(inst, agent, limits) == (value, witness) == before[:2]
        assert nodes <= before[2]
        desc = sorted(inst.row(agent), reverse=True)
        assert oracle._min_makespan(desc, inst.num_agents, limits)[2] == nodes
        totals[0] += before[2]
        totals[1] += nodes
    return totals


def subset_bits_total(monkeypatch, bits: int) -> int:
    """The oracle's nodes on the corpus with SUBSET_BITS set to ``bits``,
    after checking its shares, witnesses and nodes against the
    reference's on every row."""
    monkeypatch.setattr(oracle, "SUBSET_BITS", bits)
    limits = OracleLimits(max_chores=17)
    total = 0
    for inst, agent in corpus_rows():
        desc = sorted(inst.row(agent), reverse=True)
        nodes = oracle._min_makespan(desc, inst.num_agents, limits)[2]
        expected = recursive_search(inst, agent, limits)
        assert (*exact_mms(inst, agent, limits), nodes) == expected
        total += nodes
    return total


class TestAgainstRecursiveOracle:
    def test_corpus_covers_the_edge_cases(self):
        shapes = [(inst.num_agents, inst.num_chores) for inst in oracle_corpus()]
        assert any(n == 1 for n, _ in shapes)
        assert any(m == 0 for _, m in shapes)
        assert any(0 < m < n for n, m in shapes)

    def test_values_witnesses_and_budget_stops_match(self):
        limits = OracleLimits(max_chores=17)
        for inst in oracle_corpus():
            for agent in range(inst.num_agents):
                expected = reference_exact_mms(inst, agent, limits)
                assert exact_mms(inst, agent, limits) == expected
                row = inst.row(agent)
                assert optimal_makespan(row, inst.num_agents, limits) == expected[0]
                # The same nodes in the same order: every budget runs out
                # at the same place or not at all.
                for budget in (1, 3, 10, 40):
                    small = OracleLimits(max_chores=17, node_budget=budget)
                    assert outcome(exact_mms, inst, agent, small) == outcome(
                        reference_exact_mms, inst, agent, small
                    )

    def test_node_counts_match(self):
        # 2 bins x eleven chores of value 2: LPT is optimal, but the
        # pigeonhole bound sits one below it, so a search on the row as
        # it is searches the whole tree. Dividing by the gcd closes it.
        twos = identical([2] * 11, n=2)
        limits = OracleLimits()
        assert recursive_search(twos, 0, limits, waste_rule=False)[2] == 0
        assert oracle._min_makespan([2] * 11, 2, limits)[::2] == (12, 0)
        assert exact_mms(twos, 0, OracleLimits(node_budget=1))[0] == 12
        agents = random.Random(SEED_ORACLE_CORPUS).sample(corpus_rows(), 300)
        # The waste rule keeps the corpus below 100 nodes a row; 3 bins
        # x 7 sevens, 7 fives and 8 threes, each times 4096 plus 1, with
        # gcd 1 and so read at resolution 10, takes 564.
        agents.append((identical(PAST_THE_GATE, n=3), 0))
        counts = []
        for inst, agent in agents:
            desc = sorted(inst.row(agent), reverse=True)
            nodes = oracle._min_makespan(desc, inst.num_agents, limits)[2]
            assert nodes == recursive_search(inst, agent, limits)[2]
            # The count is the budget the search needs, and no less.
            exact_mms(inst, agent, OracleLimits(node_budget=max(nodes, 1)))
            if nodes > 1:
                with pytest.raises(NodeBudgetError):
                    exact_mms(inst, agent, OracleLimits(node_budget=nodes - 1))
            counts.append(nodes)
        assert max(counts) == counts[-1] == 564

    # The waste rule closes only subtrees without an improving leaf, so
    # the search meets the same leaves in the same order, with and
    # without it; waste_rule_totals checks that on each row set below.
    # The nines-sixes-fours family stays out: without the rule, its a = 8
    # row takes 1.58 million nodes.
    def test_waste_rule_keeps_shares_and_witnesses_and_only_prunes(self):
        assert waste_rule_totals(corpus_rows()) == [46_004, 3_910]

    # (row, bins, share, nodes without the waste rule, nodes with it) on
    # the edges of the window below the smallest positive value p. A lone
    # positive value is the pigeonhole bound, so nothing is searched;
    # trailing zeros add no subset sum and never set p; and the two
    # smallest values may be equal.
    @pytest.mark.parametrize(
        "row, n, share, unpruned, pruned",
        [
            ([0, 9, 0], 3, 9, 0, 0),
            ([55, 0, 55, 2, 31, 55, 0, 31], 2, 117, 7, 1),
            (SEVENS_FIVES_THREES, 3, 36, 22_310, 48),
        ],
        ids=["one-positive", "trailing-zeros", "equal-smallest"],
    )
    def test_pair_window_edge_rows(self, row, n, share, unpruned, pruned):
        assert waste_rule_totals([(identical(row, n), 0)]) == [unpruned, pruned]
        desc = sorted(row, reverse=True)
        assert oracle._min_makespan(desc, n, OracleLimits())[::2] == (share, pruned)

    # The 7-5-3 row with each value times 4096 plus 1 has gcd 1 and a
    # first cap of 155,655, past SUBSET_CAP, so its table is read at the
    # coarse resolution 10. It takes 564 nodes there, where the row itself
    # takes 48.
    def test_row_past_subset_cap_takes_the_coarse_rule_nodes(self):
        row = PAST_THE_GATE
        assert schedule_lpt(row, 3).makespan - 1 == 155_655 >= oracle.SUBSET_CAP
        assert waste_rule_totals([(identical(row, 3), 0)]) == [29_998, 564]
        assert oracle._min_makespan(row, 3, OracleLimits())[::2] == (147_464, 564)

    # Past SUBSET_CAP the table is read at a resolution q > 1. The fill
    # it bounds is never below what the later values can put in a bin, so
    # it too closes only subtrees without an improving leaf. (top, nodes
    # without the waste rule, nodes at resolution q.)
    @pytest.mark.parametrize(
        "top, unpruned, pruned", [(10**6, 59_152, 6_050), (10**9, 128_975, 7_729)]
    )
    def test_coarse_rule_keeps_the_pair_rule_shares_past_the_subset_cap(
        self, top, unpruned, pruned
    ):
        assert waste_rule_totals(rows_past_the_subset_cap(top)) == [unpruned, pruned]

    # The known loss: read at resolution q, the fill carries q - 1 of
    # slack on every room.
    def test_nines_sixes_fours_family_near_2_to_the_20(self):
        row = NINES_SIXES_FOURS_NEAR_2_TO_THE_20
        assert waste_rule_totals([(identical(row, 3), 0)]) == [1_774, 591]
        assert oracle._min_makespan(row, 3, OracleLimits())[::2] == (34_603_014, 591)

    # At the real constants SUBSET_BITS binds only from m = 1,024. At
    # 2**10 bits it holds the corpus's tables to 1,024 // (m + 1) bits,
    # and that width sets a resolution q > 1 on 149 of its searches. The
    # oracle keeps the reference's shares, witnesses and nodes; the
    # corpus's 3,910 nodes at the real constants become 6,186.
    def test_subset_bits_sets_the_resolution(self, monkeypatch):
        assert subset_bits_total(monkeypatch, oracle.SUBSET_BITS) == 3_910
        assert subset_bits_total(monkeypatch, 1 << 10) == 6_186

    # At one bit the width floors at 1 and q is the first cap plus one:
    # every value reads as 0, and the bound keeps only what p gives it.
    # The reference's q loop stops there too, at first_cap // q == 0.
    def test_one_subset_bit_keeps_shares_and_witnesses(self, monkeypatch):
        assert subset_bits_total(monkeypatch, 1) == 9_189

    # Every comparison of the search is between multiples of the row's
    # gcd, which it divides out, so a row times g takes the row's own
    # search: its makespan times g, the same bins and the same nodes,
    # also for the multiples whose raw cap is past SUBSET_CAP.
    @pytest.mark.parametrize("g", [3, 20, 4096])
    def test_multiples_of_a_row_take_its_search(self, g):
        limits = OracleLimits()
        rows = {
            (tuple(sorted(inst.row(agent), reverse=True)), inst.num_agents)
            for inst in oracle_corpus()
            for agent in range(inst.num_agents)
        }
        rows.add((tuple(SEVENS_FIVES_THREES), 3))
        for desc, n in sorted(rows):
            value, bins, nodes = oracle._min_makespan(desc, n, limits)
            scaled = oracle._min_makespan([v * g for v in desc], n, limits)
            assert scaled == (value * g, bins, nodes)

    # 3 agents x a nines, a sixes and a + 1 fours: LPT misses the optimum
    # and the two smallest values are equal. A waste bound on rooms
    # below twice the smallest value took 378,322 nodes at a = 10 and
    # exhausted a 3 x 10^6 budget at a = 20; the subset-sum waste closes
    # every row under 10^4. At a = 334 the 1,003-chore row is past the
    # recursion limit, which the reference cannot run.
    @pytest.mark.parametrize(
        "a, share, nodes",
        [(5, 33, 33), (8, 52, 62), (10, 65, 78), (12, 78, 37), (20, 128, 155), (334, 2117, 2436)],
    )
    def test_nines_sixes_fours_family_closes(self, a, share, nodes):
        row = [9] * a + [6] * a + [4] * (a + 1)
        limits = OracleLimits(max_chores=5000, node_budget=10_000)
        assert oracle._min_makespan(row, 3, limits)[::2] == (share, nodes)
        if a <= 20:
            expected = recursive_search(identical(row, 3), 0, limits)
            assert (expected[0], expected[2]) == (share, nodes)
