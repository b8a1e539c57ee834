"""Threshold-greedy bundle filling on an ordered instance.

The greedy runs on ``ordered_instance(inst)``, whose rows are each
sorted nonincreasing, so it is identically ordered whatever ``inst`` is;
``lift_allocation`` maps its result back to the original chores (the
reduction of Barman & Krishna Murthy 2017). One bundle is built per
round by a single pass over the remaining positions, largest first: a
chore joins the bundle as long as some still unassigned agent could
accept the grown bundle within their threshold. The finished bundle
then goes to the lowest-index unassigned agent it fits. Whatever no
round could place is reported as leftover rather than raised, because
the interesting counterexamples live exactly there. The thresholds are
the caller's, as the greedy knows no share; whether the loads meet
alpha times each share is the oracle's ``check_amms``.

The pass does not visit the chores it rejects. The chores an agent's
room still absorbs are a suffix of their nonincreasing row, found by
bisection, and a union of suffixes is a suffix: the next chore the pass
accepts is the first untaken position at or after the earliest suffix
start, found by at most one bisection of the untaken positions.
It records nothing but the bundles and who took them; ``greedy_trace``
replays that result into the per-chore trace when one is asked for.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import neg
from typing import List, Sequence, Tuple

from .errors import InputError
from .instances import (
    Allocation,
    OrderedInstance,
    ThresholdVector,
    _as_type,
    _Record,
    _trusted,
)


class GreedyResult(_Record):
    """Allocation (bundles indexed by agent) and round ownership.

    ``assignment[k]`` is the agent who received the bundle built in
    round k, so ``allocation.bundles[assignment[k]]`` recovers bundles
    in round order.
    """

    allocation: Allocation
    assignment: Tuple[int, ...]


def greedy_fill(ordd: OrderedInstance, thresholds: ThresholdVector) -> GreedyResult:
    """Run the n-round threshold greedy on ``ordd = ordered_instance(inst)``.

    Chores are scanned and allocated as positions of the ordered
    instance; any other argument is rejected. Within a round the scan
    never revisits earlier chores; acceptance asks, in ascending agent
    index, whether anyone unassigned could absorb the grown bundle. The
    round's bundle always has a feasible taker: the last accepted
    chore's witness still qualifies, and an empty bundle fits anyone.
    Deterministic given its inputs.

    Every row is nonincreasing by position, so the positions an agent's
    room can absorb are a suffix of the row, and so is their union over
    the live agents. Each next chore costs one row bisection per live
    agent, bounded by the earliest suffix start so far, then at most one
    bisection of the ascending untaken positions (none when an agent
    takes the chore at the scan pointer); its witness is the lowest-index
    agent that can absorb it. That is O(n*(n + m)*log m) Python steps,
    plus one C-level list deletion of up to m entries per accepted chore.

    Check, core, record: the arguments are checked here, the rounds run
    in ``_fill`` on the sorted rows at the floors of the caps, and the
    bundles and untaken positions it returns become the record.
    """
    if not isinstance(ordd, OrderedInstance):
        raise InputError("greedy_fill needs ordered_instance(inst), not a raw instance")
    rows = ordd.instance.valuations
    if len(_as_type(thresholds, ThresholdVector, "thresholds")) != len(rows):
        raise InputError("threshold vector length does not match agent count")
    # Loads are integers, so load <= t is the same test as load <= floor(t).
    caps = [t.numerator // t.denominator for t in thresholds.thresholds]
    bundles, assignment, left = _fill(rows, caps)
    allocation = _trusted(Allocation, bundles=tuple(map(frozenset, bundles)), leftover=frozenset(left))
    return GreedyResult(allocation=allocation, assignment=tuple(assignment))


def _fill(
    rows: Sequence[Sequence[int]], caps: Sequence[int]
) -> Tuple[List[List[int]], List[int], List[int]]:
    """``greedy_fill``'s rounds on nonincreasing rows at integer caps.

    Returns each agent's bundle of positions, the agent served in each
    round, and the positions no round took, ascending. The caps are
    integers from 0 up; the solvers pass theirs straight in.
    """
    n, m = len(rows), len(rows[0])
    left = list(range(m))  # the positions no round has taken, ascending
    unassigned = list(range(n))
    bundles: List[List[int]] = [[] for _ in range(n)]
    assignment: List[int] = []
    for _ in range(n):
        # (room, row, agent) for each unassigned agent the bundle still
        # fits, in ascending agent index.
        live = [(caps[i], rows[i], i) for i in unassigned]
        bundle: List[int] = []
        at = 0
        while at < len(left):
            start, lo = left[at], m
            for r, row, _ in live:
                if row[start] <= r:
                    break  # this agent takes the chore at start
                # The first position in [start, lo) whose value r absorbs, if any.
                lo = bisect_left(row, -r, start, lo, key=neg)
            else:
                # Nobody absorbs a position in [start, lo); someone, all from lo on.
                at = bisect_left(left, lo, at)
                if at == len(left):
                    break
            best = left.pop(at)
            bundle.append(best)
            live = [(r - row[best], row, a) for r, row, a in live if row[best] <= r]
        # Caps are never negative, so every unassigned agent starts the
        # round in live, and the last chore's witness never leaves it.
        owner = live[0][2]
        bundles[owner] = bundle
        assignment.append(owner)
        unassigned.remove(owner)
    return bundles, assignment, left


def greedy_trace(ordd: OrderedInstance, thresholds: ThresholdVector) -> List[dict]:
    """Each chore ``greedy_fill(ordd, thresholds)`` accepts, in order.

    One record per accepted chore: its ``round``, the ``chore`` as a
    position in the ordered instance, the ``witness`` who vouched for it
    and that agent's ``load`` on the bundle so far. The records are
    replayed from the greedy's result, so a solve pays nothing for them:
    a round takes its positions in ascending order, and a chore's witness
    is the lowest-index agent not yet served whose cap still covers the
    bundle with that chore in it.
    """
    result = greedy_fill(ordd, thresholds)
    rows = ordd.instance.valuations
    # Loads are integers, so load <= t is the same test as load <= floor(t).
    caps = [t.numerator // t.denominator for t in thresholds.thresholds]
    unserved = list(range(len(rows)))
    records: List[dict] = []
    for round_index, owner in enumerate(result.assignment):
        loads = dict.fromkeys(unserved, 0)
        for chore in sorted(result.allocation.bundles[owner]):
            for i in unserved:
                loads[i] += rows[i][chore]
            witness = next(i for i in unserved if loads[i] <= caps[i])
            records.append(dict(round=round_index, chore=chore, witness=witness, load=loads[witness]))
        unserved.remove(owner)
    return records

