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

Every agent's room lives in one integer, one W-bit field per agent
(SWAR: Lamport, "Multiple byte processing with full-word
instructions", CACM 1975). Each position's column of the sorted rows is
packed the same way, so charging a chore to every agent at once is one
subtraction, and one AND with the top bit of each field asks whether
anyone still has room. The fields are wide enough that no subtraction
borrows from a neighbour (``_fill``).

The pass does not visit the chores it rejects. The chores an agent's
room still absorbs are a suffix of their nonincreasing row, and a union
of suffixes is a suffix, so after a miss the next chore is found by one
bisection of the untaken positions with the same test.
It records nothing but the bundles and who took them; ``greedy_trace``
replays that result into the per-chore trace when one is asked for.
"""

from __future__ import annotations

from itertools import chain
from struct import Struct
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

    Every agent's room is a field of one integer and every position's
    column of the rows is packed alike, so each chore the pass tries
    costs one subtraction and one AND over n*W bits, W the field width
    ``_fill`` picks, and the round's owner is the lowest-index agent
    whose room is still at least 0. A chore nobody absorbs costs one
    bisection of the ascending untaken positions with the same test, as
    the positions anyone absorbs are a suffix of them. Each accepted
    chore also costs one C-level list deletion of up to m entries.

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

    Agent i owns bits [W*i, W*(i + 1)) of every packed integer. A
    round's rooms hold B + room for each unserved agent, B = 2^(W-1),
    so a field's top bit (its bit in ``guard``) is set exactly while
    that room is at least 0; a served agent's field holds B/2 and its
    top bit stays clear. W holds the largest cap and m times the largest
    value with 2 bits to spare: no round charges an agent more than m
    times the largest value, so a field never falls below 0 and never
    borrows from the next one. W is 32, or whole 64-bit words past that.
    """
    n, m = len(rows), len(rows[0])
    top = max(max(caps), m * max([row[0] for row in rows if row], default=0))
    width = top.bit_length() + 2
    width = 32 if width <= 32 else -(-width // 64) * 64
    bias = 1 << (width - 1)
    # The guard bits, the first round's rooms, then each position's column.
    columns = chain(([bias] * n, [bias + c for c in caps]), zip(*rows))
    if width > 32:
        # Each value as width // 32 little-endian 32-bit words.
        shifts = range(0, width, 32)
        columns = ([v >> s & 0xFFFFFFFF for v in col for s in shifts] for col in columns)
    words, from_bytes = Struct(f"<{n * width // 32}I").pack, int.from_bytes
    guard, base, *cols = [from_bytes(words(*col), "little") for col in columns]
    left = list(range(m))  # the positions no round has taken, ascending
    bundles: List[List[int]] = [[] for _ in range(n)]
    assignment: List[int] = []
    for _ in range(n):
        rooms = base
        bundle: List[int] = []
        at = 0
        while at < len(left):
            after = rooms - cols[left[at]]
            if not after & guard:
                # Nobody absorbs left[at]: skip to the first untaken
                # position someone absorbs, or past the end.
                lo, hi = at + 1, len(left)
                while lo < hi:
                    mid = (lo + hi) // 2
                    if (rooms - cols[left[mid]]) & guard:
                        hi = mid
                    else:
                        lo = mid + 1
                at = lo
                continue
            rooms = after
            bundle.append(left.pop(at))
        # Caps are never negative, so every unassigned agent starts the
        # round with its top bit set, and the last chore's witness keeps it.
        live = rooms & guard
        owner = (live & -live).bit_length() // width - 1
        base -= (bias // 2 + caps[owner]) << (width * owner)
        bundles[owner] = bundle
        assignment.append(owner)
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

