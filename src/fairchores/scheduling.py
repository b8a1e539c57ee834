"""Identical-machines makespan scheduling.

With one shared valuation the maximin share and the optimal makespan
coincide, and the paper's single-agent greedy at a uniform cap is
first-fit-decreasing (FFD): each round fills one machine with exactly
the jobs FFD would place there. Binary-searching the smallest cap at
which FFD packs every job onto the machines is MULTIFIT (Coffman, Garey
& Johnson 1978). Every cap at or above 11/9 of the optimum packs, so the
search lands on an s* with 9*s* <= 11*OPT, and the packing at s* is a
schedule within it. A classic longest-processing-time baseline is
included for comparison. Both check the jobs with the package's value
rule, sort them once with ``_descending`` (equal jobs lowest index
first), run ``_first_fit`` (one empty bin of the cap per machine) or
``_lpt`` on the sorted positions and map those back to jobs with
``_chore_allocation``. ``_first_fit`` is the one first-fit packer:
``naive_test`` and the 5/4 solver's two-stage test fill their bins
through it too.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple

from .errors import InputError, SolverInvariantError
from .instances import Allocation, _check_values, _chore_allocation, _descending


@dataclass(frozen=True)
class ScheduleResult:
    """Machine bundles, their loads, the makespan, and the threshold used."""

    allocation: Allocation
    loads: Tuple[int, ...]
    makespan: int
    threshold: int


@dataclass(frozen=True)
class LptResult:
    """Machine bundles, their loads, and the makespan."""

    allocation: Allocation
    loads: Tuple[int, ...]
    makespan: int


def _check_jobs(values: Sequence[int], machines: int) -> None:
    if machines < 1:
        raise InputError("machines must be at least 1")
    _check_values(values, "job {}")


def _pigeonhole(values: Sequence[int], bins: int) -> int:
    """max(ceil(total/bins), max value): no packing into bins does better."""
    return max(-(-sum(values) // bins), max(values, default=0))


def _first_fit(
    desc: Sequence[int], queue: Iterable[int], bins: Sequence[Tuple[int, int]]
) -> Tuple[List[List[int]], List[int]]:
    """Fill bins in turn, each with one largest-first pass over ``queue``.

    ``queue`` lists positions of the nonincreasing row ``desc``, and each
    bin is a (starting load, cap) pair. A bin keeps every position still
    unplaced that fits under its cap on top of its load. Filling stops
    once nothing is left, so the bins after that stay empty. Returns each
    bin's positions and the positions no bin took, in their given order.
    """
    packed: List[List[int]] = [[] for _ in bins]
    leftover = list(queue)
    for taken, (load, cap) in zip(packed, bins):
        if not leftover:
            break
        rest: List[int] = []
        for pos in leftover:
            if load + desc[pos] <= cap:
                load += desc[pos]
                taken.append(pos)
            else:
                rest.append(pos)
        leftover = rest
    return packed, leftover


def _lpt(desc: Sequence[int], bins: int) -> Tuple[List[List[int]], List[int]]:
    """Longest-processing-time list scheduling of a nonincreasing row.

    Each position in turn goes to the least-loaded bin, ties to the
    lowest bin index. Returns each bin's positions and load.
    """
    heap = [(0, b) for b in range(bins)]  # sorted, so already a heap
    packed: List[List[int]] = [[] for _ in range(bins)]
    loads = [0] * bins
    for pos, value in enumerate(desc):
        load, b = heap[0]
        packed[b].append(pos)
        loads[b] = load + value
        heapq.heapreplace(heap, (loads[b], b))
    return packed, loads


def _boundary_search(passes: Callable[[int], bool], lo: int, hi: int) -> int:
    """Smallest passing point of [lo, hi] under the "high passes" invariant.

    ``passes(hi)`` must hold; the search then returns an s that passes
    and either equals ``lo`` or has a failing predecessor.
    """
    if not passes(hi):
        raise SolverInvariantError(f"test fails at the top of its bracket (s={hi})")
    while lo < hi:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def schedule_119(values: Sequence[int], machines: int) -> ScheduleResult:
    """Schedule jobs on identical machines within 11/9 of optimal.

    MULTIFIT: binary-searches the smallest cap in the pigeonhole bracket
    [lower, 2*lower] at which first-fit-decreasing packs every job, then
    returns that packing. Its makespan never exceeds the cap, and the
    cap never exceeds 11/9 of the optimal makespan. The bundles are those
    of the paper's construction: clone the jobs into one row per machine,
    run the greedy at the cap, and lift the result back to the jobs.
    """
    values = list(values)
    _check_jobs(values, machines)
    order, desc = _descending(values)

    def pack(s: int) -> Tuple[List[List[int]], List[int]]:
        return _first_fit(desc, range(len(desc)), [(0, s)] * machines)

    lo = _pigeonhole(desc, machines)
    threshold = _boundary_search(lambda s: not pack(s)[1], lo, 2 * lo)
    packed, leftover = pack(threshold)
    loads = tuple(sum(desc[pos] for pos in bundle) for bundle in packed)
    if leftover or max(loads) > threshold:
        raise SolverInvariantError(
            f"packing at the searched threshold {threshold} is incomplete or over it"
        )
    allocation = _chore_allocation(order, packed)
    return ScheduleResult(
        allocation=allocation, loads=loads, makespan=max(loads), threshold=threshold
    )


def schedule_lpt(values: Sequence[int], machines: int) -> LptResult:
    """Longest processing time baseline: 4/3 of optimal, one pass.

    Jobs in nonincreasing order each go to the currently least-loaded
    machine, ties to the lowest machine index.
    """
    values = list(values)
    _check_jobs(values, machines)
    order, desc = _descending(values)
    packed, loads = _lpt(desc, machines)
    allocation = _chore_allocation(order, packed)
    return LptResult(allocation=allocation, loads=tuple(loads), makespan=max(loads))
