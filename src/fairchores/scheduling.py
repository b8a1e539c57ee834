"""Identical-machines makespan scheduling.

With one shared valuation the maximin share and the optimal makespan
coincide, and the paper's single-agent greedy at a uniform cap is
first-fit-decreasing (FFD): each round fills one machine with exactly
the jobs FFD would place there. Binary-searching the smallest cap at
which FFD packs every job onto the machines is MULTIFIT (Coffman, Garey
& Johnson 1978). Every cap at or above 11/9 of the optimum packs, so the
search lands on an s* with 9*s* <= 11*OPT, and the packing at s* is a
schedule within it. A classic longest-processing-time baseline is
included for comparison.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from .errors import InputError, SolverInvariantError
from .instances import Allocation


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
    for j, value in enumerate(values):
        if isinstance(value, bool) or not isinstance(value, int):
            raise InputError(f"job {j} must be an integer, got {value!r}")
        if value < 0:
            raise InputError(f"job {j} is negative")


def _pigeonhole(values: Sequence[int], bins: int) -> int:
    """max(ceil(total/bins), max value): no packing into bins does better."""
    return max(-(-sum(values) // bins), max(values, default=0))


def _sweep(
    desc: Sequence[int], queue: Sequence[int], load: int, cap: int
) -> Tuple[List[int], List[int], int]:
    """One largest-first pass of a bin over the positions in ``queue``.

    Starting from ``load``, the bin keeps every position of ``desc`` that
    still fits under ``cap``. Returns the positions taken, the positions
    left over in their original order, and the bin's final load.
    """
    taken: List[int] = []
    rest: List[int] = []
    for pos in queue:
        if load + desc[pos] <= cap:
            load += desc[pos]
            taken.append(pos)
        else:
            rest.append(pos)
    return taken, rest, load


def _first_fit_decreasing(
    desc_values: Sequence[int], bins: int, cap: int
) -> Tuple[List[List[int]], List[int]]:
    """Pack nonincreasing values into bins under one cap, bin by bin.

    Each bin takes one ``_sweep`` over the positions still unplaced.
    Returns the positions in each bin and the positions no bin could
    take.
    """
    remaining = list(range(len(desc_values)))
    packed: List[List[int]] = []
    for _ in range(bins):
        bundle, remaining, _ = _sweep(desc_values, remaining, 0, cap)
        packed.append(bundle)
    return packed, remaining


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
    cap never exceeds 11/9 of the optimal makespan.
    """
    values = list(values)
    _check_jobs(values, machines)
    # Equal jobs go highest index first, so bundles match the schedules
    # this function has always returned.
    order = sorted(range(len(values)), key=lambda j: (-values[j], -j))
    desc = [values[j] for j in order]

    lo = _pigeonhole(desc, machines)
    threshold = _boundary_search(
        lambda s: not _first_fit_decreasing(desc, machines, s)[1], lo, 2 * lo
    )

    packed, leftover = _first_fit_decreasing(desc, machines, threshold)
    loads = tuple(sum(desc[pos] for pos in bundle) for bundle in packed)
    if leftover or max(loads) > threshold:
        raise SolverInvariantError(
            f"packing at the searched threshold {threshold} is incomplete or over it"
        )
    allocation = Allocation(
        bundles=tuple(frozenset(order[pos] for pos in bundle) for bundle in packed),
        leftover=frozenset(),
    )
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

    order = sorted(range(len(values)), key=lambda j: (-values[j], j))
    heap: List[Tuple[int, int]] = [(0, b) for b in range(machines)]
    heapq.heapify(heap)
    bundles: List[List[int]] = [[] for _ in range(machines)]
    for job in order:
        load, machine = heapq.heappop(heap)
        bundles[machine].append(job)
        heapq.heappush(heap, (load + values[job], machine))

    loads = tuple(sum(values[j] for j in b) for b in bundles)
    allocation = Allocation(
        bundles=tuple(frozenset(b) for b in bundles), leftover=frozenset()
    )
    return LptResult(allocation=allocation, loads=loads, makespan=max(loads))
