"""Identical-machines makespan scheduling.

With one shared valuation the maximin share and the optimal makespan
coincide, and the paper's single-agent greedy at a uniform cap is
first-fit-decreasing (FFD): each round fills one machine with exactly
the jobs FFD would place there. MULTIFIT (Coffman, Garey & Johnson 1978)
searches the smallest cap at which FFD packs every job onto the
machines; here the search gallops from the pigeonhole bound ``lower``
(lower, lower+1, lower+3, lower+7, ... up to 2*lower), then bisects the
last gap. FFD packs at every cap at or above 13/11 of the optimum (Yue
1990; the ratio is tight), and with integer loads cap C is the same test
as floor(C), so every integer from floor(13*OPT/11) up packs. The
searched s* is either the pigeonhole bound, at most OPT, or has a failing
predecessor, so 11*s* <= 13*OPT.

The makespan M of the packing at s* is s* itself. If FFD packs every job
at cap s with makespan M, every cap in [M, s] gives the same packing: a
job accepted at s still fits at M, as its bin ends at or below M; a job
rejected at s is rejected at any smaller cap; so each bin's largest
fitting leftover at s is still its largest at M. The pigeonhole bound is
at most any makespan, and a failing predecessor of s* cannot lie in
[M, s*], so M == s* and 11*makespan <= 13*OPT.

The probes answer pass/fail on the values alone: ``_ffd_fits`` runs FFD
with no positions and stops once the unplaced total exceeds the cap times
the bins not yet filled, as no bin holds more than the cap (an exact fill
still packs, so the test is strict). It is the package's one value-only
fill loop, with three callers: this search, ``solvers.naive_test`` and
stage two of the 5/4 solver's probe, ``solvers._large_fits``.
``_first_fit`` packs positions once, at s*, for its one caller,
``schedule_119``, which counts the placed positions to see that no job
is left over. Each bin takes the largest unplaced job that fits, by one
``pop`` or one C-level bisection and list deletion. Both schedulers,
this and the longest-processing-time baseline (``_lpt``), check the jobs
with the value rule, sort them once with ``_descending`` (equal jobs
lowest index first) and map positions back to jobs: this one's bundles
with ``_chore_allocation``, LPT's bin of each position with ``_witness``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from functools import partial
from typing import Callable, Iterable, List, Sequence, Tuple

from .errors import InputError, SolverInvariantError
from .instances import (
    Allocation,
    _as_int,
    _check_values,
    _chore_allocation,
    _descending,
    _Record,
    _witness,
)


class ScheduleResult(_Record):
    """Machine bundles, their loads, and the makespan."""

    allocation: Allocation
    loads: Tuple[int, ...]
    makespan: int

    @property
    def threshold(self) -> int:
        """MULTIFIT's searched cap, which is its makespan."""
        return self.makespan


def _check_jobs(values: Iterable[int], machines: int) -> List[int]:
    """The jobs as a list, a machine count from 1 up, then every job
    under the value rule; returns the list."""
    try:
        jobs = list(values)
    except TypeError:
        raise InputError(f"jobs must be a sequence of values, got {values!r}") from None
    _as_int(machines, "machines", 1)
    _check_values(jobs, "job {}")
    return jobs


def _pigeonhole(desc: Sequence[int], bins: int) -> int:
    """max(ceil(total/bins), max value): no packing into bins does better.

    ``desc`` is nonincreasing, as all three callers hold it
    (``schedule_119``, the oracle's ``_min_makespan`` and the threshold
    search), so its max is ``desc[0]``, or 0 when it is empty.
    """
    return max(-(-sum(desc) // bins), desc[0] if desc else 0)


def _first_fit(desc: Sequence[int], machines: int, cap: int) -> List[List[int]]:
    """Fill ``machines`` empty bins of cap in turn, each with one
    largest-first pass over the nonincreasing ``desc``.

    A bin takes the largest unplaced value that fits its room, the lowest
    position among equal values, until none fits. The unplaced values are
    an ascending copy with a parallel list of positions (equal values
    lowest position last), so a placement is one ``pop`` when the largest
    fits, else one C-level bisection and one list deletion. Filling stops
    once nothing is left; later bins stay empty. Returns each bin's
    positions, ascending; positions no bin takes appear in none.
    """
    vals = list(reversed(desc))
    left = list(range(len(desc) - 1, -1, -1))
    packed: List[List[int]] = [[] for _ in range(machines)]
    for taken in packed:
        if not vals:
            break
        room = cap
        while vals:
            if vals[-1] <= room:
                room -= vals.pop()
                taken.append(left.pop())
            elif i := bisect_right(vals, room):
                room -= vals.pop(i - 1)
                taken.append(left.pop(i - 1))
            else:
                break
    return packed


def _ffd_fits(desc: Sequence[int], bins: int, cap: int) -> bool:
    """Does ``_first_fit`` pack all of desc into ``bins`` empty bins of cap?

    The same pass on an ascending copy of the values alone; False once
    the unplaced total exceeds the cap times the bins not yet filled.
    A check after every placement would stop no sooner: within a bin the
    total and the room fall alike.
    """
    vals = list(reversed(desc))
    left = sum(vals)
    for empty in range(bins, 0, -1):
        if not vals or left > cap * empty:
            break
        room = cap
        while vals:
            if vals[-1] <= room:
                room -= vals.pop()
            elif i := bisect_right(vals, room):
                room -= vals.pop(i - 1)
            else:
                break
        left -= cap - room
    return not vals


def _lpt(desc: Sequence[int], bins: int) -> Tuple[List[int], List[int]]:
    """Longest-processing-time list scheduling of a nonincreasing row.

    Each position in turn goes to the least-loaded bin, ties to the
    lowest index. Returns each position's bin and each bin's load.
    """
    heap = [(0, b) for b in range(bins)]  # sorted, so already a heap
    assign: List[int] = []
    loads = [0] * bins
    for value in desc:
        load, b = heap[0]
        assign.append(b)
        loads[b] = load + value
        heapq.heapreplace(heap, (loads[b], b))
    return assign, loads


def _boundary_search(passes: Callable[[int], bool], lo: int, hi: int) -> int:
    """Gallop from lo by steps 1, 2, 4, ... up to hi, then bisect the last
    gap; returns a passing s that is lo or whose predecessor fails."""
    top, step = lo, 1
    while not passes(top):
        if top >= hi:
            raise SolverInvariantError(f"test fails at the top of its bracket (s={hi})")
        lo, top, step = top + 1, min(top + step, hi), 2 * step
    while lo < top:
        mid = (lo + top) // 2
        if passes(mid):
            top = mid
        else:
            lo = mid + 1
    return top


def schedule_119(values: Sequence[int], machines: int) -> ScheduleResult:
    """Schedule jobs on identical machines within 13/11 of optimal.

    MULTIFIT: in the pigeonhole bracket [lower, 2*lower], gallops from
    ``lower``, then bisects the last gap, to a cap at which
    first-fit-decreasing packs every job, probing with ``_ffd_fits``,
    and packs the jobs once at that cap. Its makespan is that cap,
    and 11*makespan <= 13*OPT (the module docstring has the proof),
    inside the paper's 11/9; a packing that leaves a job over or whose
    makespan is not the cap raises ``SolverInvariantError``. The
    bundles are those of the paper's construction: clone the jobs into
    one row per machine, run the greedy at the cap, and lift the result
    back to the jobs.
    """
    order, desc = _descending(_check_jobs(values, machines))
    lo = _pigeonhole(desc, machines)
    makespan = _boundary_search(partial(_ffd_fits, desc, machines), lo, 2 * lo)
    packed = _first_fit(desc, machines, makespan)
    if sum(map(len, packed)) != len(desc):
        raise SolverInvariantError(f"jobs left over at the searched cap {makespan}")
    loads = tuple(sum(map(desc.__getitem__, bundle)) for bundle in packed)
    if max(loads) != makespan:
        raise SolverInvariantError(
            f"packing at the searched cap {makespan} has makespan {max(loads)}"
        )
    return ScheduleResult(_chore_allocation(order, packed), loads, makespan)


def schedule_lpt(values: Sequence[int], machines: int) -> ScheduleResult:
    """Longest processing time baseline: 4/3 of optimal, one pass.

    Jobs in nonincreasing order each go to the currently least-loaded
    machine, ties to the lowest machine index.
    """
    order, desc = _descending(_check_jobs(values, machines))
    bins, loads = _lpt(desc, machines)
    return ScheduleResult(_witness(order, bins, machines), tuple(loads), max(loads))
