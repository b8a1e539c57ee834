"""Differential tests: the one first-fit packer against the two it replaced.

``reference_sweep``, ``reference_first_fit_decreasing`` and
``reference_pack_large`` are frozen copies of the bin loops MULTIFIT,
``naive_test`` and the 5/4 two-stage test ran before they all filled
their bins through ``scheduling._first_fit``. Each caller must give the
same result as its frozen loop: ``schedule_119`` the same schedule,
``naive_test`` the same verdict and ``_pack_large`` the same bundles,
leftover and k, on pinned edge cases and random rows.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairchores import Instance, ScheduleResult, naive_test, schedule_119
from fairchores.instances import _chore_allocation, _descending
from fairchores.scheduling import _boundary_search, _pigeonhole
from fairchores.solvers import _pack_large


def reference_sweep(
    desc: Sequence[int], queue: Sequence[int], load: int, cap: int
) -> Tuple[List[int], List[int]]:
    """One largest-first pass of a bin starting at ``load`` under ``cap``."""
    taken: List[int] = []
    rest: List[int] = []
    for pos in queue:
        if load + desc[pos] <= cap:
            load += desc[pos]
            taken.append(pos)
        else:
            rest.append(pos)
    return taken, rest


def reference_first_fit_decreasing(
    desc_values: Sequence[int], bins: int, cap: int
) -> Tuple[List[List[int]], List[int]]:
    """One sweep per bin over the positions still unplaced, one cap."""
    remaining = list(range(len(desc_values)))
    packed: List[List[int]] = []
    for _ in range(bins):
        bundle, remaining = reference_sweep(desc_values, remaining, 0, cap)
        packed.append(bundle)
    return packed, remaining


def reference_pack_large(
    desc: Sequence[int], n: int, s: int
) -> Tuple[List[List[int]], List[int], int]:
    """The two-stage packing with its prefix scans and stage branch."""
    large = 0
    while large < len(desc) and 4 * desc[large] > s:
        large += 1
    k = 0
    while k < large and 2 * desc[k] > s:
        k += 1
    if k > n:
        return [[] for _ in range(n)], list(range(large)), k

    bundles: List[List[int]] = [[pos] for pos in range(k)]
    bundles += [[] for _ in range(n - k)]
    queue = list(range(k, large))
    for t in [*range(k - 1, -1, -1), *range(k, n)]:
        if not queue:
            break
        if t < k:
            taken, queue = reference_sweep(desc, queue, desc[t], s)
        else:
            taken, queue = reference_sweep(desc, queue, 0, 5 * s // 4)
        bundles[t] += taken
    return bundles, queue, k


def reference_schedule_119(values: Sequence[int], machines: int) -> ScheduleResult:
    """MULTIFIT on the frozen first-fit-decreasing loop."""
    order, desc = _descending(values)
    lo = _pigeonhole(desc, machines)
    threshold = _boundary_search(
        lambda s: not reference_first_fit_decreasing(desc, machines, s)[1],
        lo,
        2 * lo,
    )
    packed, _ = reference_first_fit_decreasing(desc, machines, threshold)
    loads = tuple(sum(desc[pos] for pos in bundle) for bundle in packed)
    return ScheduleResult(
        allocation=_chore_allocation(order, packed),
        loads=loads,
        makespan=max(loads),
        threshold=threshold,
    )


def assert_callers_match(row: Sequence[int], n: int, thresholds: Sequence[int]) -> None:
    """All three callers agree with their frozen loops on one row."""
    assert schedule_119(row, n) == reference_schedule_119(row, n)
    desc = sorted(row, reverse=True)
    inst = Instance.from_rows([list(row)] * n)
    for s in thresholds:
        assert _pack_large(desc, n, s) == reference_pack_large(desc, n, s)
        expected = not reference_first_fit_decreasing(desc, n, s)[1]
        assert naive_test(inst, 0, s) == expected


# (row, bins, s): an empty row, s = 0, more chores above s/2 than bins,
# all-equal values, zero values under zero caps, and two seeded bins
# that could both take the next chore, so the stage-one order decides.
PINNED = [
    ([], 1, 0),
    ([], 3, 5),
    ([3, 0, 1], 2, 0),
    ([9, 8, 7, 6, 1], 3, 10),
    ([4, 4, 4, 4, 4], 2, 8),
    ([4, 4, 4, 4, 4], 3, 5),
    ([0, 0, 0], 2, 0),
    ([6, 6, 4, 3], 2, 10),
    ([6, 6, 4, 3, 3, 2], 3, 10),
]


class TestFirstFitCallers:
    @pytest.mark.parametrize("row, n, s", PINNED)
    def test_pinned_cases(self, row, n, s):
        assert_callers_match(row, n, [s])

    def test_stage_one_fills_the_last_seeded_bin_first(self):
        bundles, leftover, k = _pack_large([6, 6, 4, 3], 2, 10)
        assert (bundles, leftover, k) == ([[0, 3], [1, 2]], [], 2)

    def test_every_threshold_of_a_seeded_corpus(self):
        rng = random.Random(1010)
        for _ in range(150):
            n = rng.randint(1, 5)
            top = rng.choice((4, 12, 40))
            row = [rng.randint(0, top) for _ in range(rng.randint(0, 12))]
            assert_callers_match(row, n, range(2 * max(row, default=0) + 3))

    @settings(max_examples=150, deadline=None)
    @given(
        row=st.lists(st.integers(0, 30), max_size=14),
        n=st.integers(1, 6),
        s=st.integers(0, 70),
    )
    def test_random_rows(self, row, n, s):
        assert_callers_match(row, n, [s])
