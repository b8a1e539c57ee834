"""Differential tests: the one first-fit packer against the loops it replaced.

``reference_first_fit`` and ``reference_pack_large`` are frozen copies
of the bin loops that MULTIFIT, ``naive_test`` and the 5/4 two-stage
test ran before they all filled their bins through
``scheduling._first_fit``. ``reference_first_fit`` passes every
still-unplaced position once per bin; MULTIFIT and ``naive_test`` ran it
on empty bins of one cap. The two-stage test seeds some bins with a
load, so ``reference_pack_large`` runs one ``reference_sweep`` per bin.
Each caller must give the same result as its frozen loop:
``schedule_119`` the same schedule, ``naive_test`` the same verdict and
``_pack_large`` the same bundles, leftover and k, on pinned edge cases,
random rows of up to 14 chores and seeded rows of up to 100 agents x
1000 chores. ``reference_schedule_119`` also runs MULTIFIT's search on
pass/fail alone (``conftest``'s frozen galloping loop) and repacks at
the searched threshold; ``schedule_119`` must report that threshold too.

``_first_fit`` itself, which takes each bin's largest fitting leftover
by bisection, must return ``reference_first_fit``'s bins and leftover
for every range of a nonincreasing row and every list of (load, cap)
bins. With uniform bins, every cap from the largest load at cap s up to
s packs as s does, which is why MULTIFIT's makespan equals its searched
cap.

``_ffd_fits``, the value-only pass that answers MULTIFIT's and
``naive_test``'s probes and stops once the unplaced total outweighs the
room of the bins not yet filled, must give ``_first_fit``'s verdict on
empty bins of one cap.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Iterable, List, Sequence, Tuple

import pytest
from conftest import first_fit_packs, reference_boundary_search
from hypothesis import given, settings
from hypothesis import strategies as st

from fairchores import Instance, ScheduleResult, naive_test, schedule_119, scheduling
from fairchores.instances import _chore_allocation, _descending
from fairchores.scheduling import _ffd_fits, _first_fit, _pigeonhole
from fairchores.solvers import _pack_large


def reference_first_fit(
    desc: Sequence[int], queue: Iterable[int], bins: Sequence[Tuple[int, int]]
) -> Tuple[List[List[int]], List[int]]:
    """One largest-first pass per bin over the positions still unplaced."""
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


def reference_schedule_119(
    values: Sequence[int], machines: int
) -> Tuple[ScheduleResult, int]:
    """MULTIFIT on the frozen first-fit-decreasing loop, with a repack at
    the searched threshold. Returns the schedule and that threshold."""
    order, desc = _descending(values)
    lo = _pigeonhole(desc, machines)
    threshold = reference_boundary_search(
        lambda s: not reference_first_fit(desc, range(len(desc)), [(0, s)] * machines)[1],
        lo,
        2 * lo,
    )
    packed, _ = reference_first_fit(desc, range(len(desc)), [(0, threshold)] * machines)
    loads = tuple(sum(desc[pos] for pos in bundle) for bundle in packed)
    schedule = ScheduleResult(_chore_allocation(order, packed), loads, max(loads))
    return schedule, threshold


def assert_schedule_matches(row: Sequence[int], n: int) -> int:
    """schedule_119 gives the frozen schedule, and its threshold is the
    frozen search's. Returns that threshold."""
    result = schedule_119(row, n)
    expected, threshold = reference_schedule_119(row, n)
    assert result == expected
    assert result.makespan == threshold
    return threshold


def assert_callers_match(row: Sequence[int], n: int, thresholds: Sequence[int]) -> None:
    """All three callers agree with their frozen loops on one row."""
    assert_schedule_matches(row, n)
    desc = sorted(row, reverse=True)
    inst = Instance.from_rows([list(row)] * n)
    for s in thresholds:
        assert _pack_large(desc, n, s) == reference_pack_large(desc, n, s)
        expected = not reference_first_fit(desc, range(len(desc)), [(0, s)] * n)[1]
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


def assert_packers_match(
    desc: Sequence[int], lo: int, hi: int, bins: Sequence[Tuple[int, int]]
) -> None:
    """The bisection packer and the frozen sweep agree on one range."""
    expected = reference_first_fit(desc, range(lo, hi), bins)
    assert _first_fit(desc, lo, hi, bins) == expected


# (desc, lo, hi, bins): empty ranges, a seeded bin already over its cap
# (negative room, as threshold_test reaches at small s), zero values
# under zero caps, a run of equal values split across two bins, and more
# bins than positions.
PACKER_PINNED = [
    ([5, 3, 1], 1, 1, [(0, 9)]),
    ([5, 3, 1], 3, 3, [(0, 9), (0, 9)]),
    ([], 0, 0, [(0, 0)]),
    ([6, 5, 2, 0], 1, 4, [(6, 4), (0, 5)]),
    ([6, 5, 2, 0], 1, 4, [(6, 4)]),
    ([0, 0, 0], 0, 3, [(0, 0), (0, 0)]),
    ([3, 0, 0], 0, 3, [(0, 0), (1, 0)]),
    ([4, 4, 4, 4, 4], 0, 5, [(0, 8), (0, 12)]),
    ([9, 4, 4, 4, 4, 1], 1, 6, [(0, 9), (0, 9)]),
    ([3, 2], 0, 2, [(0, 5)] * 5),
    ([7, 7, 3], 0, 3, [(0, 7)] * 4),
]


class TestFirstFitPacker:
    @pytest.mark.parametrize("desc, lo, hi, bins", PACKER_PINNED)
    def test_pinned_cases(self, desc, lo, hi, bins):
        assert_packers_match(desc, lo, hi, bins)

    def test_equal_values_split_lowest_positions_first(self):
        packed, leftover = _first_fit([4, 4, 4, 4, 4], 0, 5, [(0, 8), (0, 8)])
        assert (packed, leftover) == ([[0, 1], [2, 3]], [4])

    def test_overfull_seeded_bin_takes_nothing(self):
        packed, leftover = _first_fit([6, 5, 2, 0], 1, 4, [(6, 4), (0, 7)])
        assert (packed, leftover) == ([[], [1, 2, 3]], [])

    def test_seeded_corpus(self):
        rng = random.Random(1212)
        for _ in range(2000):
            top = rng.choice((0, 3, 10, 100))
            m = rng.randint(0, 30)
            desc = sorted((rng.randint(0, top) for _ in range(m)), reverse=True)
            lo = rng.randint(0, m)
            hi = rng.randint(lo, m)
            bins = [
                (rng.randint(0, 2 * top + 1), rng.randint(0, 3 * top + 1))
                for _ in range(rng.randint(0, 7))
            ]
            assert_packers_match(desc, lo, hi, bins)

    @settings(max_examples=200, deadline=None)
    @given(
        row=st.lists(st.integers(0, 30), max_size=16),
        n=st.integers(1, 5),
        s=st.integers(0, 80),
    )
    def test_caps_from_the_makespan_up_pack_alike(self, row, n, s):
        """Uniform bins of cap s whose largest load is M: every cap in
        [M, s] gives the same bins and leftover."""
        desc = sorted(row, reverse=True)
        packing = _first_fit(desc, 0, len(desc), [(0, s)] * n)
        makespan = max(sum(desc[pos] for pos in bin_) for bin_ in packing[0])
        for cap in range(makespan, s + 1):
            assert _first_fit(desc, 0, len(desc), [(0, cap)] * n) == packing


class TestFfdFits:
    def test_an_exact_fill_packs(self):
        # 3 + 3 and 2 + 2 + 2 fill both bins to the cap: the unplaced
        # total equals the room left before each bin, and still packs.
        assert _ffd_fits([3, 3, 2, 2, 2], 2, 6)
        assert first_fit_packs([3, 3, 2, 2, 2], 2, 6)
        assert not _ffd_fits([3, 3, 2, 2, 2], 2, 5)

    def test_no_bin_opens_once_failure_is_certain(self, monkeypatch):
        # Bin 1 takes 6 + 1, bin 2 takes 6; the 12 left outweigh bin 3's
        # room of 10, so bin 3 is never opened. Each bin ends at a
        # bisection that finds nothing: 2 in bin 1, 1 in bin 2.
        calls = []

        def counted(vals, room):
            calls.append(room)
            return bisect_right(vals, room)

        monkeypatch.setattr(scheduling, "bisect_right", counted)
        assert not _ffd_fits([6, 6, 6, 6, 1], 3, 10)
        assert calls == [4, 3, 4]
        calls.clear()
        assert not _ffd_fits([5] * 6, 3, 9)
        assert calls == []

    def test_seeded_corpus_at_every_cap(self):
        rng = random.Random(1414)
        for _ in range(400):
            bins = rng.randint(0, 6)
            top = rng.choice((0, 2, 9, 60))
            m = rng.randint(0, 18)
            desc = sorted((rng.randint(0, top) for _ in range(m)), reverse=True)
            for cap in range(2 * top + 3):
                assert _ffd_fits(desc, bins, cap) == first_fit_packs(desc, bins, cap)


# (agents, chores) up to the largest size the benchmarks time.
LARGE_SIZES = [(5, 50), (20, 200), (50, 500), (100, 1000)]


class TestFirstFitCallersOnLargeRows:
    @pytest.mark.parametrize("top", [1000, 10])
    def test_callers_match_their_frozen_loops(self, top):
        """Wide values (0..1000) and tie-heavy ones (0..10) at every size.

        The thresholds are the pigeonhole bound, the searched MULTIFIT
        cap and the one below it, and a few just at and above twice the (n+1)-th largest
        value, where the two-stage test seeds up to n bundles and packs
        a long prefix of the row.
        """
        rng = random.Random(1313 + top)
        for n, m in LARGE_SIZES:
            row = [rng.randint(0, top) for _ in range(m)]
            searched = assert_schedule_matches(row, n)
            desc = sorted(row, reverse=True)
            seeds = 2 * desc[n]
            thresholds = {_pigeonhole(desc, n), searched}
            thresholds |= {searched - 1, seeds, seeds + 1, seeds + top // 3}
            thresholds.add(2 * seeds)
            inst = Instance.from_rows([row] * n)
            for s in sorted(thresholds):
                assert _pack_large(desc, n, s) == reference_pack_large(desc, n, s)
                verdict = not reference_first_fit(desc, range(len(desc)), [(0, s)] * n)[1]
                assert naive_test(inst, 0, s) == verdict
