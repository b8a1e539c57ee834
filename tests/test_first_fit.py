"""Differential tests: the one first-fit packer against the loop it replaced.

``reference_first_fit`` is a frozen copy of the bin loop that MULTIFIT,
``naive_test`` and the 5/4 two-stage test once ran: it passes every
still-unplaced position once per bin. ``scheduling._first_fit`` now has
one caller, ``schedule_119``, which packs the jobs once at its searched
cap; every probe goes through ``_ffd_fits``.

``_first_fit``, which takes each bin's largest fitting leftover
by bisection, must return ``reference_first_fit``'s bins for every
nonincreasing row and any number of empty bins of one cap. Every cap
from the largest load at cap s up to s packs as s does, which is why
MULTIFIT's makespan equals its searched cap.

``_ffd_fits``, the value-only pass that answers MULTIFIT's and
``naive_test``'s probes and stops once the unplaced total outweighs the
room of the bins not yet filled, must give ``_first_fit``'s verdict on
empty bins of one cap.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import List, Sequence

import pytest
from conftest import first_fit_packs
from hypothesis import given, settings
from hypothesis import strategies as st

from fairchores import scheduling
from fairchores.scheduling import _ffd_fits, _first_fit


def reference_first_fit(desc: Sequence[int], machines: int, cap: int) -> List[List[int]]:
    """One largest-first pass per empty bin of cap over the positions still unplaced."""
    packed: List[List[int]] = [[] for _ in range(machines)]
    leftover = list(range(len(desc)))
    for taken in packed:
        if not leftover:
            break
        load = 0
        rest: List[int] = []
        for pos in leftover:
            if load + desc[pos] <= cap:
                load += desc[pos]
                taken.append(pos)
            else:
                rest.append(pos)
        leftover = rest
    return packed


def assert_packers_match(desc: Sequence[int], machines: int, cap: int) -> None:
    """The bisection packer and the frozen sweep agree on empty bins of one cap."""
    assert _first_fit(desc, machines, cap) == reference_first_fit(desc, machines, cap)


# (desc, machines, cap): no positions, zero values under a zero cap, and
# more bins than positions.
PACKER_PINNED = [
    ([], 1, 0),
    ([0, 0, 0], 2, 0),
    ([3, 2], 5, 5),
    ([7, 7, 3], 4, 7),
]


class TestFirstFitPacker:
    @pytest.mark.parametrize("desc, machines, cap", PACKER_PINNED)
    def test_pinned_cases(self, desc, machines, cap):
        assert_packers_match(desc, machines, cap)

    def test_equal_values_split_lowest_positions_first(self):
        # Position 4 is left over: no bin takes it.
        assert _first_fit([4, 4, 4, 4, 4], 2, 8) == [[0, 1], [2, 3]]

    def test_seeded_corpus(self):
        rng = random.Random(1212)
        for _ in range(2000):
            top = rng.choice((0, 3, 10, 100))
            m = rng.randint(0, 30)
            desc = sorted((rng.randint(0, top) for _ in range(m)), reverse=True)
            assert_packers_match(desc, rng.randint(0, 7), rng.randint(0, 3 * top + 1))

    @settings(max_examples=200, deadline=None)
    @given(
        row=st.lists(st.integers(0, 30), max_size=16),
        n=st.integers(1, 5),
        s=st.integers(0, 80),
    )
    def test_caps_from_the_makespan_up_pack_alike(self, row, n, s):
        """Uniform bins of cap s whose largest load is M: every cap in
        [M, s] gives the same bins."""
        desc = sorted(row, reverse=True)
        packing = _first_fit(desc, n, s)
        makespan = max(sum(desc[pos] for pos in bin_) for bin_ in packing)
        for cap in range(makespan, s + 1):
            assert _first_fit(desc, n, cap) == packing


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
