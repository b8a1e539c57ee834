"""End-to-end solvers for approximately fair chore division.

Two routes to a complete allocation:

* ``solve_existence_119`` computes every maximin share exactly (NP-hard,
  oracle-backed) and runs the greedy at caps of 11/9 of each share. The
  leftover is provably empty at those caps, so the result is always an
  11/9-approximate allocation.
* ``solve_poly_54`` needs no oracle. A per-agent threshold test whose
  pass-set contains every value at or above the agent's share is
  searched, galloping from the pigeonhole bound and then bisecting the
  last gap, for a certified underestimate s_i; the greedy runs at caps
  5/4 of those. Polynomial time, 5/4 guarantee. ``threshold_test`` and
  the search's probe answer through one function, ``_large_fits``:
  MULTIFIT's FFD probe, ``_ffd_fits``, on the large values after one
  pass that seeds the bundles of the chores above s/2, starting from the
  split of the row into its large prefixes (``_large_split``).

The naive single-agent test is kept as well: first-fit-decreasing of the
agent's row into n bins at one cap, on the values alone. It is cheaper
but its pass-set has holes above the share (see the "non-monotone"
fixture), so it certifies nothing for fair division; on identical
machines, searching it is the MULTIFIT scheduler in ``scheduling``,
within 13/11 of the optimal makespan. Search probes answer pass/fail,
so neither search builds positions or bundles; ``_first_fit``, which
packs positions, has one caller, ``schedule_119``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import partial
from operator import neg
from typing import Sequence, Tuple

from .errors import SolverInvariantError
from .greedy import _fill
from .instances import (
    Allocation,
    Instance,
    OrderedInstance,
    ThresholdVector,
    _as_int,
    _as_type,
    _lift,
    _Record,
    _trusted,
    ordered_instance,
)
from .oracle import MmsProfile, OracleLimits, _profile, _ratio
from .scheduling import _boundary_search, _ffd_fits, _pigeonhole


class TestOutcome(_Record):
    """Result of the two-stage large-chore test at one threshold s.

    ``really_large_count`` is the number of chores strictly above s/2.
    """

    passed: bool
    really_large_count: int


class ExistenceResult(_Record):
    """Complete allocation, each agent's load (as in PolyResult) and load/share ratio."""

    allocation: Allocation
    profile: MmsProfile
    ratios: Tuple[Fraction, ...]
    thresholds: ThresholdVector
    loads: Tuple[int, ...]


class PolyResult(_Record):
    """Complete allocation, the caps used, and each agent's load within its cap."""

    allocation: Allocation
    thresholds: ThresholdVector
    s_values: Tuple[int, ...]
    loads: Tuple[int, ...]


def naive_test(inst: Instance, agent: int, s: int) -> bool:
    """Pack one agent's valuation first-fit-decreasing into n bins of cap s.

    ``_ffd_fits`` makes ``_first_fit``'s pass into n empty bins of cap s
    on the sorted row (the greedy at uniform s on n clones of the row)
    on the values alone, and stops once the chores left outweigh the
    room of the bins left; ``_first_fit`` itself packs positions for its
    one caller, ``schedule_119``. True iff everything gets allocated.
    Not monotone in s.
    """
    _as_int(s, "threshold s")
    row = _as_type(inst, Instance, "inst").row(agent)
    return _ffd_fits(sorted(row, reverse=True), inst.num_agents, s)


def _large_split(desc: Sequence[int], n: int, s: int) -> Tuple[int, int, bool]:
    """How many chores of a row sorted nonincreasing lie strictly above
    s/4, how many of those lie strictly above s/2 (each a prefix of the
    row), and whether the latter outnumber the n bundles, which puts s
    certainly below the share. ``_large_fits`` starts here, and
    ``threshold_test`` reads its count of chores above s/2."""
    # An integer exceeds s/4 (or s/2) exactly when it exceeds the floor.
    large = bisect_left(desc, -(s // 4), key=neg)
    k = bisect_left(desc, -(s // 2), hi=large, key=neg)
    return large, k, k > n


def _large_fits(desc: Sequence[int], n: int, s: int) -> bool:
    """Does the two-stage test place every large chore? Its pass/fail.

    The chores strictly above s/4 are a prefix of the row, and the k
    strictly above s/2 a prefix of that (``_large_split``); each of
    those k seeds its own bundle. Stage one, bundles k down to 1, gives
    each seeded room s - desc[t] the largest unseeded large value that
    fits: one bisection and one deletion, as a room below s/2 holds at
    most one value above s/4. Stage two is MULTIFIT's probe,
    ``_ffd_fits`` of the values left into n - k bins of cap 5s/4, whose
    floor integer loads meet exactly when they meet it.
    """
    large, k, too_many = _large_split(desc, n, s)
    if too_many:
        return False
    vals = list(reversed(desc[k:large]))
    for t in reversed(range(k)):
        if i := bisect_right(vals, s - desc[t]):
            del vals[i - 1]
    return not vals or _ffd_fits(vals[::-1], n - k, 5 * s // 4)


def threshold_test(inst: Instance, agent: int, s: int) -> TestOutcome:
    """Two-stage test of a candidate threshold s for one agent.

    Only chores strictly above s/4 participate. The k chores strictly
    above s/2 seed bundles 1..k (one each); stage one tops bundles k
    down to 1 up with the remaining participants, largest first, under
    cap s; stage two fills bundles k+1..n the greedy way under cap
    5s/4. Passes iff every participant is placed. Every s at or above
    the agent's maximin share passes.

    It runs on the values of the row sorted nonincreasing, as
    ``search_threshold``'s probes do: ``_large_fits`` answers pass/fail
    and ``_large_split`` counts the chores above s/2.
    """
    _as_int(s, "threshold s")
    row = _as_type(inst, Instance, "inst").row(agent)
    desc = sorted(row, reverse=True)
    n = inst.num_agents
    return TestOutcome(
        passed=_large_fits(desc, n, s), really_large_count=_large_split(desc, n, s)[1]
    )


def search_threshold(inst: Instance, agent: int) -> int:
    """Certified integer underestimate of one agent's maximin share.

    Sorts the row and runs ``_search_sorted`` on it.
    """
    row = _as_type(inst, Instance, "inst").row(agent)
    return _search_sorted(sorted(row, reverse=True), inst.num_agents)


def _search_sorted(desc: Sequence[int], n: int) -> int:
    """``search_threshold`` on a row already sorted nonincreasing.

    The pigeonhole bound ``lower``, max(ceil(total/n), max value), never
    exceeds the share. The search over [lower, 2*lower] gallops from
    ``lower``, then bisects the last gap, so when threshold_test passes
    at ``lower`` that one probe returns it; otherwise the returned s*
    passes and has a failing predecessor. Because the pass-set contains
    the whole ray above the share, s* never exceeds the share. Each
    probe runs ``_large_fits``, threshold_test's pass/fail on the values
    of the sorted row alone.
    """
    lower = _pigeonhole(desc, n)
    return _boundary_search(partial(_large_fits, desc, n), lower, 2 * lower)


def _allocate_within(
    ordd: OrderedInstance, bases: Sequence[int], num: int, den: int
) -> Tuple[ThresholdVector, Allocation, Tuple[int, ...]]:
    """Greedy on the ordered instance at caps num/den of ``bases``, re-checked.

    The caller builds ``ordd`` once; the greedy and the lift read it
    alone, and its ``source`` prices the lifted bundles. The bases,
    shares or searched thresholds, are integers from 0 up, so the caps
    need no second check. Both solvers choose caps at which the greedy
    provably places every chore and the lift keeps every load within its
    cap; both facts are checked here rather than assumed.

    The cores run on plain lists: ``_fill`` at the integer caps
    ``num * b // den``, which a load meets exactly when it meets
    ``num * b / den``, then ``_lift``; each load is summed once from the
    lifted chores and held to ``den * load <= num * b``. Only then are
    the caps and the lifted allocation built, once each. Returns the
    caps, the lifted allocation and each agent's load.
    """
    bundles, _, left = _fill(ordd.instance.valuations, [num * b // den for b in bases])
    if left:
        raise SolverInvariantError("greedy left chores over at the solver's caps")
    picked = _lift(ordd, bundles)
    rows = ordd.source.valuations
    loads = tuple([sum(map(row.__getitem__, chores)) for row, chores in zip(rows, picked)])
    for i, (load, b) in enumerate(zip(loads, bases)):
        if den * load > num * b:
            raise SolverInvariantError(
                f"agent {i} carries {load} above their cap {Fraction(num * b, den)}"
            )
    caps = _trusted(ThresholdVector, thresholds=tuple([Fraction(num * b, den) for b in bases]))
    lifted = _trusted(Allocation, bundles=tuple(map(frozenset, picked)), leftover=frozenset())
    return caps, lifted, loads


def solve_existence_119(
    inst: Instance, limits: OracleLimits = OracleLimits()
) -> ExistenceResult:
    """Complete allocation with every load at most 11/9 of the share.

    ``ordered_instance`` sorts every row once. Exact shares come from
    the oracle's ``_profile`` on those sorted rows, the core of
    ``mms_profile``, so the profile equals ``mms_profile(inst, limits)``;
    the greedy runs on the same ordered instance at caps 11*share/9 and
    provably leaves nothing over, and the result is mapped back to the
    original chores without any agent getting worse off.
    """
    ordd = ordered_instance(inst)
    profile = _profile(ordd, limits)
    caps, allocation, loads = _allocate_within(ordd, profile.values, 11, 9)
    ratios = tuple(map(_ratio, loads, profile.values))
    return ExistenceResult(
        allocation=allocation, profile=profile, ratios=ratios, thresholds=caps, loads=loads
    )


def solve_poly_54(inst: Instance) -> PolyResult:
    """Complete allocation with every load at most 5/4 of the share.

    Polynomial time: no oracle anywhere. The rows are sorted once, by
    ``ordered_instance``; each agent's certified threshold s_i is
    searched on its sorted row, which ``_search_sorted`` takes as it
    is, the greedy runs on the same ordered instance at caps 5*s_i/4,
    and since s_i never exceeds the true share, 4*load <= 5*s_i
    certifies the 5/4 bound.
    """
    ordd = ordered_instance(inst)
    n = inst.num_agents
    s_values = tuple(_search_sorted(desc, n) for desc in ordd.instance.valuations)
    caps, allocation, loads = _allocate_within(ordd, s_values, 5, 4)
    return PolyResult(
        allocation=allocation,
        thresholds=caps,
        s_values=s_values,
        loads=loads,
    )
