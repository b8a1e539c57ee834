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
  5/4 of those. Polynomial time, 5/4 guarantee.

The naive single-agent test is kept as well: first-fit-decreasing of the
agent's row into n bins at one cap, on the values alone. It is cheaper
but its pass-set has holes above the share (see the "non-monotone"
fixture), so it certifies nothing for fair division; on identical
machines, searching it is the MULTIFIT scheduler in ``scheduling``,
within 13/11 of the optimal makespan. Search probes answer pass/fail.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from operator import neg
from typing import List, Sequence, Tuple

from .errors import SolverInvariantError
from .greedy import greedy_fill
from .instances import (
    Allocation,
    Instance,
    OrderedInstance,
    ThresholdVector,
    _as_int,
    _as_type,
    _chore_allocation,
    _descending,
    _Record,
    _trusted,
    allocation_loads,
    lift_allocation,
    ordered_instance,
)
from .oracle import MmsProfile, OracleLimits, _profile, _ratio
from .scheduling import _boundary_search, _ffd_fits, _first_fit, _pigeonhole


class TestOutcome(_Record):
    """Result of the two-stage large-chore test at one threshold s.

    ``benchmark`` keeps the internal bundles for diagnostics: when the
    test passes they cover exactly the chores strictly above s/4, with
    everything else in the leftover. ``really_large_count`` is the
    number of chores strictly above s/2.
    """

    passed: bool
    benchmark: Allocation
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
    room of the bins left. True iff everything gets allocated. Not
    monotone in s.
    """
    _as_int(s, "threshold s")
    row = _as_type(inst, Instance, "inst").row(agent)
    return _ffd_fits(sorted(row, reverse=True), inst.num_agents, s)


def _pack_large(
    desc: Sequence[int], n: int, s: int
) -> Tuple[List[List[int]], List[int], int]:
    """Two-stage large-chore packing of a row sorted nonincreasing.

    The chores strictly above s/4 are a prefix of the row, and the k
    strictly above s/2 a prefix of that. ``_first_fit`` packs the rest
    of the prefix into bundles k..1, each seeded with its own position,
    under cap s, then into fresh bundles k+1..n under 5s/4, whose floor
    integer loads meet exactly when they meet it; each bundle takes the
    largest leftover chore that fits, one bisection and one deletion per
    placed chore. Returns the positions in each of the n bundles, the
    positions left unplaced, and k. When k > n nothing is packed and
    every large position is unplaced.
    """
    # An integer exceeds s/4 (or s/2) exactly when it exceeds the floor.
    large = bisect_left(desc, -(s // 4), key=neg)
    k = bisect_left(desc, -(s // 2), hi=large, key=neg)
    if k > n:
        # More chores above s/2 than bundles: certainly below the share.
        return [[] for _ in range(n)], list(range(large)), k

    seeded = [(desc[t], s) for t in reversed(range(k))]
    packed, leftover = _first_fit(desc, k, large, seeded + [(0, 5 * s // 4)] * (n - k))
    bundles = [[t] + packed[k - 1 - t] for t in range(k)] + packed[k:]
    return bundles, leftover, k


def threshold_test(inst: Instance, agent: int, s: int) -> TestOutcome:
    """Two-stage test of a candidate threshold s for one agent.

    Only chores strictly above s/4 participate. The k chores strictly
    above s/2 seed bundles 1..k (one each); stage one tops bundles k
    down to 1 up with the remaining participants, largest first, under
    cap s; stage two fills bundles k+1..n the greedy way under cap
    5s/4. Passes iff every participant is placed. Every s at or above
    the agent's maximin share passes.

    The row is sorted by ``_descending``, the packing runs in
    ``_pack_large`` on it, and ``_chore_allocation`` maps the packed
    positions back to chores; ``search_threshold`` runs the same packer.
    """
    _as_int(s, "threshold s")
    order, desc = _descending(_as_type(inst, Instance, "inst").row(agent))
    bundles, queue, k = _pack_large(desc, inst.num_agents, s)
    benchmark = _chore_allocation(order, bundles)
    return TestOutcome(passed=not queue, benchmark=benchmark, really_large_count=k)


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
    probe runs threshold_test's packer, ``_pack_large``, on the sorted
    row for pass/fail alone.
    """
    lower = _pigeonhole(desc, n)
    return _boundary_search(lambda s: not _pack_large(desc, n, s)[1], lower, 2 * lower)


def _allocate_within(
    inst: Instance, ordd: OrderedInstance, bases: Sequence[int], num: int, den: int
) -> Tuple[ThresholdVector, Allocation, Tuple[int, ...]]:
    """Greedy on the ordered instance at caps num/den of ``bases``, re-checked.

    ``ordd`` is ``ordered_instance(inst)``, which the caller builds once.
    The bases, shares or searched thresholds, are integers from 0 up, so
    the caps need no second check. Both solvers choose caps at which the
    greedy provably places every chore and the lift keeps every load
    within its cap; both facts are checked here rather than assumed.
    Returns the caps, the lifted allocation and each agent's load.
    """
    caps = _trusted(ThresholdVector, thresholds=tuple(Fraction(num * b, den) for b in bases))
    result = greedy_fill(ordd, caps)
    if not result.allocation.complete:
        raise SolverInvariantError("greedy left chores over at the solver's caps")
    lifted = lift_allocation(inst, ordd, result.allocation)
    loads = allocation_loads(inst, lifted)
    for i, (load, cap) in enumerate(zip(loads, caps.thresholds)):
        if load > cap:
            raise SolverInvariantError(
                f"agent {i} carries {load} above their cap {cap}"
            )
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
    caps, allocation, loads = _allocate_within(inst, ordd, profile.values, 11, 9)
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
    caps, allocation, loads = _allocate_within(inst, ordd, s_values, 5, 4)
    return PolyResult(
        allocation=allocation,
        thresholds=caps,
        s_values=s_values,
        loads=loads,
    )
