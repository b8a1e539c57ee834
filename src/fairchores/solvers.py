"""End-to-end solvers for approximately fair chore division.

Two routes to a complete allocation:

* ``solve_existence_119`` computes every maximin share exactly (NP-hard,
  oracle-backed) and runs the greedy at caps of 11/9 of each share. The
  leftover is provably empty at those caps, so the result is always an
  11/9-approximate allocation.
* ``solve_poly_54`` needs no oracle. A per-agent threshold test whose
  pass-set contains every value at or above the agent's share is probed
  at the pigeonhole bound and, only where that fails, binary-searched
  for a certified underestimate s_i; the greedy runs at caps 5/4 of
  those. Polynomial time, 5/4 guarantee.

The naive single-agent test is kept as well: first-fit-decreasing of the
agent's row into n bins at one cap. It is cheaper but its pass-set has
holes above the share (see the "non-monotone" fixture), so it certifies
nothing for fair division; on identical machines, searching it is the
11/9 MULTIFIT scheduler in ``scheduling``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import neg
from typing import List, Optional, Sequence, Tuple

from .errors import InputError, SolverInvariantError
from .greedy import GreedyResult, TraceEntry, greedy_fill
from .instances import (
    Allocation,
    Instance,
    OrderedInstance,
    ThresholdVector,
    _chore_allocation,
    _descending,
    allocation_loads,
    lift_allocation,
    ordered_instance,
)
from .oracle import MmsProfile, OracleLimits, mms_profile
from .scheduling import _boundary_search, _first_fit, _pigeonhole


@dataclass(frozen=True)
class SearchBounds:
    """Pigeonhole bracket [lower, 2*lower] around an agent's share."""

    lower: int
    upper: int


@dataclass(frozen=True)
class TestOutcome:
    """Result of the two-stage large-chore test at one threshold s.

    ``benchmark`` keeps the internal bundles for diagnostics: when the
    test passes they cover exactly the chores strictly above s/4, with
    everything else in the leftover. ``really_large_count`` is the
    number of chores strictly above s/2.
    """

    passed: bool
    benchmark: Allocation
    really_large_count: int


@dataclass(frozen=True)
class ExistenceResult:
    """Complete allocation with oracle-certified per-agent ratios."""

    allocation: Allocation
    profile: MmsProfile
    ratios: Tuple[Fraction, ...]
    trace: Tuple[TraceEntry, ...]


@dataclass(frozen=True)
class BoundCertificate:
    """One agent's load against their 5/4 cap: 4*load <= 5*s_agent."""

    agent: int
    load: int
    cap: Fraction
    satisfied: bool


@dataclass(frozen=True)
class PolyResult:
    """Complete allocation, the caps used, and per-agent certificates."""

    allocation: Allocation
    thresholds: ThresholdVector
    s_values: Tuple[int, ...]
    certificates: Tuple[BoundCertificate, ...]
    trace: Tuple[TraceEntry, ...]


def naive_test(inst: Instance, agent: int, s: int) -> bool:
    """Pack one agent's valuation first-fit-decreasing into n bins of cap s.

    ``_first_fit`` fills n empty bins of cap s on the sorted row: the
    same packing as the greedy at uniform s on n clones of the row.
    True iff everything gets allocated. Not monotone in s.
    """
    if s < 0:
        raise InputError("threshold s must be non-negative")
    row = sorted(inst.row(agent), reverse=True)
    return not _first_fit(row, range(len(row)), [(0, s)] * inst.num_agents)[1]


def _pack_large(
    desc: Sequence[int], n: int, s: int
) -> Tuple[List[List[int]], List[int], int]:
    """Two-stage large-chore packing of a row sorted nonincreasing.

    The chores strictly above s/4 are a prefix of the row, and the k
    strictly above s/2 a prefix of that. ``_first_fit`` packs the rest
    of the prefix into bundles k..1, each seeded with its own position,
    under cap s, then into fresh bundles k+1..n under 5s/4, whose floor
    integer loads meet exactly when they meet it. Returns the positions
    in each of the n bundles, the positions left unplaced, and k. When
    k > n nothing is packed and every large position is unplaced.
    """
    # An integer exceeds s/4 (or s/2) exactly when it exceeds the floor.
    large = bisect_left(desc, -(s // 4), key=neg)
    k = bisect_left(desc, -(s // 2), hi=large, key=neg)
    if k > n:
        # More chores above s/2 than bundles: certainly below the share.
        return [[] for _ in range(n)], list(range(large)), k

    seeded = [(desc[t], s) for t in reversed(range(k))]
    packed, leftover = _first_fit(
        desc, range(k, large), seeded + [(0, 5 * s // 4)] * (n - k)
    )
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
    if s < 1:
        raise InputError("threshold s must be at least 1")
    order, desc = _descending(inst.row(agent))
    bundles, queue, k = _pack_large(desc, inst.num_agents, s)
    benchmark = _chore_allocation(order, bundles)
    return TestOutcome(passed=not queue, benchmark=benchmark, really_large_count=k)


def search_bounds(inst: Instance, agent: int) -> SearchBounds:
    """Pigeonhole bracket: lower = max(ceil(total/n), max value)."""
    lower = _pigeonhole(inst.row(agent), inst.num_agents)
    return SearchBounds(lower=lower, upper=2 * lower)


def search_threshold(inst: Instance, agent: int) -> int:
    """Certified integer underestimate of one agent's maximin share.

    The pigeonhole bound ``lower`` never exceeds the share, so when
    threshold_test passes there it is returned after that one probe.
    Otherwise a boundary binary search over [lower, 2*lower] keeps
    "high passes" invariant; the returned s* passes and has a failing
    predecessor. Because the pass-set contains the whole ray above the
    share, s* never exceeds the share. The row is sorted once (one
    linear pass when it is already sorted, as in ``solve_poly_54``),
    and each probe runs threshold_test's packer, ``_pack_large``, on it
    for pass/fail alone.
    """
    bounds = search_bounds(inst, agent)
    desc = sorted(inst.row(agent), reverse=True)
    n = inst.num_agents

    def passes(s: int) -> bool:
        return not _pack_large(desc, n, s)[1]

    if passes(bounds.lower):
        return bounds.lower
    return _boundary_search(passes, bounds.lower, bounds.upper)


def _allocate_within(
    inst: Instance, ordd: OrderedInstance, caps: ThresholdVector
) -> Tuple[Allocation, Tuple[int, ...], Tuple[TraceEntry, ...]]:
    """Greedy on the ordered instance at ``caps``, lifted and re-checked.

    ``ordd`` is ``ordered_instance(inst)``, which the caller builds once.
    Both solvers choose caps at which the greedy provably places every
    chore and the lift keeps every load within its cap; both facts are
    checked here rather than assumed. Returns the allocation of the
    original chores, each agent's load and the greedy trace.
    """
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
    return lifted, loads, result.trace


def solve_existence_119(
    inst: Instance,
    limits: OracleLimits = OracleLimits(),
    *,
    profile: Optional[MmsProfile] = None,
) -> ExistenceResult:
    """Complete allocation with every load at most 11/9 of the share.

    Exact shares come from the oracle; the greedy runs on the ordered
    instance at caps 11*share/9 and provably leaves nothing over, and
    the result is mapped back to the original chores without any agent
    getting worse off. A caller who already holds the exact profile may
    pass it to skip the oracle re-run.
    """
    if profile is None:
        profile = mms_profile(inst, limits)
    elif len(profile.values) != inst.num_agents:
        raise InputError("profile does not match the instance")
    caps = ThresholdVector(tuple(Fraction(11 * mu, 9) for mu in profile.values))
    allocation, loads, trace = _allocate_within(inst, ordered_instance(inst), caps)
    ratios = tuple(
        Fraction(load, mu) if mu else Fraction(0)
        for load, mu in zip(loads, profile.values)
    )
    return ExistenceResult(
        allocation=allocation, profile=profile, ratios=ratios, trace=trace
    )


def solve_poly_54(inst: Instance) -> PolyResult:
    """Complete allocation with every load at most 5/4 of the share.

    Polynomial time: no oracle anywhere. The rows are sorted once, by
    ``ordered_instance``; each agent's certified threshold s_i is
    searched on its sorted row, the greedy runs on the same ordered
    instance at caps 5*s_i/4, and since s_i never exceeds the true
    share, 4*load <= 5*s_i certifies the 5/4 bound.
    """
    ordd = ordered_instance(inst)
    s_values = tuple(
        search_threshold(ordd.instance, i) for i in range(inst.num_agents)
    )
    caps = ThresholdVector(tuple(Fraction(5 * s, 4) for s in s_values))
    allocation, loads, trace = _allocate_within(inst, ordd, caps)
    # _allocate_within has checked every load against its cap.
    certificates = tuple(
        BoundCertificate(agent=i, load=load, cap=cap, satisfied=True)
        for i, (load, cap) in enumerate(zip(loads, caps.thresholds))
    )
    return PolyResult(
        allocation=allocation,
        thresholds=caps,
        s_values=s_values,
        certificates=certificates,
        trace=trace,
    )
