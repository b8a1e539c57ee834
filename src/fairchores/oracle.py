"""Exact maximin-share oracle.

For chores, an agent's maximin share is the minimum over all n-bundle
partitions of the maximum bundle cost under their valuation: exactly the
optimal makespan of scheduling their chores on n identical machines.
Both questions therefore run one search, ``_min_makespan``, on a row
sorted nonincreasing: ``exact_mms`` on an agent's row with one bin per
agent (its bins mapped back to chores by ``instances._witness``),
``_profile`` once per distinct row of an ordered instance (for
``mms_profile`` and ``solve_existence_119`` alike), ``optimal_makespan``
on a job list with one bin per machine. Every load is a multiple of
the row's gcd, so the search runs on the row divided by it: a row and
its multiples take the same search. The problem is NP-hard, so the
search is a bounded branch-and-bound meant for ground truth on small
instances, not for production-sized inputs. Besides the incumbent and
a lower bound it prunes by wasted room: a placement after which the
bins' room that no later value can fill exceeds the slack leads to no
schedule that beats the incumbent, so skipping it changes only the
node count, never the share or the witness. A bin wastes its room
minus the most that later values can put in it, read from a bitset of
each suffix's subset sums, at a coarser resolution where the cap is
wider than the bitset. Its state is two lists, ``assign`` and
``loads``, not the call stack, so only its own limits bound the row
length it accepts. Beside the shares, ``check_amms`` holds each load to
alpha times its share, and ``_ratio`` is the exact load/share ratio
that it and the solvers report.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import gcd, inf
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InputError, InstanceTooLargeError, NodeBudgetError
from .instances import (
    Allocation,
    Instance,
    OrderedInstance,
    _as_cap,
    _as_int,
    _as_type,
    _descending,
    _Record,
    _trusted,
    _witness,
    allocation_loads,
    ordered_instance,
)
from .scheduling import _check_jobs, _lpt, _pigeonhole

DEFAULT_MAX_CHORES = 24
DEFAULT_NODE_BUDGET = 100_000_000
# The width of the exact search's subset-sum table: each of its m + 1
# bitsets for m values is at most SUBSET_CAP bits wide, and all of them
# hold at most SUBSET_BITS (2 MiB), so a search whose first cap is wider
# reads the table at a resolution q > 1 (see _min_makespan). Timed on 702
# rows of values up to 10**6 at m 12-16: caps of 2**12 to 2**14 lie within
# drift of each other, 2**16 and 2**18 took 1.2 s and 2.3 s against
# 0.55-0.89 s at 2**14, and below 2**13 some exact-small rows move to q > 1.
SUBSET_CAP = 1 << 14
SUBSET_BITS = 1 << 24


class OracleLimits(_Record):
    """Hard resource limits for the exact search.

    Exceeding either limit raises; the oracle never silently degrades to
    an approximation. ``node_budget`` bounds the placements of one
    search, so ``mms_profile`` grants it to each distinct sorted row.
    """

    max_chores: int = DEFAULT_MAX_CHORES
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self) -> None:
        _as_int(self.max_chores, "max_chores", 1)
        _as_int(self.node_budget, "node_budget", 1)


class MmsProfile(_Record):
    """Per-agent exact maximin shares with optional witness partitions.

    The constructor takes ``None`` or one ``Allocation`` per share. A
    profile from ``_profile``, or a copy or pickle of one, builds its
    witnesses on their first read.
    """

    values: Tuple[int, ...]
    witnesses: Optional[Tuple[Allocation, ...]] = None

    def __post_init__(self) -> None:
        # The integer rule from 0, uncapped: a share can be a row total.
        values = tuple(_as_type(self.values, Iterable, "profile values"))
        for i, share in enumerate(values):
            _as_int(share, f"profile value {i}", 0, inf)
        object.__setattr__(self, "values", values)
        if self.witnesses is not None:
            witnesses = tuple(_as_type(self.witnesses, Iterable, "profile witnesses"))
            if len(witnesses) != len(values):
                raise InputError(f"expected {len(values)} profile witnesses, got {len(witnesses)}")
            for i, witness in enumerate(witnesses):
                _as_type(witness, Allocation, f"profile witness {i}")
            object.__setattr__(self, "witnesses", witnesses)

    def __getattr__(self, name: str):
        # Only a missing attribute gets here. _pending stays, so two first
        # reads at once both build rather than one failing.
        if name != "witnesses" or "_pending" not in self.__dict__:
            raise AttributeError(name)
        n, ranks, bins = self.__dict__["_pending"]
        witnesses = tuple(_witness(order, b, n) for order, b in zip(ranks, bins))
        object.__setattr__(self, "witnesses", witnesses)
        return witnesses


# __init__ keeps the None default; unset here, a read reaches __getattr__.
del MmsProfile.witnesses


def _ratio(load: int, share: int) -> Optional[Fraction]:
    """The exact load/share ratio: 0 when both are 0, None for a load on a zero share."""
    return Fraction(load, share) if share else None if load else Fraction(0)


class AmmsReport(_Record):
    """Outcome of checking loads against alpha times each maximin share.

    ``ratios[i]`` is the exact load/share fraction, 0 when both are
    zero, and None in the degenerate case of a positive load against a
    zero share (which also fails the check).
    """

    passed: bool
    within: Tuple[bool, ...]
    ratios: Tuple[Optional[Fraction], ...]


def check_amms(
    inst: Instance, alloc: Allocation, profile: MmsProfile, alpha: Fraction
) -> AmmsReport:
    """Does every agent carry at most alpha times their maximin share?

    ``alpha`` follows the caps rule; ``MmsProfile`` has checked each share."""
    loads = allocation_loads(inst, alloc)
    if not alloc.complete:
        raise InputError("check_amms needs a complete allocation")
    if len(_as_type(profile, MmsProfile, "profile").values) != inst.num_agents:
        raise InputError("profile does not match the instance")
    alpha = _as_cap(alpha, "alpha")

    within = tuple(load <= alpha * share for load, share in zip(loads, profile.values))
    ratios = tuple(map(_ratio, loads, profile.values))
    return AmmsReport(passed=all(within), within=within, ratios=ratios)


def _min_makespan(
    desc: Sequence[int], n: int, limits: OracleLimits
) -> Tuple[int, List[int], int]:
    """Optimal makespan of a nonincreasing row on n identical bins.

    The incumbent starts at the row's longest-processing-time schedule,
    ``_lpt``. Branch-and-bound then places positions in order, depth
    first: a placement never pushes a bin to or past the incumbent, and
    a bin is skipped when an earlier bin has the same load, as that bin
    was already tried at this depth with it (so only the first empty bin
    ever opens). Every leaf beats the incumbent and becomes it. A bin of
    that leaf at the new incumbent would make every schedule below it a
    tie, so the search then undoes placements from the leaf up until no
    bin's load equals the incumbent, and resumes that depth after the
    bin it had used. The witness is thus the first schedule, in
    depth-first order, that reaches the optimum, or the LPT schedule when
    that is already optimal. The search stops once the incumbent reaches
    the pigeonhole bound.

    A row whose gcd g exceeds 1 is divided by g at entry and its
    makespan multiplied back: every load and cap is a multiple of g, so
    each comparison is the row's own, but no bin carries ``g - 1`` units
    of room that no load can use. A row and its multiples take the same
    search, node for node; the resolution and the wastes below are in
    the reduced row's units.

    Wasted room, the bound of bin completion (Korf 2003), prunes. With
    ``cap`` one below the incumbent, every placement short of the last
    depth sums each bin's room that the later values cannot use: the
    room minus the largest sum of later values that fits in it
    (Martello & Toth 1990). When the waste exceeds ``n * cap - total``,
    no completion beats the incumbent, and the placement counts as a
    node but is not descended into. The subtrees it closes hold no
    improving leaf, so the search meets the same leaves in the same
    order: the witness and the makespan are those of the search without
    it, and only the node count falls.

    The table's cost grows with its width, so the first cap sets a
    resolution ``q``, the least that keeps ``cap // q`` below
    ``SUBSET_CAP`` and the table within ``SUBSET_BITS``. Bit s of
    ``suf[j]`` is set when some values of ``desc[j:]``, each divided by
    ``q`` and rounded down, sum to s. Let F be the highest set bit of
    ``suf[k + 1]`` at or below ``room // q``: the later values that fit
    in the room fill at most ``q * F`` plus ``q - 1`` for each of them,
    and no more of them fit than remain or than ``room // p``, ``p``
    being the row's smallest positive value (Ibarra & Kim 1975). A room
    below ``p`` is wasted whole, a larger one less that fill when
    positive. At ``q`` 1 the fill is the largest sum itself, read by a
    cheaper loop of its own.

    Returns the makespan, the bin of each position and the node count.
    Its state is ``assign`` (the bin of each placed position) and
    ``loads``: an exhausted depth undoes the placement one depth up and
    resumes there after that placement's bin, so no row length reaches
    the recursion limit.
    """
    m = len(desc)
    if m > _as_type(limits, OracleLimits, "limits").max_chores:
        raise InstanceTooLargeError(
            f"{m} chores exceeds the oracle limit of {limits.max_chores}"
        )
    g = gcd(*desc) or 1
    if g > 1:
        desc = [v // g for v in desc]
    best, seed_loads = _lpt(desc, n)
    incumbent = max(seed_loads)
    lower = _pigeonhole(desc, n)
    if incumbent == lower:
        return incumbent * g, best, 0

    budget = limits.node_budget
    nodes = 0
    loads = [0] * n
    assign = [0] * m
    last = m - 1
    total = sum(desc)
    cap = incumbent - 1
    slack = n * cap - total
    # Bit s of suf[j] is set when values of desc[j:], each divided by q
    # and rounded down, sum to s <= cap // q. The cap only falls, so the
    # first cap's table serves the search, which never reads suf[0].
    width = max(1, min(SUBSET_CAP, SUBSET_BITS // (m + 1)))
    q = cap // width + 1
    if q > 1:
        p = min(v for v in desc if v)
    top = (2 << cap // q) - 1
    suf = [1] * (m + 1)
    for j in range(last, 0, -1):
        suf[j] = (suf[j + 1] | suf[j + 1] << desc[j] // q) & top
    k = 0
    start = 0
    while True:
        value = desc[k]
        for b in range(start, n):
            load = loads[b]
            placed = load + value
            if placed > cap or loads.index(load) < b:
                continue
            nodes += 1
            if nodes > budget:
                raise NodeBudgetError(
                    f"node budget {budget} exhausted on a "
                    f"{n}-agent, {m}-chore search"
                )
            loads[b] = placed
            assign[k] = b
            if k < last:
                waste = 0
                sums = suf[k + 1]
                if q == 1:
                    # The highest set bit at or below room is the most
                    # that the later values can put in the bin.
                    for used in loads:
                        room = cap - used
                        waste += room + 1 - (sums & ((2 << room) - 1)).bit_length()
                        if waste > slack:
                            break
                else:
                    # Each later value that fits lost less than q when
                    # it was rounded down.
                    for used in loads:
                        room = cap - used
                        if room < p:
                            waste += room
                        else:
                            fit = (sums & ((2 << room // q) - 1)).bit_length() - 1
                            fill = q * fit + (q - 1) * min(last - k, room // p)
                            waste += max(room - fill, 0)
                        if waste > slack:
                            break
                if waste > slack:
                    loads[b] = load
                    continue
                k += 1
                start = 0
                break
            incumbent = max(loads)
            best = assign.copy()
            if incumbent == lower:
                return incumbent * g, best, nodes
            cap = incumbent - 1
            slack = n * cap - total
            # Undo from the leaf up while a bin carries the incumbent.
            loads[assign[k]] -= desc[k]
            while incumbent in loads:
                k -= 1
                loads[assign[k]] -= desc[k]
            start = assign[k] + 1
            break
        else:
            # Depth k is exhausted: undo one depth up and, as after a
            # leaf, resume the last undone depth after the bin it used.
            k -= 1
            if k < 0:
                return incumbent * g, best, nodes
            loads[assign[k]] -= desc[k]
            start = assign[k] + 1


def exact_mms(
    inst: Instance, agent: int, limits: OracleLimits = OracleLimits()
) -> Tuple[int, Allocation]:
    """Exact maximin share of one agent plus an optimal witness partition.

    The share is the optimal makespan of the agent's row on n identical
    bins: ``_descending`` sorts the row, ``_min_makespan`` searches it,
    and ``_witness`` maps the bins of its positions back to the chores
    behind them.
    """
    order, desc = _descending(_as_type(inst, Instance, "inst").row(agent))
    value, bins, _ = _min_makespan(desc, inst.num_agents, limits)
    return value, _witness(order, bins, inst.num_agents)


def _profile(ordd: OrderedInstance, limits: OracleLimits) -> MmsProfile:
    """Every agent's exact share and witness on ``ordered_instance(inst)``.

    The sorted rows are searched as they are, each distinct row once (a
    dict for this call only). On their first read the witnesses map each
    agent's bins back to chores through its own ``ordd.source_ranks``
    row, which is the order ``_descending`` gives ``exact_mms``.
    """
    n = ordd.instance.num_agents
    searched: Dict[Tuple[int, ...], Tuple[int, List[int], int]] = {}
    values: List[int] = []
    bins: List[List[int]] = []
    for desc in ordd.instance.valuations:
        found = searched.get(desc)
        if found is None:
            found = searched[desc] = _min_makespan(desc, n, limits)
        values.append(found[0])
        bins.append(found[1])
    return _trusted(MmsProfile, values=tuple(values), _pending=(n, ordd.source_ranks, bins))


def mms_profile(inst: Instance, limits: OracleLimits = OracleLimits()) -> MmsProfile:
    """Run the exact oracle for every agent.

    ``ordered_instance`` sorts each row once and ``_profile`` searches
    the sorted rows, the same core ``solve_existence_119`` runs on its
    own ordered instance. Agents whose rows sort to the same values
    share one search; ``limits.node_budget`` holds for each distinct
    sorted row. Every value and witness equals ``exact_mms``'s; the
    witnesses are built on their first read.
    """
    return _profile(ordered_instance(inst), limits)


def optimal_makespan(
    values: Sequence[int], machines: int, limits: OracleLimits = OracleLimits()
) -> int:
    """Exact minimum makespan of jobs on identical machines.

    The machines and jobs are checked as the schedulers check them, and
    the jobs' descending sort goes straight to the search that
    ``exact_mms`` runs for each agent's row. Machines beyond one per job
    stay idle in every schedule, so the search gets at most one bin per
    job, and its memory does not grow with the machine count.
    """
    jobs = _check_jobs(values, machines)
    return _min_makespan(sorted(jobs, reverse=True), min(machines, len(jobs)) or 1, limits)[0]
