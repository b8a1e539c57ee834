"""Exact maximin-share oracle.

For chores, an agent's maximin share is the minimum over all n-bundle
partitions of the maximum bundle cost under their valuation: exactly the
optimal makespan of scheduling their chores on n identical machines.
Both questions therefore run one search, ``_min_makespan``, on a row
sorted nonincreasing: ``exact_mms`` on an agent's row with one bin per
agent (sorted by ``_descending``, its bins mapped back to chores by
``_chore_allocation``), ``optimal_makespan`` on a job list with one bin
per machine. The problem is NP-hard, so the search is a bounded
branch-and-bound meant for ground truth on small instances, not for
production-sized inputs. It keeps its state in lists, not on the call
stack, so only its own limits bound the row length it accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import InputError, InstanceTooLargeError, NodeBudgetError
from .instances import Allocation, Instance, _chore_allocation, _descending
from .scheduling import _lpt, _pigeonhole

DEFAULT_MAX_CHORES = 24
DEFAULT_NODE_BUDGET = 100_000_000


@dataclass(frozen=True)
class OracleLimits:
    """Hard resource limits for the exact search.

    Exceeding either limit raises; the oracle never silently degrades to
    an approximation.
    """

    max_chores: int = DEFAULT_MAX_CHORES
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self) -> None:
        if self.max_chores < 1:
            raise InputError("max_chores must be at least 1")
        if self.node_budget < 1:
            raise InputError("node_budget must be at least 1")


@dataclass(frozen=True)
class MmsProfile:
    """Per-agent exact maximin shares with optional witness partitions."""

    values: Tuple[int, ...]
    witnesses: Optional[Tuple[Allocation, ...]] = None


def _min_makespan(
    desc: Sequence[int], n: int, limits: OracleLimits
) -> Tuple[int, List[int]]:
    """Optimal makespan of a nonincreasing row on n identical bins.

    Returns the makespan and the bin of each position. The incumbent
    starts at the row's longest-processing-time schedule, ``_lpt``.
    Branch-and-bound then places positions in order, depth first: a
    placement never pushes a bin to or past the incumbent, and bins
    whose load repeats a load already tried at that depth are skipped.
    Values are nonincreasing and only the first empty bin ever opens, so
    the empty bins are always the last ones and that rule alone skips
    every empty bin after the first. The search stops once the incumbent
    reaches the pigeonhole bound, which cannot be beaten. It keeps its
    state in per-depth lists rather than on the call stack, so no row
    length reaches the recursion limit.
    """
    m = len(desc)
    if m > limits.max_chores:
        raise InstanceTooLargeError(
            f"{m} chores exceeds the oracle limit of {limits.max_chores}"
        )
    packed, seed_loads = _lpt(desc, n)
    incumbent = max(seed_loads)
    best = [0] * m
    for b, bundle in enumerate(packed):
        for pos in bundle:
            best[pos] = b
    lower = _pigeonhole(desc, n)
    if incumbent == lower:
        return incumbent, best

    budget = limits.node_budget
    nodes = 0
    loads = [0] * n
    assign = [0] * m
    # Per depth: an iterator over the bins it has still to try, and the
    # bin loads it has already tried.
    next_bins: List[Iterator[int]] = [iter(range(n)) for _ in range(m)]
    tried: List[set] = [set() for _ in range(m)]
    last = m - 1
    k = 0
    while True:
        value = desc[k]
        seen = tried[k]
        for b in next_bins[k]:
            load = loads[b]
            if load in seen:
                continue
            seen.add(load)
            if load + value < incumbent:
                nodes += 1
                if nodes > budget:
                    raise NodeBudgetError(
                        f"node budget {budget} exhausted on a "
                        f"{n}-agent, {m}-chore search"
                    )
                loads[b] = load + value
                assign[k] = b
                if k < last:
                    k += 1
                    next_bins[k] = iter(range(n))
                    tried[k].clear()
                    break
                incumbent = max(loads)
                best = assign.copy()
                loads[b] = load
                if incumbent == lower:
                    return incumbent, best
        else:
            # Depth k is done: undo the placement of the depth above.
            k -= 1
            if k < 0:
                return incumbent, best
            loads[assign[k]] -= desc[k]


def exact_mms(
    inst: Instance, agent: int, limits: OracleLimits = OracleLimits()
) -> Tuple[int, Allocation]:
    """Exact maximin share of one agent plus an optimal witness partition.

    The share is the optimal makespan of the agent's row on n identical
    bins: ``_descending`` sorts the row, ``_min_makespan`` searches it,
    and ``_chore_allocation`` maps the bins of its positions back to the
    chores behind them.
    """
    order, desc = _descending(inst.row(agent))
    value, bins = _min_makespan(desc, inst.num_agents, limits)
    bundles = [[] for _ in range(inst.num_agents)]
    for pos, b in enumerate(bins):
        bundles[b].append(pos)
    return value, _chore_allocation(order, bundles)


def mms_profile(inst: Instance, limits: OracleLimits = OracleLimits()) -> MmsProfile:
    """Run the exact oracle for every agent."""
    values: List[int] = []
    witnesses: List[Allocation] = []
    for agent in range(inst.num_agents):
        value, witness = exact_mms(inst, agent, limits)
        values.append(value)
        witnesses.append(witness)
    return MmsProfile(values=tuple(values), witnesses=tuple(witnesses))


def optimal_makespan(
    values: Sequence[int], machines: int, limits: OracleLimits = OracleLimits()
) -> int:
    """Exact minimum makespan of jobs on identical machines.

    The jobs are validated as one row of valuations, so the 64-bit cap
    applies, and their descending sort goes straight to the search that
    ``exact_mms`` runs for each agent's row.
    """
    if machines < 1:
        raise InputError("machines must be at least 1")
    row = Instance.from_rows([values]).row(0)
    return _min_makespan(sorted(row, reverse=True), machines, limits)[0]
