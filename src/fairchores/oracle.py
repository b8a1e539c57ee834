"""Exact maximin-share oracle.

For chores, an agent's maximin share is the minimum over all n-bundle
partitions of the maximum bundle cost under their valuation: exactly the
optimal makespan of scheduling their chores on n identical machines. The
problem is NP-hard, so this oracle is a bounded branch-and-bound meant
for ground truth on small instances, not for production-sized inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import InputError, InstanceTooLargeError, NodeBudgetError
from .instances import Allocation, Instance
from .scheduling import schedule_lpt

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


def exact_mms(
    inst: Instance, agent: int, limits: OracleLimits = OracleLimits()
) -> Tuple[int, Allocation]:
    """Exact maximin share of one agent plus an optimal witness partition.

    Branch-and-bound over chores in nonincreasing value order. Prunes:
    placing a chore never pushes a bundle to or past the incumbent, a
    chore only ever opens the first empty bundle, and bundles whose
    current load repeats an already-tried load are skipped. The search
    additionally stops once the incumbent reaches the pigeonhole lower
    bound max(ceil(total/n), max value), which cannot be improved.
    """
    row = inst.row(agent)
    n, m = inst.num_agents, inst.num_chores
    if m > limits.max_chores:
        raise InstanceTooLargeError(
            f"{m} chores exceeds the oracle limit of {limits.max_chores}"
        )

    order = sorted(range(m), key=lambda c: (-row[c], c))
    values = [row[c] for c in order]
    total = sum(values)
    lower = max(-(-total // n), values[0]) if m else 0

    seed = schedule_lpt(row, n)
    incumbent, witness = seed.makespan, seed.allocation

    if m and incumbent > lower:
        loads = [0] * n
        assign = [0] * m
        nodes = 0
        budget = limits.node_budget
        best_assign: Optional[List[int]] = None

        def descend(k: int) -> None:
            nonlocal incumbent, best_assign, nodes
            if k == m:
                incumbent = max(loads)
                best_assign = assign.copy()
                return
            value = values[k]
            tried: set = set()
            for b in range(n):
                load = loads[b]
                if load in tried:
                    continue
                tried.add(load)
                if load + value < incumbent:
                    nodes += 1
                    if nodes > budget:
                        raise NodeBudgetError(
                            f"node budget {budget} exhausted on a "
                            f"{n}-agent, {m}-chore search"
                        )
                    loads[b] = load + value
                    assign[k] = b
                    descend(k + 1)
                    loads[b] = load
                    if incumbent == lower:
                        return
                if load == 0:
                    # Remaining bundles are all empty too; trying them
                    # would only relabel this branch.
                    break

        descend(0)

        if best_assign is not None:
            bundles: List[set] = [set() for _ in range(n)]
            for pos, bundle in enumerate(best_assign):
                bundles[bundle].add(order[pos])
            witness = Allocation(
                bundles=tuple(frozenset(b) for b in bundles), leftover=frozenset()
            )
    return incumbent, witness


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

    Identical machines mean a single valuation repeated for every
    machine, so this is the oracle applied to that synthetic instance.
    """
    if machines < 1:
        raise InputError("machines must be at least 1")
    inst = Instance.from_rows([list(values)] * machines)
    value, _ = exact_mms(inst, 0, limits)
    return value
