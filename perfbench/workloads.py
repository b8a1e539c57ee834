"""Workloads: seeded corpora, the timed solver call, and the output checks.

A corpus holds ``per_second * seconds`` instances, so one pass over it
takes about ``seconds`` on a 2-vCPU x86 VM with Python 3.11. Instance
sizes follow a fixed grid that fills the stated ranges evenly, so a seed
changes the values and the order of the instances, not their sizes.
Values come from the library's own seeded generator. Checks never call
a function the traced run wraps, so they add no spans.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, List, Optional, Sequence, Tuple

VALUE_MAX = 1000


class CheckFailed(Exception):
    """A solver output broke one of the guarantees the benchmark checks."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Case:
    """One corpus entry: the rows the solver sees and its call arguments.

    For scheduling, ``rows`` holds the job list once per machine.
    """

    ident: str
    rows: Tuple[Tuple[int, ...], ...]
    args: Tuple[Any, ...]

    @property
    def agents(self) -> int:
        return len(self.rows)

    @property
    def chores(self) -> int:
        return len(self.rows[0])


def pigeonhole(row: Sequence[int], n: int) -> int:
    """max(ceil(total/n), max value): a lower bound on the share."""
    return max(-(-sum(row) // n), max(row, default=0))


def repeat_row_share(rows: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """(rows whose sorted values repeat an earlier row, rows)."""
    seen = set()
    repeats = 0
    for row in rows:
        key = tuple(sorted(row))
        repeats += key in seen
        seen.add(key)
    return repeats, len(rows)


def canonical(fc, alloc) -> str:
    return json.dumps(fc.instances.allocation_to_json(alloc), separators=(",", ":"))


GOLDEN = (5**0.5 - 1) / 2


def size_grid(count: int, agents: Tuple[int, int], chores: Tuple[int, int]) -> List[Tuple[int, int]]:
    """``count`` (n, m) pairs spread evenly over both ranges.

    n takes every value equally often; within each run of equal n, m
    follows the golden-ratio sequence, which never clusters.
    """
    n_span = agents[1] - agents[0] + 1
    m_span = chores[1] - chores[0] + 1
    return [
        (agents[0] + k * n_span // count, chores[0] + int(k * GOLDEN % 1 * m_span))
        for k in range(count)
    ]


def random_instance(fc, rng: random.Random, n: int, m: int):
    config = fc.GeneratorConfig(
        seed=rng.getrandbits(64), agents=(n, n), chores=(m, m), value_max=VALUE_MAX
    )
    return next(fc.generate(config, 1))


@dataclass(frozen=True)
class Workload:
    """A corpus recipe plus the solver it times and the checks it runs."""

    name: str
    per_second: float
    agents: Tuple[int, int]
    chores: Tuple[int, int]
    min_count: int = 100

    def build(self, fc, seed: int, seconds: float,
              tick: Callable[[], None] = lambda: None) -> List[Case]:
        """The corpus for one run, in seeded order; ``tick`` runs before each case."""
        rng = random.Random(seed)
        count = max(self.min_count, round(self.per_second * seconds))
        cases = []
        for k, (n, m) in enumerate(size_grid(count, self.agents, self.chores)):
            tick()
            cases.append(self.case(fc, rng, k, n, m))
        rng.shuffle(cases)
        return cases + self.extra_cases(fc)

    def case(self, fc, rng: random.Random, k: int, n: int, m: int) -> Case:
        raise NotImplementedError

    def extra_cases(self, fc) -> List[Case]:
        return []

    def solve(self, fc, case: Case):
        raise NotImplementedError

    def check(self, fc, case: Case, result) -> Tuple[Fraction, str]:
        """Raise CheckFailed, or return (worst ratio, canonical allocation)."""
        raise NotImplementedError

    def reference(self, fc, case: Case) -> Optional[Fraction]:
        """Untimed baseline run beside the solver, as a worst ratio."""
        return None


def check_allocation(fc, inst, alloc, caps) -> Tuple[int, ...]:
    report = fc.verify_allocation(inst, alloc, caps)
    require(report.complete, "allocation leaves chores over")
    require(all(report.within_threshold), "a load exceeds the solver's own cap")
    return report.loads


class PolyRandom(Workload):
    def case(self, fc, rng: random.Random, k: int, n: int, m: int) -> Case:
        inst = random_instance(fc, rng, n, m)
        return Case(f"r{k}", inst.valuations, (inst,))

    def solve(self, fc, case: Case):
        return fc.solve_poly_54(*case.args)

    def check(self, fc, case: Case, result) -> Tuple[Fraction, str]:
        (inst,) = case.args
        loads = check_allocation(fc, inst, result.allocation, result.thresholds)
        worst = Fraction(0)
        for i, load in enumerate(loads):
            require(4 * load <= 5 * result.s_values[i], f"agent {i}: 4*load > 5*s")
            lower = pigeonhole(case.rows[i], case.agents)
            if lower:
                worst = max(worst, Fraction(load, lower))
        return worst, canonical(fc, result.allocation)


class SchedIdentical(Workload):
    def case(self, fc, rng: random.Random, k: int, n: int, m: int) -> Case:
        jobs = random_instance(fc, rng, 1, m).valuations[0]
        return Case(f"j{k}", (jobs,) * n, (list(jobs), n))

    def solve(self, fc, case: Case):
        return fc.schedule_119(*case.args)

    def _bound(self, case: Case, loads: Sequence[int], makespan: int) -> Fraction:
        require(makespan == max(loads), "makespan is not the largest load")
        lower = pigeonhole(case.rows[0], case.agents)
        require(lower <= makespan, "makespan below the pigeonhole bound")
        return Fraction(makespan, lower) if lower else Fraction(0)

    def check(self, fc, case: Case, result) -> Tuple[Fraction, str]:
        n, m = case.agents, case.chores
        inst = fc.Instance(n, m, case.rows)
        caps = fc.ThresholdVector.uniform(n, result.threshold)
        loads = check_allocation(fc, inst, result.allocation, caps)
        require(loads == result.loads, "reported loads differ from the bundles")
        ratio = self._bound(case, loads, result.makespan)
        lower = pigeonhole(case.rows[0], n)
        require(result.makespan <= result.threshold <= 2 * lower,
                "threshold outside [makespan, 2 * pigeonhole bound]")
        return ratio, canonical(fc, result.allocation)

    def reference(self, fc, case: Case) -> Optional[Fraction]:
        lpt = fc.schedule_lpt(*case.args)
        return self._bound(case, lpt.loads, lpt.makespan)


class ExactSmall(Workload):
    def case(self, fc, rng: random.Random, k: int, n: int, m: int) -> Case:
        # Every second instance gives all agents one shared row.
        if k % 2 == 0:
            inst = fc.Instance.from_rows(random_instance(fc, rng, 1, m).valuations * n)
        else:
            inst = random_instance(fc, rng, n, m)
        return Case(f"e{k}", inst.valuations, (inst,))

    def extra_cases(self, fc) -> List[Case]:
        return [
            Case(f.name, f.instance.valuations, (f.instance,)) for f in fc.builtin_fixtures()
        ]

    def solve(self, fc, case: Case):
        return fc.solve_existence_119(*case.args)

    def check(self, fc, case: Case, result) -> Tuple[Fraction, str]:
        (inst,) = case.args
        shares = result.profile.values
        caps = fc.ThresholdVector(tuple(Fraction(11 * mu, 9) for mu in shares))
        loads = check_allocation(fc, inst, result.allocation, caps)
        worst = Fraction(0)
        for i, (load, share) in enumerate(zip(loads, shares)):
            require(9 * load <= 11 * share, f"agent {i}: 9*load > 11*share")
            witness = result.profile.witnesses[i]
            require(witness.complete, f"agent {i}: share witness is incomplete")
            require(max(inst.value(i, b) for b in witness.bundles) == share,
                    f"agent {i}: witness does not attain the share")
            require(share >= pigeonhole(case.rows[i], case.agents),
                    f"agent {i}: share below the pigeonhole bound")
            if share:
                worst = max(worst, Fraction(load, share))
        return worst, canonical(fc, result.allocation)


# Random exact-small instances stop at m = 14: past it the oracle's heavy
# tail makes a seed's throughput and p90 swing by 15-50% (see README.md).
WORKLOADS = {
    w.name: w
    for w in (
        PolyRandom("poly-random", per_second=9, agents=(10, 40), chores=(100, 400)),
        SchedIdentical("sched-identical", per_second=8, agents=(5, 20), chores=(50, 200)),
        ExactSmall("exact-small", per_second=250, agents=(2, 5), chores=(12, 14)),
    )
}
