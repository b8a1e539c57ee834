"""Shared test helpers: an independent enumeration oracle and corpora."""

from __future__ import annotations

import random
from typing import Callable, List, Sequence

import pytest

from fairchores import (
    Allocation,
    AmmsReport,
    ExistenceResult,
    Fixture,
    GeneratorConfig,
    GreedyResult,
    Instance,
    MmsProfile,
    OracleLimits,
    OrderedInstance,
    PolyResult,
    ScheduleResult,
    ThresholdVector,
    VerificationReport,
    builtin_fixtures,
    generate,
    mms_profile,
)
from fairchores.scheduling import _first_fit

# Frozen corpus seeds; changing any of these invalidates pinned expectations.
SEED_MAIN_CORPUS = 41119
SEED_LIFT_CORPUS = 6006
SEED_SCHED_CORPUS = 7007
SEED_ENUM_CORPUS = 8008
SEED_HOT_PATH_CORPUS = 9009
SEED_ORACLE_CORPUS = 10010
SEED_PROBE_CORPUS = 11011
SEED_PROFILE_CORPUS = 12012
SEED_TWO_BIN_CORPUS = 13013

# Each record class's fields, in the order its constructor takes them.
RECORD_FIELDS = {
    Instance: ("num_agents", "num_chores", "valuations"),
    OrderedInstance: ("source",),
    Allocation: ("bundles", "leftover"),
    ThresholdVector: ("thresholds",),
    VerificationReport: ("loads", "within_threshold", "complete"),
    Fixture: ("name", "instance", "scale", "expected"),
    GeneratorConfig: ("seed", "agents", "chores", "value_max", "ido_only"),
    GreedyResult: ("allocation", "assignment"),
    ScheduleResult: ("allocation", "loads", "makespan"),
    OracleLimits: ("max_chores", "node_budget"),
    MmsProfile: ("values", "witnesses"),
    AmmsReport: ("passed", "within", "ratios"),
    ExistenceResult: ("allocation", "profile", "ratios", "thresholds", "loads"),
    PolyResult: ("allocation", "thresholds", "s_values", "loads"),
}


def rebuilt(obj):
    """``obj`` built again through its public constructor, every field
    read in declared order and passed by keyword."""
    return type(obj)(**{name: getattr(obj, name) for name in RECORD_FIELDS[type(obj)]})


def reference_boundary_search(passes: Callable[[int], bool], lo: int, hi: int) -> int:
    """MULTIFIT's search on pass/fail alone, frozen: probe lo, lo+1, lo+3,
    lo+7, ... (capped at hi) until one passes, then bisect the gap
    between the last failing probe and that pass."""
    failed, s, step = lo - 1, lo, 1
    while not passes(s):
        assert s < hi, "the top of the bracket fails"
        failed, s, step = s, min(s + step, hi), 2 * step
    while s - failed > 1:
        mid = (failed + 1 + s) // 2
        if passes(mid):
            s = mid
        else:
            failed = mid
    return s


def first_fit_packs(desc: Sequence[int], bins: int, cap: int) -> bool:
    """Does ``_first_fit`` place all of desc into ``bins`` empty bins of cap?"""
    return sum(map(len, _first_fit(desc, bins, cap))) == len(desc)


def reference_large_test(desc: Sequence[int], n: int, s: int) -> bool:
    """The two-stage large-chore test, position by position: whether it
    places every position of ``desc`` (sorted nonincreasing) above s/4.

    Independent of ``src/``: the positions above s/2 seed bundles 1..k,
    one each; bundles k down to 1 then each pass once over the large
    positions still unplaced, taking every one that fits under cap s;
    bundles k+1..n do the same under cap 5s/4, compared as 4 * load <=
    5 * s. More than n positions above s/2 fail at once.
    """
    large = [p for p in range(len(desc)) if 4 * desc[p] > s]
    k = sum(1 for p in large if 2 * desc[p] > s)
    if k > n:
        return False
    loads = list(desc[:k]) + [0] * (n - k)
    queue = large[k:]
    for t in range(k - 1, -1, -1):
        rest: List[int] = []
        for p in queue:
            if loads[t] + desc[p] <= s:
                loads[t] += desc[p]
            else:
                rest.append(p)
        queue = rest
    for t in range(k, n):
        rest = []
        for p in queue:
            if 4 * (loads[t] + desc[p]) <= 5 * s:
                loads[t] += desc[p]
            else:
                rest.append(p)
        queue = rest
    return not queue


def enumerate_min_makespan(values: Sequence[int], machines: int) -> int:
    """Exhaustive minimum makespan: the least largest load over every
    vector of machine loads that some assignment reaches.

    Independent of the branch-and-bound oracle and of ``src/``: chore by
    chore, every reachable load vector grows by the chore on each machine
    in turn, with no bound and no pruning. A vector is kept sorted, so
    assignments that differ only in which machine is which are one
    state, which keeps m <= 10 affordable.
    """
    states = {(0,) * machines}
    for v in values:
        states = {
            tuple(sorted(loads[:b] + (loads[b] + v,) + loads[b + 1 :]))
            for loads in states
            for b in range(machines)
        }
    return min(max(loads) for loads in states)


def oracle_corpus() -> List[Instance]:
    """Seeded rows with zeros and ties; every second instance shares one row.

    Covers one agent, no chores and fewer chores than agents. Then come
    40 instances of 12-14 values up to 1000, a quarter of them zeros:
    on these, returning once a bin carries the incumbent picks other
    witnesses than completing every tie would, which short rows from
    four-value pools never showed, and it backjumps past zeros. Then the
    three builtin fixtures.
    """
    rng = random.Random(SEED_ORACLE_CORPUS)
    corpus = []
    for k in range(300):
        n = rng.randint(1, 5)
        m = rng.randint(0, 11)
        pool = [0, rng.randint(1, 6), rng.randint(1, 60), rng.randint(1, 60)]
        rows = [[rng.choice(pool) for _ in range(m)] for _ in range(n)]
        if k % 2 == 0:
            rows = [rows[0]] * n
        corpus.append(Instance.from_rows(rows))
    for k in range(40):
        n = rng.randint(2, 5)
        m = rng.randint(12, 14)
        rows = [
            [rng.randint(1, 1000) if rng.random() < 0.75 else 0 for _ in range(m)]
            for _ in range(n)
        ]
        if k % 2 == 0:
            rows = [rows[0]] * n
        corpus.append(Instance.from_rows(rows))
    return corpus + [f.instance for f in builtin_fixtures()]


def main_corpus_config() -> GeneratorConfig:
    return GeneratorConfig(
        seed=SEED_MAIN_CORPUS, agents=(2, 5), chores=(2, 14), value_max=50
    )


@pytest.fixture(scope="session")
def corpus_500() -> List[Instance]:
    """The 500-instance corpus shared by the two big property suites."""
    return list(generate(main_corpus_config(), 500))


@pytest.fixture(scope="session")
def profiles_500(corpus_500) -> List[MmsProfile]:
    """Exact share profiles for the shared corpus."""
    return [mms_profile(inst) for inst in corpus_500]
