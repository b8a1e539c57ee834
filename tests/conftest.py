"""Shared test helpers: an independent enumeration oracle and corpora."""

from __future__ import annotations

import random
from typing import Callable, List, Sequence

import numpy as np
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
    TestOutcome,
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

# Each record class's fields, in the order its constructor takes them.
RECORD_FIELDS = {
    Instance: ("num_agents", "num_chores", "valuations"),
    OrderedInstance: ("instance", "source_ranks"),
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
    TestOutcome: ("passed", "benchmark", "really_large_count"),
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
    return not _first_fit(desc, 0, len(desc), [(0, cap)] * bins)[1]


def enumerate_min_makespan(values: Sequence[int], machines: int) -> int:
    """Exhaustive minimum makespan over every one of the machines^m maps.

    Independent of the branch-and-bound oracle: base-n digit decoding
    enumerates each assignment exactly once, with no pruning anywhere.
    Vectorized in chunks so m <= 10 stays affordable.
    """
    m = len(values)
    vals = np.asarray(values, dtype=np.int64)
    total = machines**m
    powers = np.array([machines**j for j in range(m)], dtype=np.int64)
    best = None
    chunk = 1 << 19
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // powers[None, :]) % machines
        worst = np.zeros(len(idx), dtype=np.int64)
        for b in range(machines):
            load = ((digits == b) * vals[None, :]).sum(axis=1)
            np.maximum(worst, load, out=worst)
        low = int(worst.min())
        best = low if best is None else min(best, low)
    return int(best) if best is not None else 0


def oracle_corpus() -> List[Instance]:
    """Seeded rows with zeros and ties; every second instance shares one row.

    Covers one agent, no chores and fewer chores than agents. Then come
    40 instances of 12-14 values up to 1000, a quarter of them zeros:
    on these the tie rule picks other witnesses than the search before
    it, which short rows from four-value pools never showed, and it
    backjumps past zeros. Then the three builtin fixtures.
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
