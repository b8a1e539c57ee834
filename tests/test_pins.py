"""Work counts on the benchmark's own corpora: nodes and probes, not time.

The exact search's nodes on the seed-3 and seed-41 ``exact-small``
corpora, summed over each instance's distinct sorted rows: work, not
time, so a machine's clock drift cannot move them. No perfbench workload
reaches a first cap past ``SUBSET_CAP``, where the search reads its
subset sums at a resolution q > 1, so a generated corpus with values up
to 10**6 (gcd 1, every first cap past it) pins that path's nodes too.
The other two workloads never reach the exact search; their work is
pinned as boundary-search probes on seed 3's corpora: ``_ffd_fits`` over
``sched-identical``'s 100 job lists, ``_pack_large`` over
``poly-random``'s 2,485 agents.

The corpora come from ``perfbench/workloads.py``, imported read-only.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import fairchores as fc
from fairchores import oracle, scheduling, solvers

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def search_nodes(insts) -> int:
    """The exact search's nodes over each instance's distinct sorted rows."""
    limits = oracle.OracleLimits()
    nodes = 0
    for inst in insts:
        for desc in {tuple(sorted(row, reverse=True)) for row in inst.valuations}:
            nodes += oracle._min_makespan(desc, inst.num_agents, limits)[2]
    return nodes


@pytest.mark.parametrize("seed, pinned", [(3, 39_391), (41, 38_585)])
def test_exact_small_search_nodes(seed, pinned):
    cases = WORKLOADS["exact-small"].build(fc, seed, 1)
    assert search_nodes(case.args[0] for case in cases) == pinned


def test_search_nodes_past_the_subset_cap():
    config = fc.GeneratorConfig(seed=3, agents=(2, 5), chores=(12, 16), value_max=10**6)
    assert search_nodes(fc.generate(config, 40)) == 27_864


@pytest.mark.parametrize(
    "module, name, workload, solve, pinned",
    [
        (scheduling, "_ffd_fits", "sched-identical", fc.schedule_119, 599),
        (solvers, "_pack_large", "poly-random", fc.solve_poly_54, 2_495),
    ],
    ids=["sched-identical", "poly-random"],
)
def test_boundary_search_probes(monkeypatch, module, name, workload, solve, pinned):
    probe, calls = getattr(module, name), []
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or probe(*args))
    for case in WORKLOADS[workload].build(fc, 3, 1):
        solve(*case.args)
    assert len(calls) == pinned
