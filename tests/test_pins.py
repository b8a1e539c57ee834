"""Outputs and work counts on the benchmark's own corpora, not time.

Each workload's allocations on its 1-s corpus at a seed are pinned by
the digest the benchmark prints as ``allocation_sha256``, computed by
``perfbench/run.py``'s own ``measure``, which must log no error. Seeds 3
and 41 cover every workload and seed 7 a third ``exact-small`` corpus;
the ``sched-identical`` corpora of seeds 4, 16, 18 and 20 each hold a
list whose searched cap a change to the boundary search once moved or
whose probe order decides it. The generator's stream is CPython's
randint draws, drawn in bulk, so every supported CPython must build the
same corpora and give these digests.

The exact search's nodes on the seed-3 and seed-41 ``exact-small``
corpora, summed over each instance's distinct sorted rows: work, not
time, so a machine's clock drift cannot move them. Two-agent rows add
none there, as they are decided without a search. No perfbench workload
reaches a first cap past ``SUBSET_CAP``, where the search reads its
subset sums at a resolution q > 1, so a generated corpus with values up
to 10**6 (gcd 1, every first cap past it) pins that path's nodes too.
The other two workloads never reach the exact search; their work is
pinned as boundary-search probes on seed 3's corpora: ``_ffd_fits`` over
``sched-identical``'s 100 job lists, ``_large_fits`` over
``poly-random``'s 2,485 agents. At every threshold that search probes,
``_large_fits`` must answer as the positional reference of the
two-stage test, ``conftest.reference_large_test``, does.

The corpora come from ``perfbench/workloads.py`` and the digests from
``perfbench/run.py``, both imported read-only.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from conftest import reference_large_test

import fairchores as fc
from fairchores import oracle, scheduling, solvers

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# allocation_sha256 of each (seed, workload) 1-s corpus.
ALLOCATION_SHA256 = {
    (3, "sched-identical"): "57a0916d7db5fb6227d0a931ce0a9ce21860277a895555809c7157fa5563e5d6",
    (3, "poly-random"): "1b04164c269438f693278ce2b65ed2bff7941207718155c2c7b5b7c216c9593e",
    (3, "exact-small"): "fe9cab8995c1637670f2866c08ca45a968b4d278eac44d6bd04524c0c898cf22",
    (41, "sched-identical"): "34852e2ca42b3022f8bccc3c62a3ff83deced49623c38f37c617755044ac1d8c",
    (41, "poly-random"): "2b714d6b8e831cf9e330cab2e71841ce4ac55de925cd4b4b7c8dee74f21d3c34",
    (41, "exact-small"): "fcf22882de26b7e35bb6a89ade573f1d94ad05561c7d668374823efa84753542",
    (7, "exact-small"): "440e6930d3d03bc9fda963d8e68a1745b2ffe4cef15dceab28db1468f2503e75",
    (4, "sched-identical"): "d0f8657523bcbc407db8a4c51768b07fcb70fbeff4fbf502f159366265d39ba3",
    (16, "sched-identical"): "9b90b77a0e5c8415290c44395e69d8ccbb0557e26fa2db7c0235a49d2ba1a803",
    (18, "sched-identical"): "2e5bef2d3425e700653e3628468d472b7c2c579f0254c617a172ad9e2d60e87c",
    (20, "sched-identical"): "6275f3e0d37213f04d3d6732963c5c333c9f3e176a1f4d3d4738be32c63f281a",
}


@pytest.mark.parametrize("seed, workload", ALLOCATION_SHA256)
def test_allocation_digests(seed, workload):
    w = WORKLOADS[workload]
    result = run.measure(fc, w, w.build(fc, seed, 1))
    assert result.errors == []
    assert result.digest() == ALLOCATION_SHA256[seed, workload]


def search_nodes(insts) -> int:
    """The exact search's nodes over each instance's distinct sorted rows."""
    limits = oracle.OracleLimits()
    nodes = 0
    for inst in insts:
        for desc in {tuple(sorted(row, reverse=True)) for row in inst.valuations}:
            nodes += oracle._min_makespan(desc, inst.num_agents, limits)[2]
    return nodes


@pytest.mark.parametrize("seed, pinned", [(3, 35_522), (41, 35_244)])
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
        (solvers, "_large_fits", "poly-random", fc.solve_poly_54, 2_495),
    ],
    ids=["sched-identical", "poly-random"],
)
def test_boundary_search_probes(monkeypatch, module, name, workload, solve, pinned):
    probe, calls = getattr(module, name), []
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or probe(*args))
    for case in WORKLOADS[workload].build(fc, 3, 1):
        solve(*case.args)
    assert len(calls) == pinned


def test_probe_matches_the_packer_at_every_probed_threshold(monkeypatch):
    fits, checked = solvers._large_fits, []

    def compared(desc, n, s):
        passed = fits(desc, n, s)
        assert passed == reference_large_test(desc, n, s)
        checked.append(passed)
        return passed

    monkeypatch.setattr(solvers, "_large_fits", compared)
    for case in WORKLOADS["poly-random"].build(fc, 3, 1):
        fc.solve_poly_54(*case.args)
    # Probes that pass and probes that fail were both compared.
    assert set(checked) == {True, False}
