"""Fast self-test of the benchmark on tiny corpora.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    name: dataclasses.replace(
        workload, per_second=0, min_count=4, agents=(2, 4), chores=(4, 10)
    )
    for name, workload in WORKLOADS.items()
}

# The outermost solver span of each workload: one call per operation.
SOLVER = {
    "poly-random": "solvers.solve_poly_54",
    "sched-identical": "scheduling.schedule_119",
    "exact-small": "solvers.solve_existence_119",
}


def declared(section: str) -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


class BenchmarkSelfTest(unittest.TestCase):
    def run_bench(self, workload: str, seed: int, trace: int) -> dict:
        out = io.StringIO()
        argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
                "--trace", str(trace)]
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(run, "OUT_DIR", Path(tmp)), \
                contextlib.redirect_stdout(out):
            self.assertEqual(run.main(argv, workloads=TINY), 0)
            self.assertEqual(bool(list(Path(tmp).glob("spans-*.json"))), bool(trace))
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        return result

    def test_every_declared_metric_is_printed_with_its_unit(self):
        for workload in TINY:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    metrics = self.run_bench(workload, 1, trace)["metrics"]
                    units = {name: m["unit"] for name, m in metrics.items()}
                    self.assertEqual(units, declared(section))
                    if trace:
                        self.assertEqual(metrics[f"{SOLVER[workload]}.calls"]["value"], 1.0)

    def test_second_seed_yields_the_same_metric_set(self):
        for workload in TINY:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    first = self.run_bench(workload, 1, trace)["metrics"]
                    second = self.run_bench(workload, 2, trace)["metrics"]
                    self.assertEqual(list(first), list(second))

    def test_traced_run_restores_every_wrapped_function(self):
        fc = run.import_library()
        before = [(owner, name, original) for _, owner, name, original in spans.bindings(fc)]
        self.assertGreater(len(before), len(spans.TARGETS))
        for workload in TINY:
            self.run_bench(workload, 3, 1)
        for owner, name, original in before:
            self.assertIs(vars(owner)[name], original, f"{owner.__name__}.{name}")


if __name__ == "__main__":
    unittest.main()
