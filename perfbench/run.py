"""fairchores benchmark: one closed-loop caller, one thread, one process.

Run from the repository root:

    python3 perfbench/run.py --workload poly-random --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of the checkout this file sits in.
A run builds its corpus from ``--seed`` and ``--seconds`` (sized so one
pass takes about that long), warms up, then solves every instance once.
Every call's output is checked outside the timed interval. The last line
of standard output is one JSON object; the line before it records the
workload's measured properties.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
the corpus is sized for half the time and solved twice, untraced and then
traced; the run reports per-layer metrics from the traced pass plus the
throughput lost to tracing, and writes the spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

from spans import Tracer, layer_metric_units  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Case, Workload, repeat_row_share  # noqa: E402

# Set-up is repeated this often and setup_s reports the median. One
# repetition imports the library in a fresh interpreter, then builds the
# corpus and warms up with one call on its smallest instance; speed probes
# taken while the corpus is built are left out of its time.
SETUP_REPEATS = 5

# The host's speed drifts by up to 2x from second to second, so every time
# is rescaled to a reference speed: the speed at which a fixed probe, timed
# about every PROBE_EVERY_NS between solver calls, takes REFERENCE_PROBE_NS.
# Each time is scaled by REFERENCE_PROBE_NS over the median of the probes
# nearest to it. Raw wall times are kept in the properties line.
PROBE_EVERY_NS = 100_000_000
PROBE_WINDOW = 5
REFERENCE_PROBE_NS = 2_000_000
PROBE_KEYS = [i * 7919 % 10007 for i in range(3000)]

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import fairchores; print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "worst_ratio": "ratio",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


def import_library():
    """Import fairchores from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "fairchores" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("fairchores")
    if SRC.resolve() not in Path(package.__file__).resolve().parents:
        raise SystemExit(f"perfbench: fairchores was imported from {package.__file__}")
    return package


def probe() -> Tuple[int, int]:
    """(start, duration) of one run of the fixed speed probe, in ns.

    Half integer arithmetic, half object churn (tuples, a dict, a sort,
    frozensets). On a contended host the solvers slow down more than the
    first half and less than the second; the sum tracks them. The garbage
    collector is paused, so the size of the library's heap cannot move it.
    """
    gc.disable()
    try:
        start = time.perf_counter_ns()
        total = 0
        for i in range(30_000):
            total += i
        rows = [tuple(PROBE_KEYS[j:j + 8]) for j in range(0, len(PROBE_KEYS), 3)]
        table: Dict[int, tuple] = {}
        for row in rows:
            table[row[0] % 211] = table.get(row[0] % 211, ()) + row[:2]
        order = sorted(rows, key=lambda row: (-row[1], row[0]))
        total += sum(len(frozenset(row)) for row in order[::2])
        return start, time.perf_counter_ns() - start
    finally:
        gc.enable()


class SpeedLog:
    """Probe timings taken through a run, to rescale times to reference speed."""

    def __init__(self) -> None:
        self.probes: List[Tuple[int, int]] = []

    def maybe_probe(self) -> None:
        if not self.probes or time.perf_counter_ns() - self.probes[-1][0] >= PROBE_EVERY_NS:
            self.probes.append(probe())

    def scale(self, at_ns: int) -> float:
        """Reference-speed factor for a time measured at ``at_ns``."""
        i = bisect.bisect(self.probes, (at_ns,))
        near = self.probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW]
        return REFERENCE_PROBE_NS / statistics.median(d for _, d in near)

    def median_ms(self) -> float:
        return statistics.median(d for _, d in self.probes) / 1e6


class Measurement:
    """Outcome of one timed pass over the corpus."""

    def __init__(self) -> None:
        self.samples: List[Tuple[int, int]] = []  # (start, raw wall ns) per call
        self.speed = SpeedLog()
        self.attempted = 0
        self.errors: List[str] = []
        self.worst = Fraction(0)
        self.reference_worst: Optional[Fraction] = None
        self.outputs: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.errors)

    def latencies_ms(self, raw: bool = False) -> List[float]:
        return [
            ns / 1e6 * (1.0 if raw else self.speed.scale(start))
            for start, ns in self.samples
        ]

    def throughput(self, raw: bool = False) -> float:
        return len(self.samples) / (sum(self.latencies_ms(raw)) / 1e3)

    def digest(self) -> str:
        text = "".join(f"{out}\n" for out in self.outputs)
        return hashlib.sha256(text.encode()).hexdigest()


def measure(fc, workload: Workload, corpus: Sequence[Case],
            tracer: Optional[Tracer] = None) -> Measurement:
    """Solve every case once, timing the solver call alone."""
    result = Measurement()
    clock = time.perf_counter_ns
    for index, case in enumerate(corpus):
        result.attempted += 1
        result.speed.maybe_probe()
        if tracer:
            tracer.begin(index)
        try:
            start = clock()
            out = workload.solve(fc, case)
            elapsed = clock() - start
        except Exception as exc:  # a raising solver is a failed operation
            result.errors.append(f"{case.ident}: {type(exc).__name__}: {exc}")
            continue
        result.samples.append((start, elapsed))
        try:
            ratio, output = workload.check(fc, case, out)
        except CheckFailed as exc:
            result.errors.append(f"{case.ident}: {exc}")
            continue
        result.outputs.append(output)
        result.worst = max(result.worst, ratio)
        reference = workload.reference(fc, case)
        if reference is not None:
            result.reference_worst = max(result.reference_worst or reference, reference)
    result.speed.probes.append(probe())
    return result


def quantiles(lat_ms: List[float]) -> Tuple[float, float]:
    """(p50, p90) of a latency sample."""
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    return deciles[4], deciles[8]


def end_to_end(m: Measurement, setup_s: float) -> Dict[str, float]:
    p50, p90 = quantiles(m.latencies_ms())
    return {
        "setup_s": setup_s,
        "throughput_per_s": m.throughput(),
        "latency_ms_p50": p50,
        "latency_ms_p90": p90,
        "worst_ratio": float(m.worst),
        "ok_frac": 1 - m.failed / m.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def properties(workload: Workload, corpus: Sequence[Case], seed: int,
               m: Measurement, setups: List[float]) -> dict:
    repeats = [repeat_row_share(case.rows) for case in corpus]
    props = {
        "workload": workload.name,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "instances": len(corpus),
        "agents_range": list(workload.agents),
        "chores_range": list(workload.chores),
        "mean_agents": statistics.fmean(case.agents for case in corpus),
        "mean_chores": statistics.fmean(case.chores for case in corpus),
        "repeat_row_ratio": sum(r for r, _ in repeats) / sum(n for _, n in repeats),
        "setup_repeats_s": setups,
        "latency_samples": len(m.samples),
        "probe_ms_median": m.speed.median_ms(),
        "raw_throughput_per_s": m.throughput(raw=True),
        "raw_latency_ms_p50_p90": quantiles(m.latencies_ms(raw=True)),
        "attempted": m.attempted,
        "failed": m.failed,
        "failed_frac": m.failed / m.attempted,
        "allocation_sha256": m.digest(),
    }
    if m.reference_worst is not None:
        props["lpt_worst_ratio"] = float(m.reference_worst)
    return props


def parse_args(argv: Optional[Sequence[str]], workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    return args


def main(argv: Optional[Sequence[str]] = None, workloads=WORKLOADS) -> int:
    args = parse_args(argv, workloads)
    workload = workloads[args.workload]

    fc = import_library()
    # The traced run solves its corpus twice, untraced and traced.
    seconds = args.seconds / 2 if args.trace else args.seconds
    setups = []
    corpus: List[Case] = []
    for _ in range(SETUP_REPEATS):
        speed = SpeedLog()
        speed.maybe_probe()
        imported = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                                  capture_output=True, text=True, check=True, timeout=60)
        corpus = []
        start = time.perf_counter_ns()
        corpus = workload.build(fc, args.seed, seconds, speed.maybe_probe)
        workload.solve(fc, min(corpus, key=lambda case: case.agents * case.chores))
        elapsed_ns = time.perf_counter_ns() - start
        elapsed_ns -= sum(d for at, d in speed.probes if at >= start)
        speed.probes.append(probe())
        elapsed_ns += float(imported.stdout) * 1e9
        setups.append(elapsed_ns / 1e9 * REFERENCE_PROBE_NS / (speed.median_ms() * 1e6))
    setup_s = statistics.median(setups)

    if args.trace:
        untraced = measure(fc, workload, corpus)
        tracer = Tracer(fc)
        with tracer.installed():
            result = measure(fc, workload, corpus, tracer)
        values = tracer.summary(len(result.samples), result.speed.scale)
        values["trace.overhead_pct"] = 100 * (1 - result.throughput() / untraced.throughput())
        tracer.write(OUT_DIR / f"spans-{workload.name}-{args.seed}.json")
        units = layer_metric_units()
        if result.outputs != untraced.outputs:
            result.errors.append("traced pass produced different allocations")
        result.errors += untraced.errors
        result.attempted += untraced.attempted
    else:
        result = measure(fc, workload, corpus)
        values = end_to_end(result, setup_s)
        units = list(END_TO_END_UNITS.items())

    for error in result.errors[:20]:
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps({"properties": properties(workload, corpus, args.seed, result, setups)}))
    print(json.dumps({
        "correct": not result.errors,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
