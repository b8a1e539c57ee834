"""Command-line surface: solvers, oracle, schedulers, corpus tools.

Exit codes: 0 success, 1 usage error, 2 input/parse error, 3 internal
solver invariant violated, 4 oracle limit exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import InputError, OracleLimitError, SolverInvariantError
from .fixtures import builtin_fixtures
from .generator import GeneratorConfig, generate
from .greedy import check_amms
from .instances import (
    Instance,
    _load_json,
    allocation_loads,
    allocation_to_json,
    instance_to_json,
    load_allocation,
    load_instance,
)
from .oracle import OracleLimits, mms_profile
from .scheduling import schedule_119, schedule_lpt
from .solvers import solve_existence_119, solve_poly_54

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INVARIANT = 3
EXIT_ORACLE = 4


def _limits(args: argparse.Namespace) -> OracleLimits:
    return OracleLimits(max_chores=args.max_chores, node_budget=args.node_budget)


def _add_limit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-chores",
        type=int,
        default=OracleLimits().max_chores,
        help="largest chore count the exact oracle accepts",
    )
    parser.add_argument(
        "--node-budget",
        type=int,
        default=OracleLimits().node_budget,
        help="search node budget for the exact oracle",
    )


def _dump_json(obj: object, path: Optional[str]) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _export(directory: str, named: Sequence[Tuple[str, Instance]], noun: str) -> None:
    """Write each instance to ``directory/<name>.json`` and say how many."""
    os.makedirs(directory, exist_ok=True)
    for name, inst in named:
        _dump_json(instance_to_json(inst), os.path.join(directory, f"{name}.json"))
    print(f"wrote {len(named)} {noun} to {directory}")


def _load_jobs(path: str) -> List[int]:
    obj = _load_json(path)
    if isinstance(obj, dict):
        obj = obj.get("jobs")
    if not isinstance(obj, list):
        raise InputError(f"{path}: expected a job list or an object with 'jobs'")
    return list(obj)


def _write_trace(trace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for entry in trace:
            handle.write(json.dumps(entry.to_json(), sort_keys=True) + "\n")


def cmd_solve(args: argparse.Namespace) -> int:
    limits = _limits(args)
    inst = load_instance(args.input)
    report_lines: List[str] = []
    if args.algo == "exact-119":
        result = solve_existence_119(inst, limits)
        alloc = result.allocation
        for i, ratio in enumerate(result.ratios):
            report_lines.append(
                f"agent {i}: load {inst.value(i, alloc.bundles[i])}, "
                f"share {result.profile.values[i]}, ratio {ratio}"
            )
        report_lines.append(f"max ratio {max(result.ratios, default=Fraction(0))}")
    else:
        result = solve_poly_54(inst)
        alloc = result.allocation
        for cert in result.certificates:
            report_lines.append(
                f"agent {cert.agent}: load {cert.load}, cap {cert.cap}, "
                f"certified {str(cert.satisfied).lower()}"
            )
    report_lines.append(f"complete {str(alloc.complete).lower()}")

    if args.trace:
        _write_trace(result.trace, args.trace)
    _dump_json(allocation_to_json(alloc), args.output)
    # With the allocation on stdout, the report goes to stderr.
    report = sys.stdout if args.output else sys.stderr
    for line in report_lines:
        print(line, file=report)
    return EXIT_OK


def cmd_mms(args: argparse.Namespace) -> int:
    inst = load_instance(args.input)
    profile = mms_profile(inst, _limits(args))
    for i, value in enumerate(profile.values):
        print(f"agent {i}: mms {value}")
    if args.witness:
        for i, witness in enumerate(profile.witnesses):
            bundles = [sorted(b) for b in witness.bundles]
            print(f"agent {i}: witness {json.dumps(bundles)}")
    return EXIT_OK


def cmd_schedule(args: argparse.Namespace) -> int:
    jobs = _load_jobs(args.input)
    schedule = schedule_119 if args.algo == "greedy-119" else schedule_lpt
    result = schedule(jobs, args.machines)
    payload = {
        "bundles": [sorted(b) for b in result.allocation.bundles],
        "loads": list(result.loads),
        "makespan": result.makespan,
    }
    if args.algo == "greedy-119":
        payload["threshold"] = result.threshold
    _dump_json(payload, args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    limits = _limits(args)
    alpha = None
    if args.alpha is not None:
        try:
            num, den = args.alpha.split("/") if "/" in args.alpha else (args.alpha, "1")
            alpha = Fraction(int(num), int(den))
            if alpha < 0:
                raise ValueError("a negative factor bounds nothing")
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"invalid --alpha value {args.alpha!r}") from exc
    inst = load_instance(args.instance)
    alloc = load_allocation(args.allocation)
    for i, load in enumerate(allocation_loads(inst, alloc)):
        print(f"agent {i}: load {load}")
    print(f"complete {str(alloc.complete).lower()}")
    if alpha is None:
        return EXIT_OK

    if not alloc.complete:
        print(f"alpha check at {alpha}: fail (incomplete allocation)")
        return EXIT_INPUT
    profile = mms_profile(inst, limits)
    report = check_amms(inst, alloc, profile, alpha)
    for i, ratio in enumerate(report.ratios):
        shown = "undefined" if ratio is None else str(ratio)
        verdict = "ok" if report.within[i] else "exceeded"
        print(f"agent {i}: ratio {shown} ({verdict})")
    print(f"alpha check at {alpha}: {'pass' if report.passed else 'fail'}")
    return EXIT_OK if report.passed else EXIT_INPUT


def cmd_gen(args: argparse.Namespace) -> int:
    config = GeneratorConfig(
        seed=args.seed,
        agents=(args.agents[0], args.agents[1]),
        chores=(args.chores[0], args.chores[1]),
        value_max=args.value_max,
        ido_only=args.ido_only,
    )
    instances = list(generate(config, args.count))
    if args.output_dir:
        named = [(f"instance_{idx:03d}", inst) for idx, inst in enumerate(instances)]
        _export(args.output_dir, named, "instances")
    else:
        for inst in instances:
            print(json.dumps(instance_to_json(inst), sort_keys=True))
    return EXIT_OK


def cmd_fixtures(args: argparse.Namespace) -> int:
    fixtures = builtin_fixtures()
    if args.name:
        chosen = [f for f in fixtures if f.name == args.name]
        if not chosen:
            raise InputError(f"no fixture named {args.name!r}")
        fixtures = tuple(chosen)
    if args.export:
        _export(args.export, [(f.name, f.instance) for f in fixtures], "fixtures")
        return EXIT_OK
    for fixture in fixtures:
        inst = fixture.instance
        print(
            f"{fixture.name}: agents {inst.num_agents}, chores {inst.num_chores}, "
            f"scale {fixture.scale}"
        )
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    limits = _limits(args)
    corpus = [(f.name, f.instance) for f in builtin_fixtures()]
    most = min(14, args.max_chores)  # _limits has checked it is at least 1
    config = GeneratorConfig(seed=args.seed, chores=(min(2, most), most))
    for idx, inst in enumerate(generate(config, args.count)):
        corpus.append((f"rand-{args.seed}-{idx:03d}", inst))

    rows = [
        ("instance_id", "n", "m", "algo", "max_ratio_num", "max_ratio_den",
         "mms_oracle_ms", "solver_ms", "complete")
    ]
    for name, inst in corpus:
        if inst.num_chores > args.max_chores:
            continue  # oracle-backed columns would exceed the limit
        started = time.perf_counter()
        profile = mms_profile(inst, limits)
        oracle_ms = (time.perf_counter() - started) * 1000.0

        for algo, alpha in (("exact-119", Fraction(11, 9)), ("poly-54", Fraction(5, 4))):
            started = time.perf_counter()
            if algo == "exact-119":
                alloc = solve_existence_119(inst, limits, profile=profile).allocation
            else:
                alloc = solve_poly_54(inst).allocation
            solver_ms = (time.perf_counter() - started) * 1000.0
            ratio = max(check_amms(inst, alloc, profile, alpha).ratios)
            rows.append(
                (
                    name,
                    inst.num_agents,
                    inst.num_chores,
                    algo,
                    ratio.numerator,
                    ratio.denominator,
                    f"{oracle_ms:.3f}",
                    f"{solver_ms:.3f}",
                    str(alloc.complete).lower(),
                )
            )

    handle = open(args.output, "w", newline="", encoding="utf-8") if args.output else sys.stdout
    try:
        csv.writer(handle).writerows(rows)
    finally:
        if args.output:
            handle.close()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairchores",
        description="Approximately fair division of indivisible chores "
        "under the maximin-share criterion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="allocate an instance")
    p_solve.add_argument("--input", required=True, help="instance JSON file")
    p_solve.add_argument(
        "--algo", choices=("exact-119", "poly-54"), default="poly-54"
    )
    p_solve.add_argument("--output", help="write allocation JSON here")
    p_solve.add_argument(
        "--trace",
        help="write greedy trace JSON lines here; each 'chore' is a position "
        "in the ordered instance, not an original chore index",
    )
    _add_limit_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_mms = sub.add_parser("mms", help="exact per-agent maximin shares")
    p_mms.add_argument("--input", required=True, help="instance JSON file")
    p_mms.add_argument("--witness", action="store_true", help="print witnesses")
    _add_limit_flags(p_mms)
    p_mms.set_defaults(func=cmd_mms)

    p_sched = sub.add_parser("schedule", help="identical-machines scheduling")
    p_sched.add_argument("--input", required=True, help="jobs JSON file")
    p_sched.add_argument("--machines", type=int, required=True)
    p_sched.add_argument(
        "--algo", choices=("greedy-119", "lpt"), default="greedy-119"
    )
    p_sched.add_argument("--output", help="write schedule JSON here")
    p_sched.set_defaults(func=cmd_schedule)

    p_verify = sub.add_parser("verify", help="check an allocation file")
    p_verify.add_argument("--instance", required=True)
    p_verify.add_argument("--allocation", required=True)
    p_verify.add_argument(
        "--alpha", help="bound as NUM/DEN; checks load <= alpha * share"
    )
    _add_limit_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="emit seeded random instances")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--count", type=int, default=10)
    p_gen.add_argument("--agents", type=int, nargs=2, default=(2, 5), metavar=("LO", "HI"))
    p_gen.add_argument("--chores", type=int, nargs=2, default=(2, 14), metavar=("LO", "HI"))
    p_gen.add_argument("--value-max", type=int, default=50)
    p_gen.add_argument("--ido-only", action="store_true")
    p_gen.add_argument("--output-dir")
    p_gen.set_defaults(func=cmd_gen)

    p_fix = sub.add_parser("fixtures", help="list or export builtin fixtures")
    p_fix.add_argument("--name", help="restrict to one fixture")
    p_fix.add_argument("--export", help="write instance JSON files here")
    p_fix.set_defaults(func=cmd_fixtures)

    p_bench = sub.add_parser("bench", help="ratio/timing CSV over a corpus")
    p_bench.add_argument("--seed", type=int, default=2024)
    p_bench.add_argument("--count", type=int, default=25)
    p_bench.add_argument("--output", help="CSV path (default stdout)")
    _add_limit_flags(p_bench)
    # Oracle-backed rows stay cheap by default; raise to include the
    # larger builtin fixtures.
    p_bench.set_defaults(func=cmd_bench, max_chores=14)
    return parser


def run_cli(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OracleLimitError as exc:
        print(f"oracle limit: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except SolverInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
