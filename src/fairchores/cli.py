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
from contextlib import nullcontext
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import InputError, OracleLimitError, SolverInvariantError
from .fixtures import builtin_fixtures
from .generator import GeneratorConfig, generate
from .greedy import greedy_trace
from .instances import (
    Instance,
    _as_cap,
    _load_json,
    allocation_loads,
    allocation_to_json,
    instance_to_json,
    load_allocation,
    load_instance,
    ordered_instance,
)
from .oracle import OracleLimits, _ratio, check_amms, mms_profile
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
    sink = nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8")
    with sink as handle:
        print(json.dumps(obj, indent=2, sort_keys=True), file=handle)


def _export(directory: str, named: Iterable[Tuple[str, Instance]], noun: str) -> None:
    """Write each instance to ``directory/<name>.json`` as it comes; say how many."""
    os.makedirs(directory, exist_ok=True)
    written = 0
    for written, (name, inst) in enumerate(named, 1):
        _dump_json(instance_to_json(inst), os.path.join(directory, f"{name}.json"))
    print(f"wrote {written} {noun} to {directory}")


def _load_jobs(path: str) -> List[int]:
    obj = _load_json(path)
    if isinstance(obj, dict):
        obj = obj.get("jobs")
    if not isinstance(obj, list):
        raise InputError(f"{path}: expected a job list or an object with 'jobs'")
    return obj


def cmd_solve(args: argparse.Namespace) -> int:
    limits = _limits(args)
    inst = load_instance(args.input)
    exact = args.algo == "exact-119"
    result = solve_existence_119(inst, limits) if exact else solve_poly_54(inst)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            for record in greedy_trace(ordered_instance(inst), result.thresholds):
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    _dump_json(allocation_to_json(result.allocation), args.output)
    # With the allocation on stdout, the report goes to stderr.
    report = sys.stdout if args.output else sys.stderr
    if exact:
        rows = zip(result.loads, result.profile.values, result.ratios)
        for i, (load, share, ratio) in enumerate(rows):
            print(f"agent {i}: load {load}, share {share}, ratio {ratio}", file=report)
        print(f"max ratio {max(result.ratios)}", file=report)
    else:
        for i, (load, cap) in enumerate(zip(result.loads, result.thresholds)):
            print(f"agent {i}: load {load}, cap {cap}, certified true", file=report)
    print(f"complete {str(result.allocation.complete).lower()}", file=report)
    return EXIT_OK


def cmd_mms(args: argparse.Namespace) -> int:
    inst = load_instance(args.input)
    profile = mms_profile(inst, _limits(args))
    for i, value in enumerate(profile.values):
        print(f"agent {i}: mms {value}")
    if args.witness:
        for i, witness in enumerate(profile.witnesses):
            print(f"agent {i}: witness {json.dumps(allocation_to_json(witness)['bundles'])}")
    return EXIT_OK


def cmd_schedule(args: argparse.Namespace) -> int:
    jobs = _load_jobs(args.input)
    schedule = schedule_119 if args.algo == "greedy-119" else schedule_lpt
    result = schedule(jobs, args.machines)
    payload = {
        "bundles": allocation_to_json(result.allocation)["bundles"],
        "loads": list(result.loads),
        "makespan": result.makespan,
    }
    if args.algo == "greedy-119":
        payload["threshold"] = result.makespan
    _dump_json(payload, args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    limits = _limits(args)
    alpha = None
    if args.alpha is not None:
        try:
            num, den = args.alpha.split("/") if "/" in args.alpha else (args.alpha, "1")
            alpha = Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"invalid --alpha value {args.alpha!r}") from exc
        alpha = _as_cap(alpha, "--alpha")
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
        agents=args.agents,
        chores=args.chores,
        value_max=args.value_max,
        ido_only=args.ido_only,
    )
    instances = generate(config, args.count)
    if args.output_dir:
        named = ((f"instance_{idx:03d}", inst) for idx, inst in enumerate(instances))
        _export(args.output_dir, named, "instances")
    else:
        for inst in instances:
            print(json.dumps(instance_to_json(inst), sort_keys=True))
    return EXIT_OK


def cmd_fixtures(args: argparse.Namespace) -> int:
    fixtures = builtin_fixtures()
    if args.name:
        fixtures = [f for f in fixtures if f.name == args.name]
        if not fixtures:
            raise InputError(f"no fixture named {args.name!r}")
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
    within_limit = tuple(min(c, args.max_chores) for c in GeneratorConfig.chores)
    config = GeneratorConfig(seed=args.seed, chores=within_limit)
    for idx, inst in enumerate(generate(config, args.count)):
        corpus.append((f"rand-{args.seed}-{idx:03d}", inst))

    algos = (("exact-119", lambda i: solve_existence_119(i, limits)), ("poly-54", solve_poly_54))
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

        for algo, solve in algos:
            started = time.perf_counter()
            result = solve(inst)
            solver_ms = (time.perf_counter() - started) * 1000.0
            ratio = max(map(_ratio, result.loads, profile.values))
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
                    str(result.allocation.complete).lower(),
                )
            )

    sink = nullcontext(sys.stdout)
    if args.output:
        sink = open(args.output, "w", newline="", encoding="utf-8")
    with sink as handle:
        csv.writer(handle).writerows(rows)
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
    pair = dict(type=int, nargs=2, metavar=("LO", "HI"))
    p_gen.add_argument("--agents", default=GeneratorConfig.agents, **pair)
    p_gen.add_argument("--chores", default=GeneratorConfig.chores, **pair)
    p_gen.add_argument("--value-max", type=int, default=GeneratorConfig.value_max)
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
    p_bench.set_defaults(func=cmd_bench)
    return parser


def run_cli(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OracleLimitError as exc:
        print(f"oracle limit: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except SolverInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
