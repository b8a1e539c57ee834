"""CLI surface: subcommands, exit codes, JSON round trips, bench CSV."""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairchores import SolverInvariantError, builtin_fixtures, cli, run_cli, scheduling
from fairchores.instances import instance_to_json

# A --count or --machines above sys.maxsize, the most either accepts.
HUGE = "100000000000000000000"


def write_json(path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def fixture_file(tmp_path, index):
    fixture = builtin_fixtures()[index]
    return write_json(tmp_path / f"{fixture.name}.json", instance_to_json(fixture.instance))


class TestExitCodes:
    def test_usage_errors(self):
        assert run_cli([]) == 1
        assert run_cli(["solve"]) == 1
        assert run_cli(["solve", "--input", "x.json", "--algo", "nope"]) == 1

    def test_help_is_success(self, capsys):
        assert run_cli(["--help"]) == 0
        capsys.readouterr()

    def test_missing_input_file(self, tmp_path):
        assert run_cli(["solve", "--input", str(tmp_path / "absent.json")]) == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["mms", "--input", str(bad)]) == 2

    def test_schema_violation(self, tmp_path):
        path = write_json(tmp_path / "neg.json", {"agents": 1, "chores": 1, "valuations": [[-3]]})
        assert run_cli(["mms", "--input", path]) == 2

    def test_oracle_limit(self, tmp_path):
        inst = {"agents": 2, "chores": 30, "valuations": [[1] * 30] * 2}
        path = write_json(tmp_path / "big.json", inst)
        assert run_cli(["mms", "--input", path]) == 4

    def test_solver_invariant_violation(self, tmp_path, capsys, monkeypatch):
        def broken(inst):
            raise SolverInvariantError("greedy left chores over at the solver's caps")

        monkeypatch.setattr(cli, "solve_poly_54", broken)
        inst_path = fixture_file(tmp_path, 2)
        assert run_cli(["solve", "--input", inst_path, "--algo", "poly-54"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "internal invariant violated: greedy left chores over at the solver's caps"
        ]

    def test_negative_count(self, capsys):
        assert run_cli(["gen", "--seed", "1", "--count", "-1"]) == 2
        assert run_cli(["bench", "--count", "-1"]) == 2
        capsys.readouterr()

    def test_count_beyond_sys_maxsize(self, capsys):
        for argv in (["gen", "--seed", "1"], ["bench"]):
            assert run_cli(argv + ["--count", HUGE]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: count must be at most {sys.maxsize}\n"

    def test_value_max_beyond_the_value_cap(self, capsys):
        value_max = "99999999999999999999"
        assert run_cli(["gen", "--seed", "1", "--count", "1", "--value-max", value_max]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: value_max must be at most 9223372036854775807\n"

    def test_limits_checked_whatever_the_branch(self, tmp_path, capsys):
        inst_path = fixture_file(tmp_path, 0)
        alloc_path = write_json(
            tmp_path / "alloc.json",
            {"bundles": [list(range(14)), [], [], []], "leftover": []},
        )
        solve = ["solve", "--input", inst_path, "--max-chores", "0"]
        for algo in ("exact-119", "poly-54"):
            assert run_cli(solve + ["--algo", algo]) == 2
            assert capsys.readouterr().err == "error: max_chores must be at least 1\n"
        verify = ["verify", "--instance", inst_path, "--allocation", alloc_path]
        assert run_cli(verify) == 0
        capsys.readouterr()
        assert run_cli(verify + ["--node-budget", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: node_budget must be at least 1\n"

    def test_deeply_nested_json(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        good = fixture_file(tmp_path, 0)
        assert run_cli(["schedule", "--input", str(deep), "--machines", "2"]) == 2
        assert run_cli(["solve", "--input", str(deep)]) == 2
        assert run_cli(["mms", "--input", str(deep)]) == 2
        assert run_cli(["verify", "--instance", str(deep), "--allocation", good]) == 2
        assert run_cli(["verify", "--instance", good, "--allocation", str(deep)]) == 2
        capsys.readouterr()

    def test_undecodable_and_oversized_literals(self, tmp_path, capsys):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe[1]")
        huge = tmp_path / "huge.json"
        huge.write_text("[" + "9" * 5000 + "]")
        assert run_cli(["mms", "--input", str(binary)]) == 2
        assert run_cli(["schedule", "--input", str(huge), "--machines", "1"]) == 2
        capsys.readouterr()

    # The oracle places one chore per search depth, so rows longer than
    # Python's recursion limit must still end in a share or an exit code.
    # Values near 2**20 put the first cap past SUBSET_CAP, so the waste
    # is read at a coarse resolution, and the search runs out of nodes.
    def test_long_row_exhausts_the_node_budget(self, tmp_path, capsys):
        big = 2**20
        row = [9 * big + 1] * 334 + [6 * big + 1] * 334 + [4 * big + 1] * 335
        inst = {"agents": 3, "chores": len(row), "valuations": [row] * 3}
        path = write_json(tmp_path / "long.json", inst)
        argv = ["mms", "--input", path, "--max-chores", "5000", "--node-budget", "100000"]
        assert run_cli(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("oracle limit: node budget 100000 exhausted")
        assert err.count("\n") == 1

    # The search runs on the row over its gcd, 1201 ones, whose pigeonhole
    # bound meets LPT's 601, so it places no chore.
    def test_long_row_of_twos_gets_its_share(self, tmp_path, capsys):
        inst = {"agents": 2, "chores": 1201, "valuations": [[2] * 1201] * 2}
        path = write_json(tmp_path / "twos.json", inst)
        argv = ["mms", "--input", path, "--max-chores", "5000", "--node-budget", "1"]
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == "agent 0: mms 1202\nagent 1: mms 1202\n"

    def test_long_row_of_zeros_gets_its_share(self, tmp_path, capsys):
        row = [3, 3, 2, 2, 2] + [0] * 1200
        inst = {"agents": 2, "chores": len(row), "valuations": [row, row]}
        path = write_json(tmp_path / "zeros.json", inst)
        assert run_cli(["mms", "--input", path, "--max-chores", "5000"]) == 0
        assert capsys.readouterr().out == "agent 0: mms 6\nagent 1: mms 6\n"

    # 4 agents x 18 values up to 10**6 with gcd 1: the first cap is past
    # SUBSET_CAP, so the search reads its waste at resolution 114 and
    # takes 921 nodes, where the p + p' window took 70,757.
    def test_row_past_the_subset_cap_fits_a_small_budget(self, tmp_path, capsys):
        row = [
            895628, 745540, 689655, 665842, 503821, 492016, 468462, 437207, 429409,
            379085, 311005, 298775, 271430, 249413, 237655, 233235, 10621, 6138,
        ]
        inst = {"agents": 4, "chores": 18, "valuations": [row, row[::-1], row, row]}
        path = write_json(tmp_path / "wide.json", inst)
        assert run_cli(["mms", "--input", path, "--node-budget", "921"]) == 0
        assert capsys.readouterr().out == "".join(f"agent {i}: mms 1831796\n" for i in range(4))
        assert run_cli(["mms", "--input", path, "--node-budget", "920"]) == 4
        assert capsys.readouterr().err.startswith("oracle limit: node budget 920 exhausted")

    # Rows a and b search 14 and 19 nodes. Agents 0 and 2 share a's
    # sorted row, so it is searched once, and the budget holds per row.
    def test_node_budget_holds_per_distinct_row(self, tmp_path, capsys):
        a = [20, 9, 24, 12, 26, 23, 27, 24]
        b = [24, 11, 16, 9, 10, 16, 13, 29]
        inst = {"agents": 3, "chores": 8, "valuations": [a, b, a[::-1]]}
        path = write_json(tmp_path / "rows.json", inst)
        assert run_cli(["mms", "--input", path, "--node-budget", "19"]) == 0
        out = "agent 0: mms 56\nagent 1: mms 43\nagent 2: mms 56\n"
        assert capsys.readouterr().out == out
        assert run_cli(["mms", "--input", path, "--node-budget", "18"]) == 4
        assert capsys.readouterr().err.startswith("oracle limit: node budget 18 exhausted")


# Value pools per flag, one pool per argument the flag takes. "@a" and
# "@b" are files with random contents, "@dir" an existing directory and
# "@missing" an absent path, all in a fresh temporary directory.
PATH = ("@a", "@b", "@dir", "@dir/out", "@missing")
NUM = ("-1", "0", "1", "2", "3", "17", "x")
# Only --count draws HUGE: a huge --machines, --agents or --chores
# would allocate without bound.
COUNT = NUM + (HUGE,)
LIMITS = {"--max-chores": [NUM], "--node-budget": [NUM]}
FLAGS = {
    "solve": {"--input": [PATH], "--algo": [("exact-119", "poly-54", "x")],
              "--output": [PATH], "--trace": [PATH], **LIMITS},
    "mms": {"--input": [PATH], "--witness": [], **LIMITS},
    "schedule": {"--input": [PATH], "--machines": [NUM],
                 "--algo": [("greedy-119", "lpt", "x")], "--output": [PATH]},
    "verify": {"--instance": [PATH], "--allocation": [PATH],
               "--alpha": [("5/4", "11/9", "1/0", "-1", "2", "x")], **LIMITS},
    "gen": {"--seed": [NUM], "--count": [COUNT], "--agents": [NUM, NUM],
            "--chores": [NUM, NUM], "--value-max": [NUM], "--ido-only": [],
            "--output-dir": [PATH]},
    "fixtures": {"--name": [("non-monotone", "x")], "--export": [PATH]},
    "bench": {"--seed": [NUM], "--count": [COUNT], "--output": [PATH], **LIMITS},
}
REQUIRED = {
    "solve": ["--input"],
    "mms": ["--input"],
    "schedule": ["--input", "--machines"],
    "verify": ["--instance", "--allocation"],
    "gen": ["--seed"],
}

small = st.integers(0, 9)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(("agents", "chores", "valuations", "bundles", "leftover", "jobs")),
        inner,
        max_size=4,
    ),
    max_leaves=12,
)
instances = st.integers(1, 3).flatmap(
    lambda n: st.integers(0, 6).flatmap(
        lambda m: st.lists(st.lists(small, min_size=m, max_size=m), min_size=n, max_size=n)
    )
).map(lambda rows: {"agents": len(rows), "chores": len(rows[0]), "valuations": rows})
allocations = st.lists(st.integers(0, 2), max_size=6).map(
    lambda owners: {
        "bundles": [[c for c, o in enumerate(owners) if o == b] for b in range(3)],
        "leftover": [],
    }
)
file_contents = st.one_of(
    st.binary(max_size=24),
    st.text(max_size=24).map(str.encode),
    st.one_of(json_values, instances, allocations, st.lists(small, max_size=8)).map(
        lambda obj: json.dumps(obj).encode()
    ),
    st.integers(1, 5000).map(lambda d: ("[" * d + "]" * d).encode()),
)


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = REQUIRED.get(command, []) + draw(
        st.lists(st.sampled_from(sorted(FLAGS[command])), max_size=5)
    )
    argv = [command]
    for flag in flags:
        argv.append(flag)
        argv += [draw(st.sampled_from(pool)) for pool in FLAGS[command][flag]]
    if draw(st.integers(0, 7)) == 0:
        argv.append(draw(st.sampled_from(PATH + NUM)))  # a stray positional
    return argv


class TestCliIsTotal:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(command_lines(), file_contents, file_contents)
    def test_exit_code_in_range(self, capsys, argv, first, second):
        with tempfile.TemporaryDirectory() as tmp:
            names = {"@a": "a.json", "@b": "b.json", "@dir": "d", "@dir/out": "d/out",
                     "@missing": "missing.json"}
            paths = {key: os.path.join(tmp, name) for key, name in names.items()}
            os.mkdir(paths["@dir"])
            with open(paths["@a"], "wb") as handle:
                handle.write(first)
            with open(paths["@b"], "wb") as handle:
                handle.write(second)
            code = run_cli([paths.get(token, token) for token in argv])
        capsys.readouterr()
        assert code in range(5)


class TestSolveAndVerify:
    def test_poly_54_round_trips_through_verify(self, tmp_path, capsys):
        inst_path = fixture_file(tmp_path, 2)
        out_path = tmp_path / "alloc.json"
        code = run_cli(
            ["solve", "--input", inst_path, "--algo", "poly-54", "--output", str(out_path)]
        )
        assert code == 0
        report = capsys.readouterr().out
        assert "certified true" in report
        assert "complete true" in report
        alloc = json.loads(out_path.read_text())
        assert sorted(c for b in alloc["bundles"] for c in b) + alloc["leftover"] == list(range(17))

        code = run_cli(
            ["verify", "--instance", inst_path, "--allocation", str(out_path), "--alpha", "5/4"]
        )
        assert code == 0
        assert "alpha check at 5/4: pass" in capsys.readouterr().out

    def test_exact_119_with_trace(self, tmp_path, capsys):
        inst_path = fixture_file(tmp_path, 0)
        trace_path = tmp_path / "trace.jsonl"
        code = run_cli(
            [
                "solve",
                "--input",
                inst_path,
                "--algo",
                "exact-119",
                "--output",
                str(tmp_path / "a.json"),
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        assert "max ratio 20/17" in capsys.readouterr().out
        lines = trace_path.read_text().splitlines()
        assert lines
        entry = json.loads(lines[0])
        assert set(entry) == {"round", "chore", "witness", "load"}

    def test_exact_119_report_on_trial_fails(self, tmp_path, capsys):
        args = ["solve", "--input", fixture_file(tmp_path, 2), "--algo", "exact-119",
                "--max-chores", "17", "--output", str(tmp_path / "a.json")]
        assert run_cli(args) == 0
        assert capsys.readouterr().out.splitlines() == [
            "agent 0: load 543, share 450, ratio 181/150",
            "agent 1: load 522, share 450, ratio 29/25",
            "agent 2: load 180, share 450, ratio 2/5",
            "agent 3: load 545, share 450, ratio 109/90",
            "max ratio 109/90",
            "complete true",
        ]

    @pytest.mark.parametrize(
        "index, algo, digest",
        [
            (0, "poly-54", "936d74391b6d661bea9eb70f2eb1fb387671afa5f9da13a82d8586c777df46d8"),
            (0, "exact-119", "fe608b9b3d05ec15f9b5692d1809a76b31fe5b95273c01c166cbb5f537e843e1"),
            (1, "poly-54", "bea00151f2200690b00cf4e995969818830adcde1e2ead111b84f8c04b37d8bb"),
            (1, "exact-119", "2236cd135f61a48c22a706ac3a1abed0a8ca458710cab86dd947370e0dd88baa"),
            (2, "poly-54", "c6099d073a37dffe08595666a9511cfdd31122ebece02b07a73073242c6dd2e7"),
            (2, "exact-119", "c2cd68310f3c373da8a7e84d139f01993166b4aea1f5b769feabd8216598e1c4"),
        ],
    )
    def test_trace_file_bytes_on_the_fixtures(self, tmp_path, capsys, index, algo, digest):
        trace_path = tmp_path / "trace.jsonl"
        args = ["solve", "--input", fixture_file(tmp_path, index), "--algo", algo,
                "--max-chores", "17", "--output", str(tmp_path / "a.json"),
                "--trace", str(trace_path)]
        assert run_cli(args) == 0
        capsys.readouterr()
        assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == digest

    def test_allocation_to_stdout_without_output(self, tmp_path, capsys):
        inst_path = fixture_file(tmp_path, 0)
        assert run_cli(["solve", "--input", inst_path, "--algo", "poly-54"]) == 0
        out = capsys.readouterr().out
        alloc = json.loads(out)
        assert set(alloc) == {"bundles", "leftover"}

    def test_verify_alpha_failure_exits_2(self, tmp_path, capsys):
        inst_path = write_json(
            tmp_path / "inst.json",
            {"agents": 2, "chores": 2, "valuations": [[5, 5], [5, 5]]},
        )
        alloc_path = write_json(
            tmp_path / "alloc.json", {"bundles": [[0, 1], []], "leftover": []}
        )
        assert run_cli(["verify", "--instance", inst_path, "--allocation", alloc_path]) == 0
        assert (
            run_cli(
                ["verify", "--instance", inst_path, "--allocation", alloc_path, "--alpha", "3/2"]
            )
            == 2
        )
        capsys.readouterr()

    def test_verify_rejects_a_bad_alpha(self, tmp_path, capsys):
        inst_path = fixture_file(tmp_path, 0)
        alloc_path = write_json(
            tmp_path / "alloc.json", {"bundles": [list(range(14)), [], [], []], "leftover": []}
        )
        argv = ["verify", "--instance", inst_path, "--allocation", alloc_path]
        for flag, message in (
            (["--alpha", "x"], "invalid --alpha value 'x'"),
            (["--alpha", "1/0"], "invalid --alpha value '1/0'"),
            # A negative factor fails the caps rule, as in check_amms.
            (["--alpha", "5/-4"], "--alpha must be at least 0"),
            (["--alpha=-1/9"], "--alpha must be at least 0"),
        ):
            assert run_cli(argv + flag) == 2
            captured = capsys.readouterr()
            # The flag is checked before the files are read: no load lines.
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"
        # With a space, argparse reads a leading minus as an option: usage error.
        assert run_cli(argv + ["--alpha", "-1/9"]) == 1

    def test_verify_alpha_on_an_incomplete_allocation(self, tmp_path, capsys):
        inst_path = write_json(
            tmp_path / "inst.json",
            {"agents": 2, "chores": 2, "valuations": [[5, 5], [5, 5]]},
        )
        alloc_path = write_json(
            tmp_path / "alloc.json", {"bundles": [[0], []], "leftover": [1]}
        )
        argv = ["verify", "--instance", inst_path, "--allocation", alloc_path]
        assert run_cli(argv + ["--alpha", "5/4"]) == 2
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "alpha check at 5/4: fail (incomplete allocation)"

    def test_verify_rejects_a_chore_listed_twice(self, tmp_path, capsys):
        inst_path = write_json(
            tmp_path / "inst.json",
            {"agents": 2, "chores": 3, "valuations": [[1, 2, 3], [1, 2, 3]]},
        )
        alloc_path = write_json(
            tmp_path / "alloc.json", {"bundles": [[0, 0], [1, 2]], "leftover": []}
        )
        assert run_cli(["verify", "--instance", inst_path, "--allocation", alloc_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bundle 0 lists a chore more than once\n"

    def test_verify_rejects_mismatched_allocation(self, tmp_path):
        inst_path = write_json(
            tmp_path / "inst.json",
            {"agents": 2, "chores": 3, "valuations": [[1, 2, 3], [1, 2, 3]]},
        )
        alloc_path = write_json(
            tmp_path / "alloc.json", {"bundles": [[0], [1]], "leftover": []}
        )
        assert run_cli(["verify", "--instance", inst_path, "--allocation", alloc_path]) == 2


class TestMms:
    def test_table(self, tmp_path, capsys):
        inst_path = fixture_file(tmp_path, 0)
        assert run_cli(["mms", "--input", inst_path]) == 0
        out = capsys.readouterr().out
        assert out.count("mms 17") == 4

    def test_witness_flag(self, tmp_path, capsys):
        inst_path = write_json(
            tmp_path / "inst.json",
            {"agents": 2, "chores": 2, "valuations": [[3, 3], [3, 3]]},
        )
        assert run_cli(["mms", "--input", inst_path, "--witness"]) == 0
        assert "witness" in capsys.readouterr().out


class TestSchedule:
    def test_greedy_119(self, tmp_path, capsys):
        jobs_path = write_json(tmp_path / "jobs.json", [3, 3, 2, 2, 2])
        assert run_cli(["schedule", "--input", jobs_path, "--machines", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["makespan"] == 6
        assert payload["threshold"] == 6
        assert sorted(payload["loads"]) == [6, 6]

    def test_lpt_and_jobs_object(self, tmp_path, capsys):
        jobs_path = write_json(tmp_path / "jobs.json", {"jobs": [3, 3, 2, 2, 2]})
        assert run_cli(
            ["schedule", "--input", jobs_path, "--machines", "2", "--algo", "lpt"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["makespan"] == 7
        assert "threshold" not in payload

    def test_bad_jobs_payload(self, tmp_path):
        jobs_path = write_json(tmp_path / "jobs.json", {"work": []})
        assert run_cli(["schedule", "--input", jobs_path, "--machines", "2"]) == 2

    def test_job_above_64_bit_range(self, tmp_path, capsys):
        jobs_path = write_json(tmp_path / "jobs.json", [2**63, 1])
        for algo in ("greedy-119", "lpt"):
            argv = ["schedule", "--input", jobs_path, "--machines", "2", "--algo", algo]
            assert run_cli(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: job 0 must be at most 9223372036854775807\n"

    def test_machines_beyond_sys_maxsize(self, tmp_path, capsys, monkeypatch):
        def core(*args):
            raise AssertionError("a scheduler ran with a huge machine count")

        monkeypatch.setattr(scheduling, "_first_fit", core)
        monkeypatch.setattr(scheduling, "_lpt", core)
        jobs_path = write_json(tmp_path / "jobs.json", [3, 2, 1])
        for algo in ("greedy-119", "lpt"):
            argv = ["schedule", "--input", jobs_path, "--machines", HUGE, "--algo", algo]
            assert run_cli(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: machines must be at most {sys.maxsize}\n"


class TestGenAndFixtures:
    def test_gen_stdout_deterministic(self, capsys):
        args = ["gen", "--seed", "42", "--count", "5"]
        assert run_cli(args) == 0
        first = capsys.readouterr().out
        assert run_cli(args) == 0
        assert capsys.readouterr().out == first
        for line in first.splitlines():
            obj = json.loads(line)
            assert obj["agents"] <= len(obj["valuations"][0])

    def test_gen_output_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        assert (
            run_cli(
                ["gen", "--seed", "1", "--count", "3", "--output-dir", str(out_dir)]
            )
            == 0
        )
        capsys.readouterr()
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == ["instance_000.json", "instance_001.json", "instance_002.json"]

    def test_gen_writes_each_instance_as_it_is_generated(self, tmp_path, capsys, monkeypatch):
        made = [f.instance for f in builtin_fixtures()[:2]]

        def two_then_broken(config, count):
            yield from made
            raise RuntimeError("generator broke after two instances")

        monkeypatch.setattr(cli, "generate", two_then_broken)
        with pytest.raises(RuntimeError):
            run_cli(["gen", "--seed", "1", "--count", "5"])
        lines = capsys.readouterr().out.splitlines()
        assert [json.loads(line) for line in lines] == [instance_to_json(i) for i in made]
        out_dir = tmp_path / "corpus"
        with pytest.raises(RuntimeError):
            run_cli(["gen", "--seed", "1", "--count", "5", "--output-dir", str(out_dir)])
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == ["instance_000.json", "instance_001.json"]

    def test_fixtures_table(self, capsys):
        assert run_cli(["fixtures"]) == 0
        out = capsys.readouterr().out
        for name in ("lower-bound-20-17", "non-monotone", "trial-fails"):
            assert name in out

    def test_fixtures_export_and_name(self, tmp_path, capsys):
        out_dir = tmp_path / "fx"
        assert run_cli(["fixtures", "--export", str(out_dir)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "lower-bound-20-17.json",
            "non-monotone.json",
            "trial-fails.json",
        ]
        assert run_cli(["fixtures", "--name", "absent"]) == 2

    def test_fixtures_name_picks_one(self, tmp_path, capsys):
        assert run_cli(["fixtures", "--name", "non-monotone"]) == 0
        assert capsys.readouterr().out == "non-monotone: agents 4, chores 17, scale 20\n"
        out_dir = tmp_path / "fx"
        assert run_cli(["fixtures", "--name", "non-monotone", "--export", str(out_dir)]) == 0
        assert capsys.readouterr().out == f"wrote 1 fixtures to {out_dir}\n"
        assert [p.name for p in out_dir.iterdir()] == ["non-monotone.json"]


class TestBench:
    def test_csv_schema_and_bounds(self, tmp_path):
        out_path = tmp_path / "bench.csv"
        code = run_cli(
            ["bench", "--seed", "11", "--count", "4", "--output", str(out_path)]
        )
        assert code == 0
        with open(out_path, newline="") as handle:
            reader = csv.DictReader(handle)
            assert reader.fieldnames == [
                "instance_id",
                "n",
                "m",
                "algo",
                "max_ratio_num",
                "max_ratio_den",
                "mms_oracle_ms",
                "solver_ms",
                "complete",
            ]
            rows = list(reader)
        # The oracle's default chore limit admits all three fixtures
        # and the generated corpus; two algo rows per instance.
        assert len(rows) == 2 * (3 + 4)
        for row in rows:
            assert row["complete"] == "true"
            ratio = Fraction(int(row["max_ratio_num"]), int(row["max_ratio_den"]))
            bound = Fraction(11, 9) if row["algo"] == "exact-119" else Fraction(5, 4)
            assert ratio <= bound

    @staticmethod
    def _rows(capsys, *argv, skipped=()):
        """The CSV rows of one bench run, without the timing columns 7 and 8,
        once its stderr is one line per instance in ``skipped``."""
        assert run_cli(["bench", "--seed", "1", "--count", "2", *argv]) == 0
        out, err = capsys.readouterr()
        assert err.splitlines() == list(skipped)
        return [",".join(r[:6] + r[8:]) for r in csv.reader(io.StringIO(out))]

    def test_default_lists_every_fixture(self, capsys):
        # The oracle's own chore limit admits every built-in fixture.
        listed = {row.split(",")[0] for row in self._rows(capsys)}
        assert {f.name for f in builtin_fixtures()} <= listed

    def test_max_chores_14_keeps_the_old_default_rows(self, capsys):
        # The rows bench printed when its own default chore cap was 14,
        # and a line for each fixture it leaves out.
        skipped = [
            "skipped non-monotone: 17 chores, above --max-chores 14",
            "skipped trial-fails: 17 chores, above --max-chores 14",
        ]
        assert self._rows(capsys, "--max-chores", "14", skipped=skipped) == [
            "instance_id,n,m,algo,max_ratio_num,max_ratio_den,complete",
            "lower-bound-20-17,4,14,exact-119,20,17,true",
            "lower-bound-20-17,4,14,poly-54,21,17,true",
            "rand-1-000,3,12,exact-119,77,75,true",
            "rand-1-000,3,12,poly-54,5,7,true",
            "rand-1-001,3,9,exact-119,81,86,true",
            "rand-1-001,3,9,poly-54,81,86,true",
        ]

    def test_max_chores_below_the_generator_floor(self, capsys):
        # No generated instance fits one chore: the CSV is the header
        # alone, and stderr names each instance left out.
        assert run_cli(["bench", "--max-chores", "1", "--count", "3"]) == 0
        out, err = capsys.readouterr()
        assert err.splitlines() == [
            "skipped lower-bound-20-17: 14 chores, above --max-chores 1",
            "skipped non-monotone: 17 chores, above --max-chores 1",
            "skipped trial-fails: 17 chores, above --max-chores 1",
            "skipped rand-2024-000: 5 chores, above --max-chores 1",
            "skipped rand-2024-001: 2 chores, above --max-chores 1",
            "skipped rand-2024-002: 3 chores, above --max-chores 1",
        ]
        assert out.splitlines() == [
            "instance_id,n,m,algo,max_ratio_num,max_ratio_den,"
            "mms_oracle_ms,solver_ms,complete"
        ]


class TestReadme:
    def test_synopsis_lists_every_flag(self):
        # The fenced block after "## CLI" names each subcommand on a line
        # of its own; indented lines continue the subcommand above them.
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
        block = text.split("```\n", 2)[1]
        documented = {}
        for line in block.splitlines():
            if line.startswith("fairchores "):
                command = line.split()[1]
            documented.setdefault(command, set()).update(re.findall(r"--[a-z-]+", line))
        subparsers = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        parsed = {
            name: {flag for a in sub._actions for flag in a.option_strings} - {"-h", "--help"}
            for name, sub in subparsers.choices.items()
        }
        assert documented == parsed
