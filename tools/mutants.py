"""Mutation analysis of the package's cores: which tests kill which mutant.

Each catalogue entry is ``(file, old text, new text, what it breaks)``:
one comparison or step of a core, changed by plain text substitution
(DeMillo, Lipton & Sayward 1978; Jia & Harman, IEEE TSE 2011). The old
text occurs exactly once in its file, and ``tests/test_mutants.py``
checks that, and that each mutated file still compiles.

``python3 tools/mutants.py`` takes no arguments. It runs tier-1 once on
an unmutated copy of the tree, which must fail nothing, then once per
mutant, one pytest process at a time: each run copies the tree to a
temporary directory (without ``.git``, the caches and ``perfbench/out``),
applies the one entry and runs tier-1's own command, with no cache
plugin, hypothesis seed 0, a JUnit report and a fixed timeout, less
``tests/test_mutants.py``, which no mutant of the tree passes. It
prints one JSON kill matrix on stdout: for each run, the test ids that
failed (a collection error counts against its file), the seconds taken
and whether it timed out. A line per run goes to stderr as it ends. The
exit status is 0 only when the unmutated run fails nothing and every
mutant is killed by a failing test.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Tier-1's own command (ROADMAP.md), run from the copy's root.
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
# The slowest mutant run took 145 s; a run past this one has hung.
TIMEOUT_S = 300

ORACLE = "src/fairchores/oracle.py"
SCHEDULING = "src/fairchores/scheduling.py"
SOLVERS = "src/fairchores/solvers.py"
GREEDY = "src/fairchores/greedy.py"
INSTANCES = "src/fairchores/instances.py"
GENERATOR = "src/fairchores/generator.py"

CATALOGUE = (
    # _min_makespan
    (ORACLE, "waste > slack:\n                    loads[b]",
     "waste >= slack:\n                    loads[b]",
     "_min_makespan waste: a placement whose waste only equals the slack is cut"),
    (ORACLE, "waste += room + 1 - (sums", "waste += room - (sums",
     "_min_makespan waste: the exact table's waste counts one unit short"),
    (ORACLE, "if room < p:", "if room <= p:",
     "_min_makespan waste: a room of exactly the smallest value is wasted whole"),
    (ORACLE, "fill = q * fit + (q - 1) * min(last - k, room // p)", "fill = q * fit",
     "_min_makespan waste: the coarse fill loses each value's rounding slack"),
    (ORACLE, "if placed > cap or", "if placed >= cap or",
     "_min_makespan incumbent: a placement that reaches the cap is cut"),
    (ORACLE, " or loads.index(load) < b:", ":",
     "_min_makespan tie skip: every bin of an equal load is tried"),
    (ORACLE, "if incumbent == lower:\n                return",
     "if incumbent < lower:\n                return",
     "_min_makespan early stop: a leaf at the pigeonhole bound does not end the search"),
    (ORACLE, "if incumbent == lower:\n        return", "if incumbent < lower:\n        return",
     "_min_makespan early stop: an LPT seed at the pigeonhole bound is searched anyway"),
    (ORACLE, "if g > 1:", "if g > 2:",
     "_min_makespan gcd: a row with gcd 2 is searched unreduced"),
    (ORACLE, "if m > _as_type(limits", "if m >= _as_type(limits",
     "_min_makespan limits: a row of exactly max_chores is refused"),
    (ORACLE, "if nodes > budget:", "if nodes >= budget:",
     "_min_makespan limits: the budget's last node raises"),
    (ORACLE, "q = cap // width + 1", "q = cap // width + 2",
     "_min_makespan resolution: every row reads its table at q > 1"),
    # check_amms
    (ORACLE, "load <= alpha * share", "load < alpha * share",
     "check_amms: a load of exactly alpha times the share fails"),
    (ORACLE, '"profile").values) != inst.num_agents', '"profile").values) > inst.num_agents',
     "check_amms: a short profile passes"),
    # _pigeonhole
    (SCHEDULING, "max(-(-sum(desc) // bins)", "max(sum(desc) // bins",
     "_pigeonhole: the average load is rounded down"),
    (SCHEDULING, "desc[0] if desc else 0)", "desc[-1] if desc else 0)",
     "_pigeonhole: the smallest value stands for the largest"),
    # _first_fit
    (SCHEDULING, "left.pop())\n            elif i := bisect_right(vals, room):",
     "left.pop())\n            elif i := bisect_right(vals, room - 1):",
     "_first_fit: a value that fills the room exactly is passed over"),
    (SCHEDULING, "taken.append(left.pop(i - 1))", "taken.append(left.pop(i))",
     "_first_fit: a bin records the position after the one it bisected to"),
    (SCHEDULING, "return packed, left[::-1]", "return packed, left",
     "_first_fit: the unplaced positions come back descending"),
    # _ffd_fits
    (SCHEDULING, "left > cap * empty", "left >= cap * empty",
     "_ffd_fits early stop: an exact fill counts as a failure"),
    (SCHEDULING, "left -= cap - room", "left -= room",
     "_ffd_fits: the unplaced total falls by the room left, not the load placed"),
    (SCHEDULING, "range(bins, 0, -1)", "range(bins, 1, -1)",
     "_ffd_fits: the last bin is never filled"),
    # _boundary_search
    (SCHEDULING, "lo, top, step = top + 1,", "lo, top, step = top,",
     "_boundary_search: the bisection probes the last failing cap again"),
    (SCHEDULING, "2 * step", "3 * step",
     "_boundary_search: the gallop's steps grow threefold"),
    (SCHEDULING, "while lo < top:", "while lo < top - 1:",
     "_boundary_search: the bisection stops one probe short"),
    # schedule_119's re-checks
    (SCHEDULING, "if left:\n        raise", "if None:\n        raise",
     "schedule_119 re-check: jobs left over at the searched cap go unchecked"),
    (SCHEDULING, "if max(loads) != makespan:", "if max(loads) > makespan:",
     "schedule_119 re-check: a makespan below the searched cap passes"),
    # _large_split, which _large_fits and threshold_test call
    (SOLVERS, "-(s // 4), key=neg)", "-(s // 4) - 1, key=neg)",
     "_large_split: a chore one above s/4 is not large"),
    (SOLVERS, "-(s // 2), hi=large", "-(s // 2) - 1, hi=large",
     "_large_split: a chore one above s/2 seeds no bundle"),
    (SOLVERS, "large, k, k > n", "large, k, k >= n",
     "_large_split: n chores above s/2 count as too many"),
    # threshold_test
    (SOLVERS, "_large_split(desc, n, s)[1]", "_large_split(desc, n, s)[0]",
     "threshold_test: really_large_count counts the chores above s/4"),
    (SOLVERS, "desc = sorted(row, reverse=True)", "desc = sorted(row)",
     "threshold_test: the row is sorted ascending"),
    # _large_fits. Its seeding pass as ``range(k)`` would be equivalent (a
    # room that takes at most one value takes the same set in any order),
    # and so would its return without ``not vals or`` (``_ffd_fits``
    # passes an empty list), so neither has an entry.
    (SOLVERS, "bisect_right(vals, s - desc[t])", "bisect_right(vals, s - desc[t] - 1)",
     "_large_fits: each seeded room is a unit short"),
    (SOLVERS, "del vals[i - 1]", "del vals[0]",
     "_large_fits: a seeded room takes the smallest value that fits"),
    (SOLVERS, "n - k, 5 * s // 4)", "n - k - 1, 5 * s // 4)",
     "_large_fits: stage two is one bin short"),
    (SOLVERS, "n - k, 5 * s // 4)", "n - k, 5 * s // 4 - 1)",
     "_large_fits: stage two's bins lose a unit of their 5s/4 cap"),
    # the solvers' re-checks
    (SOLVERS, "if den * load > num * b:", "if den * load > num * b + 1:",
     "_allocate_within re-check: a load one unit past the cap passes"),
    (SOLVERS, "if den * load > num * b:", "if den * load > num * b + den:",
     "_allocate_within re-check: a load up to a whole unit past the cap passes"),
    (SOLVERS, "if left:\n        raise", "if None:\n        raise",
     "_allocate_within re-check: the greedy's leftover goes unchecked"),
    (SOLVERS, "[num * b // den for b in bases]", "[num * b // den + 1 for b in bases]",
     "_allocate_within: the greedy runs one unit above the caps"),
    # _fill
    (GREEDY, "[bias + c for c in caps]", "[bias + c - 1 for c in caps]",
     "_fill: a room of exactly 0 reads as negative"),
    (GREEDY, "lo, hi = at + 1, len(left)", "lo, hi = at + 2, len(left)",
     "_fill: the bisection after a miss starts one position late"),
    (GREEDY, "owner = (live & -live).bit_length()", "owner = live.bit_length()",
     "_fill: a round's bundle goes to the highest-index live agent"),
    (GREEDY, "top.bit_length() + 2", "top.bit_length() + 1",
     "_fill: the fields keep one bit to spare, not two"),
    # _as_int and _as_cap
    (INSTANCES, "if value < lo:", "if value <= lo:",
     "_as_int: the lower bound itself is refused"),
    (INSTANCES, "if value > hi:", "if value >= hi:",
     "_as_int: the upper bound itself is refused"),
    (INSTANCES, "isinstance(value, bool) or not isinstance(value, int)",
     "not isinstance(value, int)",
     "_as_int: a bool passes as an integer"),
    (INSTANCES, "if value < 0:", "if value <= 0:",
     "_as_cap: a zero cap is refused"),
    (INSTANCES, "isinstance(value, bool) or not isinstance(value, (int",
     "not isinstance(value, (int",
     "_as_cap: a bool passes as a cap"),
    # _lift
    (INSTANCES, "for j in range(m - 1, -1, -1):", "for j in range(m):",
     "_lift: the walk starts at the largest position"),
    (INSTANCES, "owner[j] = i", "owner[j] = n - 1 - i",
     "_lift: each bundle goes to the agent at the mirrored index"),
    # verify_allocation
    (INSTANCES, "loads[i] <= thresholds[i]", "loads[i] < thresholds[i]",
     "verify_allocation: a load exactly at its cap is not within"),
    (INSTANCES, "if len(thresholds) != inst.num_agents:", "if len(thresholds) < inst.num_agents:",
     "verify_allocation: a threshold vector longer than the agents passes"),
    # _below. Its threshold as ``k >= _TABLE_BITS`` and the index start
    # as 0 would be equivalent: the filter path and a scan from the front
    # give the same values, only not shared or later.
    (GENERATOR, "if k > _TABLE_BITS:", "if k > _TABLE_BITS + 1:",
     "_below: 13-bit draws index past the table's end"),
    (GENERATOR, "range(kept.count(-1))", "range(kept.count(-1) - 1)",
     "_below: one reject per batch stays among the values"),
    (GENERATOR, "kept.index(-1, at)", "kept.index(-1, at + 1)",
     "_below: a reject right after a deleted one is passed over"),
    (GENERATOR, "repeat(k, size - at)", "repeat(k, size - at + 1)",
     "_below: each batch draws one value more than are missing"),
    # _large_fits, continued: numbered last so that the numbers above
    # stay those of earlier kill matrices.
    (SOLVERS, "too_many:\n        return False", "too_many:\n        return True",
     "_large_fits: more than n chores above s/2 pass"),
    (SOLVERS, "_ffd_fits(vals[::-1],", "_ffd_fits(vals,",
     "_large_fits: stage two gets the values ascending"),
)


def mutated(entry: tuple) -> str:
    """The entry's file with its one old text replaced."""
    file, old, new, _ = entry
    return (ROOT / file).read_text().replace(old, new, 1)


def skipped(directory: str, names: list) -> set:
    """What a copy leaves out: version control, caches, bench output."""
    out = {".git", ".hypothesis", ".pytest_cache", "__pycache__"}.intersection(names)
    if Path(directory) == ROOT / "perfbench" and "out" in names:
        out.add("out")
    return out


def node_id(classname: str, name: str) -> str:
    """A JUnit test case as pytest's node id; a collection error as its file."""
    if not classname:
        return name.replace(".", "/") + ".py"
    parts = classname.split(".")
    at = next(i for i, part in enumerate(parts) if part.startswith("test_")) + 1
    return "::".join(["/".join(parts[:at]) + ".py", *parts[at:], name])


def tier1(entry: tuple | None = None) -> dict:
    """One tier-1 run on a fresh copy of the tree, mutated by ``entry``."""
    with tempfile.TemporaryDirectory() as scratch:
        tree, report = Path(scratch) / "tree", Path(scratch) / "report.xml"
        shutil.copytree(ROOT, tree, ignore=skipped)
        extra = ["-p", "no:cacheprovider", "--hypothesis-seed=0", f"--junitxml={report}"]
        if entry is not None:
            (tree / entry[0]).write_text(mutated(entry))
            # The catalogue's self-test fails under every mutant, whose old
            # text is gone; it would kill them all and say nothing.
            extra.append("--ignore=tests/test_mutants.py")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
        start = time.monotonic()
        run = subprocess.Popen(
            TIER1 + extra, cwd=tree, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, start_new_session=True,
        )
        timed_out = False
        try:
            run.wait(TIMEOUT_S)
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:
            # Its own session: an interrupt of this tool does not reach it.
            if run.poll() is None:
                os.killpg(run.pid, signal.SIGKILL)
                run.wait()
        seconds = round(time.monotonic() - start, 1)
        failed = set()
        if report.exists():
            for case in ET.parse(report).iter("testcase"):
                if case.find("failure") is not None or case.find("error") is not None:
                    failed.add(node_id(case.get("classname"), case.get("name")))
    return {"failed": sorted(failed), "seconds": seconds, "timed_out": timed_out}


def main() -> int:
    baseline = tier1()
    log = partial(print, file=sys.stderr)
    log(f"unmutated: {len(baseline['failed'])} failed in {baseline['seconds']} s")
    matrix = {"baseline": baseline, "mutants": []}
    if not baseline["failed"] and not baseline["timed_out"]:
        for number, entry in enumerate(CATALOGUE, 1):
            run = tier1(entry)
            row = {"mutant": number, "file": entry[0], "breaks": entry[3], **run}
            matrix["mutants"].append(row)
            log(f"{number:2} {len(run['failed']):4} failed in {run['seconds']:5} s  {entry[3]}")
    print(json.dumps(matrix, indent=1))
    killed = [m["failed"] and not m["timed_out"] for m in matrix["mutants"]]
    return 0 if len(killed) == len(CATALOGUE) and all(killed) else 1


if __name__ == "__main__":
    sys.exit(main())
