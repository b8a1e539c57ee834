"""The mutation catalogue of ``tools/mutants.py``, checked without running it.

Every entry names a file that exists, an old text that occurs in it
exactly once and a new text that differs, and the mutated file still
compiles; every core the catalogue must cover names at least one entry.
The tool is imported read-only, as ``test_pins`` imports perfbench.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "tools"))
import mutants  # noqa: E402

CORES = (
    "_min_makespan waste",
    "_min_makespan incumbent",
    "_min_makespan tie skip",
    "_min_makespan early stop",
    "_min_makespan two bins",
    "_fill",
    "_lift",
    "_first_fit",
    "_ffd_fits",
    "threshold_test",
    "_large_fits",
    "_boundary_search",
    "_pigeonhole",
    "_as_int",
    "_as_cap",
    "_allocate_within re-check",
    "schedule_119 re-check",
    "check_amms",
    "verify_allocation",
    "_below",
)


# Numbered from 1, as the tool numbers its mutants.
NUMBERS = [str(n) for n in range(1, len(mutants.CATALOGUE) + 1)]


@pytest.mark.parametrize("entry", mutants.CATALOGUE, ids=NUMBERS)
def test_entry_applies_once_and_compiles(entry):
    file, old, new, _ = entry
    assert (mutants.ROOT / file).read_text().count(old) == 1
    assert new != old
    compile(mutants.mutated(entry), file, "exec")


def test_every_core_has_a_mutant():
    assert len(mutants.CATALOGUE) >= 40
    named = [what for *_, what in mutants.CATALOGUE]
    assert [core for core in CORES if not any(w.startswith(core) for w in named)] == []
