"""Builtin boundary instances with pinned expected outcomes.

Three instances that sit exactly on the interesting edges of the greedy
machinery. Fractional costs are scaled to integers (the scale is kept on
each fixture so reported ratios stay interpretable):

* ``lower-bound-20-17``: uniform caps just below 20/17 of the share
  strand a chore; at exactly 20/17 everything fits. Shows the greedy
  cannot beat 20/17 however its thresholds are chosen.
* ``non-monotone``: the single-agent naive test passes at the share
  (150) yet fails at 152: its pass-set has holes, so it cannot be
  binary-searched.
* ``trial-fails``: four agents, one of them with a shifted cardinal
  profile over the same chore order; running the greedy at each agent's
  naive-test value strands two chores, while the certified 5/4 solver
  allocates everything.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Tuple

from .instances import Instance, _Record


class Fixture(_Record):
    """A named instance, its integer scale, and expected outcomes."""

    name: str
    instance: Instance
    scale: int
    expected: Mapping[str, object]


def _lower_bound_fixture() -> Fixture:
    row = [9, 7, 6, 5, 5, 4, 4, 4, 4, 4, 4, 4, 4, 4]
    instance = Instance.from_rows([row] * 4)
    expected = {
        "mms": (17, 17, 17, 17),
        # Uniform integer caps -> leftover size.
        "leftover_by_threshold": {19: 1, 20: 0},
        # Round-order bundle values at cap 19 (the stranded chore is a 4).
        "round_bundle_values": ((9, 7), (6, 5, 5), (4, 4, 4, 4), (4, 4, 4, 4)),
        "max_ratio": Fraction(20, 17),
    }
    return Fixture(
        name="lower-bound-20-17", instance=instance, scale=17, expected=expected
    )


def _non_monotone_fixture() -> Fixture:
    row = [102, 24, 24, 55, 55, 20, 20, 55, 55, 20, 20, 50, 20, 20, 20, 20, 20]
    instance = Instance.from_rows([row] * 4)
    expected = {
        "mms": (150, 150, 150, 150),
        "naive_pass": 150,
        "naive_fail": 152,
        "leftover_at_fail": 2,
    }
    return Fixture(
        name="non-monotone", instance=instance, scale=20, expected=expected
    )


def _trial_fails_fixture() -> Fixture:
    shared = [306, 72, 72, 165, 165, 60, 60, 165, 165, 60, 60, 150, 60, 60, 60, 60, 60]
    # Fourth agent: same chore order, different cardinal values
    # (aligned rank for rank so one order serves everyone).
    special = [306, 120, 120, 165, 165, 50, 50, 165, 165, 50, 50, 144, 50, 50, 50, 50, 50]
    instance = Instance.from_rows([shared, shared, shared, special])
    expected = {
        "mms": (450, 450, 450, 450),
        "naive_thresholds": (450, 450, 450, 450),
        "trial_leftover": 2,
    }
    return Fixture(name="trial-fails", instance=instance, scale=60, expected=expected)


def builtin_fixtures() -> Tuple[Fixture, ...]:
    """The three boundary fixtures, in a fixed order."""
    return (_lower_bound_fixture(), _non_monotone_fixture(), _trial_fails_fixture())
