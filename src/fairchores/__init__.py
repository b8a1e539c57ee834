"""Approximately fair division of indivisible chores.

Everything revolves around the maximin share: the worst bundle cost an
agent could guarantee themselves if they cut the chores into n bundles and
received the heaviest. The package provides an exact oracle for that
share, a threshold-greedy allocator, an oracle-backed solver meeting
11/9 of each share, a polynomial-time solver meeting 5/4, and an
identical-machines scheduler within 13/11 of the optimal makespan.
"""

from .errors import (
    FairChoresError,
    InputError,
    InstanceTooLargeError,
    NodeBudgetError,
    OracleLimitError,
    SolverInvariantError,
)
from .fixtures import Fixture, builtin_fixtures
from .generator import GeneratorConfig, generate
from .greedy import GreedyResult, greedy_fill, greedy_trace
from .instances import (
    Allocation,
    Instance,
    OrderedInstance,
    ThresholdVector,
    VerificationReport,
    ido_order,
    lift_allocation,
    ordered_instance,
    verify_allocation,
)
from .oracle import (
    AmmsReport,
    MmsProfile,
    OracleLimits,
    check_amms,
    exact_mms,
    mms_profile,
    optimal_makespan,
)
from .scheduling import ScheduleResult, schedule_119, schedule_lpt
from .solvers import (
    ExistenceResult,
    PolyResult,
    naive_test,
    search_threshold,
    solve_existence_119,
    solve_poly_54,
    threshold_test,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # The CLI (argparse, csv) loads on first use of ``run_cli`` only.
    if name != "run_cli":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .cli import run_cli

    return run_cli


__all__ = [
    "Allocation",
    "AmmsReport",
    "ExistenceResult",
    "FairChoresError",
    "Fixture",
    "GeneratorConfig",
    "GreedyResult",
    "InputError",
    "Instance",
    "InstanceTooLargeError",
    "MmsProfile",
    "NodeBudgetError",
    "OracleLimitError",
    "OracleLimits",
    "OrderedInstance",
    "PolyResult",
    "ScheduleResult",
    "SolverInvariantError",
    "ThresholdVector",
    "VerificationReport",
    "builtin_fixtures",
    "check_amms",
    "exact_mms",
    "generate",
    "greedy_fill",
    "greedy_trace",
    "ido_order",
    "lift_allocation",
    "mms_profile",
    "naive_test",
    "optimal_makespan",
    "ordered_instance",
    "run_cli",
    "schedule_119",
    "schedule_lpt",
    "search_threshold",
    "solve_existence_119",
    "solve_poly_54",
    "threshold_test",
    "verify_allocation",
]
