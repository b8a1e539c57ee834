"""Seeded random instance generation for corpus testing and benchmarks."""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from itertools import count, islice
from typing import Iterator, Optional, Tuple

from .errors import InputError
from .instances import Instance


@dataclass(frozen=True)
class GeneratorConfig:
    """Reproducible stream parameters.

    Agent and chore counts are drawn uniformly from inclusive ranges;
    the chore lower bound is lifted to the drawn agent count so every
    instance has at least as many chores as agents. With ``ido_only``
    each instance is built from one descending base row plus per-agent
    perturbations re-sorted to keep the shared order.
    """

    seed: int
    agents: Tuple[int, int] = (2, 5)
    chores: Tuple[int, int] = (2, 14)
    value_max: int = 50
    ido_only: bool = False

    def __post_init__(self) -> None:
        if self.agents[0] < 1 or self.agents[0] > self.agents[1]:
            raise InputError("agents range must be non-empty and start at 1+")
        if self.chores[0] < 0 or self.chores[0] > self.chores[1]:
            raise InputError("chores range must be non-empty and non-negative")
        if self.value_max < 1:
            raise InputError("value_max must be positive")


def _one(rng: random.Random, config: GeneratorConfig) -> Instance:
    n = rng.randint(*config.agents)
    m_lo = max(config.chores[0], n)
    m_hi = max(config.chores[1], m_lo)
    m = rng.randint(m_lo, m_hi)
    if config.ido_only:
        base = sorted((rng.randint(0, config.value_max) for _ in range(m)), reverse=True)
        spread = max(1, config.value_max // 10)
        rows = []
        for _ in range(n):
            row = [
                min(config.value_max, max(0, v + rng.randint(-spread, spread)))
                for v in base
            ]
            row.sort(reverse=True)
            rows.append(row)
    else:
        rows = [
            [rng.randint(0, config.value_max) for _ in range(m)] for _ in range(n)
        ]
    return Instance.from_rows(rows)


def generate(config: GeneratorConfig, count_limit: Optional[int] = None) -> Iterator[Instance]:
    """Deterministic instance stream; same config, same stream.

    Unbounded unless ``count_limit`` is given, which ``islice`` needs
    to be at most ``sys.maxsize``.
    """
    if count_limit is not None and count_limit < 0:
        raise InputError("count must be non-negative")
    if count_limit is not None and count_limit > sys.maxsize:
        raise InputError(f"count must be at most {sys.maxsize}")
    rng = random.Random(config.seed)
    stream = (_one(rng, config) for _ in count())
    return islice(stream, count_limit) if count_limit is not None else stream
