"""Seeded random instance generation for corpus testing and benchmarks."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import count, islice
from typing import Iterator, Optional, Tuple

from .instances import MAX_VALUE, Instance, _as_int


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
        _as_int(self.seed, "seed", -math.inf, math.inf)
        _as_int(self.agents[1], "agents[1]", _as_int(self.agents[0], "agents[0]", 1))
        _as_int(self.chores[1], "chores[1]", _as_int(self.chores[0], "chores[0]"))
        _as_int(self.value_max, "value_max", 1, MAX_VALUE)


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

    Unbounded unless ``count_limit`` is given, an integer from 0 to
    ``sys.maxsize``, the most ``islice`` takes.
    """
    rng = random.Random(config.seed)
    stream = (_one(rng, config) for _ in count())
    if count_limit is None:
        return stream
    return islice(stream, _as_int(count_limit, "count"))
