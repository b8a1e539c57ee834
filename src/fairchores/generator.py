"""Seeded random instance generation for corpus testing and benchmarks.

Values are drawn as ``random.Random.randint`` draws them, but in bulk
(``_below``). A value at or above 257 is an int object of its own in
CPython, 32 bytes beside its 8-byte tuple slot, so a corpus of fresh
draws at ``value_max`` 1000 spends most of its memory on them. For
bounds of at most ``_TABLE_BITS`` bits each raw draw is therefore looked
up in a table of the ints below the bound, and equal values of every
instance drawn at that bound are one shared object.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable
from functools import lru_cache
from itertools import repeat
from typing import Iterator, List, Tuple

from .errors import InputError
from .instances import MAX_VALUE, Instance, _as_int, _as_type, _Record, _trusted


class GeneratorConfig(_Record):
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
        agents = _pair(self.agents, "agents")
        chores = _pair(self.chores, "chores")
        _as_int(agents[1], "agents[1]", _as_int(agents[0], "agents[0]", 1))
        _as_int(chores[1], "chores[1]", _as_int(chores[0], "chores[0]"))
        _as_int(self.value_max, "value_max", 1, MAX_VALUE)
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "chores", chores)


def _pair(value: object, what: str) -> Tuple[object, object]:
    """A (low, high) range as a tuple; unpacking reads at most three items."""
    value = _as_type(value, Iterable, what)
    try:
        low, high = value
    except ValueError:
        raise InputError(f"{what} must be a (low, high) pair") from None
    return low, high


# Draws of at most this many bits are looked up in a table of 2**12
# entries. The cache keeps at most four tables: at the bounds 4,095,
# 4,094, 4,093 and 4,092, the widest, they hold 0.63 MB together
# (tracemalloc, CPython 3.11).
_TABLE_BITS = 12


@lru_cache(maxsize=4)
def _table(bound: int) -> List[int]:
    """Each draw's value: the draw itself below ``bound``, the reject
    sentinel -1 from there up. Shared by every caller and never written."""
    return [*range(bound), *repeat(-1, (1 << _TABLE_BITS) - bound)]


def _below(rng: random.Random, bound: int, size: int) -> List[int]:
    """``size`` values of ``rng.randint(0, bound - 1)``, drawn in bulk.

    randint draws ``bound.bit_length()`` bits, again while the draw is at
    or above ``bound``. Each batch makes as many draws as values are still
    missing and keeps those below ``bound``: the same values, and since
    the last batch keeps all its draws, none is drawn past the last one
    randint takes, so ``rng`` ends in the same state.

    Up to ``_TABLE_BITS`` bits, a batch maps its draws through
    ``_table(bound)``, so each value is the table's own int object, and
    then deletes its rejects. The sentinel is an int because
    ``list.count`` and ``list.index`` compare an int with ``None``
    through the slow rich-comparison path. Past ``_TABLE_BITS`` a table
    doubles with each bit while a corpus repeats fewer of its values, so
    wider bounds filter their draws.
    """
    k = bound.bit_length()
    kept: List[int] = []
    if k > _TABLE_BITS:
        while len(kept) < size:
            kept += filter(bound.__gt__, map(rng.getrandbits, repeat(k, size - len(kept))))
        return kept
    value = _table(bound).__getitem__
    while len(kept) < size:
        at = len(kept)
        kept += map(value, map(rng.getrandbits, repeat(k, size - at)))
        for _ in range(kept.count(-1)):
            at = kept.index(-1, at)
            del kept[at]
    return kept


def _one(rng: random.Random, config: GeneratorConfig) -> Instance:
    n = rng.randint(*config.agents)
    m_lo = max(config.chores[0], n)
    m_hi = max(config.chores[1], m_lo)
    m = rng.randint(m_lo, m_hi)
    top = config.value_max
    if config.ido_only:
        base = sorted(_below(rng, top + 1, m), reverse=True)
        spread = max(1, top // 10)
        rows = []
        for _ in range(n):
            shifts = _below(rng, 2 * spread + 1, m)
            row = [min(top, max(0, v + d - spread)) for v, d in zip(base, shifts)]
            row.sort(reverse=True)
            rows.append(row)
    else:
        rows = [_below(rng, top + 1, m) for _ in range(n)]
    # n rows of m values, each from 0 to the checked value_max.
    return _trusted(Instance, num_agents=n, num_chores=m, valuations=tuple(map(tuple, rows)))


def generate(config: GeneratorConfig, count_limit: int) -> Iterator[Instance]:
    """Deterministic instance stream; same config, same stream.

    A seed's stream equals its ``random.Random(seed).randint`` draws:
    each instance draws its agent count, its chore count, then its
    values row by row, the values drawn in bulk by ``_below``.

    It holds ``count_limit`` instances, a required integer from 0 to
    ``sys.maxsize`` checked when ``generate`` is called; each instance is
    built as the stream reaches it.
    """
    rng = random.Random(_as_type(config, GeneratorConfig, "config").seed)
    return (_one(rng, config) for _ in range(_as_int(count_limit, "count")))
