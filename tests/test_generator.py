"""Random instance generation: determinism and shape guarantees."""

from __future__ import annotations

import itertools
import random
import sys

import pytest

from fairchores import GeneratorConfig, InputError, Instance, generate, ido_order
from fairchores.generator import _one
from fairchores.instances import MAX_VALUE


def randint_one(rng: random.Random, config: GeneratorConfig) -> Instance:
    """The generator's instance draw frozen as one ``randint`` call per value."""
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


class TestGenerate:
    def test_same_seed_same_stream(self):
        config = GeneratorConfig(seed=77)
        first = list(generate(config, 20))
        second = list(generate(config, 20))
        assert first == second

    def test_different_seeds_differ(self):
        a = list(generate(GeneratorConfig(seed=1), 10))
        b = list(generate(GeneratorConfig(seed=2), 10))
        assert a != b

    def test_ido_only(self):
        config = GeneratorConfig(seed=5, ido_only=True)
        for inst in generate(config, 30):
            assert ido_order(inst) is not None

    def test_value_max_one(self):
        config = GeneratorConfig(seed=9, value_max=1)
        for inst in generate(config, 20):
            assert all(v in (0, 1) for row in inst.valuations for v in row)

    def test_ranges_respected(self):
        config = GeneratorConfig(seed=3, agents=(2, 4), chores=(2, 9))
        for inst in generate(config, 50):
            assert 2 <= inst.num_agents <= 4
            assert inst.num_agents <= inst.num_chores <= 9

    def test_config_validation(self):
        with pytest.raises(InputError):
            GeneratorConfig(seed=1, agents=(0, 2))
        with pytest.raises(InputError):
            GeneratorConfig(seed=1, agents=(3, 2))
        with pytest.raises(InputError):
            GeneratorConfig(seed=1, chores=(5, 4))
        with pytest.raises(InputError):
            GeneratorConfig(seed=1, value_max=0)

    @pytest.mark.parametrize("field", ["agents", "chores"])
    @pytest.mark.parametrize("bad", [(1,), (), (1, 2, 3), itertools.count(1)])
    def test_ranges_are_pairs(self, field, bad):
        # An endless iterable is refused after its third item.
        with pytest.raises(InputError, match=f"^{field} must be a \\(low, high\\) pair$"):
            GeneratorConfig(seed=1, **{field: bad})

    def test_any_iterable_pair_is_a_range(self):
        config = GeneratorConfig(seed=4, agents=[2, 3], chores=iter((3, 6)))
        assert (config.agents, config.chores) == ((2, 3), (3, 6))
        assert list(generate(config, 5)) == list(
            generate(GeneratorConfig(seed=4, agents=(2, 3), chores=(3, 6)), 5)
        )

    @pytest.mark.parametrize(
        "config",
        [
            GeneratorConfig(seed=5),
            GeneratorConfig(seed=5, ido_only=True),
            GeneratorConfig(seed=5, value_max=MAX_VALUE),
            GeneratorConfig(seed=5, chores=(0, 6)),
        ],
        ids=["default", "ido_only", "value_max", "chore_floor_0"],
    )
    def test_instances_pass_the_public_constructor(self, config):
        # The generator builds its instances unchecked: each must equal
        # the checked build of its own rows, which are tuples.
        for inst in generate(config, 200):
            assert inst == Instance.from_rows(inst.valuations)
            assert all(type(row) is tuple for row in inst.valuations)

    def test_every_integer_seed_seeds_the_stream(self):
        # Negative seeds and seeds past sys.maxsize, which the CLI takes
        # too, go to random.Random unchanged.
        for seed in (-7, 0, sys.maxsize + 1, 2**200):
            config = GeneratorConfig(seed=seed)
            rng = random.Random(seed)
            expected = [_one(rng, config) for _ in range(3)]
            assert list(generate(config, 3)) == expected


# randint(0, value_max) draws (value_max + 1).bit_length() bits and
# rejects draws above value_max: a quarter of them at 2, few at 1000 and
# about half at the others. Each draw takes one 32-bit word of the
# generator up to 2**31 and two from 2**32 on.
VALUE_MAXES = (1, 2, 3, 1000, 2**31, 2**32, 2**32 + 1, 2**63 - 1)


@pytest.mark.parametrize("chores", [(0, 0), (0, 9)])
@pytest.mark.parametrize("ido_only", [False, True])
@pytest.mark.parametrize("value_max", VALUE_MAXES)
def test_stream_equals_randint_draws(value_max, ido_only, chores):
    config = GeneratorConfig(
        seed=value_max, agents=(1, 4), chores=chores, value_max=value_max, ido_only=ido_only
    )
    rng, frozen = random.Random(config.seed), random.Random(config.seed)
    expected = []
    for _ in range(30):
        expected.append(randint_one(frozen, config))
        assert _one(rng, config) == expected[-1]
        assert rng.getstate() == frozen.getstate()
    assert list(generate(config, 30)) == expected
