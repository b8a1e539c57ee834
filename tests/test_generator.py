"""Random instance generation: determinism and shape guarantees."""

from __future__ import annotations

import random
import sys

import pytest

from fairchores import GeneratorConfig, InputError, generate, is_ido
from fairchores.generator import _one


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
            assert is_ido(inst)

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

    def test_every_integer_seed_seeds_the_stream(self):
        # Negative seeds and seeds past sys.maxsize, which the CLI takes
        # too, go to random.Random unchanged.
        for seed in (-7, 0, sys.maxsize + 1, 2**200):
            config = GeneratorConfig(seed=seed)
            rng = random.Random(seed)
            expected = [_one(rng, config) for _ in range(3)]
            assert list(generate(config, 3)) == expected
