"""Unit tests for the cost model."""

import pytest

from repro.maze import CostModel


class TestCostModel:
    def test_defaults_positive(self):
        model = CostModel()
        assert model.via_cost >= 1

    def test_wire_step(self):
        model = CostModel(wrong_way_penalty=2)
        assert model.wire_step(with_grain=True) == 1
        assert model.wire_step(with_grain=False) == 3

    def test_uniform(self):
        model = CostModel.uniform()
        assert model.wire_step(True) == model.wire_step(False) == 1
        assert model.via_cost == 1

    def test_rejects_free_via(self):
        with pytest.raises(ValueError, match="via_cost must be at least 1"):
            CostModel(via_cost=0)

    def test_step_cost_is_not_a_setting(self):
        with pytest.raises(TypeError):
            CostModel(step_cost=2)

    def test_rejects_negative_penalties(self):
        with pytest.raises(ValueError):
            CostModel(via_cost=-1)
        with pytest.raises(ValueError):
            CostModel(wrong_way_penalty=-1)
        with pytest.raises(ValueError):
            CostModel(conflict_penalty=-1)

    def test_frozen(self):
        with pytest.raises(Exception):
            CostModel().via_cost = 5
