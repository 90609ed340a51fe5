"""Unit tests for nets and pins."""

import pytest

from repro.grid import GridNode, Layer
from repro.netlist import Net, Pin


class TestPin:
    def test_node(self):
        pin = Pin(3, 4, Layer.HORIZONTAL)
        assert pin.node == GridNode(3, 4, Layer.HORIZONTAL)

    def test_default_layer_is_vertical(self):
        assert Pin(0, 0).layer is Layer.VERTICAL

    def test_pins_are_hashable_and_ordered(self):
        pins = {Pin(0, 0), Pin(0, 0), Pin(1, 0)}
        assert len(pins) == 2
        assert Pin(0, 0) < Pin(1, 0)


class TestNet:
    def test_basic(self):
        net = Net("a", (Pin(0, 0), Pin(1, 1)))
        assert net.pin_count == 2

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Net("", (Pin(0, 0),))

    def test_rejects_duplicate_pins(self):
        with pytest.raises(ValueError):
            Net("a", (Pin(0, 0), Pin(0, 0)))

    def test_same_cell_different_layer_ok(self):
        net = Net("a", (Pin(0, 0, Layer.HORIZONTAL), Pin(0, 0, Layer.VERTICAL)))
        assert net.pin_count == 2

    def test_pins_normalised_to_tuple(self):
        net = Net("a", [Pin(0, 0), Pin(1, 0)])
        assert isinstance(net.pins, tuple)
