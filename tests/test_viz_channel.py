"""Tests for the channel-specific renderer."""

from repro.channels import MightyChannelRouter
from repro.netlist.instances import simple_channel, straight_channel
from repro.viz import render_channel


class TestRenderChannel:
    def test_problem_view(self):
        spec = simple_channel()
        art = render_channel(spec)
        lines = art.splitlines()
        assert "(top pins)" in lines[0]
        assert "(bottom pins)" in lines[-3]
        assert "(density profile)" in lines[-2]
        assert f"density={spec.density}" in lines[-1]
        assert len(lines) == 4  # no track rows without a grid

    def test_routed_view(self):
        spec = simple_channel()
        result = MightyChannelRouter().route_min_tracks(spec)
        assert result.success
        art = render_channel(spec, grid=result.grid)
        assert "-" in art or "+" in art
        # track numbering present
        assert any(line.startswith("  1 ") for line in art.splitlines())

    def test_pin_labels(self):
        art = render_channel(straight_channel())
        assert "a" in art  # net 1 labelled
        assert "c" in art  # net 3

    def test_density_profile_digits(self):
        spec = simple_channel()
        art = render_channel(spec)
        profile_line = [l for l in art.splitlines() if "density profile" in l][0]
        assert str(spec.density) in profile_line
