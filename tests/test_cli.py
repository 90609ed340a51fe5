"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.netlist.generators import random_channel
from repro.netlist.instances import simple_channel, small_switchbox
from repro.netlist.io import (
    format_channel,
    format_switchbox,
    problem_to_dict,
)
from repro.netlist.instances import obstacle_region_problem


def two_pin_problem(**fields):
    """A routable JSON problem payload with some of its fields replaced."""
    payload = {
        "name": "two-pin",
        "width": 6,
        "height": 4,
        "nets": [{"name": "a", "pins": [[0, 0, "V"], [5, 3, "V"]]}],
        "obstacles": [],
    }
    payload.update(fields)
    return payload


def _first_pin(pin):
    return two_pin_problem(nets=[{"name": "a", "pins": [pin, [5, 3, "V"]]}])


#: JSON problems of the wrong shape.  Each is an input error (exit 2, one
#: ``error:`` line, the daemon's ``kind: "input"``), never a traceback.
MALFORMED_PROBLEMS = {
    "pin-one-coordinate": _first_pin([1]),
    "pin-layer-not-a-tag": _first_pin([1, 0, 0]),
    "pin-unknown-layer": _first_pin([1, 0, "Q"]),
    "obstacle-unknown-layer": two_pin_problem(
        obstacles=[{"rect": [2, 1, 3, 2], "layer": "Q"}]
    ),
    "obstacle-degenerate-rect": two_pin_problem(
        obstacles=[{"rect": [5, 5, 1, 1]}]
    ),
    "region-degenerate-rect": two_pin_problem(region=[[5, 5, 1, 1]]),
    "net-without-name": two_pin_problem(
        nets=[{"name": "", "pins": [[0, 0, "V"], [5, 3, "V"]]}]
    ),
    "net-with-duplicate-pins": _first_pin([5, 3, "V"]),
}

#: Geometry the grid cannot hold, with the words the refusal names it
#: by: non-integer coordinates and extents, and a region or obstacle
#: past the grid's edge.  Each used to reach ``build_grid`` and fail
#: there with a traceback (exit 1; the daemon's ``worker crashed``).
UNBUILDABLE_PROBLEMS = {
    "pin-fractional-x": (_first_pin([1.5, 0, "V"]), "non-integer coordinate"),
    "width-fractional": (two_pin_problem(width=6.5), "are not integers"),
    "obstacle-fractional-rect": (
        two_pin_problem(obstacles=[{"rect": [0.5, 0, 1, 1]}]),
        "non-integer corners",
    ),
    "region-past-the-grid": (
        two_pin_problem(region=[[0, 0, 10, 10]]),
        "does not fit a 6x4 grid",
    ),
    "obstacle-past-the-grid": (
        two_pin_problem(obstacles=[{"rect": [2, 1, 10, 2], "layer": "H"}]),
        "does not fit a 6x4 grid",
    ),
}
MALFORMED_PROBLEMS.update(
    (name, payload) for name, (payload, _words) in UNBUILDABLE_PROBLEMS.items()
)

#: Two pins on a 3000x3000 grid: more nodes than a search key indexes.
UNINDEXABLE_PROBLEM = two_pin_problem(
    width=3000,
    height=3000,
    nets=[{"name": "a", "pins": [[0, 0, "V"], [2999, 2999, "V"]]}],
)


@pytest.fixture
def channel_file(tmp_path):
    path = tmp_path / "chan.txt"
    path.write_text(format_channel(simple_channel()))
    return path


@pytest.fixture
def switchbox_file(tmp_path):
    path = tmp_path / "box.txt"
    path.write_text(format_switchbox(small_switchbox()))
    return path


class TestInfo:
    def test_channel_info(self, channel_file, capsys):
        assert main(["info", str(channel_file)]) == 0
        out = capsys.readouterr().out
        assert "density: 3" in out
        assert "VCG cycle: no" in out

    def test_switchbox_info(self, switchbox_file, capsys):
        assert main(["info", str(switchbox_file)]) == 0
        out = capsys.readouterr().out
        assert "6x5" in out

    def test_channel_info_json(self, channel_file, capsys):
        assert main(["info", str(channel_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "channel"
        assert payload["density"] == 3
        assert payload["vcg_cycle"] is False

    def test_switchbox_info_json(self, switchbox_file, capsys):
        assert main(["info", str(switchbox_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "switchbox"
        assert (payload["width"], payload["height"]) == (6, 5)
        assert payload["nets"] > 0

    def test_problem_info_json(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(
            problem_to_dict(obstacle_region_problem())
        ))
        assert main(["info", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "problem"
        assert payload["pins"] > 0


class TestRoute:
    def test_route_switchbox(self, switchbox_file, capsys):
        assert main(["route", str(switchbox_file)]) == 0
        out = capsys.readouterr().out
        assert "COMPLETE" in out
        assert "VERIFIED" in out

    def test_route_channel_with_tracks(self, channel_file, capsys):
        assert main(["route", str(channel_file), "--tracks", "4"]) == 0
        out = capsys.readouterr().out
        assert "tracks used" in out

    @pytest.mark.parametrize("tracks", ["0", "-2"])
    def test_route_nonpositive_tracks_exit_2(
        self, channel_file, capsys, tracks
    ):
        """Not silently one track (``-2``) or the density (``0``)."""
        assert main(["route", str(channel_file), "--tracks", tracks]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --tracks must be >= 1, got {tracks}\n"

    def test_route_ascii(self, switchbox_file, capsys):
        assert main(["route", str(switchbox_file), "--ascii"]) == 0
        out = capsys.readouterr().out
        assert "." in out or "-" in out

    def test_route_svg(self, switchbox_file, tmp_path, capsys):
        svg_path = tmp_path / "out.svg"
        assert (
            main(["route", str(switchbox_file), "--svg", str(svg_path)]) == 0
        )
        assert svg_path.read_text().startswith("<svg")

    def test_route_naive_router(self, switchbox_file, capsys):
        # the naive router may legitimately fail on this box; the CLI must
        # run it and report honestly either way
        code = main(["route", str(switchbox_file), "--router", "naive"])
        out = capsys.readouterr().out
        assert "maze-sequential" in out
        assert code in (0, 4)

    def test_route_json_problem(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(problem_to_dict(obstacle_region_problem())))
        assert main(["route", str(path)]) == 0

    def test_failing_route_nonzero_exit(self, channel_file):
        # one track cannot fit a density-3 channel: exit 4 (infeasible)
        assert main(["route", str(channel_file), "--tracks", "1"]) == 4


class TestSweepAndImprove:
    def test_route_with_improve(self, switchbox_file, capsys):
        assert main(["route", str(switchbox_file), "--improve"]) == 0
        out = capsys.readouterr().out
        assert "improvement:" in out

    def test_sweep_switchbox(self, switchbox_file, capsys):
        assert main(["sweep", str(switchbox_file)]) == 0
        out = capsys.readouterr().out
        assert "minimum-width sweep" in out
        assert "mighty" in out and "maze-sequential" in out

    def test_verify_result_dump(self, tmp_path, capsys):
        from repro.core import route_problem
        from repro.core.serialize import save_result

        result = route_problem(small_switchbox().to_problem())
        dump = tmp_path / "result.json"
        save_result(dump, result)
        assert main(["verify", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out

    def test_verify_json(self, tmp_path, capsys):
        from repro.core import route_problem
        from repro.core.serialize import save_result

        result = route_problem(small_switchbox().to_problem())
        dump = tmp_path / "result.json"
        save_result(dump, result)
        assert main(["verify", str(dump), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["errors"] == []
        assert payload["wire_cells"] > 0

    def test_verify_json_reports_failures(self, tmp_path, capsys):
        from repro.core import route_problem
        from repro.core.serialize import result_to_dict

        result = route_problem(small_switchbox().to_problem())
        payload = result_to_dict(result)
        payload["connections"] = []  # drop all copper: every net is open
        dump = tmp_path / "broken.json"
        dump.write_text(json.dumps(payload))
        assert main(["verify", str(dump), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["open_nets"]


class TestStructuredErrors:
    def test_missing_file_exit_2_no_traceback(self, capsys):
        assert main(["route", "/nonexistent/file.txt"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_malformed_channel_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("top: 1 2 3\nbottom: 1 2\n")  # mismatched columns
        assert main(["route", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "malformed" in err

    @pytest.mark.parametrize("command", ["info", "route"])
    @pytest.mark.parametrize("key", ["width", "height"])
    @pytest.mark.parametrize("value", ["abc", "2.5", "6 5"])
    def test_non_integer_switchbox_extent_exit_2(
        self, tmp_path, capsys, command, key, value
    ):
        """A switchbox extent is read like its pin rows: a bad one is one
        ``error:`` line naming the key (it was a ValueError traceback,
        exit 1)."""
        box = small_switchbox()
        line = f"{key}: {getattr(box, key)}\n"
        path = tmp_path / "bad.txt"
        path.write_text(
            format_switchbox(box).replace(line, f"{key}: {value}\n")
        )
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed switchbox file")
        assert repr(key) in err and len(err.splitlines()) == 1

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["route", str(path)]) == 2
        err = capsys.readouterr().err
        assert "malformed" in err and "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(MALFORMED_PROBLEMS))
    def test_malformed_problem_payload_exit_2(self, tmp_path, capsys, name):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(MALFORMED_PROBLEMS[name]))
        assert main(["route", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed problem file")
        assert len(err.splitlines()) == 1

    def test_unindexable_grid_is_refused_before_it_is_built(
        self, tmp_path, capsys, monkeypatch
    ):
        """Refused as the problem is read (exit 2), before any grid is
        built, instead of failing its one search as "infeasible" (exit
        4)."""
        from repro.netlist.problem import RoutingProblem

        def build_grid(problem):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(RoutingProblem, "build_grid", build_grid)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(UNINDEXABLE_PROBLEM))
        assert main(["route", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "18000000 nodes" in err

    @pytest.mark.parametrize("name", sorted(UNBUILDABLE_PROBLEMS))
    def test_unbuildable_geometry_is_refused_before_the_grid(
        self, tmp_path, capsys, monkeypatch, name
    ):
        """Refused as the problem is read, with one line that names what
        is wrong, before any grid is built."""
        from repro.netlist.problem import RoutingProblem

        def build_grid(problem):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(RoutingProblem, "build_grid", build_grid)
        payload, words = UNBUILDABLE_PROBLEMS[name]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["route", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed problem file")
        assert words in err and len(err.splitlines()) == 1

    def test_malformed_result_dump_exit_2(self, tmp_path, capsys):
        path = tmp_path / "dump.json"
        path.write_text('{"unexpected": true}')
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bogus_kernel_env_exit_2(self, channel_file, monkeypatch, capsys):
        """A bad REPRO_KERNEL must be a loud input error on every command
        — resolved lazily it used to surface as per-connection search
        failures and a misleading infeasible exit."""
        from repro.maze import kernels

        monkeypatch.setenv(kernels.ENV_VAR, "warp9")
        kernels._reset_for_tests()
        try:
            for argv in (
                ["route", str(channel_file)],
                ["bench", "--only", "chan-simple"],
                ["info", str(channel_file)],
            ):
                assert main(argv) == 2
                err = capsys.readouterr().err
                assert err.startswith("error:")
                assert "REPRO_KERNEL" in err and "Traceback" not in err
        finally:
            kernels._reset_for_tests()

    def test_removed_vector_kernel_exit_2(
        self, channel_file, monkeypatch, capsys
    ):
        """``REPRO_KERNEL`` accepts exactly the shipped backends plus
        auto; the deleted ``vector`` backend is an input error."""
        from repro.maze import kernels

        monkeypatch.setenv(kernels.ENV_VAR, "vector")
        kernels._reset_for_tests()
        try:
            for argv in (
                ["route", str(channel_file)],
                ["bench", "--only", "chan-simple"],
            ):
                assert main(argv) == 2
                err = capsys.readouterr().err
                assert "'vector' names an unknown kernel backend" in err
        finally:
            kernels._reset_for_tests()


class TestResilientFlags:
    def test_deadline_partial_exit_3(self, channel_file, capsys):
        # an impossible channel under a zero deadline: partial result,
        # exit 3, and no traceback
        code = main(
            ["route", str(channel_file), "--tracks", "1", "--deadline", "0"]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "deadline hit" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["route", "{file}", "--on-timeout", "raise"],
            # ``--workers 0`` stops a parser that took the flag from
            # starting a daemon.
            ["serve", "--socket", "{file}.sock", "--workers", "0",
             "--admission-factor", "2"],
        ],
    )
    def test_removed_flags_exit_2(self, channel_file, capsys, argv):
        # The outcome is the result (exit 3/4); admission sheds at the
        # deadline.  Neither has a flag left to set.
        with pytest.raises(SystemExit) as excinfo:
            main([arg.format(file=channel_file) for arg in argv])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_max_attempts_enables_fallback(self, channel_file, capsys):
        # density-1 track count is infeasible for Mighty, but the fallback
        # cascade may extend the channel; either full success or exit 4
        code = main(
            ["route", str(channel_file), "--tracks", "1",
             "--max-attempts", "2"]
        )
        assert code in (0, 4)

    def test_escalation_prints_one_line_per_attempt(self, tmp_path, capsys):
        # At density the shortest-first attempt stops converging and is
        # paused; the longest-first probe completes.
        path = tmp_path / "fig.txt"
        path.write_text(format_channel(random_channel(28, 10, seed=23)))
        assert main(["route", str(path), "--max-attempts", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "COMPLETE" in lines[0]
        assert lines[1].startswith("  mighty attempt 0 shortest: ")
        assert "stalled (paused at iteration " in lines[1]
        assert lines[2].startswith("  mighty attempt 1 longest: 35/35 ")
        assert "complete" in lines[2] and "paused" not in lines[2]
        assert lines[3].startswith("VERIFIED")

    def test_one_attempt_prints_no_attempt_lines(self, channel_file, capsys):
        assert main(["route", str(channel_file)]) == 0
        assert "attempt" not in capsys.readouterr().out

    def test_generous_deadline_still_routes(self, switchbox_file):
        assert main(["route", str(switchbox_file), "--deadline", "60"]) == 0

    def test_negative_deadline_is_input_error(self, switchbox_file, capsys):
        assert main(["route", str(switchbox_file), "--deadline", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_zero_max_attempts_is_input_error(self, switchbox_file, capsys):
        assert (
            main(["route", str(switchbox_file), "--max-attempts", "0"]) == 2
        )
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_sweep_deadline_is_input_error(
        self, switchbox_file, capsys
    ):
        assert main(["sweep", str(switchbox_file), "--deadline", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestGenerate:
    def test_generate_channel_stdout(self, capsys):
        assert main(["generate", "channel", "--columns", "10", "--nets", "4"]) == 0
        out = capsys.readouterr().out
        assert "top:" in out and "bottom:" in out

    def test_generate_switchbox_file(self, tmp_path, capsys):
        path = tmp_path / "gen.txt"
        assert main(
            ["generate", "switchbox", "--columns", "8", "--rows", "6",
             "--nets", "4", "-o", str(path)]
        ) == 0
        assert "width: 8" in path.read_text()

    def test_generate_then_route_round_trip(self, tmp_path):
        path = tmp_path / "gen.txt"
        assert main(
            ["generate", "channel", "--columns", "12", "--nets", "5",
             "--seed", "3", "-o", str(path)]
        ) == 0
        assert main(["route", str(path), "--tracks", "12"]) in (0, 4)

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "channel", "--nets", "0"],
            ["generate", "channel", "--columns", "0"],
            ["generate", "switchbox", "--rows", "1", "--columns", "1",
             "--nets", "3"],
        ],
        ids=["no-nets", "no-columns", "too-few-slots"],
    )
    def test_generate_unfillable_size_exit_2(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_generate_deterministic(self, capsys):
        main(["generate", "channel", "--seed", "9"])
        first = capsys.readouterr().out
        main(["generate", "channel", "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second


class TestServeFlags:
    def test_every_service_setting_has_a_flag(self, monkeypatch, tmp_path):
        """``repro serve`` sets every ``ServiceConfig`` field but the
        socket path from a flag: the daemon has no setting a user
        cannot reach."""
        import dataclasses

        import repro.service as service

        seen = {}

        class CapturingService:
            def __init__(self, config, on_event=None):
                seen["config"] = config

            async def run(self):
                return 0

        monkeypatch.setattr(service, "RoutingService", CapturingService)
        flags = {
            "workers": ("--workers", "3", 3),
            "queue_limit": ("--queue-limit", "5", 5),
            "default_deadline_s": ("--deadline", "7.5", 7.5),
            "max_attempts": ("--max-attempts", "4", 4),
            "cache_capacity": ("--cache-size", "9", 9),
            "cache_dir": ("--cache-dir", str(tmp_path), str(tmp_path)),
            "reap_grace_s": ("--reap-grace", "2.5", 2.5),
        }
        argv = ["serve", "--socket", str(tmp_path / "s.sock")]
        for flag, text, _value in flags.values():
            argv += [flag, text]
        assert main(argv) == 0
        config = seen["config"]
        fields = {field.name for field in dataclasses.fields(config)}
        assert fields - {"socket_path"} == set(flags)
        for name, (_flag, _text, value) in flags.items():
            assert getattr(config, name) == value, name
