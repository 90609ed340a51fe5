"""Plain-text and JSON problem formats.

Two line-oriented formats mirror how the classic benchmarks circulate:

Channel files::

    # anything after a hash is a comment
    name: deutsch-class
    top:    1 0 2 3 1
    bottom: 2 1 0 3 0

Switchbox files::

    name: burstein-class
    width: 23
    height: 15
    top:    ...width numbers...
    bottom: ...width numbers...
    left:   ...height numbers...
    right:  ...height numbers...

General :class:`~repro.netlist.problem.RoutingProblem` instances round-trip
through JSON (:func:`problem_to_dict` / :func:`problem_from_dict`), covering
irregular regions, layer-specific obstacles and interior pins.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.geometry.rect import Rect
from repro.geometry.region import RectilinearRegion
from repro.grid.layers import Layer
from repro.netlist.channel import ChannelSpec
from repro.netlist.net import Net, Pin
from repro.netlist.problem import Obstacle, ProblemError, RoutingProblem
from repro.netlist.switchbox import SwitchboxSpec

PathLike = Union[str, Path]


class FormatError(ValueError):
    """Raised for malformed problem files."""


def _key_value_lines(
    text: str, kind: str, required: Tuple[str, ...]
) -> Dict[str, str]:
    """Parse ``key: value`` lines, dropping comments and blank lines; a
    ``kind`` file must give every ``required`` key."""
    result: Dict[str, str] = {}
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise FormatError(f"expected 'key: value', got {raw_line!r}")
        key, value = line.split(":", 1)
        key = key.strip().lower()
        if key in result:
            raise FormatError(f"duplicate key {key!r}")
        result[key] = value.strip()
    for key in required:
        if key not in result:
            raise FormatError(f"{kind} file is missing {key!r}")
    return result


def _int_row(value: str, key: str) -> List[int]:
    try:
        return [int(token) for token in value.split()]
    except ValueError as exc:
        raise FormatError(f"non-integer entry in {key!r}: {exc}") from None


def _int_value(fields: Dict[str, str], key: str) -> int:
    """The one integer of ``key``, read the way the pin rows are."""
    row = _int_row(fields[key], key)
    if len(row) != 1:
        raise FormatError(f"{key!r} must be one integer, got {fields[key]!r}")
    return row[0]


# ----------------------------------------------------------------------
# Channels
# ----------------------------------------------------------------------
def parse_channel(text: str) -> ChannelSpec:
    """Parse the channel text format."""
    fields = _key_value_lines(text, "channel", ("top", "bottom"))
    try:
        return ChannelSpec(
            top=tuple(_int_row(fields["top"], "top")),
            bottom=tuple(_int_row(fields["bottom"], "bottom")),
            name=fields.get("name", "channel"),
        )
    except ProblemError as exc:
        raise FormatError(str(exc)) from None


def format_channel(spec: ChannelSpec) -> str:
    """Render a channel back to its text format."""
    return (
        f"name: {spec.name}\n"
        f"top: {' '.join(map(str, spec.top))}\n"
        f"bottom: {' '.join(map(str, spec.bottom))}\n"
    )


def load_channel(path: PathLike) -> ChannelSpec:
    """Read a channel file from disk."""
    return parse_channel(Path(path).read_text())


def save_channel(path: PathLike, spec: ChannelSpec) -> None:
    """Write a channel file to disk."""
    Path(path).write_text(format_channel(spec))


# ----------------------------------------------------------------------
# Switchboxes
# ----------------------------------------------------------------------
def parse_switchbox(text: str) -> SwitchboxSpec:
    """Parse the switchbox text format."""
    keys = ("width", "height", "top", "bottom", "left", "right")
    fields = _key_value_lines(text, "switchbox", keys)
    try:
        return SwitchboxSpec(
            width=_int_value(fields, "width"),
            height=_int_value(fields, "height"),
            top=tuple(_int_row(fields["top"], "top")),
            bottom=tuple(_int_row(fields["bottom"], "bottom")),
            left=tuple(_int_row(fields["left"], "left")),
            right=tuple(_int_row(fields["right"], "right")),
            name=fields.get("name", "switchbox"),
        )
    except ProblemError as exc:
        raise FormatError(str(exc)) from None


def format_switchbox(spec: SwitchboxSpec) -> str:
    """Render a switchbox back to its text format."""
    return (
        f"name: {spec.name}\n"
        f"width: {spec.width}\n"
        f"height: {spec.height}\n"
        f"top: {' '.join(map(str, spec.top))}\n"
        f"bottom: {' '.join(map(str, spec.bottom))}\n"
        f"left: {' '.join(map(str, spec.left))}\n"
        f"right: {' '.join(map(str, spec.right))}\n"
    )


def load_switchbox(path: PathLike) -> SwitchboxSpec:
    """Read a switchbox file from disk."""
    return parse_switchbox(Path(path).read_text())


def save_switchbox(path: PathLike, spec: SwitchboxSpec) -> None:
    """Write a switchbox file to disk."""
    Path(path).write_text(format_switchbox(spec))


# ----------------------------------------------------------------------
# General problems (JSON)
# ----------------------------------------------------------------------
def problem_to_dict(problem: RoutingProblem) -> dict:
    """Serialise a :class:`RoutingProblem` to JSON-compatible primitives."""
    payload: dict = {
        "name": problem.name,
        "width": problem.width,
        "height": problem.height,
        "nets": [
            {
                "name": net.name,
                "pins": [
                    [pin.x, pin.y, Layer(pin.layer).short_name]
                    for pin in net.pins
                ],
            }
            for net in problem.nets
        ],
        "obstacles": [
            {
                "rect": [o.rect.x0, o.rect.y0, o.rect.x1, o.rect.y1],
                "layer": None if o.layer is None else Layer(o.layer).short_name,
            }
            for o in problem.obstacles
        ],
    }
    if problem.region is not None:
        payload["region"] = [
            [r.x0, r.y0, r.x1, r.y1] for r in problem.region.to_rects()
        ]
    return payload


def problem_from_dict(payload: dict) -> RoutingProblem:
    """Inverse of :func:`problem_to_dict`.

    A payload of the wrong shape (a missing key, a pin that is not
    ``[x, y, tag]``, an unknown layer tag, a degenerate rect) is a
    :class:`FormatError`; a well-formed payload that describes an
    ill-formed problem is the :class:`ProblemError` the problem raises.
    """
    try:
        nets = [
            Net(
                entry["name"],
                tuple(
                    Pin(x, y, Layer.from_short_name(tag))
                    for x, y, tag in entry["pins"]
                ),
            )
            for entry in payload["nets"]
        ]
        obstacles = [
            Obstacle(
                Rect(*entry["rect"]),
                None
                if entry.get("layer") is None
                else Layer.from_short_name(entry["layer"]),
            )
            for entry in payload.get("obstacles", [])
        ]
        region = None
        if "region" in payload:
            region = RectilinearRegion(
                [Rect(*coords) for coords in payload["region"]]
            )
        return RoutingProblem(
            width=payload["width"],
            height=payload["height"],
            nets=nets,
            region=region,
            obstacles=obstacles,
            name=payload.get("name", "problem"),
        )
    except ProblemError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed problem payload: {exc}") from None


def load_problem(path: PathLike) -> RoutingProblem:
    """Read a JSON problem file from disk."""
    return problem_from_dict(json.loads(Path(path).read_text()))


def save_problem(path: PathLike, problem: RoutingProblem) -> None:
    """Write a JSON problem file to disk."""
    Path(path).write_text(json.dumps(problem_to_dict(problem), indent=2))
