"""Canonical forms of routing problems.

The service layer caches routing results by *instance content*, not by
file name: two submissions that describe the same physical problem must
hit the same cache line even when one of them is shifted inside its
region bounding box, mirrored left-for-right or top-for-bottom, or has
its nets listed under different names.  This module computes that
canonical form:

* **translation** — a problem with an explicit rectilinear region is
  normalised by cropping to the region's bounding box and translating it
  to the origin (cells outside the region are unroutable, so the crop is
  semantics-preserving; problems without a region are already anchored
  at the origin);
* **mirror** — the four elements of the axis-mirror group (identity,
  flip-x, flip-y, flip-both) are all encoded and the lexicographically
  smallest encoding wins.  Rotations are deliberately excluded: a 90°
  turn swaps the horizontal and vertical wiring layers and therefore
  does *not* produce an equivalent two-layer problem;
* **net relabeling** — net names are dropped; nets are identified by
  their (transformed, sorted) pin sets, sorted, and assigned canonical
  labels ``n1..nk``.  Pin sets are unique per net (two nets may never
  share a pin), so the relabeling is a bijection.

A :class:`CanonicalForm` carries everything needed to move a routed
result *between* isomorphic instances: the geometric transform and the
net-label bijection.  :func:`payload_to_canonical` rewrites a
:func:`repro.core.serialize.result_to_dict` payload into canonical
space; :func:`payload_from_canonical` renders a canonical payload for
any concrete instance with the same digest.  Mirroring and translating
a valid routing yields a valid routing (grid adjacency and the
horizontal/vertical layer grain are preserved by axis mirrors), so a
cached canonical result verifies on every isomorphic instance.
"""

from __future__ import annotations

import copy
import hashlib
import json
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.netlist.problem import RoutingProblem

#: The mirror group, in tie-break order (identity preferred on ties).
_VARIANTS: Tuple[Tuple[bool, bool], ...] = (
    (False, False),
    (True, False),
    (False, True),
    (True, True),
)


@dataclass(frozen=True)
class CanonicalTransform:
    """Maps original grid coordinates to canonical coordinates.

    The forward map mirrors inside the original ``width x height`` grid,
    then translates by ``(-dx, -dy)`` (the region bounding-box offset
    after mirroring; zero for full-grid problems).
    """

    mirror_x: bool
    mirror_y: bool
    dx: int
    dy: int
    width: int  # original grid extents
    height: int

    def to_canonical(self, x: int, y: int) -> Tuple[int, int]:
        """Original cell -> canonical cell."""
        if self.mirror_x:
            x = self.width - 1 - x
        if self.mirror_y:
            y = self.height - 1 - y
        return x - self.dx, y - self.dy

    def from_canonical(self, x: int, y: int) -> Tuple[int, int]:
        """Canonical cell -> original cell (inverse of to_canonical)."""
        x, y = x + self.dx, y + self.dy
        if self.mirror_x:
            x = self.width - 1 - x
        if self.mirror_y:
            y = self.height - 1 - y
        return x, y

    def rect_to_canonical(
        self, x0: int, y0: int, x1: int, y1: int
    ) -> Tuple[int, int, int, int]:
        """Half-open rectangle -> canonical half-open rectangle."""
        if self.mirror_x:
            x0, x1 = self.width - x1, self.width - x0
        if self.mirror_y:
            y0, y1 = self.height - y1, self.height - y0
        return x0 - self.dx, y0 - self.dy, x1 - self.dx, y1 - self.dy


@dataclass(frozen=True)
class CanonicalForm:
    """The canonical identity of one concrete problem instance.

    Two instances are isomorphic (identical up to translation, axis
    mirror and net relabeling) exactly when their ``digest`` values are
    equal.  ``transform`` and the two net-label maps are
    instance-specific: they say how *this* instance sits relative to the
    shared canonical space.
    """

    digest: str  # sha256 of the canonical encoding
    key: str  # the canonical encoding itself (stable JSON)
    transform: CanonicalTransform
    net_to_label: Dict[str, str]  # this instance's net name -> n<k>
    label_to_net: Dict[str, str]  # inverse
    width: int  # canonical extents
    height: int

    @property
    def cells(self) -> int:
        """Canonical grid area (the admission cost model's size term)."""
        return self.width * self.height


def _clip_rect(rect, width: int, height: int):
    """Clip a half-open rect tuple to the grid; None when empty."""
    x0, y0, x1, y1 = rect
    x0, y0 = max(0, x0), max(0, y0)
    x1, y1 = min(width, x1), min(height, y1)
    if x0 >= x1 or y0 >= y1:
        return None
    return x0, y0, x1, y1


def _encode_variant(
    problem: RoutingProblem, mirror_x: bool, mirror_y: bool
) -> Tuple[str, CanonicalTransform, List[Tuple[str, Tuple]]]:
    """Encode one mirror variant; returns (key, transform, net contents).

    ``net contents`` pairs each original net name with its transformed,
    sorted pin tuple — the identity nets are sorted and relabeled by.
    """
    width, height = problem.width, problem.height
    # Translation: crop region problems to the (mirrored) region bbox.
    dx = dy = 0
    region_rects: Optional[List[Tuple[int, int, int, int]]] = None
    if problem.region is not None:
        probe = CanonicalTransform(mirror_x, mirror_y, 0, 0, width, height)
        rects = [
            probe.rect_to_canonical(r.x0, r.y0, r.x1, r.y1)
            for r in problem.region.to_rects()
        ]
        dx = min(r[0] for r in rects)
        dy = min(r[1] for r in rects)
        region_rects = sorted(
            (r[0] - dx, r[1] - dy, r[2] - dx, r[3] - dy) for r in rects
        )
        canon_w = max(r[2] for r in region_rects)
        canon_h = max(r[3] for r in region_rects)
        # A region that covers its whole bounding box is the same
        # instance as one with no region at all: encode both as null.
        if problem.region.cell_count == canon_w * canon_h:
            region_rects = None
    else:
        canon_w, canon_h = width, height
    transform = CanonicalTransform(mirror_x, mirror_y, dx, dy, width, height)

    obstacles = []
    for obstacle in problem.obstacles:
        clipped = _clip_rect(
            (
                obstacle.rect.x0,
                obstacle.rect.y0,
                obstacle.rect.x1,
                obstacle.rect.y1,
            ),
            width,
            height,
        )
        if clipped is None:
            continue
        rect = transform.rect_to_canonical(*clipped)
        layer = (
            None if obstacle.layer is None else int(obstacle.layer)
        )
        obstacles.append((rect[0], rect[1], rect[2], rect[3], layer))
    obstacles.sort(key=lambda o: (o[:4], -1 if o[4] is None else o[4]))

    contents: List[Tuple[str, Tuple]] = []
    for net in problem.nets:
        pins = tuple(
            sorted(
                transform.to_canonical(pin.x, pin.y) + (int(pin.layer),)
                for pin in net.pins
            )
        )
        contents.append((net.name, pins))
    # Nets are identified by content; ties (only possible between pinless
    # nets, which are indistinguishable) break by original order, which
    # keeps the relabeling deterministic and still bijective.
    contents.sort(key=lambda item: item[1])

    key = json.dumps(
        {
            "w": canon_w,
            "h": canon_h,
            "region": region_rects,
            "obstacles": [list(o[:4]) + [o[4]] for o in obstacles],
            "nets": [[list(p) for p in pins] for _, pins in contents],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return key, transform, contents


def canonical_form(problem: RoutingProblem) -> CanonicalForm:
    """Compute the canonical form of ``problem`` (see module docstring)."""
    best = None
    for mirror_x, mirror_y in _VARIANTS:
        key, transform, contents = _encode_variant(
            problem, mirror_x, mirror_y
        )
        if best is None or key < best[0]:
            best = (key, transform, contents)
    key, transform, contents = best
    net_to_label = {
        name: f"n{index + 1}" for index, (name, _) in enumerate(contents)
    }
    payload = json.loads(key)
    return CanonicalForm(
        digest=hashlib.sha256(key.encode()).hexdigest(),
        key=key,
        transform=transform,
        net_to_label=net_to_label,
        label_to_net={label: name for name, label in net_to_label.items()},
        width=payload["w"],
        height=payload["h"],
    )


# ----------------------------------------------------------------------
# Result-payload remapping
# ----------------------------------------------------------------------
#: A string literal as ``repr`` writes it: single- or double-quoted.
_NAME_LITERAL = re.compile(r"'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\"")


def _remap_point(point, mapper) -> List[int]:
    x, y = mapper(point[0], point[1])
    return [x, y, point[2]]


def _remap_payload(payload: dict, mapper, net_map: Dict[str, str]) -> dict:
    """Rewrite coordinates and net labels of a result payload in place.

    ``payload`` must already be a private copy.  Net names absent from
    ``net_map`` (e.g. the empty net of engine-level trace events) pass
    through unchanged.  The victims named in weak and strong events'
    details are renamed too, unless one is absent from ``net_map``.
    """
    for entry in payload.get("connections", []):
        entry["net"] = net_map.get(entry["net"], entry["net"])
        entry["source"] = _remap_point(entry["source"], mapper)
        entry["target"] = _remap_point(entry["target"], mapper)
        if entry.get("path"):
            entry["path"] = [
                _remap_point(node, mapper) for node in entry["path"]
            ]
    # Weak and strong details list the victims' reprs, sorted.  They are
    # matched, not parsed: ``ast.literal_eval`` is not thread-safe on
    # CPython 3.11, and the daemon renders on several threads.
    renames = {repr(old): new for old, new in net_map.items()}
    for event in payload.get("events", []):
        event["net"] = net_map.get(event["net"], event["net"])
        if event["kind"] in ("weak", "strong"):
            verb, _, names = event["detail"].partition(" ")
            victims = [renames.get(n) for n in _NAME_LITERAL.findall(names)]
            if None not in victims:
                event["detail"] = f"{verb} {sorted(victims)}"
    return payload


def payload_to_canonical(payload: dict, form: CanonicalForm) -> dict:
    """A result payload of ``form``'s instance, rewritten to canonical
    space (canonical coordinates and ``n<k>`` net labels).

    The payload's ``problem`` entry is replaced by a marker — canonical
    payloads are never routed or verified directly, only re-rendered for
    a concrete instance by :func:`payload_from_canonical`.
    """
    canonical = copy.deepcopy(payload)
    canonical["problem"] = {"canonical": form.digest}
    return _remap_payload(
        canonical, form.transform.to_canonical, form.net_to_label
    )


def payload_from_canonical(
    canonical_payload: dict, form: CanonicalForm, problem_payload: dict
) -> dict:
    """Render a canonical payload for the concrete instance of ``form``.

    ``problem_payload`` is the instance's own problem dict (as accepted
    by :func:`repro.netlist.io.problem_from_dict`); it becomes the
    rendered payload's ``problem`` entry so downstream tooling
    (``repro verify``, :func:`repro.core.serialize.rebuild_grid`) sees a
    self-consistent dump.
    """
    rendered = copy.deepcopy(canonical_payload)
    rendered["problem"] = copy.deepcopy(problem_payload)
    return _remap_payload(
        rendered, form.transform.from_canonical, form.label_to_net
    )
