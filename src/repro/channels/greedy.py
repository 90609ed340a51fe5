"""A greedy column-sweep channel router (after Rivest & Fiduccia, DAC 1982).

The router sweeps the channel left to right, wiring one column at a time:

1. *bring in* each pin of the column — connect it vertically to a track the
   net already holds, or claim a fresh track (possibly splitting the net
   over several tracks);
2. *collapse* split nets — join two of a net's tracks with a vertical jog
   whenever the column has room, freeing a track;
3. *retire* nets whose pins are all in and that hold a single track.

Like the original, a net still split after the last column is chased into
*extension columns* appended to the channel's right end; the number of
extension columns used is part of the reported result.  The implementation
is a faithful simplification: the original's range-shrinking and
steering-toward-next-pin jogs are omitted (they reduce track count by small
amounts but do not change the algorithm's character).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.channels.base import (
    ChannelResult,
    ChannelRouter,
    HWire,
    VWire,
    realize_wires,
)
from repro.netlist.channel import ChannelSpec

#: Extension columns a split net may be chased into past the right end.
MAX_EXTENSION = 16


@dataclass
class _SweepState:
    """Mutable state of the column sweep."""

    tracks: int
    track_net: List[int] = field(default_factory=list)  # 1-based, 0 = free
    run_start: Dict[int, int] = field(default_factory=dict)
    freed_at: Dict[int, int] = field(default_factory=dict)
    held: Dict[int, Set[int]] = field(default_factory=dict)
    remaining: Dict[int, int] = field(default_factory=dict)
    hwires: List[HWire] = field(default_factory=list)
    vwires: List[VWire] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.track_net = [0] * (self.tracks + 1)

    def row(self, track: int) -> int:
        return self.tracks + 1 - track

    @property
    def top_row(self) -> int:
        return self.tracks + 1

    def claim(self, track: int, net: int, column: int) -> None:
        self.track_net[track] = net
        self.run_start[track] = column
        self.held.setdefault(net, set()).add(track)

    def release(self, track: int, column: int) -> None:
        net = self.track_net[track]
        self.hwires.append(
            HWire(net, track, self.run_start[track], column)
        )
        self.track_net[track] = 0
        self.freed_at[track] = column
        self.held[net].discard(track)

    def claimable(self, track: int, column: int) -> bool:
        return (
            self.track_net[track] == 0
            and self.freed_at.get(track, -1) < column
        )


class GreedyRouter(ChannelRouter):
    """Greedy column-sweep channel router."""

    name = "greedy"

    def route(self, spec: ChannelSpec, tracks: int) -> ChannelResult:
        """Attempt the greedy algorithm at a fixed track count."""
        plan = self._sweep(spec, tracks)
        if isinstance(plan, str):
            return ChannelResult(
                spec=spec,
                tracks=tracks,
                success=False,
                router=self.name,
                reason=plan,
            )
        state, extension = plan
        realized_spec = spec
        if extension:
            realized_spec = ChannelSpec(
                spec.top + (0,) * extension,
                spec.bottom + (0,) * extension,
                name=f"{spec.name}+{extension}",
            )
        result = realize_wires(
            realized_spec, tracks, state.hwires, state.vwires, self.name
        )
        result.extension_columns = extension
        return result

    # ------------------------------------------------------------------
    # The sweep itself
    # ------------------------------------------------------------------
    def _sweep(
        self, spec: ChannelSpec, tracks: int
    ):
        state = _SweepState(tracks)
        pin_columns: Dict[int, List[int]] = {}
        for net in spec.net_numbers():
            columns = [column for column, _ in spec.pins_of(net)]
            pin_columns[net] = sorted(columns)
            state.remaining[net] = len(columns)
            state.held[net] = set()

        width = spec.n_columns
        for column in range(width + MAX_EXTENSION):
            verticals: List[Tuple[int, int, int]] = []  # (lo, hi, net)

            def v_free(lo: int, hi: int, net: int) -> bool:
                return all(
                    other == net or hi < other_lo or lo > other_hi
                    for other_lo, other_hi, other in verticals
                )

            def add_v(lo: int, hi: int, net: int) -> None:
                verticals.append((lo, hi, net))
                state.vwires.append(VWire(net, column, lo, hi))

            if column < width:
                error = self._bring_in_pins(
                    spec, state, column, v_free, add_v
                )
                if error:
                    return error
            self._collapse(state, column, v_free, add_v)
            self._retire(spec, state, column, pin_columns)
            if column >= width - 1 and not any(state.held.values()):
                return state, max(0, column - width + 1)
        return (
            f"nets still split after {MAX_EXTENSION} extension columns"
        )

    def _bring_in_pins(
        self, spec: ChannelSpec, state: _SweepState, column: int, v_free, add_v
    ) -> Optional[str]:
        top, bottom = spec.top[column], spec.bottom[column]
        if top and top == bottom:
            return self._straight_through(state, top, column, v_free, add_v)
        pending = []
        for shore, net in (("T", top), ("B", bottom)):
            if not net:
                continue
            if not _needs_routing(spec, net):
                state.remaining[net] -= 1
                continue
            pending.append((shore, net))
        if not pending:
            return None
        if len(pending) == 1:
            shore, net = pending[0]
            if not self._place_pin(state, net, shore, column, v_free, add_v):
                return f"stuck at column {column} (net {net} {shore} pin)"
            state.remaining[net] -= 1
            return None
        # Both shores have a pin: choose the pair of connections jointly so
        # one pin's vertical cannot wall off the other (and so that split
        # nets are created only when unavoidable).
        if not self._place_pin_pair(state, pending, column, v_free, add_v):
            return f"stuck at column {column} (pin pair)"
        for _, net in pending:
            state.remaining[net] -= 1
        return None

    def _candidates(
        self, state: _SweepState, net: int, shore: str, column: int, v_free
    ) -> List[Tuple[Tuple[int, int, int], int, int, int]]:
        """Feasible ``((split, gap, length), track, lo, hi)`` pin options.

        Ranking: no-split connections first; among splits, the track nearest
        the net's existing wiring (small ``gap``) so the split collapses
        cheaply in a later column; length last (the original's minimal
        vertical rule).
        """
        held_rows = [state.row(t) for t in state.held[net]]
        result = []
        for track in range(1, state.tracks + 1):
            holds_net = state.track_net[track] == net
            if not holds_net and not state.claimable(track, column):
                continue
            row = state.row(track)
            lo, hi = (row, state.top_row) if shore == "T" else (0, row)
            if not v_free(lo, hi, net):
                continue
            split = 1 if (held_rows and not holds_net) else 0
            gap = (
                min(abs(row - r) for r in held_rows)
                if split
                else 0
            )
            result.append(((split, gap, hi - lo), track, lo, hi))
        result.sort()
        return result

    def _place_pin(
        self, state: _SweepState, net: int, shore: str, column: int,
        v_free, add_v,
    ) -> bool:
        candidates = self._candidates(state, net, shore, column, v_free)
        if not candidates:
            return False
        _, track, lo, hi = candidates[0]
        if state.track_net[track] != net:
            state.claim(track, net, column)
        add_v(lo, hi, net)
        return True

    def _place_pin_pair(
        self, state: _SweepState, pending, column: int, v_free, add_v
    ) -> bool:
        (shore_a, net_a), (shore_b, net_b) = pending
        best = None
        for cost_a, track_a, lo_a, hi_a in self._candidates(
            state, net_a, shore_a, column, v_free
        ):
            for cost_b, track_b, lo_b, hi_b in self._candidates(
                state, net_b, shore_b, column, v_free
            ):
                if track_a == track_b:
                    continue
                if not (hi_a < lo_b or hi_b < lo_a):
                    continue  # verticals overlap in the column
                key = (
                    cost_a[0] + cost_b[0],
                    cost_a[1] + cost_b[1],
                    track_a,
                    track_b,
                )
                if best is None or key < best[0]:
                    best = (key, track_a, lo_a, hi_a, track_b, lo_b, hi_b)
        if best is None:
            return False
        _, track_a, lo_a, hi_a, track_b, lo_b, hi_b = best
        for net, track, lo, hi in (
            (net_a, track_a, lo_a, hi_a),
            (net_b, track_b, lo_b, hi_b),
        ):
            if state.track_net[track] != net:
                state.claim(track, net, column)
            add_v(lo, hi, net)
        return True

    def _straight_through(
        self, state: _SweepState, net: int, column: int, v_free, add_v
    ) -> Optional[str]:
        if not v_free(0, state.top_row, net):
            return f"column {column} blocked for straight-through net {net}"
        add_v(0, state.top_row, net)
        state.remaining[net] -= 2
        held = sorted(state.held[net], key=state.row)
        if state.remaining[net] > 0 and not held:
            track = self._nearest_free_track(state, column, from_top=True)
            if track is None:
                return f"no free track for net {net} at column {column}"
            state.claim(track, net, column)
        elif held:
            # The full-height vertical joins every held track: keep one.
            for track in held[:-1]:
                state.release(track, column)
            if state.remaining[net] == 0:
                state.release(held[-1], column)
        return None

    def _collapse(
        self, state: _SweepState, column: int, v_free, add_v
    ) -> None:
        # Join split nets until the column admits no further join, then jog
        # the stubborn splits one track closer so a later column can finish
        # the job (the original's "move split nets closer" pattern).
        progress = True
        while progress:
            progress = False
            for net in sorted(state.held):
                if self._collapse_net_once(state, net, column, v_free, add_v):
                    progress = True
        for net in sorted(state.held):
            if len(state.held[net]) >= 2:
                self._jog_closer(state, net, column, v_free, add_v)

    def _collapse_net_once(
        self, state: _SweepState, net: int, column: int, v_free, add_v
    ) -> bool:
        held = sorted(state.held[net], key=state.row)
        if len(held) < 2:
            return False
        pairs = sorted(
            zip(held, held[1:]),
            key=lambda pair: state.row(pair[1]) - state.row(pair[0]),
        )
        for lower_track, upper_track in pairs:
            lo, hi = state.row(lower_track), state.row(upper_track)
            if not v_free(lo, hi, net):
                continue
            add_v(lo, hi, net)
            # Keep the track closer to the channel middle; free the other.
            middle = (state.tracks + 1) / 2
            keep, drop = sorted(
                (lower_track, upper_track),
                key=lambda t: abs(state.row(t) - middle),
            )
            state.release(drop, column)
            return True
        return False

    def _jog_closer(
        self, state: _SweepState, net: int, column: int, v_free, add_v
    ) -> None:
        """Move the net's outer track one row toward its nearest sibling."""
        held = sorted(state.held[net], key=state.row)
        gaps = sorted(
            zip(held, held[1:]),
            key=lambda pair: state.row(pair[1]) - state.row(pair[0]),
        )
        for lower_track, upper_track in gaps:
            lo, hi = state.row(lower_track), state.row(upper_track)
            for source, step in ((upper_track, -1), (lower_track, 1)):
                source_row = state.row(source)
                target_row = source_row + step
                target_track = state.tracks + 1 - target_row
                if not 1 <= target_track <= state.tracks:
                    continue
                if not state.claimable(target_track, column):
                    continue
                jog_lo, jog_hi = sorted((source_row, target_row))
                if not v_free(jog_lo, jog_hi, net):
                    continue
                state.claim(target_track, net, column)
                add_v(jog_lo, jog_hi, net)
                state.release(source, column)
                return

    def _retire(
        self,
        spec: ChannelSpec,
        state: _SweepState,
        column: int,
        pin_columns: Dict[int, List[int]],
    ) -> None:
        for net in sorted(state.held):
            held = state.held[net]
            if len(held) == 1 and state.remaining[net] == 0:
                state.release(next(iter(held)), column)

    def _nearest_free_track(
        self, state: _SweepState, column: int, from_top: bool
    ) -> Optional[int]:
        order = range(1, state.tracks + 1)
        for track in order if from_top else reversed(list(order)):
            if state.claimable(track, column):
                return track
        return None


def _needs_routing(spec: ChannelSpec, net: int) -> bool:
    return len(spec.pins_of(net)) >= 2
