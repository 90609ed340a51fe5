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

The sweep's bookkeeping, :class:`SweepState`, is shared with Luk's greedy
switchbox router (:mod:`repro.switchbox.greedy_box`), whose slots are the
box's rows instead of the channel's tracks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.channels.base import (
    ChannelResult,
    ChannelRouter,
    HWire,
    VWire,
    realize_wires,
)
from repro.netlist.channel import ChannelSpec
from repro.netlist.switchbox import SwitchboxSpec

#: Extension columns a split net may be chased into past the right end.
MAX_EXTENSION = 16

#: A pin's way in: ``((split, gap, length), slot, lo, hi)``.
PinOption = Tuple[Tuple[int, int, int], int, int, int]

#: A swept spec: its ``net_numbers()`` and ``top`` and ``bottom`` pins.
Sweepable = Union[ChannelSpec, SwitchboxSpec]


class SweepState:
    """Which net holds each slot of a greedy column sweep.

    The sweep runs over ``spec``, a channel or a switchbox.  A slot is a
    channel track (numbered top-down: ``top_down``) or a switchbox row,
    and :meth:`row` is its grid row; a pin vertical runs from row 0 or
    ``top_row``.  ``held[net]`` are the slots a net holds, ``targets[net]``
    the slots it must end on (a switchbox's right-edge pins; none in a
    channel) and ``last_pin[net]`` the column of its last top or bottom
    pin.  A released slot becomes a trunk ``(net, slot, x0, x1)`` and
    every vertical a branch ``(net, column, lo, hi)`` in grid rows.
    """

    def __init__(
        self, spec: Sweepable, slots: range, top_row: int, top_down: bool
    ) -> None:
        self.slots = slots
        self.top_row = top_row
        self.top_down = top_down
        self.slot_net = [0] * slots.stop  # 0 = free
        self.run_start: Dict[int, int] = {}
        self.freed_at: Dict[int, int] = {}
        self.held: Dict[int, Set[int]] = {
            net: set() for net in spec.net_numbers()
        }
        self.targets: Dict[int, Set[int]] = {net: set() for net in self.held}
        self.last_pin = {
            net: column
            for column, pins in enumerate(zip(spec.top, spec.bottom))
            for net in pins
            if net
        }
        self.trunks: List[Tuple[int, int, int, int]] = []
        self.branches: List[Tuple[int, int, int, int]] = []
        self.column = 0
        self._verticals: List[Tuple[int, int, int]] = []  # (lo, hi, net)

    def row(self, slot: int) -> int:
        """Grid row of ``slot``."""
        return self.top_row - slot if self.top_down else slot

    def begin_column(self, column: int) -> None:
        """Move the sweep to ``column``, which has no vertical yet."""
        self.column = column
        self._verticals = []

    def claim(self, slot: int, net: int) -> None:
        """Give ``slot`` to ``net`` from this column on."""
        self.slot_net[slot] = net
        self.run_start[slot] = self.column
        self.held[net].add(slot)

    def release(self, slot: int) -> None:
        """Free ``slot``; its net's run up to this column becomes a trunk."""
        net = self.slot_net[slot]
        self.trunks.append((net, slot, self.run_start[slot], self.column))
        self.slot_net[slot] = 0
        self.freed_at[slot] = self.column
        self.held[net].discard(slot)

    def claimable(self, slot: int) -> bool:
        """True when ``slot`` is free and was not freed in this column."""
        return (
            self.slot_net[slot] == 0
            and self.freed_at.get(slot, -1) < self.column
        )

    def v_free(self, lo: int, hi: int, net: int) -> bool:
        """True when no other net's vertical in this column meets rows
        ``lo..hi``."""
        return all(
            other == net or hi < other_lo or lo > other_hi
            for other_lo, other_hi, other in self._verticals
        )

    def add_v(self, lo: int, hi: int, net: int) -> None:
        """Lay ``net``'s vertical over rows ``lo..hi`` of this column."""
        self._verticals.append((lo, hi, net))
        self.branches.append((net, self.column, lo, hi))

    def connect(self, net: int, slot: int, lo: int, hi: int) -> None:
        """Lay a pin's vertical ``lo..hi`` onto ``slot``, claiming the slot
        unless ``net`` holds it."""
        if self.slot_net[slot] != net:
            self.claim(slot, net)
        self.add_v(lo, hi, net)

    def pin_options(self, net: int, shore: str) -> List[PinOption]:
        """Feasible ways in for ``net``'s pin on ``shore`` ('T' or 'B'),
        best first.

        Ranking: no-split connections first; among splits, the slot
        nearest the net's held rows (small ``gap``) so the split
        collapses cheaply in a later column; length last (the original's
        minimal vertical rule).  A net that holds nothing measures the
        gap to its target rows.
        """
        held_rows = [self.row(slot) for slot in self.held[net]]
        anchor = held_rows or [self.row(slot) for slot in self.targets[net]]
        options = []
        for slot in self.slots:
            holds = self.slot_net[slot] == net
            if not holds and not self.claimable(slot):
                continue
            row = self.row(slot)
            lo, hi = (row, self.top_row) if shore == "T" else (0, row)
            if not self.v_free(lo, hi, net):
                continue
            split = 1 if held_rows and not holds else 0
            gap = (
                min(abs(row - a) for a in anchor)
                if (split or not held_rows) and anchor
                else 0
            )
            options.append(((split, gap, hi - lo), slot, lo, hi))
        options.sort()
        return options

    def place_pin(self, net: int, shore: str) -> bool:
        """Connect a lone pin by its best option; False when it has none."""
        options = self.pin_options(net, shore)
        if options:
            self.connect(net, *options[0][1:])
        return bool(options)

    def split_pairs(self, net: int) -> List[Tuple[int, int]]:
        """Adjacent slots ``net`` holds, ``(lower, upper)`` by row,
        nearest pair first."""
        slots = sorted(self.held[net], key=self.row)
        return sorted(
            zip(slots, slots[1:]),
            key=lambda pair: self.row(pair[1]) - self.row(pair[0]),
        )

    def retire(self) -> None:
        """Free the one slot of every net whose pins are all in and that
        has no target rows."""
        for net in sorted(self.held):
            held = self.held[net]
            if (
                len(held) == 1
                and not self.targets[net]
                and self.last_pin.get(net, -1) <= self.column
            ):
                self.release(next(iter(held)))

    def collapse(self, distance: Callable[[int, int], float]) -> None:
        """Join split nets until this column admits no further join.

        A join lays a vertical between a net's nearest adjacent pair that
        has room and frees the slot farther by ``distance(net, slot)``
        (the upper one on a tie).
        """
        progress = True
        while progress:
            progress = False
            for net in sorted(self.held):
                for low, high in self.split_pairs(net):
                    lo, hi = self.row(low), self.row(high)
                    if not self.v_free(lo, hi, net):
                        continue
                    self.add_v(lo, hi, net)
                    keep = min((low, high), key=lambda s: distance(net, s))
                    self.release(high if keep == low else low)
                    progress = True
                    break


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
            realized_spec,
            tracks,
            [HWire(*trunk) for trunk in state.trunks],
            [VWire(*branch) for branch in state.branches],
            self.name,
        )
        result.extension_columns = extension
        return result

    # ------------------------------------------------------------------
    # The sweep itself
    # ------------------------------------------------------------------
    def _sweep(self, spec: ChannelSpec, tracks: int):
        state = SweepState(
            spec, range(1, tracks + 1), tracks + 1, top_down=True
        )
        middle = (tracks + 1) / 2
        width = spec.n_columns
        for column in range(width + MAX_EXTENSION):
            state.begin_column(column)
            if column < width:
                error = self._bring_in_pins(spec, state)
                if error:
                    return error
            # Join split nets, keeping the track nearer the channel middle,
            # then jog the stubborn splits one track closer so a later
            # column can finish the job (the original's "move split nets
            # closer" pattern).
            state.collapse(lambda net, track: abs(state.row(track) - middle))
            for net in sorted(state.held):
                if len(state.held[net]) >= 2:
                    self._jog_closer(state, net)
            state.retire()
            if column >= width - 1 and not any(state.held.values()):
                return state, max(0, column - width + 1)
        return (
            f"nets still split after {MAX_EXTENSION} extension columns"
        )

    def _bring_in_pins(
        self, spec: ChannelSpec, state: SweepState
    ) -> Optional[str]:
        column = state.column
        top, bottom = spec.top[column], spec.bottom[column]
        if top and top == bottom:
            return self._straight_through(state, top)
        pending = [
            (shore, net)
            for shore, net in (("T", top), ("B", bottom))
            if net and _needs_routing(spec, net)
        ]
        if len(pending) == 1:
            shore, net = pending[0]
            if not state.place_pin(net, shore):
                return f"stuck at column {column} (net {net} {shore} pin)"
        # Both shores have a pin: choose the pair of connections jointly so
        # one pin's vertical cannot wall off the other (and so that split
        # nets are created only when unavoidable).
        elif pending and not self._place_pin_pair(state, pending):
            return f"stuck at column {column} (pin pair)"
        return None

    def _place_pin_pair(self, state: SweepState, pending) -> bool:
        (shore_a, net_a), (shore_b, net_b) = pending
        options_b = state.pin_options(net_b, shore_b)
        best = None
        for cost_a, track_a, lo_a, hi_a in state.pin_options(net_a, shore_a):
            for cost_b, track_b, lo_b, hi_b in options_b:
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
                    best = (key, (track_a, lo_a, hi_a), (track_b, lo_b, hi_b))
        if best is None:
            return False
        state.connect(net_a, *best[1])
        state.connect(net_b, *best[2])
        return True

    def _straight_through(self, state: SweepState, net: int) -> Optional[str]:
        column = state.column
        if not state.v_free(0, state.top_row, net):
            return f"column {column} blocked for straight-through net {net}"
        state.add_v(0, state.top_row, net)
        held = sorted(state.held[net], key=state.row)
        more = state.last_pin[net] > column
        if more and not held:
            track = next(
                (t for t in state.slots if state.claimable(t)), None
            )
            if track is None:
                return f"no free track for net {net} at column {column}"
            state.claim(track, net)
        elif held:
            # The full-height vertical joins every held track: keep one.
            for track in held[:-1]:
                state.release(track)
            if not more:
                state.release(held[-1])
        return None

    def _jog_closer(self, state: SweepState, net: int) -> None:
        """Move the net's outer track one row toward its nearest sibling."""
        for lower_track, upper_track in state.split_pairs(net):
            for source, step in ((upper_track, -1), (lower_track, 1)):
                source_row = state.row(source)
                target_row = source_row + step
                target_track = state.top_row - target_row
                if target_track not in state.slots:
                    continue
                if not state.claimable(target_track):
                    continue
                jog_lo, jog_hi = sorted((source_row, target_row))
                if not state.v_free(jog_lo, jog_hi, net):
                    continue
                state.claim(target_track, net)
                state.add_v(jog_lo, jog_hi, net)
                state.release(source)
                return


def _needs_routing(spec: ChannelSpec, net: int) -> bool:
    return len(spec.pins_of(net)) >= 2
