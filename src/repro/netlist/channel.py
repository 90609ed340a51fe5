"""Classical two-shore channel routing problems.

A channel is specified exactly as in the 1976-86 literature: two equal-length
rows of net numbers, one for the pins on the top shore and one for the bottom
shore, with ``0`` meaning "no pin in this column".  The spec computes the
standard analysis quantities (channel density, the vertical constraint graph)
and lowers onto a :class:`~repro.netlist.problem.RoutingProblem` with a given
number of tracks.

Grid layout of the lowered problem (``tracks = T``)::

    y = T+1   top pin row      (pins on the VERTICAL layer, rest blocked)
    y = T..1  track rows       (trunks on HORIZONTAL, branches on VERTICAL)
    y = 0     bottom pin row   (pins on the VERTICAL layer, rest blocked)
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Set, Tuple

from repro.geometry.rect import Rect
from repro.grid.layers import Layer
from repro.netlist.net import Net, Pin
from repro.netlist.problem import Obstacle, ProblemError, RoutingProblem


@dataclass(frozen=True)
class ChannelSpec:
    """A channel instance: ``top[c]`` / ``bottom[c]`` give the net number of
    the pin in column ``c`` on each shore (0 = no pin)."""

    top: Tuple[int, ...]
    bottom: Tuple[int, ...]
    name: str = "channel"

    def __post_init__(self) -> None:
        object.__setattr__(self, "top", tuple(int(v) for v in self.top))
        object.__setattr__(self, "bottom", tuple(int(v) for v in self.bottom))
        if len(self.top) != len(self.bottom):
            raise ProblemError(
                f"shore lengths differ: {len(self.top)} vs {len(self.bottom)}"
            )
        if not self.top:
            raise ProblemError("channel has no columns")
        if any(v < 0 for v in self.top + self.bottom):
            raise ProblemError("net numbers must be non-negative")

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def n_columns(self) -> int:
        """Number of columns in the channel."""
        return len(self.top)

    def net_numbers(self) -> List[int]:
        """Sorted distinct net numbers appearing on either shore."""
        return sorted({v for v in self.top + self.bottom if v > 0})

    def pins_of(self, net: int) -> List[Tuple[int, str]]:
        """Pins of ``net`` as ``(column, shore)`` with shore 'T' or 'B'."""
        pins = [(c, "T") for c, v in enumerate(self.top) if v == net]
        pins += [(c, "B") for c, v in enumerate(self.bottom) if v == net]
        return pins

    def spans(self) -> Dict[int, Tuple[int, int]]:
        """Leftmost/rightmost column of every net."""
        result: Dict[int, Tuple[int, int]] = {}
        for shore in (self.top, self.bottom):
            for column, net in enumerate(shore):
                if net == 0:
                    continue
                lo, hi = result.get(net, (column, column))
                result[net] = (min(lo, column), max(hi, column))
        return result

    # ------------------------------------------------------------------
    # Density and vertical constraints
    # ------------------------------------------------------------------
    def column_density(self, column: int) -> int:
        """Nets whose span covers ``column`` and that need a trunk.

        Straight-through nets (all pins in one column) are excluded: they
        cross the channel without claiming a horizontal track.
        """
        count = 0
        for lo, hi in self.spans().values():
            if lo < hi and lo <= column <= hi:
                count += 1
        return count

    @property
    def density(self) -> int:
        """Channel density: the classical lower bound on track count.

        The most trunks over any one column (:meth:`column_density`),
        from one pass over the spans.
        """
        delta = [0] * (self.n_columns + 1)
        for lo, hi in self.spans().values():
            if lo < hi:
                delta[lo] += 1
                delta[hi + 1] -= 1
        return max(accumulate(delta[:-1]))

    def vcg_edges(self) -> Set[Tuple[int, int]]:
        """Vertical constraint edges ``(upper, lower)``.

        A column with a top pin of net *a* and a bottom pin of net *b*
        forces *a*'s trunk strictly above *b*'s.
        """
        edges = set()
        for a, b in zip(self.top, self.bottom):
            if a > 0 and b > 0 and a != b:
                edges.add((a, b))
        return edges

    def has_vcg_cycle(self) -> bool:
        """True when the vertical constraint graph contains a cycle.

        Cyclic channels are unroutable without doglegs — the classic failure
        mode of the plain left-edge algorithm.
        """
        graph: Dict[int, List[int]] = {}
        for a, b in self.vcg_edges():
            graph.setdefault(a, []).append(b)
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {net: WHITE for net in self.net_numbers()}

        def visit(node: int) -> bool:
            colour[node] = GREY
            for succ in graph.get(node, []):
                if colour[succ] == GREY:
                    return True
                if colour[succ] == WHITE and visit(succ):
                    return True
            colour[node] = BLACK
            return False

        return any(colour[n] == WHITE and visit(n) for n in self.net_numbers())

    def vcg_longest_path(self) -> int:
        """Length (in nets) of the longest VCG chain; 0 when cyclic.

        Together with density this is the standard lower bound discussion
        for channel height.
        """
        if self.has_vcg_cycle():
            return 0
        graph: Dict[int, List[int]] = {}
        for a, b in self.vcg_edges():
            graph.setdefault(a, []).append(b)
        memo: Dict[int, int] = {}

        def depth(node: int) -> int:
            if node not in memo:
                memo[node] = 1 + max(
                    (depth(s) for s in graph.get(node, [])), default=0
                )
            return memo[node]

        return max((depth(n) for n in self.net_numbers()), default=0)

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    def net_name(self, net: int) -> str:
        """Canonical net name used in the lowered problem."""
        return f"n{net}"

    def to_problem(self, tracks: int) -> RoutingProblem:
        """Lower to a grid problem with ``tracks`` horizontal track rows."""
        if tracks < 1:
            raise ProblemError(f"need at least one track, got {tracks}")
        width, height = self.n_columns, tracks + 2
        nets: List[Net] = []
        for number in self.net_numbers():
            pins = []
            for column, shore in self.pins_of(number):
                y = height - 1 if shore == "T" else 0
                pins.append(Pin(column, y, Layer.VERTICAL))
            nets.append(Net(self.net_name(number), tuple(pins)))
        obstacles = [
            # The shores carry no horizontal wiring at all.
            Obstacle(Rect(0, 0, width, 1), Layer.HORIZONTAL),
            Obstacle(Rect(0, height - 1, width, height), Layer.HORIZONTAL),
        ]
        # Shore cells without a pin are blocked on the vertical layer too.
        for column in range(width):
            if self.bottom[column] == 0:
                obstacles.append(
                    Obstacle(Rect(column, 0, column + 1, 1), Layer.VERTICAL)
                )
            if self.top[column] == 0:
                obstacles.append(
                    Obstacle(
                        Rect(column, height - 1, column + 1, height),
                        Layer.VERTICAL,
                    )
                )
        return RoutingProblem(
            width=width,
            height=height,
            nets=nets,
            obstacles=obstacles,
            name=f"{self.name}[T={tracks}]",
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChannelSpec({self.name!r}, cols={self.n_columns}, "
            f"nets={len(self.net_numbers())}, density={self.density})"
        )
