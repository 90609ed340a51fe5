"""Wall-clock deadlines for routing runs.

A :class:`Deadline` is a small immutable-budget stopwatch started at
construction time.  The router polls :meth:`Deadline.expired` at the top of
its control loop and degrades gracefully when the budget runs out.

The clock is injectable so tests (and the fault-injection harness) can
drive time deterministically instead of sleeping.
"""

from __future__ import annotations

import time
from typing import Callable, Optional


class Deadline:
    """A wall-clock budget, measured from the moment of construction.

    Parameters
    ----------
    budget_s:
        Seconds allowed; ``None`` means unlimited (the deadline never
        expires).  ``0`` expires immediately.
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    __slots__ = ("budget_s", "_clock", "_started")

    def __init__(
        self,
        budget_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if budget_s is not None and budget_s < 0:
            raise ValueError(f"deadline budget must be >= 0, got {budget_s}")
        self.budget_s = budget_s
        self._clock = clock
        self._started = clock()

    def elapsed(self) -> float:
        """Seconds since the deadline was started."""
        return self._clock() - self._started

    def remaining(self) -> Optional[float]:
        """Seconds left (may be negative once expired); None if unlimited."""
        if self.budget_s is None:
            return None
        return self.budget_s - self.elapsed()

    def expired(self) -> bool:
        """True once the budget is used up (never true when unlimited)."""
        remaining = self.remaining()
        return remaining is not None and remaining <= 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.budget_s is None:
            return "Deadline(unlimited)"
        return f"Deadline({self.budget_s:g}s, elapsed={self.elapsed():.3f}s)"
