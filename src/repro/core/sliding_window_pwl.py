"""Sliding-window piecewise-linear MIN-INCREMENT (extension).

The paper stops at serial sliding-window histograms (Section 4.1), but its
two ingredients compose: the windowed GREEDY-INSERT with expiry and trim
works verbatim with PWL buckets, because

* closed PWL buckets are stored as fitted segments (Theorem 4's trick), so
  *expiring* or *trimming* a whole bucket is the same front deletion as in
  the serial case -- no hull surgery is ever needed at the old end;
* the open bucket only ever grows at the new end, exactly what the
  streaming hull supports.

So this window is the ladder of :mod:`repro.core.sliding_window` over the
plain PWL levels of :mod:`repro.core.pwl_min_increment`.  The guarantee
composes the same way as Theorem 5: at most ``B + 1`` buckets covering
the window with error within ``(1 + eps)`` of the window's optimal
``B``-bucket PWL error (up to the ladder's base granularity -- PWL optima
are real-valued; see DESIGN.md item 5).
"""

from __future__ import annotations

from typing import Optional

from repro.core.interface import DEFAULT_HULL_EPSILON
from repro.core.pwl_min_increment import PwlGreedyInsertSummary
from repro.core.sliding_window import _WindowLadder
from repro.memory.model import DEFAULT_MODEL, MemoryModel


class SlidingWindowPwlMinIncrement(_WindowLadder):
    """(1 + eps, 1 + 1/B) piecewise-linear histogram over a sliding window.

    Parameters mirror :class:`~repro.core.sliding_window.SlidingWindowMinIncrement`
    with the PWL-specific ``hull_epsilon`` of the open buckets (unified
    default :data:`~repro.core.interface.DEFAULT_HULL_EPSILON`) and the
    opt-in ``metrics`` instrumentation hook.
    """

    def __init__(
        self,
        buckets: int,
        epsilon: float,
        universe: int,
        window: int,
        *,
        hull_epsilon: Optional[float] = DEFAULT_HULL_EPSILON,
        include_zero_level: bool = True,
        memory_model: MemoryModel = DEFAULT_MODEL,
        metrics=None,
    ):
        self.hull_epsilon = hull_epsilon
        super().__init__(
            buckets,
            epsilon,
            universe,
            window,
            include_zero_level=include_zero_level,
            memory_model=memory_model,
            metrics=metrics,
        )

    def _level(self, target_error: float) -> PwlGreedyInsertSummary:
        return PwlGreedyInsertSummary(target_error, hull_epsilon=self.hull_epsilon)

    def _absorb(self, level, chunk, items) -> None:
        # The items as passed, not the array: a list keeps its Python
        # numbers, which the hull arithmetic sees.
        level.extend(items)
