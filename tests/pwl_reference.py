"""Reference oracles for the PWL fit layer: the plain, always-refit forms.

These are the straightforward formulations the optimized code in
:mod:`repro.geometry.fit`, :mod:`repro.geometry.convex_hull` and
:mod:`repro.core.pwl_bucket` must match bit for bit:

* :func:`min_vertical_gap` -- the slope sweep with a helper call per
  residual and per edge slope;
* :func:`rebuild_chain` -- the monotone-chain pass over *both* chains of
  a union;
* :class:`RefitBucket` -- a PWL bucket whose ``try_add`` runs a full
  sweep on every point.
"""

from __future__ import annotations

from repro.geometry.convex_hull import StreamingHull
from repro.geometry.kernel import ApproximateHull
from repro.geometry.point import cross


def min_vertical_gap(upper, lower):
    """Reference sweep; returns ``(slope, gap, argmax_point, argmin_point)``."""
    if len(upper) == 1:
        p = upper[0]
        return 0.0, 0.0, p, p
    slopes = sorted(
        {_slope(chain[i], chain[i + 1]) for chain in (upper, lower)
         for i in range(len(chain) - 1)}
    )
    ui = len(upper) - 1
    li = 0
    best_gap = None
    best = None
    for s in slopes:
        while ui > 0 and _value(upper[ui - 1], s) >= _value(upper[ui], s):
            ui -= 1
        while li + 1 < len(lower) and _value(lower[li + 1], s) <= _value(lower[li], s):
            li += 1
        gap = _value(upper[ui], s) - _value(lower[li], s)
        if best_gap is None or gap < best_gap:
            best_gap = gap
            best = (s, gap, upper[ui], lower[li])
    return best


def rebuild_chain(left, right, *, upper: bool):
    """Reference monotone-chain pass over two concatenated convex chains."""
    chain = []
    for p in list(left) + list(right):
        if upper:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) >= 0:
                chain.pop()
        else:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
        chain.append(p)
    return chain


class RefitBucket:
    """A PWL bucket that refits its hull on every ``try_add``."""

    def __init__(self, index: int, value, *, hull_epsilon=None):
        self.beg = self.end = index
        if hull_epsilon is None:
            self.hull = StreamingHull()
        else:
            self.hull = ApproximateHull(hull_epsilon)
        self.hull.add(index, value)
        self.cached_error = 0.0

    @property
    def error(self) -> float:
        if self.cached_error is None:
            gap = min_vertical_gap(self.hull.upper, self.hull.lower)[1]
            self.cached_error = gap / 2.0
        return self.cached_error

    def try_add(self, value, max_error: float) -> bool:
        self.end += 1
        self.hull.add(self.end, value)
        new_error = min_vertical_gap(self.hull.upper, self.hull.lower)[1] / 2.0
        if new_error > max_error:
            self.hull.undo_last_add()
            self.end -= 1
            return False
        self.cached_error = new_error
        if isinstance(self.hull, ApproximateHull):
            self.hull.maybe_compress()
        return True


def _slope(a, b) -> float:
    return (b[1] - a[1]) / (b[0] - a[0])


def _value(p, s: float) -> float:
    return p[1] - s * p[0]
