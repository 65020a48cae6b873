"""Best L-infinity line fit of a bucket (Section 3.1).

A PWL bucket approximates its points by the line minimizing the largest
*vertical* deviation -- the Chebyshev best-fit line.  Geometrically, the
optimal error is half the **vertical width** of the point set: the height of
the thinnest *vertical-gap* strip bounded by two parallel lines that
sandwich all points, and the optimal line bisects that strip.

(The paper describes fitting via the thinnest bounding rectangle.  The
Euclidean-width rectangle is only a proxy when slopes are large; the exact
optimum for the vertical L-infinity metric is the vertical width computed
here.  DESIGN.md item 2 discusses the substitution; :mod:`repro.geometry.width`
still provides the Euclidean machinery for fidelity.)

As a function of the candidate slope ``s``, the vertical gap

    g(s) = max_i (y_i - s * x_i)  -  min_i (y_i - s * x_i)

is convex piecewise linear; the max term is governed by the upper hull
chain, the min term by the lower chain, and the minimizing slope is always
the slope of some hull edge.  The sweep below visits the merged, sorted
edge slopes of both chains while tracking the argmax/argmin vertices with
two monotone pointers, which makes the whole fit O(h) after the O(h log h)
slope sort (h = hull vertices; buckets keep h tiny).

:func:`vertical_width_naive` is the quadratic reference used by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import InvalidParameterError
from repro.geometry.convex_hull import StreamingHull
from repro.geometry.point import Point


@dataclass(frozen=True)
class LineFit:
    """A fitted line ``y = slope * x + intercept`` with its L-infinity error."""

    slope: float
    intercept: float
    error: float

    def value_at(self, x) -> float:
        """Fitted value at coordinate ``x``."""
        return self.slope * x + self.intercept


def best_line_fit(hull: StreamingHull) -> LineFit:
    """Optimal (Chebyshev) line fit for the points of ``hull``.

    The returned error is ``vertical_width / 2`` and the line bisects the
    optimal strip.  A hull with a single point fits exactly (error 0).
    """
    if not hull:
        raise InvalidParameterError("cannot fit a line to an empty hull")
    slope, gap, upper_pt, lower_pt = _min_vertical_gap(hull.upper, hull.lower)
    top = upper_pt[1] - slope * upper_pt[0]
    bottom = lower_pt[1] - slope * lower_pt[0]
    return LineFit(slope=slope, intercept=(top + bottom) / 2.0, error=gap / 2.0)


def vertical_width(hull: StreamingHull) -> float:
    """Minimal vertical gap of two parallel lines sandwiching the hull."""
    if not hull:
        raise InvalidParameterError("empty hull has no width")
    return _min_vertical_gap(hull.upper, hull.lower)[1]


def _min_vertical_gap(
    upper: Sequence[Point], lower: Sequence[Point]
) -> tuple[float, float, Point, Point]:
    """Core sweep; returns ``(slope, gap, argmax_point, argmin_point)``.

    ``upper``/``lower`` are the hull chains in increasing x.  For slope
    ``s -> -inf`` the maximizer of ``y - s x`` is the rightmost vertex and
    the minimizer is the leftmost; as ``s`` grows, the maximizer walks left
    along the upper chain and the minimizer walks right along the lower
    chain, each pointer advancing past a vertex exactly when ``s`` passes
    the slope of the incident edge.

    This is the PWL refit hot spot, so the residual ``y - s * x`` is
    written out inline and each pointer's current residual is carried
    across the walk instead of re-evaluated.  Every float operation is
    the same, in the same order, as the plain formulation; only repeated
    evaluations of an identical expression are shared, so the result is
    bit-identical.
    """
    if len(upper) == 1:
        p = upper[0]
        return 0.0, 0.0, p, p
    # Candidate slopes: every edge of either chain.
    slopes = sorted(
        {(b[1] - a[1]) / (b[0] - a[0]) for chain in (upper, lower)
         for a, b in zip(chain, chain[1:])}
    )
    ui = len(upper) - 1  # argmax pointer, walks left
    li = 0  # argmin pointer, walks right
    last = len(lower) - 1
    best_gap = None
    for s in slopes:
        x, y = upper[ui]
        top = y - s * x
        while ui > 0:
            x, y = upper[ui - 1]
            value = y - s * x
            if not value >= top:
                break
            top = value
            ui -= 1
        x, y = lower[li]
        bottom = y - s * x
        while li < last:
            x, y = lower[li + 1]
            value = y - s * x
            if not value <= bottom:
                break
            bottom = value
            li += 1
        gap = top - bottom
        if best_gap is None or gap < best_gap:
            best_gap = gap
            best_slope, best_ui, best_li = s, ui, li
    return best_slope, best_gap, upper[best_ui], lower[best_li]


def vertical_width_naive(points: Sequence[Point]) -> float:
    """O(n^2) reference: evaluate the gap at every pairwise slope.

    Used by the tests to validate the sweep.  Candidate slopes are all
    slopes between distinct-x point pairs (a superset of hull edge slopes),
    plus slope 0 for degenerate inputs.
    """
    if not points:
        raise InvalidParameterError("empty point set has no width")
    slopes = {0.0}
    for i, (xi, yi) in enumerate(points):
        for xj, yj in points[i + 1:]:
            if xj != xi:
                slopes.add((yj - yi) / (xj - xi))
    best = None
    for s in slopes:
        residuals = [y - s * x for x, y in points]
        gap = max(residuals) - min(residuals)
        if best is None or gap < best:
            best = gap
    return best

