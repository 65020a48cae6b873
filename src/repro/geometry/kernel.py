"""Size-capped approximate convex hulls (the paper's use of Chan [3]).

The PWL theorems bound memory by keeping each bucket's hull at
O(eps^{-1/2} log(1/eps)) vertices via Chan's streaming coreset.  This module
substitutes a *directional epsilon-kernel* with the same O(eps^{-1/2}) size
profile (DESIGN.md item 1): whenever the exact hull grows past a threshold,
it is compressed to the subset of vertices extreme along k uniformly spaced
directions, evaluated after an affine normalization (rotate the diameter to
the x-axis, then scale both axes to unit extent) that makes the body fat so
the directional grid guarantees a *relative* width error.

Because the kernel is a subset of the true hull vertices, the approximate
hull is an inner approximation: every directional width -- and therefore
the vertical width used for the Chebyshev line fit -- satisfies

    (1 - eps) * width(hull)  <=  width(kernel)  <=  width(hull),

which is exactly property (3) that the PWL approximation analysis needs.
The test suite validates the lower bound empirically on random and
adversarial buckets.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.exceptions import InvalidParameterError
from repro.geometry.convex_hull import StreamingHull
from repro.geometry.point import Point


def kernel_direction_count(epsilon: float) -> int:
    """Number of grid directions for a target relative width error eps."""
    if not 0 < epsilon < 1:
        raise InvalidParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
    return max(4, math.ceil(math.pi * math.sqrt(5.0 / epsilon)))


def directional_kernel(vertices: Sequence[Point], directions: int) -> list[Point]:
    """Extreme subset of ``vertices`` along a normalized direction grid.

    ``vertices`` should be convex-position points (hull vertices); the
    result is a subset containing, for each of ``directions`` uniformly
    spaced directions over the half-circle, the points extreme in both
    orientations -- evaluated in the fat-normalized frame described in the
    module docs.  The global x- and y-extreme points are always retained.
    """
    verts = list(vertices)
    if len(verts) <= 2 * directions + 4:
        return sorted(verts, key=lambda p: p[0])
    # Affine normalization: rotate the diameter onto the x-axis, scale to
    # the unit box.  O(h^2) diameter search is fine at these sizes.
    ax, ay, bx, by = _diameter(verts)
    angle = math.atan2(by - ay, bx - ax)
    cos_a, sin_a = math.cos(-angle), math.sin(-angle)
    rotated = [
        (x * cos_a - y * sin_a, x * sin_a + y * cos_a) for x, y in verts
    ]
    xs = [p[0] for p in rotated]
    ys = [p[1] for p in rotated]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    normalized = [
        ((x - x_lo) / x_span, (y - y_lo) / y_span) for x, y in rotated
    ]
    keep: set[int] = set()
    for j in range(directions):
        theta = math.pi * j / directions
        ux, uy = math.cos(theta), math.sin(theta)
        best_hi = best_lo = 0
        hi_val = lo_val = normalized[0][0] * ux + normalized[0][1] * uy
        for i in range(1, len(normalized)):
            val = normalized[i][0] * ux + normalized[i][1] * uy
            if val > hi_val:
                hi_val, best_hi = val, i
            if val < lo_val:
                lo_val, best_lo = val, i
        keep.add(best_hi)
        keep.add(best_lo)
    # Original-frame axis extremes guard degenerate normalizations and keep
    # the bucket's index range intact.
    for axis in (0, 1):
        keep.add(min(range(len(verts)), key=lambda i: verts[i][axis]))
        keep.add(max(range(len(verts)), key=lambda i: verts[i][axis]))
    return sorted((verts[i] for i in keep), key=lambda p: p[0])


class ApproximateHull:
    """A :class:`StreamingHull` kept below a size cap by kernel compression.

    Parameters
    ----------
    epsilon:
        Target relative width error of property (3); smaller values keep
        more vertices.
    compress_factor:
        The exact hull is allowed to grow to ``compress_factor`` times the
        kernel size before a compression pass runs, amortizing its cost.

    Compression never runs implicitly inside :meth:`add` -- callers that
    need :meth:`undo_last_add` (GREEDY-INSERT trials) call
    :meth:`maybe_compress` only after committing an insertion.
    """

    __slots__ = ("epsilon", "_inner", "_directions", "_threshold")

    def __init__(self, epsilon: float = 0.1, *, compress_factor: float = 2.0):
        if compress_factor < 1.0:
            raise InvalidParameterError(
                f"compress_factor must be >= 1, got {compress_factor}"
            )
        self.epsilon = epsilon
        self._directions = kernel_direction_count(epsilon)
        self._threshold = max(
            8, int(compress_factor * (2 * self._directions + 4))
        )
        self._inner = StreamingHull()

    # -- StreamingHull-compatible surface ---------------------------------

    @property
    def lower(self) -> list[Point]:
        """Lower chain of the current (possibly compressed) hull."""
        return self._inner.lower

    @property
    def upper(self) -> list[Point]:
        """Upper chain of the current (possibly compressed) hull."""
        return self._inner.upper

    @property
    def point_count(self) -> int:
        """Number of points ever added (not hull vertices)."""
        return self._inner.point_count

    @property
    def vertex_count(self) -> int:
        """Distinct hull vertices currently stored."""
        return self._inner.vertex_count

    @property
    def stored_entries(self) -> int:
        """Chain entries as stored (endpoints double-counted)."""
        return self._inner.stored_entries

    def __bool__(self) -> bool:
        return bool(self._inner)

    def add(self, x, y) -> None:
        """Insert a point with strictly increasing x (no compression)."""
        self._inner.add(x, y)

    def y_extent(self) -> tuple:
        """``(min_y, max_y)`` over the currently stored points."""
        return self._inner.y_extent()

    def undo_last_add(self) -> None:
        """Roll back the most recent :meth:`add` exactly."""
        self._inner.undo_last_add()

    def vertices(self) -> list[Point]:
        """All hull vertices, counterclockwise."""
        return self._inner.vertices()

    def to_state(self) -> dict:
        """JSON-safe snapshot: epsilon, compression threshold, inner hull."""
        return {
            "epsilon": self.epsilon,
            "threshold": self._threshold,
            "inner": self._inner.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "ApproximateHull":
        """Rebuild from :meth:`to_state` output (exact round trip)."""
        hull = cls(float(state["epsilon"]))
        hull._threshold = int(state["threshold"])
        hull._inner = StreamingHull.from_state(state["inner"])
        return hull

    @property
    def over_threshold(self) -> bool:
        """Whether the next :meth:`maybe_compress` will run a pass."""
        return self._inner.stored_entries > self._threshold

    def maybe_compress(self) -> bool:
        """Compress to the directional kernel if over threshold.

        Returns True when a compression pass ran.  Invalidates any pending
        ``undo_last_add``.
        """
        if not self.over_threshold:
            return False
        kept = directional_kernel(self._inner.vertices(), self._directions)
        count = self._inner.point_count
        self._inner = StreamingHull.from_points(kept)
        self._inner._count = count  # preserve the points-seen counter
        return True

    def union(self, other: "ApproximateHull") -> "ApproximateHull":
        """Kernel-compressed hull of the union with an x-disjoint hull."""
        merged = ApproximateHull(self.epsilon)
        merged._threshold = self._threshold
        merged._inner = self._inner.union(_inner_of(other))
        merged.maybe_compress()
        return merged


def _inner_of(hull) -> StreamingHull:
    if isinstance(hull, ApproximateHull):
        return hull._inner
    if isinstance(hull, StreamingHull):
        return hull
    raise InvalidParameterError(f"cannot union with {type(hull).__name__}")


def _diameter(verts: Sequence[Point]) -> tuple[float, float, float, float]:
    """Endpoints of the farthest pair (brute force; hulls are small here)."""
    best = -1.0
    result: Optional[tuple] = None
    for i, (xi, yi) in enumerate(verts):
        for xj, yj in verts[i + 1:]:
            d = (xj - xi) ** 2 + (yj - yi) ** 2
            if d > best:
                best = d
                result = (xi, yi, xj, yj)
    if result is None:  # single vertex
        x, y = verts[0]
        result = (x, y, x, y)
    return result
