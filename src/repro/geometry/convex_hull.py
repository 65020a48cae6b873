"""Convex hulls of bucket point sets.

A PWL bucket holds the points ``(index, value)`` of its stream range, and
needs their convex hull to evaluate the best L-infinity line fit
(Section 3.1).  Stream indices arrive strictly increasing, so the hull can
be maintained with the incremental half of Andrew's monotone chain at
amortized O(1) per point: each insertion pops already-dominated vertices
from the ends of the upper and lower chains, and every vertex is popped at
most once.

:class:`StreamingHull` also supports

* ``undo_last_add`` -- GREEDY-INSERT must test "would this point push the
  bucket error past e?" and back out when it does; recording the vertices a
  single ``add`` popped makes the rollback exact and O(popped);
* ``union`` with an x-disjoint hull -- MIN-MERGE merges *adjacent* buckets,
  whose hull chains concatenate in O(h) (the paper's "two disjoint convex
  hulls can be merged in linear time").

The module-level :func:`convex_hull` is the classic full monotone chain for
arbitrary point sets, used as the test reference.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.exceptions import InvalidParameterError
from repro.geometry.point import Point, cross


def convex_hull(points: Iterable[Point]) -> list[Point]:
    """Convex hull of arbitrary points, counterclockwise (Andrew's chain).

    Collinear interior points are dropped.  Returns the single point for a
    singleton input and both endpoints for a degenerate (collinear) set.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


class StreamingHull:
    """Convex hull of points added in strictly increasing x order.

    The hull is stored as two chains, both ordered by increasing x:

    * ``lower`` -- the convex ("cup") chain bounding the set from below;
    * ``upper`` -- the concave ("cap") chain bounding it from above.

    The leftmost and rightmost points appear in both chains.
    """

    __slots__ = ("lower", "upper", "_count", "_last_popped")

    def __init__(self) -> None:
        self.lower: list[Point] = []
        self.upper: list[Point] = []
        self._count = 0
        # (popped_lower, popped_upper) of the latest add; each half is
        # ``None`` when that chain popped nothing (lazy allocation).
        self._last_popped: Optional[tuple] = None

    @classmethod
    def from_points(cls, points: Sequence[Point]) -> "StreamingHull":
        """Build a hull from x-increasing points."""
        hull = cls()
        for x, y in points:
            hull.add(x, y)
        return hull

    def to_state(self) -> dict:
        """JSON-safe snapshot: both chains plus the points-seen counter.

        The single-level undo buffer is deliberately not captured; a
        restored hull supports :meth:`undo_last_add` only after its next
        :meth:`add`, which is the only order the summaries use.
        """
        return {
            "lower": [[_plain(x), _plain(y)] for x, y in self.lower],
            "upper": [[_plain(x), _plain(y)] for x, y in self.upper],
            "count": self._count,
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamingHull":
        """Rebuild a hull from :meth:`to_state` output (exact round trip)."""
        hull = cls()
        hull.lower = [(x, y) for x, y in state["lower"]]
        hull.upper = [(x, y) for x, y in state["upper"]]
        hull._count = int(state["count"])
        return hull

    @property
    def point_count(self) -> int:
        """Number of points ever added (not hull vertices)."""
        return self._count

    @property
    def vertex_count(self) -> int:
        """Distinct hull vertices currently stored.

        The two chain endpoints are shared; they are counted once.
        """
        if not self.lower:
            return 0
        shared = 1 if len(self.lower) == 1 else 2
        return len(self.lower) + len(self.upper) - shared

    @property
    def stored_entries(self) -> int:
        """Chain entries as stored (endpoints double-counted); memory model."""
        return len(self.lower) + len(self.upper)

    def __bool__(self) -> bool:
        return bool(self.lower)

    def y_extent(self) -> tuple:
        """``(min_y, max_y)`` over the stored points.

        The vertical extremes are hull vertices (they are extreme in the
        -y / +y directions), so the chain minima are exact.  Used by the
        PWL MIN-MERGE batch path to bound a bucket's fit error by half its
        vertical range.
        """
        if not self.lower:
            raise InvalidParameterError("y_extent of an empty hull")
        return (
            min(y for _x, y in self.lower),
            max(y for _x, y in self.upper),
        )

    def add(self, x, y) -> None:
        """Insert a point with x strictly greater than all previous points.

        This is the PWL ingest hot spot (one call per point a bucket
        absorbs or trials), so the turn test inlines :func:`cross` --
        identical operations in identical order, no tuple construction or
        call overhead -- and the undo buffers are allocated lazily: the
        steady-state add pops nothing and allocates nothing.
        """
        lower, upper = self.lower, self.upper
        if lower and x <= lower[-1][0]:
            raise InvalidParameterError(
                f"x must be strictly increasing: got {x} after {lower[-1][0]}"
            )
        popped_lower: Optional[list[Point]] = None
        popped_upper: Optional[list[Point]] = None
        while len(lower) >= 2:
            ox, oy = lower[-2]
            ax, ay = lower[-1]
            if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0:
                break
            if popped_lower is None:
                popped_lower = []
            popped_lower.append(lower.pop())
        while len(upper) >= 2:
            ox, oy = upper[-2]
            ax, ay = upper[-1]
            if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) < 0:
                break
            if popped_upper is None:
                popped_upper = []
            popped_upper.append(upper.pop())
        p = (x, y)
        lower.append(p)
        upper.append(p)
        self._count += 1
        self._last_popped = (popped_lower, popped_upper)

    def undo_last_add(self) -> None:
        """Roll back the most recent :meth:`add` exactly.

        Only a single level of undo is supported; calling twice without an
        intervening ``add`` raises.
        """
        if self._last_popped is None:
            raise InvalidParameterError("no add to undo")
        popped_lower, popped_upper = self._last_popped
        self.lower.pop()
        self.upper.pop()
        # Popped vertices were recorded innermost-last; restore in reverse
        # (``None`` = that chain popped nothing, the steady-state case).
        if popped_lower:
            self.lower.extend(reversed(popped_lower))
        if popped_upper:
            self.upper.extend(reversed(popped_upper))
        self._count -= 1
        self._last_popped = None

    def union(self, other: "StreamingHull") -> "StreamingHull":
        """Hull of the union with an x-disjoint hull strictly to the right.

        Runs in O(h) by re-running the chain construction over the
        concatenated chains (each already x-sorted and convex).
        """
        if self.lower and other.lower and other.lower[0][0] <= self.lower[-1][0]:
            raise InvalidParameterError(
                "union requires the other hull to lie strictly to the right"
            )
        merged = StreamingHull()
        merged._count = self._count + other.point_count
        merged.lower = _rebuild_chain(self.lower, other.lower, upper=False)
        merged.upper = _rebuild_chain(self.upper, other.upper, upper=True)
        return merged

    def vertices(self) -> list[Point]:
        """All hull vertices, counterclockwise starting at the leftmost."""
        if not self.lower:
            return []
        if len(self.lower) == 1:
            return [self.lower[0]]
        # Lower chain left-to-right, then upper chain right-to-left with the
        # shared endpoints dropped.
        return self.lower + self.upper[-2:0:-1]

    def check_invariant(self) -> None:
        """Assert chain convexity and shared endpoints (tests)."""
        for chain, name, sign in ((self.lower, "lower", 1), (self.upper, "upper", -1)):
            for i in range(len(chain) - 1):
                if chain[i + 1][0] <= chain[i][0]:
                    raise AssertionError(f"{name} chain x not increasing")
            for i in range(len(chain) - 2):
                turn = cross(chain[i], chain[i + 1], chain[i + 2])
                if sign * turn <= 0:
                    raise AssertionError(f"{name} chain not strictly convex")
        if self.lower or self.upper:
            if self.lower[0] != self.upper[0] or self.lower[-1] != self.upper[-1]:
                raise AssertionError("chain endpoints differ")


def _plain(value):
    """Coerce numpy scalars to plain Python numbers for JSON payloads."""
    return value.item() if hasattr(value, "item") else value


def _rebuild_chain(
    left: list[Point], right: list[Point], *, upper: bool
) -> list[Point]:
    """Monotone-chain pass over two concatenated convex chains.

    ``left`` is already a finished chain: every consecutive triple in it
    passed this very turn test when it was built (by :meth:`StreamingHull.add`
    or an earlier union), so a pass over it would pop nothing.  It is
    copied as is, and only ``right``'s points run the pass -- with
    :func:`cross` written out inline, same operations in the same order.
    """
    chain = list(left)
    for p in right:
        x, y = p
        while len(chain) >= 2:
            ox, oy = chain[-2]
            ax, ay = chain[-1]
            turn = (ax - ox) * (y - oy) - (ay - oy) * (x - ox)
            if not ((turn >= 0) if upper else (turn <= 0)):
                break
            chain.pop()
        chain.append(p)
    return chain
