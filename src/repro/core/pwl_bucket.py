"""Piecewise-linear histogram buckets (Section 3.1).

A PWL bucket approximates the stream values of its index range by the best
L-infinity line.  That optimum depends only on the convex hull of the
bucket's points ``(index, value)``, so the bucket stores its hull -- exact
(:class:`~repro.geometry.convex_hull.StreamingHull`, amortized O(1) per
point because indices increase) or size-capped
(:class:`~repro.geometry.kernel.ApproximateHull`, the paper's Chan-coreset
role).  The bucket's error is half the hull's vertical width; the fitted
line bisects the optimal strip.

``try_add`` skips most refits with a slope-strip certificate: the optimal
gap is at most the gap at any fixed slope, so the bucket keeps the last
fit's slope ``s*`` and the extreme residuals ``max/min (y - s* x)`` of its
points, and accepts a point whose residual keeps that strip within budget
less a float-rounding margin.  Every decision and cached error is
bit-identical to refitting on every point (docs/ALGORITHMS.md, "Refit-free
greedy trials", gives the margin argument).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.histogram import Segment
from repro.exceptions import InvalidParameterError
from repro.geometry.convex_hull import StreamingHull
from repro.geometry.fit import LineFit, _min_vertical_gap, best_line_fit
from repro.geometry.kernel import ApproximateHull
from repro.memory.model import DEFAULT_MODEL, MemoryModel

HullType = Union[StreamingHull, ApproximateHull]

#: Rounding allowance of the certificate margin (:meth:`PwlBucket.try_add`).
_ROUNDING = 2.0**-40


def _new_hull(hull_epsilon: Optional[float]) -> HullType:
    if hull_epsilon is None:
        return StreamingHull()
    return ApproximateHull(hull_epsilon)


class PwlBucket:
    """One PWL bucket: an index range plus the hull of its points.

    Parameters
    ----------
    index, value:
        The first stream item the bucket covers.
    hull_epsilon:
        ``None`` keeps the exact hull; a value in (0, 1) caps the hull at
        the directional-kernel size for that epsilon (Theorem 3/4 memory).
    """

    __slots__ = (
        "beg", "end", "hull", "_cached_error", "_fit", "_slope", "_rmax", "_rmin"
    )

    def __init__(self, index: int, value, *, hull_epsilon: Optional[float] = None):
        self.beg = index
        self.end = index
        self.hull: HullType = _new_hull(hull_epsilon)
        self.hull.add(index, value)
        self._cached_error: Optional[float] = 0.0
        self._fit: Optional[LineFit] = None
        # Certificate state: slope s* (None = no certificate) and the
        # extreme residuals of the bucket's points at s*.
        r = value - 0.0 * index
        self._slope: Optional[float] = 0.0 if r - r == 0.0 else None
        self._rmax = self._rmin = r

    @property
    def count(self) -> int:
        """Number of stream items covered."""
        return self.end - self.beg + 1

    @property
    def error(self) -> float:
        """Half the vertical width of the bucket's hull."""
        error = self._cached_error
        if error is None:
            error = self.fit().error
        return error

    def fit(self) -> LineFit:
        """The optimal (Chebyshev) line for the bucket (cached per hull)."""
        line = self._fit
        if line is None:
            line = self._fit = best_line_fit(self.hull)
            if self._cached_error is None:
                self._cached_error = line.error
        return line

    def segment(self) -> Segment:
        """The bucket rendered as a histogram segment (beg/end values)."""
        line = self.fit()
        return Segment(
            self.beg, self.end, line.value_at(self.beg), line.value_at(self.end)
        )

    def add(self, value) -> None:
        """Absorb the next stream value (at index ``end + 1``)."""
        self.end += 1
        self.hull.add(self.end, value)
        self._cached_error = None
        self._fit = None
        slope = self._slope
        if slope is not None:
            r = value - slope * self.end
            if r != r:
                self._slope = None
            elif r > self._rmax:
                self._rmax = r
            elif r < self._rmin:
                self._rmin = r
        if isinstance(self.hull, ApproximateHull):
            self.hull.maybe_compress()

    def try_add(self, value, max_error: float) -> bool:
        """GREEDY-INSERT trial: absorb ``value`` unless error would exceed.

        Returns True (and commits) when the bucket's error stays within
        ``max_error``; otherwise rolls the hull back and returns False.

        With ``r = value - s* x``, ``g = max(rmax, r) - min(rmin, r)``, ``W``
        the bucket's x-extent and ``X = |beg| + W``, the certificate
        accepts without a sweep when

            g + 2**-40 * (2 |rmin| + 2 |s*| X + g (1 + X / W)) <= 2 * max_error.

        The margin exceeds, several hundred times over, the rounding by
        which the sweep's float gap can exceed ``g`` (residuals at both
        slopes, the sweep's rounded edge slopes, the subtractions), so a
        certificate accept is never a point the sweep rejects.  NaN or
        infinite residuals never certify.
        """
        end = self.end + 1
        hull = self.hull
        slope = self._slope
        if slope is not None:
            r = value - slope * end
            rmax = self._rmax
            rmin = self._rmin
            hi = rmax if rmax >= r else r
            lo = rmin if rmin <= r else r
            gap = hi - lo
            width = end - self.beg
            big = abs(self.beg) + width
            margin = _ROUNDING * (
                2.0 * (abs(lo) + abs(slope) * big) + gap * (1.0 + big / width)
            )
            if gap + margin <= 2.0 * max_error:
                self.end = end
                hull.add(end, value)
                self._rmax = hi
                self._rmin = lo
                self._fit = None
                if isinstance(hull, ApproximateHull):
                    # Keep the cached error of the uncompressed hull, as a
                    # refit before compression would have.
                    self._cached_error = (
                        _min_vertical_gap(hull.upper, hull.lower)[1] / 2.0
                        if hull.over_threshold
                        else None
                    )
                    hull.maybe_compress()
                else:
                    self._cached_error = None
                return True
        self.end = end
        hull.add(end, value)
        slope, gap, _top, _bottom = _min_vertical_gap(hull.upper, hull.lower)
        new_error = gap / 2.0
        if new_error > max_error:
            hull.undo_last_add()
            self.end -= 1
            return False
        self._cached_error = new_error
        self._fit = None
        rmax = max(y - slope * x for x, y in hull.upper)
        rmin = min(y - slope * x for x, y in hull.lower)
        spread = rmax - rmin
        if spread - spread == 0.0:
            self._slope = slope
            self._rmax = rmax
            self._rmin = rmin
        else:
            self._slope = None
        if isinstance(hull, ApproximateHull):
            hull.maybe_compress()
        return True

    def to_state(self) -> dict:
        """JSON-safe snapshot: index range plus the tagged hull state."""
        if isinstance(self.hull, ApproximateHull):
            hull_state = {"kind": "approx", **self.hull.to_state()}
        else:
            hull_state = {"kind": "exact", **self.hull.to_state()}
        return {"beg": self.beg, "end": self.end, "hull": hull_state}

    @classmethod
    def from_state(cls, state: dict) -> "PwlBucket":
        """Rebuild from :meth:`to_state` output (exact round trip).

        The cached error is left unset; the next :attr:`error` read
        recomputes it from the restored hull, which is deterministic, so a
        resumed run stays bit-identical to an uninterrupted one.
        """
        bucket = object.__new__(cls)
        bucket.beg = int(state["beg"])
        bucket.end = int(state["end"])
        hull_state = state["hull"]
        if hull_state["kind"] == "approx":
            bucket.hull = ApproximateHull.from_state(hull_state)
        else:
            bucket.hull = StreamingHull.from_state(hull_state)
        bucket._clear_fit()
        return bucket

    def merged_with(
        self, other: "PwlBucket", error: Optional[float] = None
    ) -> "PwlBucket":
        """MERGE for PWL MIN-MERGE: union of two adjacent buckets' hulls.

        ``error``, when given, must be :meth:`merge_error_with` of the same
        pair -- the pair key MIN-MERGE merged on.  It was fitted on the
        identical union hull, so it seeds the merged bucket's error
        without a second sweep.
        """
        if other.beg != self.end + 1:
            raise InvalidParameterError(
                f"buckets [{self.beg},{self.end}] and "
                f"[{other.beg},{other.end}] are not adjacent"
            )
        merged = object.__new__(PwlBucket)
        merged.beg = self.beg
        merged.end = other.end
        merged.hull = self.hull.union(other.hull)
        merged._clear_fit()
        merged._cached_error = error
        return merged

    def merge_error_with(self, other: "PwlBucket") -> float:
        """Error of the union bucket (builds the merged hull, O(h))."""
        union = self.hull.union(other.hull)
        return _min_vertical_gap(union.upper, union.lower)[1] / 2.0

    def _clear_fit(self) -> None:
        """Drop every cached fit quantity (fresh or restored hull)."""
        self._cached_error = None
        self._fit = None
        self._slope = None

    def memory_bytes(self, model: MemoryModel = DEFAULT_MODEL) -> int:
        """Accounted memory: header plus stored hull chain entries."""
        return model.pwl_headers(1) + model.hull_vertices(self.hull.stored_entries)

    def __repr__(self) -> str:
        return (
            f"PwlBucket(beg={self.beg}, end={self.end}, "
            f"hull_vertices={self.hull.vertex_count})"
        )


@dataclass(frozen=True)
class ClosedPwlBucket:
    """A finished PWL bucket stored as its fitted segment (Theorem 4).

    MIN-INCREMENT only ever extends its *open* bucket, so closed buckets
    drop their hulls and keep the 4-word tuple ``(beg, end, left, right)``
    the paper describes, plus the realized error for reporting.
    """

    beg: int
    end: int
    left: float
    right: float
    error: float

    def segment(self) -> Segment:
        """The stored fitted line as a histogram segment."""
        return Segment(self.beg, self.end, self.left, self.right)

    @classmethod
    def from_bucket(cls, bucket: PwlBucket) -> "ClosedPwlBucket":
        """Freeze an open bucket: fit its line, drop its hull."""
        line = bucket.fit()
        return cls(
            beg=bucket.beg,
            end=bucket.end,
            left=line.value_at(bucket.beg),
            right=line.value_at(bucket.end),
            error=line.error,
        )
