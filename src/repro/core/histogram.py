"""Histogram result objects.

Every summary in this library answers queries with a :class:`Histogram`: an
immutable sequence of :class:`Segment` pieces, each approximating a
contiguous index range by a line segment.  Serial (piecewise-constant)
histograms are the special case where every segment is horizontal
(``left == right``); piecewise-linear histograms use arbitrary slopes.

The object knows how to reconstruct the approximate series and how to
measure its true error against the original data, which is how the
experiments of Section 5 score the algorithms.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

from repro.exceptions import InvalidParameterError


@dataclass(frozen=True)
class HistogramMeta:
    """Provenance a :class:`Histogram` optionally carries (``hist.meta``).

    Filled in by :func:`repro.api.summarize` and the service layer's query
    path so callers stop re-deriving "which method, how many buckets, over
    how many items" from context they may no longer have.

    Attributes
    ----------
    method:
        Registry name (or class name) of the producing algorithm.
    buckets:
        Bucket count of this histogram (``len(hist)``).
    requested_buckets:
        The bucket budget ``B`` the caller asked for (the merge family may
        legitimately answer with up to ``2 B``).
    error:
        The producing summary's reported maximum error (``hist.error``).
    items_seen:
        Stream values the producing summary had ingested.
    window:
        Window length for the sliding-window variants, else ``None``.
    epsilon:
        Approximation parameter for the ladder methods, else ``None``.
    """

    method: str
    buckets: int
    requested_buckets: int
    error: float
    items_seen: int
    window: Optional[int] = None
    epsilon: Optional[float] = None

    def to_dict(self) -> dict:
        """Plain-data form (used by the wire format)."""
        return asdict(self)


@dataclass(frozen=True)
class Segment:
    """A line segment approximating stream indices ``[beg, end]`` (inclusive).

    The approximation at index ``beg`` is ``left`` and at index ``end`` is
    ``right``; interior indices are linearly interpolated.  A horizontal
    segment (``left == right``) is a classic histogram bucket.
    """

    beg: int
    end: int
    left: float
    right: float

    def __post_init__(self) -> None:
        if self.beg > self.end:
            raise InvalidParameterError(
                f"segment range [{self.beg}, {self.end}] is empty"
            )

    @property
    def count(self) -> int:
        """Number of indices covered."""
        return self.end - self.beg + 1

    @property
    def slope(self) -> float:
        """Slope of the segment (0 for singleton or horizontal segments)."""
        if self.end == self.beg:
            return 0.0
        return (self.right - self.left) / (self.end - self.beg)

    @property
    def is_constant(self) -> bool:
        """True when the segment is horizontal (a serial-histogram bucket)."""
        return self.left == self.right

    def value_at(self, index: int) -> float:
        """Approximate value at a covered index."""
        if not self.beg <= index <= self.end:
            raise IndexError(
                f"index {index} outside segment [{self.beg}, {self.end}]"
            )
        if self.beg == self.end:
            return self.left
        return self.left + (index - self.beg) * self.slope


class Histogram:
    """An immutable piecewise-linear approximation of a stream prefix.

    Parameters
    ----------
    segments:
        Contiguous, ordered segments covering ``[segments[0].beg,
        segments[-1].end]`` without gaps or overlaps.
    error:
        The error the producing algorithm attributes to this histogram
        (the max bucket error it tracked).  For exact summaries this equals
        the true reconstruction error; approximate summaries may report an
        upper bound.
    meta:
        Optional :class:`HistogramMeta` provenance (method, budgets, items
        seen).  Not part of equality-of-approximation: two histograms with
        equal segments and error describe the same approximation whatever
        their meta says.
    """

    def __init__(
        self,
        segments: Iterable[Segment],
        error: float,
        *,
        meta: Optional[HistogramMeta] = None,
    ):
        segs = tuple(segments)
        if not segs:
            raise InvalidParameterError("a histogram needs at least one segment")
        for prev, cur in zip(segs, segs[1:]):
            if cur.beg != prev.end + 1:
                raise InvalidParameterError(
                    f"segments [{prev.beg},{prev.end}] and "
                    f"[{cur.beg},{cur.end}] are not contiguous"
                )
        if not error >= 0:
            raise InvalidParameterError(f"error must be non-negative, got {error}")
        self._segments = segs
        self._error = float(error)
        self._meta = meta

    @property
    def segments(self) -> tuple[Segment, ...]:
        """The contiguous segments, in stream order."""
        return self._segments

    @property
    def meta(self) -> Optional[HistogramMeta]:
        """Provenance attached by the producing layer, or ``None``."""
        return self._meta

    def with_meta(self, meta: HistogramMeta) -> "Histogram":
        """A copy of this histogram carrying ``meta`` (segments shared)."""
        clone = Histogram.__new__(Histogram)
        clone._segments = self._segments
        clone._error = self._error
        clone._meta = meta
        return clone

    @property
    def error(self) -> float:
        """Error reported by the producing algorithm."""
        return self._error

    @property
    def beg(self) -> int:
        """First covered stream index."""
        return self._segments[0].beg

    @property
    def end(self) -> int:
        """Last covered stream index (inclusive)."""
        return self._segments[-1].end

    @property
    def coverage(self) -> int:
        """Number of stream indices covered."""
        return self.end - self.beg + 1

    def __len__(self) -> int:
        """Number of segments (buckets) in the histogram."""
        return len(self._segments)

    def __iter__(self):
        return iter(self._segments)

    def __getitem__(self, i: int) -> Segment:
        return self._segments[i]

    def __repr__(self) -> str:
        return (
            f"Histogram(buckets={len(self)}, range=[{self.beg}, {self.end}], "
            f"error={self._error:g})"
        )

    def value_at(self, index: int) -> float:
        """Approximate value at a covered stream index (binary search)."""
        return self.segment_at(index).value_at(index)

    def reconstruct(self) -> list[float]:
        """The full approximate series over ``[beg, end]``."""
        out: list[float] = []
        for seg in self._segments:
            if seg.is_constant:
                out.extend([seg.left] * seg.count)
            else:
                slope = seg.slope
                out.extend(
                    seg.left + k * slope for k in range(seg.count)
                )
        return out

    def max_error_against(self, values: Sequence[float]) -> float:
        """Measured L-infinity error against the original values.

        ``values[i]`` must be the stream value at absolute index
        ``beg + i``; the sequence must cover the histogram's full range.
        """
        if len(values) != self.coverage:
            raise InvalidParameterError(
                f"expected {self.coverage} values covering "
                f"[{self.beg}, {self.end}], got {len(values)}"
            )
        worst = 0.0
        offset = self.beg
        for seg in self._segments:
            if seg.is_constant:
                rep = seg.left
                for i in range(seg.beg - offset, seg.end - offset + 1):
                    diff = values[i] - rep
                    if diff < 0:
                        diff = -diff
                    if diff > worst:
                        worst = diff
            else:
                slope = seg.slope
                for k in range(seg.count):
                    diff = values[seg.beg - offset + k] - (seg.left + k * slope)
                    if diff < 0:
                        diff = -diff
                    if diff > worst:
                        worst = diff
        return worst

    def segment_at(self, index: int) -> Segment:
        """The segment covering a stream index (binary search)."""
        if not self.beg <= index <= self.end:
            raise IndexError(
                f"index {index} outside histogram range [{self.beg}, {self.end}]"
            )
        lo, hi = 0, len(self._segments) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._segments[mid].end < index:
                lo = mid + 1
            else:
                hi = mid
        return self._segments[lo]

    def value_bounds(self, index: int) -> tuple[float, float]:
        """Guaranteed ``(low, high)`` bounds on the true value at ``index``.

        The true stream value lies within ``error`` of the reconstruction,
        so the interval ``[estimate - error, estimate + error]`` always
        contains it -- the point-query contract a max-error summary offers
        that an L2 summary cannot.
        """
        estimate = self.value_at(index)
        return estimate - self._error, estimate + self._error

    def range_sum_bounds(self, beg: int, end: int) -> tuple[float, float]:
        """Guaranteed bounds on the sum of true values over ``[beg, end]``.

        Each true value deviates from the reconstruction by at most
        ``error``, so the sum deviates by at most ``count * error``.
        Closed form per segment (no reconstruction materialized).
        """
        if not (self.beg <= beg <= end <= self.end):
            raise InvalidParameterError(
                f"range [{beg}, {end}] outside histogram range "
                f"[{self.beg}, {self.end}]"
            )
        estimate = 0.0
        for seg in self._segments:
            if seg.end < beg or seg.beg > end:
                continue
            lo = max(seg.beg, beg)
            hi = min(seg.end, end)
            # Sum of a linear function over [lo, hi]: count * midpoint value.
            count = hi - lo + 1
            midpoint = (seg.value_at(lo) + seg.value_at(hi)) / 2.0
            estimate += count * midpoint
        slack = (end - beg + 1) * self._error
        return estimate - slack, estimate + slack

    def range_max_bounds(self, beg: int, end: int) -> tuple[float, float]:
        """Guaranteed bounds on the maximum true value over ``[beg, end]``.

        The true maximum lies within ``error`` of the reconstruction's
        maximum over the range -- the "did anything spike in this window?"
        primitive of the monitoring scenario.
        """
        if not (self.beg <= beg <= end <= self.end):
            raise InvalidParameterError(
                f"range [{beg}, {end}] outside histogram range "
                f"[{self.beg}, {self.end}]"
            )
        peak = None
        for seg in self._segments:
            if seg.end < beg or seg.beg > end:
                continue
            lo = max(seg.beg, beg)
            hi = min(seg.end, end)
            local = max(seg.value_at(lo), seg.value_at(hi))
            if peak is None or local > peak:
                peak = local
        return peak - self._error, peak + self._error

    def slice(self, beg: int, end: int) -> "Histogram":
        """Sub-histogram covering exactly ``[beg, end]`` (inclusive).

        Boundary segments are clipped along their own lines, so the
        reconstruction over the slice is unchanged and the error bound
        still holds.
        """
        if not (self.beg <= beg <= end <= self.end):
            raise InvalidParameterError(
                f"slice [{beg}, {end}] outside histogram range "
                f"[{self.beg}, {self.end}]"
            )
        kept: list[Segment] = []
        for seg in self._segments:
            if seg.end < beg or seg.beg > end:
                continue
            new_beg = max(seg.beg, beg)
            new_end = min(seg.end, end)
            kept.append(
                Segment(
                    new_beg,
                    new_end,
                    seg.value_at(new_beg),
                    seg.value_at(new_end),
                )
            )
        return Histogram(kept, self._error)

    def to_dict(self) -> dict:
        """Plain-data form for transmission or storage.

        The motivating deployments (sensor networks, StatStream-style
        fleets) ship summaries across the network; this is the wire
        format, inverse of :meth:`from_dict`.  ``meta``, when attached,
        rides along as a nested dict.
        """
        payload = {
            "error": self._error,
            "segments": [
                [seg.beg, seg.end, seg.left, seg.right]
                for seg in self._segments
            ],
        }
        if self._meta is not None:
            payload["meta"] = self._meta.to_dict()
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        """Rebuild a histogram from :meth:`to_dict` output (validated)."""
        try:
            segments = [
                Segment(beg, end, left, right)
                for beg, end, left, right in data["segments"]
            ]
            error = data["error"]
            meta = data.get("meta")
            meta = HistogramMeta(**meta) if meta is not None else None
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParameterError(
                f"malformed histogram payload: {exc}"
            ) from exc
        return cls(segments, error, meta=meta)

    def to_json(self) -> str:
        """JSON wire form (see :meth:`to_dict`)."""
        import json

        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, payload: str) -> "Histogram":
        """Inverse of :meth:`to_json`."""
        import json

        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(
                f"malformed histogram JSON: {exc}"
            ) from exc
        return cls.from_dict(data)

    def boundaries(self) -> list[int]:
        """Bucket boundary markers ``a_0 < a_1 < ... < a_k`` as in Lemma 2.

        ``boundaries()[i]`` is the last index of segment ``i`` and
        ``boundaries()[-1] == end``; the leading marker ``beg - 1`` is
        omitted.
        """
        return [seg.end for seg in self._segments]
