"""Buckets under the maximum relative error metric.

For non-negative values, representing the range ``[lo, hi]`` by a single
value ``v`` costs ``max((v - lo) / a, (hi - v) / b)`` where
``a = max(lo, c)`` and ``b = max(hi, c)`` are the sanity-bounded
denominators (only the extremes matter: ``|x - v| / max(x, c)`` is
monotone on either side of ``v``).  Equalizing the two terms gives the
closed forms

    v*  = (lo * b + hi * a) / (a + b)
    err = (hi - lo) / (a + b)

Both monotonicity properties the paper's proofs rely on hold:

* *extension*: pushing ``hi`` up (or ``lo`` down) strictly increases
  ``(hi - lo) / (a + b)`` -- the derivative of ``(h - lo) / (a + h)`` in
  ``h`` is ``(a + lo) / (a + h)^2 > 0`` (symmetrically for ``lo``);
* *union*: the union of two buckets extends both ends, so its error
  dominates each part's.

Hence GREEDY-INSERT is exactly optimal per target error (Lemma 2's proof
verbatim) and MIN-MERGE keeps the (1, 2) guarantee (Lemma 1's pigeonhole
only needs union-monotonicity).
"""

from __future__ import annotations

import math

from repro.exceptions import InvalidParameterError


class RelativeBucket:
    """Bucket ``(beg, end, min, max)`` scored by maximum relative error."""

    __slots__ = ("beg", "end", "min", "max", "sanity")

    def __init__(self, beg: int, end: int, lo, hi, *, sanity: float = 1.0):
        if beg > end:
            raise InvalidParameterError(f"bucket range [{beg}, {end}] is empty")
        if lo > hi:
            raise InvalidParameterError(f"bucket min {lo} exceeds max {hi}")
        if lo < 0:
            raise InvalidParameterError(
                f"relative-error buckets need non-negative values, got {lo}"
            )
        if sanity <= 0:
            raise InvalidParameterError(f"sanity must be positive, got {sanity}")
        self.beg = beg
        self.end = end
        self.min = lo
        self.max = hi
        self.sanity = sanity

    @classmethod
    def singleton(cls, index: int, value, *, sanity: float = 1.0) -> "RelativeBucket":
        """Bucket holding exactly the stream item ``(index, value)``."""
        return cls(index, index, value, value, sanity=sanity)

    @property
    def count(self) -> int:
        """Number of stream items the bucket covers."""
        return self.end - self.beg + 1

    def _denominators(self) -> tuple[float, float]:
        c = self.sanity
        return (self.min if self.min > c else c), (self.max if self.max > c else c)

    @property
    def representative(self) -> float:
        """The relative-error-optimal single value."""
        a, b = self._denominators()
        return (self.min * b + self.max * a) / (a + b)

    @property
    def error(self) -> float:
        """Maximum relative error of the optimal representative."""
        a, b = self._denominators()
        return (self.max - self.min) / (a + b)

    def extend(self, value) -> None:
        """Absorb the next stream value (at index ``end + 1``) in place."""
        if value < 0:
            raise InvalidParameterError(
                f"relative-error buckets need non-negative values, got {value}"
            )
        self.end += 1
        if value < self.min:
            self.min = value
        elif value > self.max:
            self.max = value

    def would_extend_error(self, value) -> float:
        """Error after absorbing ``value``, without mutating."""
        lo = value if value < self.min else self.min
        hi = value if value > self.max else self.max
        c = self.sanity
        a = lo if lo > c else c
        b = hi if hi > c else c
        return (hi - lo) / (a + b)

    def merged_with(self, other: "RelativeBucket") -> "RelativeBucket":
        """Union of two adjacent buckets."""
        if other.beg != self.end + 1:
            raise InvalidParameterError(
                f"buckets [{self.beg},{self.end}] and "
                f"[{other.beg},{other.end}] are not adjacent"
            )
        return RelativeBucket(
            self.beg,
            other.end,
            min(self.min, other.min),
            max(self.max, other.max),
            sanity=self.sanity,
        )

    def merge_error_with(self, other: "RelativeBucket") -> float:
        """Error of the union bucket, without constructing it."""
        lo = self.min if self.min <= other.min else other.min
        hi = self.max if self.max >= other.max else other.max
        c = self.sanity
        a = lo if lo > c else c
        b = hi if hi > c else c
        return (hi - lo) / (a + b)

    def __repr__(self) -> str:
        return (
            f"RelativeBucket(beg={self.beg}, end={self.end}, "
            f"min={self.min}, max={self.max})"
        )


def relative_error_ladder(
    epsilon: float, universe: int, *, sanity: float = 1.0
) -> list[float]:
    """Geometric target ladder for relative errors.

    Relative bucket errors live in ``[0, 1)``; the smallest nonzero value
    on an integer domain ``[0, U)`` with sanity ``c`` is at least
    ``1 / (2U)``, so the ladder is ``{0} + {e_min (1+eps)^i}`` up to 1 --
    ``O(eps^-1 log U)`` levels, mirroring the absolute-error ladder.
    """
    if not 0 < epsilon < 1:
        raise InvalidParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
    if universe < 2:
        raise InvalidParameterError(f"universe must be at least 2, got {universe}")
    floor = 1.0 / (2.0 * max(universe, sanity * 2))
    levels = [0.0]
    e = floor
    while True:
        levels.append(e)
        if e >= 1.0:
            break
        e *= 1.0 + epsilon
    return levels


def min_relative_buckets_for_error(values, error: float, *, sanity: float = 1.0) -> int:
    """Minimum buckets covering ``values`` within relative ``error``.

    One greedy scan; exactly optimal by the Lemma 2 argument (the bucket
    error is monotone under extension).
    """
    if not error >= 0:
        raise InvalidParameterError(f"error must be >= 0, got {error}")
    if len(values) == 0:
        return 0
    count = 1
    bucket = RelativeBucket.singleton(0, values[0], sanity=sanity)
    for i in range(1, len(values)):
        v = values[i]
        if bucket.would_extend_error(v) <= error:
            bucket.extend(v)
        else:
            count += 1
            bucket = RelativeBucket.singleton(i, v, sanity=sanity)
    return count


def brute_force_min_relative_buckets(
    values, error: float, *, sanity: float = 1.0
) -> int:
    """Reference DP used by the tests (quadratic; tiny inputs only)."""
    n = len(values)
    if n == 0:
        return 0
    inf = math.inf
    best = [inf] * (n + 1)
    best[0] = 0
    for j in range(1, n + 1):
        lo = hi = values[j - 1]
        for i in range(j - 1, -1, -1):
            v = values[i]
            lo = v if v < lo else lo
            hi = v if v > hi else hi
            a = lo if lo > sanity else sanity
            b = hi if hi > sanity else sanity
            if (hi - lo) / (a + b) <= error:
                if best[i] + 1 < best[j]:
                    best[j] = best[i] + 1
            else:
                break
    return int(best[n])
