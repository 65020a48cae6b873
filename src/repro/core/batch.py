"""Vectorized batch-ingest kernels (chunked pre-aggregation).

The summaries' scalar ``insert()`` is a per-item Python loop -- correct,
but far from stream rate.  This module supplies the NumPy kernels behind
the batched ``extend()`` overrides: a contiguous chunk is pre-reduced into
per-prospective-bucket ``(min, max, count)`` runs in O(chunk) vectorized
time, and each run is fed to the existing merge/increment state machines
through the O(1) ``insert_run(beg, end, lo, hi)`` primitive.

Everything here is *exact*: the kernels replay the very same float
comparisons the scalar code paths make, so batch and scalar ingestion
produce identical bucket state (property-tested in ``tests/test_batch.py``).
The exactness arguments, per family:

* GREEDY-INSERT -- bucket error is the half-range, which is monotone under
  absorption, so if a whole run fits in the open bucket then every prefix
  fits; the greedy boundary is the first index where the running half-range
  exceeds the target (:func:`absorbable_prefix`).
* MIN-MERGE -- at steady state the arriving singleton is absorbed into the
  tail exactly when its pair key is the strict heap minimum; the kernel
  checks that per-step condition against the static minimum of the
  untouched keys plus the evolving (prev, tail) key.  PWL MIN-MERGE with
  exact hulls reuses :func:`absorbable_prefix` the same way, since half a
  PWL bucket's vertical extent bounds its line-fit error.

The PWL GREEDY-INSERT summaries have no kernel here: their scalar loop,
with the slope-strip certificate of :mod:`repro.core.pwl_bucket`, is
faster than batching hull points through NumPy.

Inputs that cannot be coerced to a 1-D numeric array (object dtypes,
NaNs, generators) fall back to the scalar loop; rough streams where the
vectorized runs degenerate to a handful of items switch to a scalar block
as well, so batch ingestion never loses to ``insert()`` by more than a
small constant.
"""

from __future__ import annotations

import numbers
from typing import Optional

import numpy as np

from repro.core.bucket import Bucket
from repro.exceptions import InvalidParameterError

#: Upper bound on the items a single kernel window examines at once; keeps
#: the temporary accumulate arrays cache-sized no matter the chunk length.
MAX_WINDOW = 1 << 16

#: Number of consecutive short vectorized runs after which a greedy driver
#: degrades to a scalar block (the stream is too rough to amortize the
#: per-call NumPy overhead).
_DEGRADE_AFTER = 8

#: Items handled by one degraded scalar block before retrying the kernel.
_DEGRADE_BLOCK = 512

_START_WINDOW = 64


def as_batch_array(values) -> Optional[np.ndarray]:
    """Coerce ``values`` to a 1-D numeric ndarray, or return ``None``.

    ``None`` means "not batchable" and the caller must use the scalar
    insert loop: non-sequences (generators), object dtypes, booleans, and
    float arrays containing NaN (whose comparison semantics differ from
    the scalar path) are all rejected.  ndarray input is returned as-is --
    no copy -- so callers can batch without materializing twice.
    """
    if isinstance(values, np.ndarray):
        arr = values
    elif isinstance(values, (list, tuple)):
        if not values:
            return np.empty(0)
        try:
            arr = np.asarray(values)
        except (ValueError, TypeError):
            return None
    else:
        return None
    if arr.ndim != 1 or arr.dtype.kind not in "iuf":
        return None
    if arr.dtype.kind == "f" and bool(np.isnan(arr).any()):
        return None
    return arr


def coerce_batch(values):
    """Normalize an append payload to a sized batch (no copies).

    The unified ``append()`` signature (engine, session handle, service
    client) accepts scalars, sequences, and ndarrays through this one
    funnel:

    * a scalar (Python or NumPy number, or a 0-d array) becomes a
      single-item list;
    * a 1-D ndarray or any sized sequence passes through **unchanged**
      (the zero-copy contract of the binary ingest path);
    * other iterables (generators) are materialized exactly once;
    * text and raw bytes are rejected -- they are sized sequences, but
      appending ``"abc"`` as three code points is never what the caller
      meant.
    """
    if isinstance(values, (str, bytes, bytearray, memoryview)):
        raise InvalidParameterError(
            "values must be a number or a sequence of numbers, "
            f"not {type(values).__name__}"
        )
    if isinstance(values, np.ndarray):
        return [values.item()] if values.ndim == 0 else values
    if isinstance(values, numbers.Number):
        return [values]
    if hasattr(values, "__len__"):
        return values
    return list(values)


def absorbable_prefix(
    lo_vals: np.ndarray,
    hi_vals: np.ndarray,
    start: int,
    lo,
    hi,
    target: float,
    *,
    inclusive: bool = True,
):
    """Longest prefix of ``[start:]`` whose running half-range stays in budget.

    ``lo_vals[t]`` / ``hi_vals[t]`` bound item ``t`` (they are the same
    array for raw values, per-group minima/maxima for pre-reduced groups).
    The running bounds are seeded with ``lo`` / ``hi`` -- the open bucket's
    current extremes.  Returns ``(stop, lo, hi)`` where ``stop`` is the
    first index whose absorption pushes ``(hi - lo) / 2.0`` past ``target``
    (``len`` when none does) and ``lo`` / ``hi`` are the combined bounds
    after absorbing everything before ``stop``.

    With ``inclusive`` (the greedy rule) a half-range *equal* to the target
    is still absorbed; the strict variant is what the MIN-MERGE fast path
    needs.  The float comparisons are exactly those of
    :meth:`Bucket.would_extend_error` against the target, so the boundary
    matches the scalar code bit for bit.
    """
    n = len(lo_vals)
    j = start
    window = _START_WINDOW
    while j < n:
        ehi = np.maximum.accumulate(hi_vals[j : j + window])
        elo = np.minimum.accumulate(lo_vals[j : j + window])
        ehi = np.maximum(ehi, hi)
        elo = np.minimum(elo, lo)
        err = (ehi - elo) / 2.0
        bad = err >= target if not inclusive else err > target
        stop = int(np.argmax(bad))
        if bad[stop]:
            if stop == 0:
                return j, lo, hi
            return j + stop, elo[stop - 1].item(), ehi[stop - 1].item()
        lo = elo[-1].item()
        hi = ehi[-1].item()
        j += len(ehi)
        window = min(window * 2, MAX_WINDOW)
    return n, lo, hi


def greedy_chunk(
    arr: np.ndarray,
    base: int,
    open_: Optional[Bucket],
    closed_append,
    target: float,
) -> tuple[Optional[Bucket], int]:
    """Replay GREEDY-INSERT over ``arr`` with vectorized run absorption.

    ``base`` is the absolute stream index of ``arr[0]``; ``open_`` is the
    summary's current open bucket (or ``None``) and ``closed_append``
    receives each bucket the greedy closes.  Returns ``(open, consumed)``;
    every item is consumed.
    """
    n = len(arr)
    i = 0
    short = 0
    block = _DEGRADE_BLOCK
    while i < n:
        if open_ is None:
            open_ = Bucket.singleton(base + i, arr[i].item())
            i += 1
            continue
        if short >= _DEGRADE_AFTER:
            # Persistently short runs: fall back to the scalar loop over a
            # block, unboxed once via tolist().  The block grows each time
            # the kernel probe fails again, so a stream too rough to
            # vectorize converges to plain scalar speed.
            short = 0
            stop = min(n, i + block)
            if block < MAX_WINDOW:
                block *= 8
            for v in arr[i:stop].tolist():
                if open_.would_extend_error(v) <= target:
                    open_.extend(v)
                else:
                    closed_append(open_)
                    open_ = Bucket.singleton(base + i, v)
                i += 1
            continue
        j, lo, hi = absorbable_prefix(arr, arr, i, open_.min, open_.max, target)
        run = j - i
        if run:
            open_.insert_run(open_.end + 1, open_.end + run, lo, hi)
            i = j
        if run < 4:
            short += 1
        else:
            short = 0
            block = _DEGRADE_BLOCK
        if j < n:
            closed_append(open_)
            open_ = Bucket.singleton(base + j, arr[j].item())
            i = j + 1
    return open_, i

