"""The correctness gate: every output checked before any timing is reported.

Three checks, any of which fails the whole run:

* each served stream's final histogram is bit-identical to ``summarize()``
  over its acknowledged values (the load harness's ledger and
  ``verify_stream``, so an ambiguous batch would be handled exactly as
  the load generator handles it);
* each stream's error lies within its method's theorem bound times the
  exact optimum ``optimal_error`` at the same bucket budget;
* no operation failed or was refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from common import GateError

#: Error factor each method guarantees against the optimal B-bucket
#: histogram: (1, 2) for the merge family, (1 + eps, 1) for the ladders.
FACTORS = {
    "min-merge": lambda eps: 1.0,
    "pwl-min-merge": lambda eps: 1.0,
    "min-increment": lambda eps: 1.0 + eps,
    "pwl": lambda eps: 1.0 + eps,
}

#: Float slack on the bound checks; the guarantees themselves are exact.
TOLERANCE = 1e-9


@dataclass
class StreamLedger:
    """What one stream was sent and what the server acknowledged."""

    name: str
    method: str
    batches: List[np.ndarray] = field(default_factory=list)
    items: int = 0

    def ack(self, batch: np.ndarray) -> None:
        self.batches.append(batch)
        self.items += len(batch)

    def values(self) -> np.ndarray:
        return np.concatenate(self.batches) if self.batches else np.empty(0)


def error_ratio(method: str, error: float, values, buckets: int, epsilon: float):
    """``error / optimal_error``; raises when the theorem bound is broken.

    Returns ``None`` when the optimum is 0 (a stream of at most B
    distinct runs), where the ratio is undefined and the bound demands
    an exact histogram.
    """
    from repro.offline.optimal import optimal_error

    # The oracle indexes item by item: a list is several times faster
    # to walk than an ndarray.
    optimum = optimal_error(np.asarray(values).tolist(), buckets)
    bound = FACTORS[method](epsilon) * optimum + TOLERANCE
    if error > bound:
        raise GateError(
            f"{method}: error {error} exceeds its bound {bound} "
            f"(optimal {optimum} at B={buckets})"
        )
    return error / optimum if optimum > 0 else None


def verify_served(
    ledgers: Dict[str, StreamLedger],
    served: Dict[str, object],
    served_items: Dict[str, int],
    *,
    buckets: int,
    epsilon: float,
) -> float:
    """Gate every served stream; returns the worst error ratio.

    ``served`` maps each stream to the histogram its final query
    returned, ``served_items`` to its ``items_seen`` from ``stats``.
    """
    from repro.loadgen.harness import (
        BatchRecord,
        ClientResult,
        LoadVerificationError,
        verify_stream,
    )

    ratios = []
    for name, ledger in sorted(ledgers.items()):
        hist = served.get(name)
        if hist is None:
            raise GateError(f"stream {name}: no final histogram was served")
        result = ClientResult(stream=name, method=ledger.method, transport="bench")
        result.batches = [BatchRecord(values=batch.tolist()) for batch in ledger.batches]
        result.served_segments = [
            [s.beg, s.end, s.left, s.right] for s in hist.segments
        ]
        result.served_error = hist.error
        result.served_items = served_items[name]
        try:
            verify_stream(result, buckets=buckets)
        except LoadVerificationError as exc:
            raise GateError(str(exc)) from exc
        ratios.append(
            error_ratio(ledger.method, hist.error, ledger.values(), buckets, epsilon)
        )
    return worst_ratio(ratios)


def worst_ratio(ratios) -> float:
    """The largest defined error ratio (at least one must be defined)."""
    defined = [r for r in ratios if r is not None]
    if not defined:
        raise GateError("every stream is exact (optimal error 0); no error ratio")
    return max(defined)


def no_failures(attempted: int, failed: int, errors: Optional[List[str]] = None) -> None:
    if failed:
        raise GateError(
            f"{failed} of {attempted} operations failed: " + "; ".join((errors or [])[:5])
        )
