"""Capacity planning: which summary, how many buckets, how much memory?

A deployment question the paper's scenarios raise but never automate:
given a *sample* of the data and a target maximum error, how many buckets
does each representation need, and what will each streaming algorithm's
memory footprint be?  :func:`plan_summary` answers it from the offline
duals (Lemma 2 and its PWL analogue) plus the library's explicit memory
model, and :func:`compression_profile` traces the whole error-vs-buckets
curve for plotting or tabling.

These run offline on a sample; the returned plan parameterizes the
streaming classes for the live deployment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.error_ladder import ErrorLadder
from repro.exceptions import InvalidParameterError
from repro.memory.model import DEFAULT_MODEL, MemoryModel
from repro.offline.optimal import min_buckets_for_error, optimal_error
from repro.offline.optimal_pwl import (
    min_pwl_buckets_for_error,
    optimal_pwl_error,
)


@dataclass(frozen=True)
class PlanOption:
    """One candidate configuration in a :class:`SummaryPlan`."""

    algorithm: str
    buckets: int
    projected_memory_bytes: int
    notes: str


@dataclass(frozen=True)
class SummaryPlan:
    """Result of :func:`plan_summary`: per-algorithm recommendations."""

    target_error: float
    sample_size: int
    serial_buckets_needed: int
    pwl_buckets_needed: int
    options: tuple[PlanOption, ...]

    def best(self) -> PlanOption:
        """The option with the smallest projected memory."""
        return min(self.options, key=lambda o: o.projected_memory_bytes)


def plan_summary(
    sample: Sequence,
    target_error: float,
    *,
    epsilon: float = 0.2,
    universe: Optional[int] = None,
    memory_model: MemoryModel = DEFAULT_MODEL,
) -> SummaryPlan:
    """Recommend bucket budgets and algorithms for a target max error.

    Parameters
    ----------
    sample:
        Representative data (the duals are exact on the sample; live
        streams with the same character need similar budgets).
    target_error:
        The L-infinity error the deployment must not exceed.
    epsilon:
        Slack for the (1 + eps) streaming algorithms: their budgets are
        computed for ``target_error / (1 + eps)`` so that the *answer*
        stays within the target.
    universe:
        Value-domain size for ladder-based projections (defaults to the
        sample's maximum plus one).
    """
    if len(sample) == 0:
        raise InvalidParameterError("cannot plan from an empty sample")
    if not target_error >= 0:
        raise InvalidParameterError(
            f"target_error must be >= 0, got {target_error}"
        )
    if universe is None:
        universe = max(2, int(max(sample)) + 1)

    serial_needed = min_buckets_for_error(sample, target_error)
    pwl_needed = min_pwl_buckets_for_error(sample, target_error)
    # Budgets for the (1 + eps) algorithms: they may return up to
    # (1 + eps) x the optimum of their budget, so plan against a
    # tightened error.
    tightened = target_error / (1.0 + epsilon)
    serial_tight = min_buckets_for_error(sample, tightened)
    pwl_tight = min_pwl_buckets_for_error(sample, tightened)
    ladder_levels = len(ErrorLadder(epsilon, universe))

    model = memory_model
    options = (
        PlanOption(
            algorithm="min-merge",
            buckets=serial_needed,
            projected_memory_bytes=(
                model.buckets(2 * serial_needed)
                + model.heap_entries(2 * serial_needed - 1)
            ),
            notes=(
                "2B working buckets; error <= optimal-B <= target by "
                "Theorem 1"
            ),
        ),
        PlanOption(
            algorithm="min-increment",
            buckets=serial_tight,
            projected_memory_bytes=(
                ladder_levels
                * (model.buckets(serial_tight) + model.open_buckets(1))
                + model.ladder_entries(ladder_levels)
            ),
            notes=(
                "budget sized for target/(1+eps); worst case over "
                f"{ladder_levels} ladder levels (live usage is usually far "
                "lower as levels die)"
            ),
        ),
        PlanOption(
            algorithm="pwl-min-merge",
            buckets=pwl_needed,
            projected_memory_bytes=(
                2 * pwl_needed * (model.pwl_headers(1) + model.hull_vertices(68))
                + model.heap_entries(2 * pwl_needed - 1)
            ),
            notes=(
                "2B working buckets with ~68-vertex kernel hulls "
                "(a mid-range projection); wins when the data trends"
            ),
        ),
        PlanOption(
            algorithm="pwl-min-increment",
            buckets=pwl_tight,
            projected_memory_bytes=(
                ladder_levels
                * (
                    model.buckets(pwl_tight)
                    + model.pwl_headers(1)
                    + model.hull_vertices(68)
                )
                + model.ladder_entries(ladder_levels)
            ),
            notes="closed buckets at 4 words; one capped hull per level",
        ),
    )
    return SummaryPlan(
        target_error=target_error,
        sample_size=len(sample),
        serial_buckets_needed=serial_needed,
        pwl_buckets_needed=pwl_needed,
        options=options,
    )


def compression_profile(
    sample: Sequence,
    bucket_sweep: Sequence[int],
    *,
    pwl_tol: float = 1e-3,
) -> list[dict]:
    """Optimal error at each bucket budget, serial and PWL.

    Returns one row per budget: ``{"buckets", "serial-error",
    "pwl-error", "serial-bytes", "pwl-ratio"}`` where ``pwl-ratio`` is the
    PWL error as a fraction of the serial error (Figure 9's quantity) and
    ``serial-bytes`` the raw cost of storing that many 4-word buckets.
    """
    if len(sample) == 0:
        raise InvalidParameterError("cannot profile an empty sample")
    if not bucket_sweep:
        raise InvalidParameterError("bucket_sweep must be non-empty")
    rows = []
    for buckets in bucket_sweep:
        serial = optimal_error(sample, buckets)
        pwl = optimal_pwl_error(sample, buckets, tol=pwl_tol)
        rows.append(
            {
                "buckets": buckets,
                "serial-error": serial,
                "pwl-error": pwl,
                "serial-bytes": DEFAULT_MODEL.buckets(buckets),
                "pwl-ratio": (pwl / serial) if serial > 0 else math.nan,
            }
        )
    return rows
