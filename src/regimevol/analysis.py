"""Post-fit analytics: expected state durations, the two volatility
indicators, affine alignment to a reference index and the squared-distance
score."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NumericalError, ParameterError, check_entries, check_positive
from .regime import check_probability_rows, validate_transition_matrix

__all__ = [
    "DurationReport",
    "expected_durations",
    "durations_from_draws",
    "IndicatorSeries",
    "indicator_jump",
    "indicator_stable",
    "affine_align",
    "score",
]


@dataclass
class DurationReport:
    """Expected sojourn times, one per state, in observation steps."""

    durations: np.ndarray


def expected_durations(transition: np.ndarray) -> DurationReport:
    """Closed form 1/(1 - p_jj) per state; sojourns are geometric.

    ParameterError unless ``transition`` is a square row-stochastic matrix
    with no absorbing state.
    """
    diag = np.diag(validate_transition_matrix(transition))
    stuck = np.nonzero(diag >= 1.0)[0]
    if stuck.size:
        raise ParameterError(
            f"state {stuck[0] + 1} is absorbing (p_jj >= 1); its expected duration is infinite"
        )
    return DurationReport(durations=1.0 / (1.0 - diag))


def durations_from_draws(transitions: Iterable[np.ndarray]) -> DurationReport:
    """Posterior-mean duration: average 1/(1 - p_jj) over transition draws.

    Differs slightly from applying the closed form to the averaged matrix
    (Jensen); both estimators are reported by the pipeline.
    """
    total = None
    count = 0
    for p in transitions:
        d = expected_durations(p).durations
        total = d if total is None else total + d
        count += 1
    if count == 0:
        raise ParameterError("no transition draws supplied")
    return DurationReport(durations=total / count)


@dataclass
class IndicatorSeries:
    """Per-time expected standard deviation implied by a fitted model.

    ``alignment`` records the fitted affine transform (a, c) when the series
    has been aligned to a reference index.
    """

    values: np.ndarray
    kind: str  # "jump" or "stable"
    alignment: tuple[float, float] | None = None


def _filtered_matrix(filtered: np.ndarray, *estimates: np.ndarray) -> list[np.ndarray]:
    """The (T, M) filtered matrix, then each per-state estimate as a float
    vector; ParameterError unless every row of the matrix is >= 0 and sums to
    1, and each estimate has M entries, finite and >= 0."""
    probs = np.asarray(filtered)
    if probs.ndim != 2:
        raise ParameterError("filtered probabilities must be a (T, M) matrix")
    check_probability_rows(probs, "filtered-probability")
    ests = [np.asarray(est, dtype=float) for est in estimates]
    for est in ests:
        if est.size != probs.shape[1]:
            raise ParameterError(f"per-state estimates must match the filtered matrix width "
                                 f"{probs.shape[1]}, got {est}")
        check_entries((est >= 0.0) & (est < np.inf), "per-state estimates must be finite and >= 0",
                      est)
    return [probs, *ests]


def indicator_jump(
    filtered: np.ndarray,
    sigma_sq_hat: np.ndarray,
    n_hat: np.ndarray,
    b: float,
) -> IndicatorSeries:
    """Jump-model indicator: sqrt of the filtered-probability mixture of
    sigma_j^2 + N_j (N_j + 1) / b^2, the per-state total variance including
    the expected jump contribution.  ParameterError naming b when a state's
    variance overflows."""
    check_positive("jump amplitude rate b", b)
    probs, sigma_sq_hat, n_hat = _filtered_matrix(filtered, sigma_sq_hat, n_hat)
    with np.errstate(over="ignore"):
        state_var = sigma_sq_hat + n_hat * (n_hat + 1.0) / b / b
    check_entries(np.isfinite(state_var),
                  f"jump amplitude rate b = {b} makes a state variance overflow", state_var)
    return IndicatorSeries(values=np.sqrt(probs @ state_var), kind="jump")


def indicator_stable(
    filtered: np.ndarray,
    lambda_hat: float,
    gamma_sq_hat: np.ndarray,
) -> IndicatorSeries:
    """Stable-model indicator: sqrt(lambda * filtered-mixture of gamma_j^2);
    invariant under rescalings that preserve lambda * gamma^2."""
    check_positive("lambda_hat", lambda_hat)
    probs, gamma_sq_hat = _filtered_matrix(filtered, gamma_sq_hat)
    return IndicatorSeries(values=np.sqrt(lambda_hat * (probs @ gamma_sq_hat)), kind="stable")


def _paired(indicator: IndicatorSeries, reference: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indicator's values and the reference as a float array;
    ParameterError unless they share a shape and both are finite, naming
    the first pair that is not."""
    vals = indicator.values
    ref = np.asarray(reference, dtype=float)
    if ref.shape != vals.shape:
        raise ParameterError(
            f"indicator and reference lengths differ: {vals.shape} vs {ref.shape}"
        )
    pairs = np.column_stack((vals, ref))
    check_entries(np.isfinite(pairs), "indicator and reference must be finite", pairs)
    return vals, ref


def affine_align(indicator: IndicatorSeries, reference: np.ndarray) -> IndicatorSeries:
    """Least-squares fit of a * I_t + c to the reference; returns the
    transformed series with the fitted (a, c) recorded."""
    vals, ref = _paired(indicator, reference)
    var = float(np.var(vals))
    if var <= 0.0:
        raise NumericalError("indicator has zero variance; affine alignment is degenerate")
    a = float(np.cov(vals, ref, bias=True)[0, 1] / var)
    c = float(ref.mean() - a * vals.mean())
    return IndicatorSeries(values=a * vals + c, kind=indicator.kind, alignment=(a, c))


def score(indicator: IndicatorSeries, reference: np.ndarray) -> float:
    """Sum of squared differences between the indicator and the reference."""
    vals, ref = _paired(indicator, reference)
    return float(np.sum((vals - ref) ** 2))
