"""Rank-normalised effective sample size and split R-hat in numpy.

Follows Vehtari, Gelman, Simpson, Carpenter and Buerkner, "Rank-normalization,
folding, and localization: an improved R-hat for assessing convergence of
MCMC", Bayesian Analysis 2021 (arXiv 1903.08008):

- chains are split in half, so a trend inside one chain shows as disagreement
  between its halves;
- bulk ESS is the ESS of the rank-normalised (z-scored) split draws;
- tail ESS is the smaller ESS of the 5 % and 95 % quantile indicators;
- R-hat is the larger of the split R-hat of the z-scored draws and of the
  z-scored draws folded around their median.

The autocorrelation sum uses Geyer's initial monotone sequence over the
multi-chain autocorrelation estimate.  Every function takes draws shaped
(chains, draws).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri

__all__ = ["ess", "ess_bulk", "ess_tail", "rhat", "split_chains", "z_scale"]


def _as_chains(draws) -> np.ndarray:
    arr = np.asarray(draws, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] < 4:
        raise ValueError(f"need draws shaped (chains, n >= 4), got {arr.shape}")
    return arr


def split_chains(draws) -> np.ndarray:
    """(C, N) -> (2C, N // 2); the middle draw of an odd-length chain is dropped."""
    arr = _as_chains(draws)
    half = arr.shape[1] // 2
    return np.concatenate([arr[:, :half], arr[:, -half:]], axis=0)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    flat = values.ravel()
    order = np.argsort(flat, kind="mergesort")
    sorted_vals = flat[order]
    # runs of equal values share the mean of their 1-based positions
    starts = np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1]))
    run_id = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    last = np.concatenate((first[1:], [flat.size])) - 1
    mean_rank = 0.5 * (first + last) + 1.0
    ranks = np.empty(flat.size)
    ranks[order] = mean_rank[run_id]
    return ranks.reshape(values.shape)


def z_scale(draws) -> np.ndarray:
    """Rank-normalise: pooled average ranks through the normal quantile
    function, with the (r - 3/8) / (S + 1/4) offset of Blom."""
    arr = np.asarray(draws, dtype=float)
    return ndtri((_average_ranks(arr) - 0.375) / (arr.size + 0.25))


def _autocov(arr: np.ndarray) -> np.ndarray:
    """Biased (divide-by-N) autocovariance of each row, by FFT."""
    n = arr.shape[1]
    centred = arr - arr.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centred, n=size, axis=1)
    return np.fft.irfft(spec * np.conj(spec), n=size, axis=1)[:, :n] / n


def ess(draws) -> float:
    """Multi-chain ESS of (chains, draws) as given (no split, no ranks)."""
    arr = _as_chains(draws)
    n_chain, n = arr.shape
    acov = _autocov(arr)
    mean_var = float(np.mean(acov[:, 0])) * n / (n - 1.0)
    if not mean_var > 0.0:
        return math.nan
    var_plus = mean_var * (n - 1.0) / n
    if n_chain > 1:
        var_plus += float(np.var(arr.mean(axis=1), ddof=1))
    mean_acov = acov.mean(axis=0)
    rho = np.zeros(n)
    rho[0] = 1.0
    rho_even = 1.0
    rho_odd = 1.0 - (mean_var - mean_acov[1]) / var_plus
    rho[1] = rho_odd
    # Geyer's initial positive sequence: sum lag pairs while their sum is positive
    t = 1
    while t < n - 3 and rho_even + rho_odd > 0.0:
        rho_even = 1.0 - (mean_var - mean_acov[t + 1]) / var_plus
        rho_odd = 1.0 - (mean_var - mean_acov[t + 2]) / var_plus
        if rho_even + rho_odd >= 0.0:
            rho[t + 1] = rho_even
            rho[t + 2] = rho_odd
        t += 2
    max_t = t - 2
    if rho_even > 0.0:
        rho[max_t + 1] = rho_even
    # Geyer's initial monotone sequence: pair sums may not increase
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = rho[t + 2] = 0.5 * (rho[t - 1] + rho[t])
        t += 2
    total = n_chain * n
    tau = -1.0 + 2.0 * float(np.sum(rho[: max_t + 1])) + float(np.sum(rho[max_t + 1: max_t + 2]))
    tau = max(tau, 1.0 / math.log10(total))
    return total / tau


def ess_bulk(draws) -> float:
    """Bulk ESS: ESS of the rank-normalised split chains."""
    return ess(z_scale(split_chains(draws)))


def ess_tail(draws) -> float:
    """Tail ESS: the smaller ESS of the 5 % and 95 % quantile indicators."""
    split = split_chains(draws)
    lo, hi = np.quantile(split, [0.05, 0.95])
    return min(ess((split <= lo).astype(float)), ess((split <= hi).astype(float)))


def _split_rhat(split: np.ndarray) -> float:
    n = split.shape[1]
    within = float(np.mean(np.var(split, axis=1, ddof=1)))
    if not within > 0.0:
        return math.nan
    between = n * float(np.var(split.mean(axis=1), ddof=1))
    return math.sqrt((between / within + n - 1.0) / n)


def rhat(draws) -> float:
    """Rank-normalised split R-hat: max of the bulk and the folded-tail value."""
    split = split_chains(draws)
    folded = np.abs(split - np.median(split))
    return max(_split_rhat(z_scale(split)), _split_rhat(z_scale(folded)))
