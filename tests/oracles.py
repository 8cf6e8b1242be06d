"""Brute-force and adaptive-quadrature references the package is tested against.

Nothing here runs in a fit: path enumeration, grid posteriors and adaptive
quadrature are slow, and ``scipy.integrate`` / ``scipy.optimize`` are heavy to
import.  The oracles share no numerics with the modules they check beyond the
basic density functions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.special import gammaln, logsumexp

from regimevol.distributions import _check_convolution_params, check_alpha
from regimevol.errors import NumericalError, ParameterError
from regimevol.regime import validate_transition_matrix

_MAX_ENUMERATION = 10_000


# ---------------------------------------------------------------------------
# densities by adaptive quadrature


def jump_convolved_pdf(z: float, mu: float, sigma: float, n_jumps: int, b: float) -> float:
    """Density of Normal(mu, sigma^2) + symGamma(n_jumps, b) at z.

    The even jump density folds the convolution integral onto y > 0, where
    it is the sum of two terms y^(n-1) exp(-b y - (y - c)^2 / (2 sigma^2)),
    one for each sign c = +-(z - mu).  Each term's log is concave with
    curvature at most -1/sigma^2, so its peak has a closed form and the term
    is at most e^-98 of the peak value beyond 14 sigma of it.  Each term is
    divided by its peak value and integrated by adaptive Gauss-Kronrod
    quadrature on that window alone, and the peak's log is added back.  A
    narrow Gaussian bump far out in the Gamma tail thus gets the whole
    window, rather than a sliver of a range that spans the Gamma bulk.
    Target 1e-12, contract <= 1e-10, relative.
    """
    n = _check_convolution_params(sigma, n_jumps, b)
    var = sigma * sigma
    log_terms = []
    for c in (z - mu, mu - z):
        # peak of log_f: the root of (n-1)/y - b - (y - c)/sigma^2, without cancellation
        a, q = c - b * var, (n - 1) * var
        root = math.sqrt(a * a + 4.0 * q)
        peak = 0.5 * (a + root) if a >= 0 else 2.0 * q / (root - a)

        def log_f(y, c=c):
            power = (n - 1) * math.log(y) if n > 1 else 0.0
            return power - b * y - 0.5 * (y - c) ** 2 / var

        log_peak = log_f(peak)
        lo, hi = max(0.0, peak - 14.0 * sigma), peak + 14.0 * sigma
        # Gauss-Kronrod nodes are interior, so y = 0 is never evaluated
        val, abserr, _, *warning = quad(
            lambda y: math.exp(log_f(y) - log_peak), lo, hi,
            points=[peak] if lo < peak else None, limit=200,
            epsabs=0.0, epsrel=1e-12, full_output=True,
        )
        if warning and abserr > 1e-10 * val:
            raise NumericalError(
                f"convolution quadrature failed at z={z} (n={n}, b={b}, sigma={sigma}): {warning[0]}"
            )
        log_terms.append(log_peak + math.log(val))
    log_const = n * math.log(b) - gammaln(n) - math.log(2.0) - 0.5 * math.log(2.0 * math.pi * var)
    return math.exp(log_const + np.logaddexp(*log_terms))


def positive_stable_logpdf_quad(x: float, alpha: float) -> float | None:
    """Log density of the mixing variable lambda = 2 X, X the unit positive
    stable of index a = alpha/2, by adaptive quadrature of Zolotarev's integral

        f_X(z) = a / ((1 - a) pi) z^(-1/(1-a)) int_0^pi A(u) exp(-A(u) t) du,

    t = z^(-a/(1-a)).  The integrand is divided by its peak value before it is
    integrated and the peak's log added back, so the result stays finite
    where the integral itself underflows.  The peak sits where A(u) t = 1, or
    at u = 0 when A's infimum already exceeds 1/t.  Breakpoints go at the peak
    and where the integrand has fallen to e^-80 of it on either side, so that
    a narrow peak is not missed.  Returns None when the peak lies within 0.05
    of pi, where this quadrature cannot be trusted, and when the log of the
    peak is below -1e15.
    """
    a = check_alpha(alpha)
    z = x / 2.0
    log_t = -a / (1.0 - a) * math.log(z)

    def log_a(u):
        s = math.sin(u)
        return a / (1.0 - a) * math.log(math.sin(a * u) / s) + math.log(math.sin((1.0 - a) * u) / s)

    def log_integrand(u):
        la = log_a(u)
        return la - math.exp(min(la + log_t, 700.0))

    lo, hi = 1e-14, math.pi - 1e-14
    u_peak = lo
    if log_a(lo) < -log_t:
        if log_a(hi) <= -log_t:
            return None
        u_peak = brentq(lambda u: log_a(u) + log_t, lo, hi, xtol=1e-15)
        if u_peak > math.pi - 0.05:
            return None
    log_peak = log_integrand(u_peak)
    if log_peak < -1e15:
        # log_integrand(u) - log_peak then rounds by more than 0.1
        return None

    def drop(u):
        return log_integrand(u) - log_peak + 80.0

    points = [u_peak] if u_peak > lo else []
    if u_peak > lo and drop(lo) < 0:
        points.append(brentq(drop, lo, u_peak))
    if drop(hi) < 0:
        points.append(brentq(drop, u_peak, hi))
    # epsrel 2e-14 sits at the rounding floor, so QUADPACK's roundoff and
    # subdivision warnings are expected; against a 30-digit mpmath quadrature
    # the result agrees to 1e-14 relative over the grid the tests use
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(lambda u: math.exp(log_integrand(u) - log_peak), 0.0, math.pi,
                      points=sorted(points) or None, limit=400, epsabs=0.0, epsrel=2e-14)
    return (math.log(a / ((1.0 - a) * math.pi)) - math.log(z) / (1.0 - a)
            + math.log(val) + log_peak - math.log(2.0))


def positive_stable_logpdf_series_mp(x: float, alpha: float, dps: int = 40) -> float:
    """Log density of lambda = 2 X far in its right tail, from the convergent
    power series of the unit positive stable density (Feller, vol. II,
    XVII.6),

        f_X(z) = (1/pi) sum_{k>=1} (-1)^(k+1) Gamma(a k + 1)/k! sin(k pi a) z^(-(a k + 1)),

    summed by mpmath at ``dps`` digits, so no term underflows.  Needs mpmath;
    the callers skip without it.
    """
    import mpmath

    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha) / 2
        z = mpmath.mpf(x) / 2
        total = mpmath.nsum(
            lambda k: (-1) ** (k + 1) * mpmath.gamma(a * k + 1) / mpmath.factorial(k)
            * mpmath.sin(k * mpmath.pi * a) * z ** (-(a * k + 1)),
            [1, mpmath.inf],
        )
        return float(mpmath.log(total / mpmath.pi) - mpmath.log(2))


# ---------------------------------------------------------------------------
# forward simulation


def simulate_jump_observations(
    path: np.ndarray, sd: np.ndarray, n_jumps: np.ndarray, b: float, rng: np.random.Generator
) -> np.ndarray:
    """Observations of the jump model as its sampler reads it: state j's
    observations are independent N(0, sd_j^2) + symGamma(N_j, b) draws, one
    jump count N_j per state (``synthetic.simulate_jump_model`` draws one per
    observation instead).  ``path`` holds labels 1..M."""
    counts = n_jumps[path - 1]
    magnitude = rng.gamma(np.maximum(counts, 1), 1.0 / b)
    signs = rng.integers(0, 2, path.size) * 2 - 1
    return rng.normal(0.0, sd[path - 1]) + np.where(counts > 0, signs * magnitude, 0.0)


# ---------------------------------------------------------------------------
# enumeration oracles


@dataclass
class EnumeratedPosterior:
    """Exact joint posterior over all M^T state paths."""

    paths: np.ndarray  # (K, T) labels 1..M
    probs: np.ndarray  # (K,) normalized joint posterior
    marginals: np.ndarray  # (T, M) smoothed marginals
    loglik: float


def _check_enumeration_size(t_len: int, m: int) -> None:
    if m**t_len > _MAX_ENUMERATION:
        raise ParameterError(
            f"refusing to enumerate {m}^{t_len} paths (limit {_MAX_ENUMERATION})"
        )


def enumerate_path_posterior(
    log_emissions: np.ndarray, p: np.ndarray, pi0: np.ndarray
) -> EnumeratedPosterior:
    """Brute force over every path: joint probabilities, smoothed marginals
    and the data log likelihood.  Tractable only for M^T <= 10^4."""
    log_emissions = np.asarray(log_emissions, dtype=float)
    t_len, m = log_emissions.shape
    _check_enumeration_size(t_len, m)
    p = validate_transition_matrix(p)
    pi0 = np.asarray(pi0, dtype=float)
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
        log_pi0 = np.log(pi0)
    grids = np.meshgrid(*[np.arange(m)] * t_len, indexing="ij")
    paths0 = np.stack([g.ravel() for g in grids], axis=1)  # (K, T), 0-based
    log_w = log_pi0[paths0[:, 0]] + log_emissions[0, paths0[:, 0]]
    for t in range(1, t_len):
        log_w += log_p[paths0[:, t - 1], paths0[:, t]] + log_emissions[t, paths0[:, t]]
    loglik = float(logsumexp(log_w))
    probs = np.exp(log_w - loglik)
    probs /= probs.sum()
    marginals = np.zeros((t_len, m))
    for t in range(t_len):
        np.add.at(marginals[t], paths0[:, t], probs)
    return EnumeratedPosterior(
        paths=paths0 + 1, probs=probs, marginals=marginals, loglik=loglik
    )


def enumerate_filtered_probs(
    log_emissions: np.ndarray, p: np.ndarray, pi0: np.ndarray
) -> np.ndarray:
    """Exact filtered distributions g(S_t | y_1..y_t) by expanding all M^t
    prefixes per step (no collapsed forward recursion is reused, so this is
    an independent check of the filter)."""
    log_emissions = np.asarray(log_emissions, dtype=float)
    t_len, m = log_emissions.shape
    _check_enumeration_size(t_len, m)
    p = validate_transition_matrix(p)
    pi0 = np.asarray(pi0, dtype=float)
    out = np.empty((t_len, m))
    # weights over all prefixes, flattened; entry order is lexicographic with
    # the latest state fastest, so reshape(-1, m) groups by terminal state
    weights = pi0 * np.exp(log_emissions[0] - log_emissions[0].max())
    norm = weights.sum()
    if not norm > 0:
        raise NumericalError("all prefixes have zero probability at t=0")
    out[0] = weights / norm
    for t in range(1, t_len):
        lik = np.exp(log_emissions[t] - log_emissions[t].max())
        by_prev = weights.reshape(-1, m)  # terminal state of each prefix on the last axis
        weights = (by_prev[:, :, None] * p[None, :, :] * lik[None, None, :]).ravel()
        total = weights.sum()
        if not total > 0:
            raise NumericalError(f"all prefixes have zero probability at t={t}")
        weights /= total  # rescale to dodge underflow; filtering is scale-free
        by_terminal = weights.reshape(-1, m).sum(axis=0)
        out[t] = by_terminal / by_terminal.sum()
    return out


# ---------------------------------------------------------------------------
# grid posterior oracle


def grid_posterior(
    log_prior: Callable[[float], float],
    log_lik: Callable[[float], float],
    grid: np.ndarray,
    support: tuple[float, float] = (-math.inf, math.inf),
) -> np.ndarray:
    """Normalized prior x likelihood on a uniform 1-D lattice; each node
    stands for the equal-width cell centred on it.

    ``support = (lo, hi)`` states where the target lives.  A grid end is
    *closed* when its support bound lies within one grid spacing of the end
    node: the target is cut off there, so mass in the end cell is real.  Every
    other end is *open* and its cell must carry negligible mass (< 1e-10 after
    normalization), otherwise the grid is judged too narrow on that side and
    the caller is told to widen it.  With the default unbounded support both
    ends are open.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 10:
        raise ParameterError("grid must be a 1-D lattice with at least 10 points")
    lo, hi = (float(b) for b in support)
    if not lo < hi:
        raise ParameterError(f"support must satisfy lo < hi, got ({lo}, {hi})")
    log_post = np.array([log_prior(x) + log_lik(x) for x in grid])
    if not np.any(np.isfinite(log_post)):
        raise NumericalError("posterior is zero everywhere on the grid")
    probs = np.exp(log_post - logsumexp(log_post))
    probs /= probs.sum()
    ends = (
        ("left", 0, grid[0] - lo > grid[1] - grid[0]),
        ("right", -1, hi - grid[-1] > grid[-1] - grid[-2]),
    )
    failed = [
        f"{side} end x={grid[i]:.6g} holds mass {probs[i]:.3g}"
        for side, i, is_open in ends
        if is_open and probs[i] > 1e-10
    ]
    if failed:
        raise NumericalError(
            "grid end cells carry non-negligible posterior mass (> 1e-10): "
            + "; ".join(failed)
            + "; widen the grid on that side"
        )
    return probs
