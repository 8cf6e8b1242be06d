"""Distribution families used by the two switching models.

Covers alpha-stable laws (general draws plus the totally-skewed positive
branch that acts as the Gaussian scale-mixing variable), the inverse-Gamma
and shifted-Frechet priors, and the numerically evaluated density of

    Normal(mu, sigma^2) + symGamma(N, b),

which is the single-observation likelihood of the jump-diffusion model when
N >= 1 jumps are present.  symGamma(N, b) is a Gamma(N, b) magnitude times a
fair random sign; ``jump_convolved_logpdf`` is the samplers' route and
``jump_convolved_pdf`` its adaptive-quadrature reference.

Conventions
-----------
Gamma(alpha, beta) is shape-rate throughout.  Stable laws use the
characteristic-function parameterization  E exp(i t X) = exp(-gamma^a |t|^a
(1 - i beta sgn(t) tan(pi a/2)) + i mu t)  for a != 1 (the "S1" form).  All
samplers take a numpy Generator and are reproducible given its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammaln, log_ndtr, roots_legendre

from .errors import NumericalError, ParameterError

__all__ = [
    "StableParams",
    "InvGammaParams",
    "FrechetParams",
    "stable_sample",
    "positive_stable_sample",
    "positive_stable_logpdf",
    "inv_gamma_sample",
    "frechet_logpdf",
    "frechet_sample",
    "gaussian_logpdf",
    "jump_convolved_pdf",
    "jump_convolved_logpdf",
]


# ---------------------------------------------------------------------------
# parameter containers


@dataclass
class StableParams:
    """Stable law S_{alpha,beta}(gamma, mu): stability, skewness, scale, location."""

    alpha: float
    beta: float
    gamma: float
    mu: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 2.0:
            raise ParameterError(f"stable alpha must be in (0, 2], got {self.alpha}")
        if abs(self.beta) > 1.0:
            raise ParameterError(f"stable beta must be in [-1, 1], got {self.beta}")
        if not self.gamma > 0:
            raise ParameterError(f"stable scale must be > 0, got {self.gamma}")


@dataclass
class InvGammaParams:
    shape: float
    rate: float

    def __post_init__(self) -> None:
        if not self.shape > 0 or not self.rate > 0:
            raise ParameterError(
                f"inverse-Gamma parameters must be > 0, got shape={self.shape} rate={self.rate}"
            )


@dataclass
class FrechetParams:
    """Shifted Frechet prior for the variance multipliers; support is (location, inf)."""

    shape: float
    scale: float
    location: float = 1.0

    def __post_init__(self) -> None:
        if not self.shape > 0 or not self.scale > 0:
            raise ParameterError(
                f"Frechet parameters must be > 0, got shape={self.shape} scale={self.scale}"
            )


# ---------------------------------------------------------------------------
# alpha-stable


def stable_sample(params: StableParams, rng: np.random.Generator, size=None):
    """Chambers-Mallows-Stuck draw from S_{alpha,beta}(gamma, mu).

    Exact O(1) transform of one uniform and one exponential variate; the
    alpha = 1 branch carries the usual logarithmic correction.
    """
    a, beta, gam, mu = params.alpha, params.beta, params.gamma, params.mu
    u = np.pi * (rng.random(size) - 0.5)
    w = rng.exponential(1.0, size)
    if a == 1.0:
        t1 = (np.pi / 2 + beta * u) * np.tan(u)
        t2 = beta * np.log((np.pi / 2 * w * np.cos(u)) / (np.pi / 2 + beta * u))
        x = (2 / np.pi) * (t1 - t2)
        return gam * x + (2 / np.pi) * beta * gam * math.log(gam) + mu
    th0 = math.atan(beta * math.tan(math.pi * a / 2)) / a
    s = np.sin(a * (u + th0)) / (math.cos(a * th0) * np.cos(u)) ** (1.0 / a)
    t = (np.cos(a * th0 + (a - 1.0) * u) / w) ** ((1.0 - a) / a)
    return gam * s * t + mu


def _check_mixing_alpha(alpha: float) -> float:
    if not 1.0 < alpha < 2.0:
        raise ParameterError(f"mixing-variable alpha must lie in (1, 2), got {alpha}")
    return alpha / 2.0  # index of the positive stable branch


def positive_stable_sample(alpha: float, rng: np.random.Generator, size=None):
    """Draw the Gaussian-variance mixer lambda ~ S_{alpha/2,1}(2 cos(pi alpha/4)^(2/alpha), 0).

    Composing a draw with y|lambda ~ N(mu, lambda gamma^2) reproduces
    S_{alpha,0}(gamma, mu) exactly.  Uses Kanter's transform for the unit
    positive stable (Laplace transform exp(-s^a), a = alpha/2); the stated
    scale is exactly twice the unit law, so the draw is 2 * X_unit.  Strictly
    positive by construction, independent of the CMS path used elsewhere.
    """
    a = _check_mixing_alpha(alpha)
    u = rng.uniform(0.0, np.pi, size)
    w = rng.exponential(1.0, size)
    zol = (np.sin(a * u) / np.sin(u)) ** (a / (1 - a)) * np.sin((1 - a) * u) / np.sin(u)
    return 2.0 * (zol / w) ** ((1 - a) / a)


def _log_zolotarev(u: float, a: float) -> float:
    lsu = math.log(math.sin(u))
    return (a / (1 - a)) * (math.log(math.sin(a * u)) - lsu) + math.log(
        math.sin((1 - a) * u)
    ) - lsu


def positive_stable_logpdf(x, alpha: float):
    """Log density of the mixing variable lambda (see positive_stable_sample).

    Evaluates the one-dimensional integral representation of the totally
    skewed stable density (integrand A(u) exp(-A(u) t), A the Zolotarev
    function, t = (x/2)^(-a/(1-a))) with adaptive quadrature, splitting at the
    integrand's peak.  A(u) is increasing on (0, pi), so the peak solves
    A(u) = 1/t when 1/t exceeds A's infimum.
    """
    a = _check_mixing_alpha(alpha)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty(xs.shape)
    for i, xi in enumerate(xs.ravel()):
        out.ravel()[i] = _positive_stable_logpdf_scalar(xi, a)
    return out if np.ndim(x) else float(out.ravel()[0])


def _positive_stable_tail_logpdf(z: float, a: float) -> float:
    """Alternating power series for the unit positive stable density, valid
    everywhere but numerically useful only when z is large (terms then
    decrease from the start, so no cancellation)."""
    total = 0.0
    log_z = math.log(z)
    small = 0
    for k in range(1, 400):
        term = (
            (-1.0) ** (k + 1)
            * math.exp(gammaln(a * k + 1) - gammaln(k + 1) - (a * k + 1) * log_z)
            * math.sin(k * math.pi * a)
        )
        total += term
        # sin(k pi a) has exact zeros for rational a, so demand two small
        # terms in a row before trusting convergence
        small = small + 1 if abs(term) < 1e-17 * abs(total) + 1e-320 else 0
        if small >= 2:
            break
    if total <= 0.0:
        return -math.inf
    return math.log(total / math.pi)


def _positive_stable_logpdf_scalar(x: float, a: float) -> float:
    if not x > 0 or not math.isfinite(x):
        return -math.inf
    z = x / 2.0  # unit positive stable argument
    log_jac = -math.log(2.0)  # lambda = 2 * unit draw
    log_t = -a / (1 - a) * math.log(z)

    # peak of A(u) e^{-A(u) t} sits where log A = -log t; A is increasing in u
    eps = 1e-12
    points = None
    lo, hi = _log_zolotarev(eps, a), _log_zolotarev(np.pi - eps, a)
    if -log_t >= hi:
        return _positive_stable_tail_logpdf(z, a) + log_jac
    if lo < -log_t:
        u_peak = brentq(lambda u: _log_zolotarev(u, a) + log_t, eps, np.pi - eps)
        if u_peak > np.pi - 0.05:
            # peak in the boundary layer at pi: quadrature cannot resolve it,
            # but the tail series decreases from its first term out here
            return _positive_stable_tail_logpdf(z, a) + log_jac
        points = [u_peak]

    def integrand(u):
        la = _log_zolotarev(u, a)
        e = la + log_t
        if e > 700.0:
            return 0.0
        return math.exp(la - math.exp(e))
    val, abserr = quad(
        integrand, 0.0, np.pi, points=points, limit=200, epsabs=0.0, epsrel=1e-10
    )
    if val <= 0.0:
        return -math.inf
    if abserr > 1e-6 * val + 1e-300:
        raise NumericalError(
            f"positive-stable density quadrature did not converge at x={x} (abserr={abserr})"
        )
    return (
        math.log(a / ((1 - a) * np.pi))
        - math.log(z) / (1 - a)
        + math.log(val)
        + log_jac
    )


# ---------------------------------------------------------------------------
# inverse Gamma, Frechet


def inv_gamma_sample(params: InvGammaParams, rng: np.random.Generator, size=None):
    return 1.0 / rng.gamma(params.shape, 1.0 / params.rate, size)


def frechet_logpdf(h_star: float, params: FrechetParams) -> float:
    """Shifted Frechet log density on (location, inf); -inf at and below the shift."""
    if not h_star > params.location:
        return -math.inf
    z = (h_star - params.location) / params.scale
    return (
        math.log(params.shape / params.scale)
        - (1.0 + params.shape) * math.log(z)
        - z ** (-params.shape)
    )


def frechet_sample(params: FrechetParams, rng: np.random.Generator, size=None):
    """Exact inverse-CDF draw: location + scale * (-ln U)^(-1/shape)."""
    u = rng.random(size)
    return params.location + params.scale * (-np.log(u)) ** (-1.0 / params.shape)


# ---------------------------------------------------------------------------
# Gaussian helper


def gaussian_logpdf(y, mu, var):
    y = np.asarray(y, dtype=float)
    out = -0.5 * (np.log(2.0 * np.pi * var) + (y - mu) ** 2 / var)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Normal (x) symGamma convolution density

_GL_ORDER = 96
_GL_NODES, _GL_WEIGHTS = roots_legendre(_GL_ORDER)
_MAX_BATCH_JUMPS = 100  # Gauss-Legendre accuracy budget; see _half_log_integral
_GL_BLOCK = 128  # rows per block: a 96 KiB buffer of 128 x 96 float64


def _check_convolution_params(sigma: float, n_jumps: int, b: float) -> int:
    if int(n_jumps) != n_jumps or n_jumps < 1:
        raise ParameterError(f"jump count must be an integer >= 1, got {n_jumps}")
    if not sigma > 0 or not b > 0:
        raise ParameterError(f"need sigma > 0 and b > 0, got sigma={sigma} b={b}")
    return int(n_jumps)


def jump_convolved_pdf(z: float, mu: float, sigma: float, n_jumps: int, b: float) -> float:
    """Density of Normal(mu, sigma^2) + symGamma(n_jumps, b) at z.

    Adaptive Gauss-Kronrod quadrature of the convolution integral, split at
    the |y| kink (one half-line integral of the even jump density against both
    Gaussian tails).  The integration range covers the Gamma bulk
    (n/b + 12 sqrt(n)/b) *and* the Gaussian bump at |z - mu|, so relative
    accuracy holds in the tails as well; target 1e-10, contract <= 1e-8.
    """
    n = _check_convolution_params(sigma, n_jumps, b)
    d = z - mu
    upper = n / b + 12.0 * math.sqrt(n) / b + abs(d) + 12.0 * sigma
    inv_norm = 1.0 / math.sqrt(2.0 * math.pi * sigma * sigma)

    def integrand(y):
        gauss = math.exp(-0.5 * ((d - y) / sigma) ** 2) + math.exp(
            -0.5 * ((d + y) / sigma) ** 2
        )
        return y ** (n - 1) * math.exp(-b * y) * gauss * inv_norm

    points = sorted(
        {p for p in (abs(d) - 5 * sigma, abs(d), abs(d) + 5 * sigma, n / b) if 0.0 < p < upper}
    )
    val, abserr, info, *tail = quad(
        integrand, 0.0, upper, points=points or None, limit=200,
        epsabs=1e-300, epsrel=1e-10, full_output=True,
    )
    if tail:  # QUADPACK warning message present
        if abserr > 1e-8 * abs(val) + 1e-300:
            raise NumericalError(
                f"convolution quadrature failed at z={z} (n={n}, b={b}, sigma={sigma}): {tail[0]}"
            )
    return math.exp(n * math.log(b) - gammaln(n) - math.log(2.0)) * val


def _half_log_integral(mt: np.ndarray, n: int) -> np.ndarray:
    """log of K(m) = int_0^inf t^(n-1) exp(-(t-m)^2/2) dt, vectorized over m.

    n = 1 is the exact Gaussian tail integral.  For n >= 2 the integrand is
    entire and single-peaked; its log-curvature is at least 1 everywhere, so a
    single Gauss-Legendre panel over the +-sqrt(delta^2 + 120) window around
    the peak (delta the peak-to-mean distance) captures the mass to ~1e-7
    relative up to n ~ 100, which bounds usable jump counts here.

    The node grid is worked through in blocks of _GL_BLOCK rows with two
    reused buffers, so the working set stays in cache and allocates no fresh
    pages however long ``mt`` is.  Each value goes through the same
    operations in the same order as on the whole grid, so the result is the
    same to the bit.
    """
    if n == 1:
        return 0.5 * math.log(2.0 * math.pi) + log_ndtr(mt)
    tstar = 0.5 * (mt + np.sqrt(mt * mt + 4.0 * (n - 1)))
    span = np.sqrt((tstar - mt) ** 2 + 120.0)
    lo = np.maximum(0.0, mt - span)
    hi = mt + span
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    out = np.empty_like(mt)
    rows = min(_GL_BLOCK, mt.size)
    t_buf = np.empty((rows, _GL_ORDER))
    f_buf = np.empty((rows, _GL_ORDER))
    for i in range(0, mt.size, _GL_BLOCK):
        j = min(i + _GL_BLOCK, mt.size)
        t, logf = t_buf[: j - i], f_buf[: j - i]
        np.multiply(half[i:j, None], _GL_NODES, out=t)
        t += mid[i:j, None]
        with np.errstate(divide="ignore"):
            np.log(t, out=logf)
        logf *= n - 1
        t -= mt[i:j, None]
        np.square(t, out=t)
        t *= 0.5
        logf -= t
        peak = logf.max(axis=1)
        logf -= peak[:, None]
        np.exp(logf, out=logf)
        logf *= _GL_WEIGHTS
        out[i:j] = peak + np.log(logf.sum(axis=1) * half[i:j])
    return out


def jump_convolved_logpdf(z, mu: float, sigma: float, n_jumps: int, b: float) -> np.ndarray:
    """Vectorized log density of Normal(mu, sigma^2) + symGamma(n_jumps, b).

    This is the sampler-facing likelihood path: after exponentially tilting
    each half-line integral the remaining kernel is t^(n-1) times a unit
    Gaussian, evaluated on scaled Gauss-Legendre nodes (exact log-Phi form for
    a single jump).  Agrees with jump_convolved_pdf to ~1e-7 relative; all
    arithmetic stays in log space so tail observations never underflow.
    """
    n = _check_convolution_params(sigma, n_jumps, b)
    if n > _MAX_BATCH_JUMPS:
        raise NumericalError(
            f"batch evaluator supports jump counts up to {_MAX_BATCH_JUMPS}, got {n}; "
            "use jump_convolved_pdf for larger counts"
        )
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    d = (zs - mu) / sigma
    bs = b * sigma
    both = _half_log_integral(np.concatenate([d - bs, -d - bs]), n)
    tilt = bs * d
    m = zs.size
    log_const = (
        n * math.log(b)
        - gammaln(n)
        - math.log(2.0)
        + (n - 1) * math.log(sigma)
        - 0.5 * math.log(2.0 * math.pi)
        + 0.5 * bs * bs
    )
    out = log_const + np.logaddexp(both[:m] - tilt, both[m:] + tilt)
    return out if np.ndim(z) else float(out[0])
