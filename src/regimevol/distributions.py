"""Distribution families used by the two switching models.

Covers symmetric alpha-stable draws, the totally-skewed positive stable law
that acts as the Gaussian scale-mixing variable (draws and log density), the
inverse-Gamma and shifted-Frechet priors, and the numerically evaluated
density of

    Normal(mu, sigma^2) + symGamma(N, b),

which is the single-observation likelihood of the jump-diffusion model when
N >= 1 jumps are present.  symGamma(N, b) is a Gamma(N, b) magnitude times a
fair random sign.  The samplers' route, ``jump_convolved_logpdf`` and
``jump_convolved_logpdf_counts``, reduces it to the half-line integrals
K_n(m) = int_0^inf t^(n-1) exp(-(t-m)^2/2) dt and gets K_1..K_n in one pass
from the exact three-term recurrence K_{n+1} = m K_n + (n-1) K_{n-1}, run
forwards or backwards (Miller's algorithm) by the sign of m; its log is
within 1e-12 of a 40-digit reference for n <= 256, the largest jump count
it accepts.

The positive-stable log density, the stable model's prior on lambda, is a
fixed tanh-sinh (double-exponential) rule of 205 nodes on each side of the
integrand's peak, summed in log space, so no adaptive quadrature or root
finder is needed: the module loads only numpy and ``scipy.special``.  The
adaptive-quadrature references that both densities are tested against live
in the test suite (``tests/oracles.py``).

Conventions
-----------
Gamma(alpha, beta) is shape-rate throughout.  The symmetric stable law
S_alpha(gamma, mu) has characteristic function
E exp(i t X) = exp(-gamma^alpha |t|^alpha + i mu t); the models never skew it.
All samplers take a numpy Generator and are reproducible given its seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, log_ndtr

from .errors import NumericalError, ParameterError, check_entries, check_integer, check_positive

__all__ = [
    "InvGammaParams",
    "FrechetParams",
    "stable_sample",
    "check_alpha",
    "positive_stable_sample",
    "positive_stable_logpdf",
    "inv_gamma_sample",
    "frechet_logpdf",
    "frechet_sample",
    "gaussian_logpdf",
    "jump_convolved_logpdf",
    "jump_convolved_logpdf_counts",
]


# ---------------------------------------------------------------------------
# parameter containers


@dataclass
class InvGammaParams:
    shape: float
    rate: float

    def __post_init__(self) -> None:
        check_positive("inverse-Gamma shape", self.shape)
        check_positive("inverse-Gamma rate", self.rate)


@dataclass
class FrechetParams:
    """Frechet prior for the variance multipliers, shifted by 1 so that its
    support is (1, inf): the multipliers h* keep the state variances
    increasing, and their walks step in log(h* - 1)."""

    shape: float
    scale: float

    def __post_init__(self) -> None:
        check_positive("Frechet shape", self.shape)
        check_positive("Frechet scale", self.scale)


# ---------------------------------------------------------------------------
# alpha-stable


def stable_sample(alpha: float, gamma: float, mu: float, rng: np.random.Generator, size=None):
    """Chambers-Mallows-Stuck draw from the symmetric stable law S_alpha(gamma, mu).

    Exact O(1) transform of one uniform and one exponential variate
    (Chambers, Mallows & Stuck, JASA 1976).  Without skew it needs no shift
    of the uniform and no alpha = 1 branch: there the transform is
    gamma tan(u) + mu, a Cauchy draw.
    """
    # written so that NaN fails it
    if not 0.0 < alpha <= 2.0:
        raise ParameterError(f"stable alpha must be in (0, 2], got {alpha}")
    check_positive("stable scale", gamma)
    u = np.pi * (rng.random(size) - 0.5)
    w = rng.exponential(1.0, size)
    s = np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
    t = (np.cos((alpha - 1.0) * u) / w) ** ((1.0 - alpha) / alpha)
    return gamma * s * t + mu


def check_alpha(alpha: float) -> float:
    """ParameterError unless the stability index lies in (1, 2), the one
    rule for alpha; returns alpha / 2, the index of the positive stable mixer."""
    if not 1.0 < alpha < 2.0:
        raise ParameterError(f"alpha must lie in (1, 2), got {alpha}")
    return alpha / 2.0


def positive_stable_sample(alpha: float, rng: np.random.Generator, size=None):
    """Draw the Gaussian-variance mixer lambda ~ S_{alpha/2,1}(2 cos(pi alpha/4)^(2/alpha), 0).

    Composing a draw with y|lambda ~ N(mu, lambda gamma^2) reproduces
    S_{alpha,0}(gamma, mu) exactly.  Uses Kanter's transform for the unit
    positive stable (Laplace transform exp(-s^a), a = alpha/2); the stated
    scale is exactly twice the unit law, so the draw is 2 * X_unit.  Strictly
    positive by construction, independent of the CMS path used elsewhere.
    """
    a = check_alpha(alpha)
    u = rng.uniform(0.0, np.pi, size)
    w = rng.exponential(1.0, size)
    zol = (np.sin(a * u) / np.sin(u)) ** (a / (1 - a)) * np.sin((1 - a) * u) / np.sin(u)
    return 2.0 * (zol / w) ** ((1 - a) / a)


def _log_zolotarev(u, a: float, lib=math):
    """log A(u) for the unit positive stable of index a; A increases on (0, pi).

    ``lib`` is ``math`` for a scalar u or ``numpy`` for an array of nodes.
    """
    lsu = lib.log(lib.sin(u))
    return (a / (1 - a)) * (lib.log(lib.sin(a * u)) - lsu) + lib.log(
        lib.sin((1 - a) * u)
    ) - lsu


def positive_stable_logpdf(x, alpha: float):
    """Log density of the mixing variable lambda (see positive_stable_sample).

    Evaluates the one-dimensional integral representation of the totally
    skewed stable density (integrand A(u) exp(-A(u) t), A the Zolotarev
    function, t = (x/2)^(-a/(1-a))) with a fixed tanh-sinh rule, summed in log
    space and split at the integrand's peak.  A(u) is increasing on (0, pi),
    so the peak solves A(u) = 1/t when 1/t exceeds A's infimum; it is found
    by bisection.  Far in the right tail the alternating series is used
    instead.  Wherever the rule runs for alpha in [1.05, 1.95] and x in
    [1e-6, 1e6], its log is within 2e-12 * max(1, |log density|) of a
    30-digit reference, so it stays finite where the integral underflows.
    """
    a = check_alpha(alpha)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty(xs.shape)
    for i, xi in enumerate(xs.ravel()):
        out.ravel()[i] = _positive_stable_logpdf_scalar(xi, a)
    return out if np.ndim(x) else float(out.ravel()[0])


def _positive_stable_tail_logpdf(z: float, a: float) -> float:
    """Alternating power series for the unit positive stable density, valid
    everywhere but numerically useful only when z is large (terms then
    decrease from the start, so no cancellation).

    The terms are summed relative to the first, whose log is added back, so
    the result stays finite where the density itself underflows."""
    log_z = math.log(z)
    sin_1 = math.sin(math.pi * a)  # > 0, since 1/2 < a < 1
    log_first = gammaln(a + 1) - (a + 1) * log_z + math.log(sin_1)
    total = 1.0
    small = 0
    for k in range(2, 400):
        term = (
            (-1.0) ** (k + 1)
            * math.exp(gammaln(a * k + 1) - gammaln(a + 1) - gammaln(k + 1) - a * (k - 1) * log_z)
            * (math.sin(k * math.pi * a) / sin_1)
        )
        total += term
        # sin(k pi a) has exact zeros for rational a, so demand two small
        # terms in a row before trusting convergence
        small = small + 1 if abs(term) < 1e-17 * abs(total) else 0
        if small >= 2:
            break
    if total <= 0.0:
        return -math.inf
    return log_first + math.log(total) - math.log(math.pi)


# Tanh-sinh rule (Takahasi & Mori 1974).  On a segment [c, d] of length L the
# node at s = k h is u = c + L / (1 + e^(-2g)) = d - L / (1 + e^(2g)) with
# g = (pi/2) sinh(s), and its weight is h du/ds = h L (pi/4) cosh(s) sech(g)^2.
# Each node's distance to the nearer end is taken from those closed forms, not
# from 1 - tanh(g), which would lose its digits to cancellation.  At h = 1/32,
# k = -102..102 comes within ~1e-16 L of both ends; the even k alone are the
# h = 1/16 rule that the error check compares against.
_TS_STEP = 1.0 / 32
_TS_S = _TS_STEP * np.arange(-102, 103)
_TS_G = 0.5 * math.pi * np.sinh(_TS_S)
_TS_FROM_LEFT = 1.0 / (1.0 + np.exp(-2.0 * _TS_G))  # (u - c) / L
_TS_FROM_RIGHT = 1.0 / (1.0 + np.exp(2.0 * _TS_G))  # (d - u) / L
_TS_NEAR_RIGHT = _TS_S >= 0
_TS_LOG_WEIGHTS = (  # log(h du/ds / L)
    math.log(_TS_STEP * math.pi)
    + np.log(np.cosh(_TS_S))
    - 2.0 * (np.abs(_TS_G) + np.log1p(np.exp(-2.0 * np.abs(_TS_G))))
)
# the h = 1/16 and h = 1/32 sums may differ by this much per unit of
# max(1, |log density|); each halving of h roughly squares the error, and the
# largest gap seen over alpha in [1.01, 1.999] and x in [1e-8, 1e8] is 5e-7
_TS_TOL = 1e-4
_PEAK_BISECTIONS = 20  # brackets the peak to pi / 2^20 ~ 3e-6


def _log_sum_exp(terms: np.ndarray) -> float:
    top = float(terms.max())
    if top == -math.inf:
        return top
    return top + math.log(float(np.exp(terms - top).sum()))


# A sampler's lambda step evaluates the density at the current value and at
# the proposal; the current value was one of the two a sweep earlier.
@functools.lru_cache(maxsize=2)
def _positive_stable_logpdf_scalar(x: float, a: float) -> float:
    if not x > 0 or not math.isfinite(x):
        return -math.inf
    z = x / 2.0  # unit positive stable argument
    log_jac = -math.log(2.0)  # lambda = 2 * unit draw
    log_t = -a / (1 - a) * math.log(z)

    # peak of A(u) e^{-A(u) t} sits where log A = -log t; A is increasing in u
    eps = 1e-12
    ends = [0.0, math.pi]
    if _log_zolotarev(eps, a) < -log_t:
        lo, hi = eps, math.pi - eps
        for _ in range(_PEAK_BISECTIONS):
            mid = 0.5 * (lo + hi)
            if _log_zolotarev(mid, a) < -log_t:
                lo = mid
            else:
                hi = mid
        u_peak = 0.5 * (lo + hi)
        # the one route to the tail series: a peak in the boundary layer at
        # pi, which quadrature cannot resolve but where the series decreases
        # from its first term.  A peak past pi - eps (lambda above ~1e14)
        # leaves the bisection within pi / 2^21 of pi, so it lands here too
        if u_peak > math.pi - 0.05:
            return _positive_stable_tail_logpdf(z, a) + log_jac
        ends = [0.0, u_peak, math.pi]

    c = np.array(ends[:-1])[:, None]  # one row of nodes per segment
    d = np.array(ends[1:])[:, None]
    length = d - c
    u = np.where(_TS_NEAR_RIGHT, d - length * _TS_FROM_RIGHT, c + length * _TS_FROM_LEFT)
    log_a = _log_zolotarev(u, a, np)
    with np.errstate(over="ignore"):  # exp overflow: the node's term is -inf
        terms = _TS_LOG_WEIGHTS + np.log(length) + log_a - np.exp(log_a + log_t)
    log_int = _log_sum_exp(terms)
    if log_int == -math.inf:
        return -math.inf
    out = math.log(a / ((1 - a) * math.pi)) - math.log(z) / (1 - a) + log_int + log_jac
    gap = abs(_log_sum_exp(terms[:, ::2]) + math.log(2.0) - log_int)
    if gap > _TS_TOL * max(1.0, abs(out)):
        raise NumericalError(
            f"positive-stable density quadrature failed its error check at x={x}: "
            f"the h = 1/16 and h = 1/32 tanh-sinh sums differ by {gap:.3g} in the log"
        )
    return out


# ---------------------------------------------------------------------------
# inverse Gamma, Frechet


def inv_gamma_sample(params: InvGammaParams, rng: np.random.Generator, size=None):
    return 1.0 / rng.gamma(params.shape, 1.0 / params.rate, size)


def frechet_logpdf(h_star: float, params: FrechetParams) -> float:
    """Frechet log density shifted by 1, on (1, inf); -inf at and below 1."""
    if not h_star > 1.0:
        return -math.inf
    z = (h_star - 1.0) / params.scale
    return (
        math.log(params.shape / params.scale)
        - (1.0 + params.shape) * math.log(z)
        - z ** (-params.shape)
    )


def frechet_sample(params: FrechetParams, rng: np.random.Generator, size=None):
    """Exact inverse-CDF draw from the Frechet shifted by 1: 1 + scale * (-ln U)^(-1/shape)."""
    u = rng.random(size)
    return 1.0 + params.scale * (-np.log(u)) ** (-1.0 / params.shape)


# ---------------------------------------------------------------------------
# Gaussian helper


def gaussian_logpdf(y, mu, var, out=None):
    """Log density of N(mu, var) at y, elementwise, written into ``out`` when
    it is given and returned; ParameterError unless var (a scalar, or an
    ndarray checked entry by entry) is finite and > 0.

    Both samplers' Gaussian emission rows come from here: with mu and var of
    shape (M, 1) and ``out`` the (M, T) rows, every row is written in place,
    by the same operations in the same order as one row at a time."""
    if isinstance(var, np.ndarray) and var.ndim:
        check_entries((var > 0.0) & (var < np.inf), "variances must be finite and > 0", var)
    else:
        check_positive("variance", var)
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(y), np.shape(mu), np.shape(var)))
    np.subtract(y, mu, out=out)
    np.square(out, out=out)
    out /= var
    np.add(np.log(2.0 * np.pi * var), out, out=out)
    out *= -0.5
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Normal (x) symGamma convolution density

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_MAX_BATCH_JUMPS = 256  # the recurrence's accuracy is tested up to here
_FORWARD_SWITCH = 4.6  # forward ratios for m >= -_FORWARD_SWITCH / sqrt(n_top)
_MILLER_DAMPING = 20.0  # backward run-in: damp the start's error by e^-20


def _check_convolution_params(sigma: float, n_jumps: int, b: float) -> int:
    n = check_integer("jump count", n_jumps, 1)
    check_positive("Gaussian scale sigma", sigma)
    check_positive("jump amplitude rate b", b)
    if n > _MAX_BATCH_JUMPS:
        raise NumericalError(
            f"batch evaluator supports jump counts up to {_MAX_BATCH_JUMPS}, got {n}"
        )
    return n


def _log_k_rows(m: np.ndarray, n_top: int) -> np.ndarray:
    """log K_n(m) for n = 1..n_top in one pass over m; row n - 1 holds log K_n.

    K_n(m) = int_0^inf t^(n-1) exp(-(t-m)^2/2) dt.  K_1 = sqrt(2 pi) Phi(m)
    comes from ``log_ndtr``.  Integration by parts gives
    K_2 = exp(-m^2/2) + m K_1 and K_{n+1} = m K_n + (n-1) K_{n-1}, so the rest
    follows from the ratios R_n = K_{n+1}/K_n:

    * forward, R_1 = m + exp(-m^2/2)/K_1 and R_n = m + (n-1)/R_{n-1}, for
      m >= -4.6/sqrt(n_top), where K_n is the dominant solution or close to it
      (a start error grows at most ~exp(2 |m| sqrt(n)) <= e^9.2 times);
    * backward below that, where K_n is the minimal solution and forward
      steps would lose its digits (Miller's algorithm): R_{n-1} = (n-1)/(R_n - m),
      started from a two-term asymptotic value of R.  Step n damps the
      start's error by R_n/(R_n - m) ~ exp(-2 asinh(-m / (2 sqrt(n)))), least
      at the largest m that goes backwards, so the run-in starts far enough
      above n_top to damp it by e^-20 there.  (A fixed ceil(200/m_max^2)
      extra terms suffices only when m_max lies near the switch.)  One
      backward loop runs from that start down to R_1; the run-in levels
      above n_top are not stored, and each ratio from R_{n_top-1} down is
      written to its row as the loop reaches it.

    Over m in [-40, 40] (and every 0.01 in [-6, 1]) and every
    n <= n_top <= 256 the result is within 1e-12 of a 40-digit reference,
    K_n(m) = Gamma(n) exp(-m^2/4) D_{-n}(-m) with D the parabolic cylinder
    function; the tests hold it to 1e-10 against adaptive quadrature.
    """
    out = np.empty((n_top, m.size))
    out[0] = _HALF_LOG_2PI + log_ndtr(m)
    if n_top == 1:
        return out
    # row n holds R_n until the logs are taken.  Forward ratios go everywhere
    # first (below the switch they may overflow; those columns are replaced)
    with np.errstate(all="ignore"):
        out[1] = m + np.exp(-0.5 * m * m - out[0])
        for n in range(2, n_top):
            np.divide(n - 1, out[n - 1], out=out[n])
            out[n] += m
    back = np.flatnonzero(m < -_FORWARD_SWITCH / math.sqrt(n_top))
    if back.size:
        mb = m[back]
        # the start's error is damped least where m is largest: run in until
        # the damping there, prod R_n/(R_n - m), reaches exp(-_MILLER_DAMPING)
        half_a = -0.5 * float(mb.max())
        start, damping = n_top, 0.0
        while damping < _MILLER_DAMPING:
            start += 1
            damping += 2.0 * math.asinh(half_a / math.sqrt(start))
        # R_start ~ the fixed point of R = m + (start - 1)/(R - R'), R' = dR/dn;
        # hypot forms each root without squaring m, which overflows past 1e154
        slope = 1.0 / np.hypot(mb, 2.0 * math.sqrt(start))
        r = 0.5 * (mb + slope + np.hypot(mb - slope, 2.0 * math.sqrt(start - 1)))
        for n in range(start, 1, -1):
            r -= mb
            np.divide(n - 1, r, out=r)  # now R_{n-1}
            if n <= n_top:
                out[n - 1, back] = r
    np.log(out[1:], out=out[1:])
    for n in range(1, n_top):
        out[n] += out[n - 1]
    return out


def _convolved_rows(zs: np.ndarray, mu: float, sigma: float, n_lo: int, n_top: int,
                    b: float) -> np.ndarray:
    """Log density of Normal(mu, sigma^2) + symGamma(n, b) at every zs, one row
    per n = n_lo..n_top, from one ``_log_k_rows`` pass.

    Each half-line integral of the jump density against the Gaussian is
    exponentially tilted into a K_n: the positive jumps give K_n(d - b sigma)
    e^(-b sigma d), the negative ones K_n(-d - b sigma) e^(b sigma d), with
    d = (z - mu)/sigma.  All arithmetic stays in log space, so tail
    observations never underflow.  ParameterError names the first z at which
    d is not finite: z or mu is not, or the quotient overflows.
    """
    d = (zs - mu) / sigma
    check_entries(np.isfinite(d), "(z - mu) / sigma must be finite, with z and mu finite", d)
    bs = b * sigma
    log_k = _log_k_rows(np.concatenate([d - bs, -d - bs]), n_top)[n_lo - 1:]
    n = np.arange(n_lo, n_top + 1, dtype=float)[:, None]
    log_const = (
        n * math.log(b)
        - gammaln(n)
        - math.log(2.0)
        + (n - 1) * math.log(sigma)
        - _HALF_LOG_2PI
        + 0.5 * bs * bs
    )
    tilt = bs * d
    return log_const + np.logaddexp(log_k[:, : zs.size] - tilt, log_k[:, zs.size:] + tilt)


def jump_convolved_logpdf(z, mu: float, sigma: float, n_jumps: int, b: float) -> np.ndarray:
    """Vectorized log density of Normal(mu, sigma^2) + symGamma(n_jumps, b).

    This is the sampler-facing likelihood path: the last row of one
    three-term-recurrence pass (``_log_k_rows``, within 1e-12 of exact in
    log K_n), exact log-Phi for a single jump.  All arithmetic stays in log
    space so tail observations never underflow.
    """
    n = _check_convolution_params(sigma, n_jumps, b)
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    out = _convolved_rows(zs, mu, sigma, n, n, b)[0]
    return out if np.ndim(z) else float(out[0])


def jump_convolved_logpdf_counts(z, mu: float, sigma: float, n_top: int, b: float) -> np.ndarray:
    """``jump_convolved_logpdf`` for every jump count 1..n_top from one pass.

    Returns shape (n_top, len(z)); row n - 1 is the log density at n jumps.
    Rows agree with the single-count values to better than 1e-10.
    """
    n_top = _check_convolution_params(sigma, n_top, b)
    return _convolved_rows(np.atleast_1d(np.asarray(z, dtype=float)), mu, sigma, 1, n_top, b)
