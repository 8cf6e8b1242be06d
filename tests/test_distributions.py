import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import log_ndtr
from scipy.stats import invweibull, kstest, ks_2samp

from regimevol import (
    FrechetParams,
    InvGammaParams,
    NumericalError,
    ParameterError,
    jump_convolved_logpdf,
    positive_stable_logpdf,
)
from regimevol import distributions
from regimevol.distributions import (
    _log_k_rows,
    frechet_logpdf,
    frechet_sample,
    inv_gamma_sample,
    jump_convolved_logpdf_counts,
    positive_stable_sample,
    stable_sample,
)
from regimevol.regime import sample_transition_matrix

from oracles import (
    jump_convolved_pdf,
    positive_stable_logpdf_quad,
    positive_stable_logpdf_series_mp,
)


# ---------------------------------------------------------------------------
# alpha-stable


def test_stable_sample_gaussian_limit():
    rng = np.random.default_rng(11)
    draws = stable_sample(2.0, 1.0, 0.0, rng, size=100_000)
    # characteristic function at alpha=2 is exp(-gamma^2 t^2): variance 2 gamma^2
    assert kstest(draws, "norm", args=(0.0, math.sqrt(2.0))).pvalue > 0.01


def test_stable_sample_symmetric_median():
    rng = np.random.default_rng(12)
    mu = 0.7
    draws = stable_sample(1.5, 1.0, mu, rng, size=100_000)
    med = np.median(draws)
    # SE of the sample median ~ 1/(2 f(mu) sqrt(n)), density estimated locally
    h = 0.05
    f_hat = np.mean(np.abs(draws - mu) < h) / (2 * h)
    se = 1.0 / (2.0 * f_hat * math.sqrt(draws.size))
    assert abs(med - mu) < 3 * se


def test_stable_sample_scale_location_equivariance():
    draws = stable_sample(1.7, 2.0, 1.0, np.random.default_rng(13), size=100_000)
    reference = stable_sample(1.7, 1.0, 0.0, np.random.default_rng(14), size=100_000)
    assert ks_2samp((draws - 1.0) / 2.0, reference).pvalue > 0.01


def test_stable_sample_alpha_one_is_cauchy():
    # at alpha = 1 the symmetric transform is gamma tan(u) + mu
    draws = stable_sample(1.0, 0.5, -0.3, np.random.default_rng(20), size=100_000)
    assert kstest(draws, "cauchy", args=(-0.3, 0.5)).pvalue > 0.01


def test_stable_params_domain():
    rng = np.random.default_rng(0)
    for alpha, gamma in ((0.0, 1.0), (2.5, 1.0), (math.nan, 1.0), (1.5, 0.0), (1.5, math.nan)):
        with pytest.raises(ParameterError, match="alpha" if gamma == 1.0 else "scale"):
            stable_sample(alpha, gamma, 0.0, rng)


def test_positive_stable_sample_strictly_positive():
    rng = np.random.default_rng(15)
    draws = positive_stable_sample(1.3, rng, size=20_000)
    assert np.all(draws > 0)


def test_positive_stable_sample_domain():
    rng = np.random.default_rng(0)
    for bad in (0.9, 1.0, 2.0, 2.5):
        with pytest.raises(ParameterError):
            positive_stable_sample(bad, rng)


@pytest.mark.parametrize("alpha", [1.9, 1.5])
def test_scale_mixture_identity(alpha):
    # composing lambda with a conditional normal must reproduce the direct
    # symmetric stable draw; this is the model's representation made testable
    rng = np.random.default_rng(16)
    n = 100_000
    lam = positive_stable_sample(alpha, rng, size=n)
    gamma = 1.3
    composed = rng.normal(0.0, np.sqrt(lam) * gamma)
    direct = stable_sample(alpha, gamma, 0.0, np.random.default_rng(17), size=n)
    assert ks_2samp(composed, direct).pvalue > 0.01


def test_positive_stable_laplace_transform():
    rng = np.random.default_rng(18)
    alpha = 1.7
    draws = positive_stable_sample(alpha, rng, size=200_000)
    a = alpha / 2.0
    for s in (0.5, 1.0, 2.0):
        exact = math.exp(-((2.0 * s) ** a))  # lambda = 2 * unit positive stable
        assert np.mean(np.exp(-s * draws)) == pytest.approx(exact, abs=4e-3)


def test_positive_stable_logpdf_normalizes():
    total, _ = quad(lambda x: math.exp(positive_stable_logpdf(x, 1.7)), 1e-9, np.inf, limit=400)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_positive_stable_logpdf_matches_draws():
    rng = np.random.default_rng(19)
    draws = positive_stable_sample(1.7, rng, size=200_000)
    edges = np.quantile(draws, np.linspace(0.05, 0.9, 9))
    empirical = np.histogram(draws, edges)[0] / draws.size
    for lo, hi, emp in zip(edges[:-1], edges[1:], empirical):
        cell, _ = quad(lambda x: math.exp(positive_stable_logpdf(x, 1.7)), lo, hi)
        assert emp == pytest.approx(cell, rel=0.05)


def test_positive_stable_logpdf_left_edge():
    assert positive_stable_logpdf(0.0, 1.7) == -math.inf
    assert positive_stable_logpdf(-1.0, 1.7) == -math.inf


STABLE_ALPHAS = (1.05, 1.2, 1.4, 1.5, 1.7, 1.8, 1.9, 1.95)
STABLE_LAMBDAS = np.logspace(-6, 6, 241)


def test_positive_stable_logpdf_matches_quadrature():
    # the fixed tanh-sinh rule against adaptive quadrature of the peak-scaled
    # integrand, wherever that reference can be trusted (it declines the
    # boundary layer at pi, which the tail series serves).  Where the density
    # is not astronomically small the bound is absolute; further out the log
    # itself runs to -1e15 and only its relative error means anything
    checked = 0
    for alpha in STABLE_ALPHAS:
        for lam in STABLE_LAMBDAS:
            ref = positive_stable_logpdf_quad(lam, alpha)
            if ref is None:
                continue
            got = positive_stable_logpdf(lam, alpha)
            bound = 1e-10 if abs(ref) < 1e3 else 1e-11 * abs(ref)
            assert abs(got - ref) <= bound, (alpha, lam, got, ref)
            checked += 1
    assert checked > 800


@pytest.mark.parametrize("lam", [0.25, 0.3, 0.36])
def test_positive_stable_logpdf_finite_where_integral_underflows(lam):
    # the integral itself is below 1e-308 here; summing in log space keeps
    # the density finite instead of a false -inf (-7821.07 at lam = 0.25)
    ref = positive_stable_logpdf_quad(lam, 1.7)
    assert ref < -900.0
    assert positive_stable_logpdf(lam, 1.7) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("alpha", [1.05, 1.7, 1.95])
def test_positive_stable_logpdf_far_tail_takes_the_series(alpha):
    # once the peak has passed pi - 1e-12 the bisection ends within pi / 2^21
    # of pi, and the boundary-layer check sends the density to the series
    a = alpha / 2.0
    for lam in np.logspace(math.log10(3e14), 170, 40):
        expected = distributions._positive_stable_tail_logpdf(lam / 2.0, a) - math.log(2.0)
        assert positive_stable_logpdf(lam, alpha) == expected, lam


@pytest.mark.parametrize("alpha", [1.05, 1.7, 1.95])
def test_positive_stable_logpdf_finite_where_density_underflows(alpha):
    # the series is summed relative to its first term: at 5.69e174 the
    # density is subnormal and from about 1e175 on it is below the smallest
    # double, yet its log is finite and decreasing
    pytest.importorskip("mpmath")
    for lam in (5.69e174, 1e175, 1e300):
        ref = positive_stable_logpdf_series_mp(lam, alpha)
        assert positive_stable_logpdf(lam, alpha) == pytest.approx(ref, rel=1e-14), lam
    values = positive_stable_logpdf(np.logspace(170, 300, 131), alpha)
    assert np.all(np.isfinite(values)) and np.all(np.diff(values) < 0)


def test_positive_stable_logpdf_raises_when_rules_disagree(monkeypatch):
    # dropping every odd node halves the h = 1/32 sum but leaves the h = 1/16
    # sum as it is, so the two differ by log 2
    weights = distributions._TS_LOG_WEIGHTS.copy()
    weights[1::2] = -np.inf
    monkeypatch.setattr(distributions, "_TS_LOG_WEIGHTS", weights)
    distributions._positive_stable_logpdf_scalar.cache_clear()
    with pytest.raises(NumericalError, match=r"x=1\.2345"):
        positive_stable_logpdf(1.2345, 1.7)
    distributions._positive_stable_logpdf_scalar.cache_clear()


# ---------------------------------------------------------------------------
# inverse Gamma, Dirichlet rows, Frechet


def test_inv_gamma_sample_mean():
    rng = np.random.default_rng(20)
    draws = inv_gamma_sample(InvGammaParams(3.0, 2.0), rng, size=100_000)
    target = 2.0 / (3.0 - 1.0)  # rate / (shape - 1)
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - target) < 3 * se


def _prior_transition_rows(concentration, n_rows, rng):
    """Rows of the transition update with no counts: Dirichlet(concentration)
    draws, four per call."""
    rows = np.tile(np.asarray(concentration, dtype=float), (4, 1))
    return np.vstack([
        sample_transition_matrix(np.zeros((4, 4)), rows, rng) for _ in range(n_rows // 4)
    ])


def test_dirichlet_symmetric_means():
    rng = np.random.default_rng(21)
    draws = _prior_transition_rows(np.ones(4), 100_000, rng)
    se = draws.std(axis=0) / math.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - 0.25) < 3 * se)
    np.testing.assert_allclose(draws.sum(axis=1), 1.0, atol=1e-12)


def test_dirichlet_weighted_mean():
    rng = np.random.default_rng(22)
    first = _prior_transition_rows([10.0, 1.0, 1.0, 1.0], 100_000, rng)[:, 0]
    se = first.std() / math.sqrt(first.size)
    assert abs(first.mean() - 10.0 / 13.0) < 3 * se


def _frechet_pdf(h, params):
    return math.exp(frechet_logpdf(h, params))


def test_frechet_pdf_support():
    params = FrechetParams(2.0, 0.5)
    assert _frechet_pdf(1.0, params) == 0.0
    assert _frechet_pdf(0.5, params) == 0.0
    assert _frechet_pdf(1.3, params) > 0.0
    oracle = invweibull(2.0, loc=1.0, scale=0.5)
    for h in (1.05, 1.3, 2.0, 7.5):
        assert _frechet_pdf(h, params) == pytest.approx(oracle.pdf(h), rel=1e-12)


def test_frechet_pdf_normalizes():
    params = FrechetParams(2.0, 0.5)
    total, _ = quad(lambda h: _frechet_pdf(h, params), 1.0, np.inf, limit=300)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_frechet_sample_matches_cdf():
    rng = np.random.default_rng(23)
    params = FrechetParams(2.0, 0.5)
    draws = frechet_sample(params, rng, size=50_000)
    assert np.all(draws > 1.0)
    cdf = lambda h: np.exp(-(((h - 1.0) / 0.5) ** -2.0))
    assert kstest(draws, cdf).pvalue > 0.01


# ---------------------------------------------------------------------------
# Normal (x) symGamma convolution


def _laplace_normal_logpdf(z, mu, sigma, b):
    """Independent closed form for a single jump: tilted Gaussian tails.

    f(z) = b/2 e^{(b sigma)^2/2} [e^{-b d} Phi((d - b sigma^2)/sigma)
                                  + e^{b d} Phi((-d - b sigma^2)/sigma)]
    """
    d = z - mu
    t1 = -b * d + log_ndtr((d - b * sigma**2) / sigma)
    t2 = b * d + log_ndtr((-d - b * sigma**2) / sigma)
    return math.log(b / 2) + (b * sigma) ** 2 / 2 + np.logaddexp(t1, t2)


def test_convolved_pdf_symmetry():
    for z in (0.1, 0.75, 2.3):
        left = jump_convolved_pdf(z, 0.0, 0.7, 3, 2.0)
        right = jump_convolved_pdf(-z, 0.0, 0.7, 3, 2.0)
        assert left == pytest.approx(right, abs=1e-10)


@pytest.mark.parametrize("n,b", [(1, 1.0), (3, 40.0), (10, 40.0)])
def test_convolved_pdf_normalizes(n, b):
    sigma = 1.0
    span = 12 * sigma + n / b + 12 * math.sqrt(n) / b
    total, _ = quad(
        lambda z: jump_convolved_pdf(z, 0.0, sigma, n, b), -span, span, limit=300
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_convolved_pdf_matches_laplace_closed_form():
    b, sigma, mu = 1.0, 1.0, 0.0
    for z in np.linspace(-5, 5, 21):
        expected = math.exp(_laplace_normal_logpdf(z, mu, sigma, b))
        assert jump_convolved_pdf(z, mu, sigma, 1, b) == pytest.approx(expected, rel=1e-8)


def test_convolved_pdf_monotone_tail_decay():
    # single jump, zero mean: density decreases in |z|
    grid = np.linspace(0.0, 6.0, 40)
    vals = [jump_convolved_pdf(z, 0.0, 0.5, 1, 2.0) for z in grid]
    assert np.all(np.diff(vals) < 0)


def test_convolved_batch_agrees_with_reference():
    rng = np.random.default_rng(24)
    worst = 0.0
    for n in (1, 2, 3, 7, 20, 40):
        for sigma in (0.02, 0.3, 1.5):
            for b in (1.0, 40.0):
                zs = np.concatenate([
                    np.linspace(-4 * sigma - 2 * n / b, 4 * sigma + 2 * n / b, 9),
                    [8 * sigma + 2 * n / b, -(10 * sigma + 2.5 * n / b)],
                ])
                batch = jump_convolved_logpdf(zs, 0.1, sigma, n, b)
                for z, lb in zip(zs, batch):
                    ref = jump_convolved_pdf(z, 0.1, sigma, n, b)
                    if ref > 0:
                        worst = max(worst, abs(math.exp(lb) - ref) / ref)
    # measured worst 9.3e-13 (n = 40, sigma = 1.5, b = 40, z = 14)
    assert worst < 1e-9


def _log_k_quad(m, n):
    """log of K_n(m) = int_0^inf t^(n-1) exp(-(t-m)^2/2) dt by adaptive
    quadrature of the integrand scaled by its peak value.  The log-integrand
    has curvature <= -1, so nothing beyond 40 of the peak counts."""
    peak = max(0.0, 0.5 * (m + math.sqrt(m * m + 4.0 * (n - 1))))

    def log_f(t):
        return (n - 1) * math.log(t) - 0.5 * (t - m) ** 2 if n > 1 else -0.5 * (t - m) ** 2

    lo, hi = max(0.0, peak - 40.0), peak + 40.0
    val, _ = quad(lambda t: math.exp(log_f(t) - log_f(peak)), lo, hi,
                  points=[peak] if lo < peak else None, epsabs=0.0, epsrel=1e-13, limit=200)
    return log_f(peak) + math.log(val)


LOG_K_GRID = np.unique(np.concatenate([np.linspace(-40.0, 40.0, 161), np.linspace(-3.0, 1.0, 81)]))
LOG_K_COUNTS = (1, 2, 3, 5, 10, 25, 40, 60, 100, 256)


def test_log_k_recurrence_matches_quadrature():
    # every row of every pass, forward and backward (Miller) sides of the
    # switch alike, against an independent quadrature.  The backward run-in
    # is set by the largest m that goes backwards, so passes over the whole
    # grid, over its far-negative part only and over each value alone differ
    ref = {n: np.array([_log_k_quad(m, n) for m in LOG_K_GRID]) for n in LOG_K_COUNTS}
    for n_top in LOG_K_COUNTS:
        passes = [(LOG_K_GRID, slice(None))]
        passes += [(LOG_K_GRID[LOG_K_GRID < cut], LOG_K_GRID < cut) for cut in (-5.0, -30.0)]
        passes += [(LOG_K_GRID[i:i + 1], slice(i, i + 1)) for i in range(LOG_K_GRID.size)]
        for m, where in passes:
            rows = _log_k_rows(m, n_top)
            assert rows.shape == (n_top, m.size)
            for n in (n for n in LOG_K_COUNTS if n <= n_top):
                err = np.abs(rows[n - 1] - ref[n][where])
                assert np.all(err <= 1e-10), (n_top, n, m[np.argmax(err)], err.max())


def test_convolved_count_rows_match_single_count():
    # row n of a pass to a larger count is the single-count density: the
    # jump-count enumeration and the emission matrix agree
    rng = np.random.default_rng(25)
    for sigma, b in ((0.02, 40.0), (0.3, 1.0), (1.5, 40.0)):
        zs = np.concatenate([rng.normal(0.0, 3.0 * sigma + 0.1, 40), [0.0, 25 * sigma]])
        for n_top in (1, 4, 27, 100):
            rows = jump_convolved_logpdf_counts(zs, 0.1, sigma, n_top, b)
            assert rows.shape == (n_top, zs.size)
            for n in (1, 2, 3, 8, 26, 27, 99, 100):
                if n <= n_top:
                    single = jump_convolved_logpdf(zs, 0.1, sigma, n, b)
                    np.testing.assert_allclose(rows[n - 1], single, rtol=0, atol=1e-10)
    # an empty state's pass: every row empty, so each row's sum is 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n_top in (1, 2, 27, 256):
            rows = jump_convolved_logpdf_counts(np.empty(0), 0.1, 0.3, n_top, 40.0)
            assert rows.shape == (n_top, 0)
            assert np.array_equal(rows.sum(axis=1), np.zeros(n_top))


def test_convolved_logpdf_far_out_has_no_overflow():
    # the Miller start squared m, which overflows for |d| above about 1e154;
    # far out the density is the jump tail, about exp(-b|z|)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (1e150, 1e155, -1e155, 1e300):
            assert jump_convolved_logpdf(z, 0.0, 1.0, 2, 40.0) == pytest.approx(-40.0 * abs(z))
            rows = jump_convolved_logpdf_counts([z, 0.1], 0.0, 1.0, 3, 40.0)
            assert np.all(np.isfinite(rows))


def test_convolved_pdf_rejects_bad_params():
    with pytest.raises(ParameterError):
        jump_convolved_pdf(0.0, 0.0, 1.0, 0, 1.0)
    with pytest.raises(ParameterError):
        jump_convolved_pdf(0.0, 0.0, -1.0, 1, 1.0)
    with pytest.raises(ParameterError):
        jump_convolved_logpdf(0.0, 0.0, 1.0, 2.5, 1.0)


def test_convolved_batch_jump_cap():
    with pytest.raises(NumericalError, match="up to 256, got 257"):
        jump_convolved_logpdf(np.zeros(3), 0.0, 1.0, 257, 40.0)
