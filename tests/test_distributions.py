import math

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
    StableParams,
    frechet_sample,
    inv_gamma_sample,
    jump_convolved_logpdf,
    jump_convolved_pdf,
    positive_stable_logpdf,
    positive_stable_sample,
    sample_transition_matrix,
    stable_sample,
)
from regimevol.distributions import (
    _GL_NODES,
    _GL_WEIGHTS,
    _half_log_integral,
    frechet_logpdf,
)


# ---------------------------------------------------------------------------
# alpha-stable


def test_stable_sample_gaussian_limit():
    rng = np.random.default_rng(11)
    draws = stable_sample(StableParams(2.0, 0.0, 1.0, 0.0), rng, size=100_000)
    # characteristic function at alpha=2 is exp(-gamma^2 t^2): variance 2 gamma^2
    assert kstest(draws, "norm", args=(0.0, math.sqrt(2.0))).pvalue > 0.01


def test_stable_sample_symmetric_median():
    rng = np.random.default_rng(12)
    mu = 0.7
    draws = stable_sample(StableParams(1.5, 0.0, 1.0, mu), rng, size=100_000)
    med = np.median(draws)
    # SE of the sample median ~ 1/(2 f(mu) sqrt(n)), density estimated locally
    h = 0.05
    f_hat = np.mean(np.abs(draws - mu) < h) / (2 * h)
    se = 1.0 / (2.0 * f_hat * math.sqrt(draws.size))
    assert abs(med - mu) < 3 * se


def test_stable_sample_scale_location_equivariance():
    draws = stable_sample(StableParams(1.7, 0.0, 2.0, 1.0), np.random.default_rng(13), size=100_000)
    reference = stable_sample(StableParams(1.7, 0.0, 1.0, 0.0), np.random.default_rng(14), size=100_000)
    assert ks_2samp((draws - 1.0) / 2.0, reference).pvalue > 0.01


def test_stable_params_domain():
    with pytest.raises(ParameterError):
        StableParams(0.0, 0.0, 1.0, 0.0)
    with pytest.raises(ParameterError):
        StableParams(1.5, 1.2, 1.0, 0.0)
    with pytest.raises(ParameterError):
        StableParams(1.5, 0.0, 0.0, 0.0)


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
    direct = stable_sample(StableParams(alpha, 0.0, gamma, 0.0), np.random.default_rng(17), size=n)
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
    assert worst < 1e-6


def _half_log_integral_whole_grid(mt, n):
    """_half_log_integral for n >= 2 with every node of every value in one array."""
    tstar = 0.5 * (mt + np.sqrt(mt * mt + 4.0 * (n - 1)))
    span = np.sqrt((tstar - mt) ** 2 + 120.0)
    lo = np.maximum(0.0, mt - span)
    hi = mt + span
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    t = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    with np.errstate(divide="ignore"):
        logf = (n - 1) * np.log(t) - 0.5 * (t - mt[:, None]) ** 2
    peak = np.max(logf, axis=1)
    return peak + np.log(np.sum(np.exp(logf - peak[:, None]) * _GL_WEIGHTS[None, :], axis=1) * half)


@pytest.mark.parametrize("size", [0, 1, 127, 128, 129, 1000])
def test_half_log_integral_blocks_match_whole_grid(size):
    # the blocked evaluation must give the whole-grid values to the bit, on
    # either side of a block edge, so fixed-seed draws do not depend on it
    mt = np.random.default_rng(size).normal(0.0, 20.0, size)
    for n in (2, 5, 40):
        assert np.array_equal(_half_log_integral(mt, n), _half_log_integral_whole_grid(mt, n))


def test_convolved_pdf_rejects_bad_params():
    with pytest.raises(ParameterError):
        jump_convolved_pdf(0.0, 0.0, 1.0, 0, 1.0)
    with pytest.raises(ParameterError):
        jump_convolved_pdf(0.0, 0.0, -1.0, 1, 1.0)
    with pytest.raises(ParameterError):
        jump_convolved_logpdf(0.0, 0.0, 1.0, 2.5, 1.0)


def test_convolved_batch_jump_cap():
    with pytest.raises(NumericalError):
        jump_convolved_logpdf(np.zeros(3), 0.0, 1.0, 150, 40.0)
