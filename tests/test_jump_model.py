import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import invweibull, kstest

from regimevol import (
    FrechetParams,
    InvGammaParams,
    JumpParams,
    JumpPriors,
    ParameterError,
    simulate_jump_model,
)
from regimevol import jump_model
from regimevol.distributions import frechet_sample
from regimevol.jump_model import (
    JumpGibbsSampler,
    _poisson_n_max,
    default_u_ladder,
    initial_jump_state,
    jump_count_weights,
    sample_h_star_j,
    sample_mu_j,
    sample_n_jumps_j,
    sample_sigma1_sq,
    sample_theta_j,
)
from regimevol.mcmc import AdaptiveRw, ModelState, inv_gamma_normal_update, run_chain
from regimevol.regime import default_dirichlet_rows

from oracles import grid_posterior, jump_convolved_pdf


def _params(mu, sigma_sq, theta, n_jumps, b=40.0):
    sigma_sq = np.asarray(sigma_sq, dtype=float)
    return JumpParams(
        mu=np.asarray(mu, dtype=float),
        sigma1_sq=float(sigma_sq[0]),
        h_star=sigma_sq[1:] / sigma_sq[:-1],
        theta=np.asarray(theta, dtype=float),
        n_jumps=np.asarray(n_jumps, dtype=int),
        b=b,
    )


def _priors(m=2, u=None, k=1.0, fix_mean_zero=True, sigma=(2.0, 0.5)):
    return JumpPriors(
        k=k,
        sigma_prior=InvGammaParams(*sigma),
        frechet=FrechetParams(2.0, 0.5),
        u=np.asarray(u if u is not None else default_u_ladder(m), dtype=float),
        dirichlet_rows=default_dirichlet_rows(m),
        fix_mean_zero=fix_mean_zero,
    )


# ---------------------------------------------------------------------------
# grid-oracle helpers


def _target_grid_oracle(log_prior, log_lik, draws, n_points, floor=-math.inf, drop=30.0):
    """Grid oracle on a uniform grid built from the target, not the sample.

    Starting from the draws' range, each end moves outwards in growing steps
    until the log-posterior there is ``drop`` nats below the best value at the
    draws' deciles (a lower bound on the peak).  The left end stops at
    ``floor``, below which the target vanishes.  Asserts that both ends of the
    final grid sit ``drop`` nats below its maximum.
    """
    def log_post(x):
        return log_prior(x) + log_lik(x)

    peak = max(log_post(x) for x in np.quantile(draws, np.linspace(0.1, 0.9, 9)))
    lo, hi = float(draws.min()), float(draws.max())
    first_step = 0.25 * (hi - lo)
    step = first_step
    while lo > floor and log_post(lo) > peak - drop:
        lo, step = max(floor, lo - step), 1.5 * step
    step = first_step
    while log_post(hi) > peak - drop:
        hi, step = hi + step, 1.5 * step
    grid = np.linspace(lo, hi, n_points)
    oracle = grid_posterior(log_prior, log_lik, grid)
    with np.errstate(divide="ignore"):
        log_oracle = np.log(oracle)
    assert max(log_oracle[0], log_oracle[-1]) <= log_oracle.max() - drop
    return grid, oracle


def _binned_tv(draws, grid, oracle, n_bins):
    """Total variation between draws and oracle over n_bins bins of equal
    oracle mass.

    Bin k sums oracle nodes idx[k-1] .. idx[k]-1.  Each node stands for the
    cell centred on it, so the matching histogram edge is the midpoint below
    node idx[k].
    """
    idx = np.searchsorted(np.cumsum(oracle), np.linspace(0, 1, n_bins + 1)[1:-1])
    # np.add.reduceat yields oracle[i], not 0, for a repeated index
    assert idx[0] > 0 and np.all(np.diff(idx) > 0), "grid too coarse for the bins"
    cell = np.add.reduceat(oracle, np.concatenate([[0], idx]))
    mids = 0.5 * (grid[idx - 1] + grid[idx])
    emp, _ = np.histogram(draws, np.concatenate([[-np.inf], mids, [np.inf]]))
    return 0.5 * np.abs(emp / draws.size - cell).sum()


# ---------------------------------------------------------------------------
# parameter containers


def test_sigma_ordering_is_structural():
    p = _params([0.0, 0.0, 0.0], [1.0, 2.0, 8.0], [0.2, 0.7, 1.5], [0, 0, 0])
    assert np.all(np.diff(p.sigma_sq) > 0)
    with pytest.raises(ParameterError):
        _params([0.0, 0.0], [1.0, 0.9], [0.2, 0.7], [0, 0])


def test_theta_ordering_enforced():
    with pytest.raises(ParameterError):
        _params([0.0, 0.0], [1.0, 2.0], [1.0, 0.5], [0, 0])


def test_param_dict_round_trip_names():
    p = _params([0.0, 0.1], [1.0, 3.0], [0.2, 0.7], [0, 2])
    d = p.to_param_dict()
    assert d["sigma_sq_2"] == pytest.approx(3.0)
    assert d["h_star_2"] == pytest.approx(3.0)
    assert d["n_jumps_2"] == 2.0


# ---------------------------------------------------------------------------
# emission


def _emission(ys, j, p):
    """Column j (1-based) of the jump sampler's emission matrix at ys."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    # the sampler needs two observations; repeat a single one
    sampler = JumpGibbsSampler(np.resize(ys, max(ys.size, 2)), _priors(p.n_states))
    return sampler.emission_matrix(p)[: ys.size, j - 1]


def test_emission_gaussian_branch_peak():
    p = _params([0.4, 0.0], [0.25, 1.0], [0.2, 0.7], [0, 0])
    assert _emission(0.4, 1, p)[0] == pytest.approx(-0.5 * math.log(2 * math.pi * 0.25))


def test_emission_gaussian_branch_matches_oracle():
    p = _params([0.1, 0.0], [0.5, 2.0], [0.2, 0.7], [0, 0])
    rng = np.random.default_rng(0)
    ys = rng.normal(0, 1, 50)
    expected = -0.5 * (np.log(2 * np.pi * 0.5) + (ys - 0.1) ** 2 / 0.5)
    np.testing.assert_allclose(_emission(ys, 1, p), expected, atol=1e-12)


def test_emission_jump_branch_symmetric():
    p = _params([0.0, 0.0], [0.5, 2.0], [0.2, 0.7], [1, 1])
    ys = np.array([0.3, 1.1, 2.7])
    np.testing.assert_allclose(_emission(ys, 2, p), _emission(-ys, 2, p), rtol=0, atol=1e-9)


def test_emission_jump_branch_matches_reference_pdf():
    p = _params([0.0, 0.2], [0.5, 2.0], [0.2, 0.7], [0, 3], b=5.0)
    ys = np.array([-1.0, 0.0, 0.9, 3.5])
    for y, lp in zip(ys, _emission(ys, 2, p)):
        assert lp == pytest.approx(
            math.log(jump_convolved_pdf(y, 0.2, math.sqrt(2.0), 3, 5.0)), abs=1e-6
        )


def test_state_loglik_is_sum_of_emissions():
    # the jump-count weights use the state log-likelihood at each count: the
    # log weight ratio to count 0 is the Poisson prior ratio plus the change
    # in the summed emission column
    p = _params([0.0, 0.0], [0.5, 2.0], [0.2, 0.7], [0, 2], b=3.0)
    rng = np.random.default_rng(1)
    data = rng.normal(0, 1, 30)
    w = jump_count_weights(data, 2, p)

    def state_loglik(n):
        return _emission(data, 2, replace(p, n_jumps=np.array([0, n]))).sum()

    theta = p.theta[1]
    compared = 0
    for n in range(1, w.size):
        if w[n] < 1e-200:
            continue
        prior_ratio = n * math.log(theta) - math.lgamma(n + 1)
        expected = prior_ratio + state_loglik(n) - state_loglik(0)
        assert math.log(w[n] / w[0]) == pytest.approx(expected, abs=1e-10)
        compared += 1
    assert compared >= 3


# ---------------------------------------------------------------------------
# mean update


def test_mu_no_data_no_jumps_is_prior_draw():
    p = _params([0.0, 0.0], [1.0, 4.0], [0.2, 0.7], [0, 0])
    priors = _priors(k=4.0, fix_mean_zero=False)
    draw = sample_mu_j(np.array([]), 1, p, priors, np.random.default_rng(5), AdaptiveRw(0.25))
    expected = math.sqrt(1.0 / 4.0) * np.random.default_rng(5).normal()
    assert draw == pytest.approx(expected)


def test_mu_no_data_with_jumps_samples_the_prior():
    # with N_j >= 1 an empty state still takes the MH step, on the prior
    # N(0, 1/k) alone (a sum over no observations is 0.0); one step from a
    # prior draw is then a prior draw
    rng = np.random.default_rng(51)
    priors = _priors(k=4.0, fix_mean_zero=False)
    sampler = AdaptiveRw(0.8)
    starts = rng.normal(0.0, 0.5, 4000)
    draws = np.array([
        sample_mu_j(np.array([]), 2, _params([0.0, mu], [1.0, 4.0], [0.2, 0.7], [0, 3]),
                    priors, rng, sampler)
        for mu in starts
    ])
    assert 0.3 < sampler.accepted / sampler.attempts < 0.9
    assert kstest(draws, "norm", args=(0.0, 0.5)).pvalue > 0.01


def test_mu_conjugate_matches_grid_oracle():
    rng = np.random.default_rng(6)
    data = rng.normal(0.8, 1.0, 60)
    p = _params([0.0, 0.0], [1.0, 4.0], [0.2, 0.7], [0, 0])
    priors = _priors(k=1.0, fix_mean_zero=False)
    n, ybar = data.size, data.mean()
    mean = n * ybar / (n + 1.0)
    sd = math.sqrt(1.0 / (n + 1.0))
    grid = np.linspace(mean - 9 * sd, mean + 9 * sd, 3001)
    oracle = grid_posterior(
        lambda mu: -0.5 * mu * mu,
        lambda mu: float(-0.5 * np.sum((data - mu) ** 2)),
        grid,
    )
    closed = np.exp(-0.5 * ((grid - mean) / sd) ** 2)
    closed /= closed.sum()
    assert 0.5 * np.abs(oracle - closed).sum() < 1e-3


def test_mu_mh_with_jumps_matches_grid_oracle():
    rng = np.random.default_rng(7)
    true = _params([0.6], [0.25], [2.0], [2], b=2.0)
    data = simulate_jump_model(
        true, np.array([[1.0]]), None, 40, np.random.default_rng(8)
    ).observations + 0.6
    p = _params([0.0], [0.25], [2.0], [2], b=2.0)
    priors = JumpPriors(
        k=1.0, sigma_prior=InvGammaParams(2.0, 0.5), frechet=FrechetParams(2.0, 0.5),
        u=np.array([4.0]), dirichlet_rows=np.ones((1, 1)), fix_mean_zero=False,
    )
    sampler = AdaptiveRw(scale=0.3)
    draws = np.empty(20_000)
    mu = 0.0
    for i in range(draws.size):
        p = _params([mu], [0.25], [2.0], [2], b=2.0)
        sampler.adapting = i < 2000
        mu = sample_mu_j(data, 1, p, priors, rng, sampler)
        draws[i] = mu
    kept = draws[2000:]
    grid, oracle = _target_grid_oracle(
        lambda m: -0.5 * m * m,
        lambda m: float(
            sum(math.log(jump_convolved_pdf(y, m, 0.5, 2, 2.0)) for y in data)
        ),
        kept,
        241,
    )
    assert _binned_tv(kept, grid, oracle, 15) < 5e-2


# ---------------------------------------------------------------------------
# variance updates


def test_sigma_no_jumps_delegates_to_conjugate_update():
    rng_data = np.random.default_rng(9)
    data = rng_data.normal(0.0, 0.7, 80)
    p = _params([0.0, 0.0], [1.0, 4.0], [0.2, 0.7], [0, 0])
    priors = _priors()
    a = sample_sigma1_sq(data, p, priors, np.random.default_rng(10), AdaptiveRw(0.4, "log"))
    b = inv_gamma_normal_update(
        float(np.sum(data**2)), data.size, priors.sigma_prior, np.random.default_rng(10)
    )
    assert a == b


def test_sigma_no_data_is_prior_draw():
    p = _params([0.0, 0.0], [1.0, 4.0], [0.2, 0.7], [0, 0])
    priors = _priors()
    draws = [
        sample_sigma1_sq(np.array([]), p, priors, np.random.default_rng(s),
                         AdaptiveRw(0.4, "log"))
        for s in range(200)
    ]
    # moments of invGamma(2, 0.5): mean 0.5, no finite variance; check support/median
    assert np.all(np.array(draws) > 0)
    assert np.median(draws) == pytest.approx(0.5 / 1.678, rel=0.25)  # invGamma median ~ rate/1.678 at shape 2


def test_sigma_mh_with_jumps_matches_grid_oracle():
    rng = np.random.default_rng(11)
    true = _params([0.0], [0.09], [1.0], [1], b=4.0)
    data = simulate_jump_model(true, np.array([[1.0]]), None, 60, np.random.default_rng(12)).observations
    priors = JumpPriors(
        k=1.0, sigma_prior=InvGammaParams(2.0, 0.1), frechet=FrechetParams(2.0, 0.5),
        u=np.array([4.0]), dirichlet_rows=np.ones((1, 1)),
    )
    sampler = AdaptiveRw(scale=0.5, transform="log")
    s = 0.2
    draws = np.empty(20_000)
    for i in range(draws.size):
        p = _params([0.0], [s], [1.0], [1], b=4.0)
        sampler.adapting = i < 2000
        s = sample_sigma1_sq(data, p, priors, rng, sampler)
        draws[i] = s
    kept = draws[2000:]
    # the inverse-Gamma prior drives the target to zero towards v = 0
    grid, oracle = _target_grid_oracle(
        lambda v: -3.0 * math.log(v) - 0.1 / v,
        lambda v: float(
            sum(math.log(jump_convolved_pdf(y, 0.0, math.sqrt(v), 1, 4.0)) for y in data)
        ),
        kept,
        301,
        floor=1e-6,
    )
    assert _binned_tv(kept, grid, oracle, 13) < 5e-2


# ---------------------------------------------------------------------------
# h* update


def test_h_star_prior_draw_when_no_data():
    p = _params([0.0, 0.0], [1.0, 4.0], [0.2, 0.7], [0, 0])
    priors = _priors()
    draw = sample_h_star_j(np.array([]), 2, p, priors, np.random.default_rng(13),
                           AdaptiveRw(0.4, "log_shift"))
    expected = float(frechet_sample(priors.frechet, np.random.default_rng(13)))
    assert draw == expected and draw > 1.0


def test_h_star_recovery_mode_near_truth():
    # state-2 data with true multiplier 1.5 over a known unit base variance
    rng = np.random.default_rng(14)
    data = rng.normal(0.0, math.sqrt(1.5), 500)
    p = _params([0.0, 0.0], [1.0, 2.0], [0.2, 0.7], [0, 0])
    priors = _priors()
    sampler = AdaptiveRw(scale=0.4, transform="log_shift")
    h = 2.0
    draws = np.empty(20_000)
    for i in range(draws.size):
        p = _params([0.0, 0.0], [1.0, h], [0.2, 0.7], [0, 0])
        sampler.adapting = i < 2000
        h = sample_h_star_j(data, 2, p, priors, rng, sampler)
        draws[i] = h
    kept = draws[2000:]
    counts, edges = np.histogram(kept, bins=50)
    mode = 0.5 * (edges[np.argmax(counts)] + edges[np.argmax(counts) + 1])
    assert abs(mode - 1.5) / 1.5 < 0.20
    assert np.all(kept > 1.0)


@pytest.mark.parametrize("n_jumps", [0, 1])
def test_h_star_matches_grid_oracle(n_jumps):
    # state 2 over a base variance of 0.09; its 40 observations carry one
    # jump each when N_2 = 1, and the target is then the Frechet prior times
    # the convolution likelihood at variance 0.09 h.  Draws and oracle are
    # compared on the walk's scale u = log(h - 1), where the posterior is
    # compact enough for a uniform grid; binned TV is the same on either scale
    rng = np.random.default_rng(20 + n_jumps)
    b, lower_var = 4.0, 0.09
    data = rng.normal(0.0, math.sqrt(2.0 * lower_var), 40)
    if n_jumps:
        data += rng.choice([-1.0, 1.0], data.size) * rng.exponential(1.0 / b, data.size)
    priors = _priors()
    sampler = AdaptiveRw(scale=0.4, transform="log_shift")
    p = _params([0.0, 0.0], [lower_var, 2.0 * lower_var], [0.2, 0.7], [0, n_jumps], b=b)
    draws = np.empty(20_000)
    for i in range(draws.size):
        sampler.adapting = i < 2000
        p.h_star[0] = draws[i] = sample_h_star_j(data, 2, p, priors, rng, sampler)
    kept = np.log(draws[2000:] - 1.0)

    def log_prior(u):
        # the Frechet prior shifted by 1, times the Jacobian dh/du = e^u
        return float(invweibull.logpdf(1.0 + math.exp(u), 2.0, loc=1.0, scale=0.5)) + u

    def log_lik(u):
        var = lower_var * (1.0 + math.exp(u))
        if n_jumps == 0:
            return float(np.sum(-0.5 * np.log(2.0 * np.pi * var) - 0.5 * data**2 / var))
        return sum(math.log(jump_convolved_pdf(y, 0.0, math.sqrt(var), 1, b)) for y in data)

    grid, oracle = _target_grid_oracle(log_prior, log_lik, kept, 121)
    assert _binned_tv(kept, grid, oracle, 10) < 5e-2


def test_h_star_support_density_is_zero_at_or_below_one():
    priors = _priors()
    assert frechet_sample(priors.frechet, np.random.default_rng(0)) > 1.0
    from regimevol.distributions import frechet_logpdf

    assert frechet_logpdf(1.0, priors.frechet) == -math.inf
    assert frechet_logpdf(0.7, priors.frechet) == -math.inf


# ---------------------------------------------------------------------------
# jump count update


def test_n_jumps_vanishing_intensity():
    rng = np.random.default_rng(15)
    data = rng.normal(0.0, 1.0, 40)
    p = _params([0.0], [1.0], [1e-10], [0], b=40.0)
    draws = [sample_n_jumps_j(data, 1, p, rng) for _ in range(50)]
    assert all(d == 0 for d in draws)


def test_n_jump_weights_normalized():
    rng = np.random.default_rng(16)
    data = rng.normal(0.0, 1.0, 25)
    p = _params([0.0], [1.0], [2.0], [0], b=10.0)
    w = jump_count_weights(data, 1, p)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(w >= 0)


def test_n_jump_weights_at_zero_intensity_are_the_point_mass_at_zero():
    # theta = 0 is a valid intensity; log(theta) was a math domain error
    data = np.random.default_rng(18).normal(0.0, 1.0, 30)
    w = jump_count_weights(data, 1, _params([0.0], [1.0], [0.0], [0]))
    np.testing.assert_array_equal(w, [1.0, 0.0, 0.0, 0.0])


def test_chain_starts_from_zero_intensities():
    # the benchmark's true parameters put theta = 0 in its calm states
    true = _params([0.0, 0.0], [1e-4, 4e-4], [0.0, 1.5], [0, 0], b=40.0)
    transition = np.array([[0.95, 0.05], [0.1, 0.9]])
    ds = simulate_jump_model(true, transition, None, 200, np.random.default_rng(19))
    priors = _priors(2, u=[0.5, 4.0])
    sampler = JumpGibbsSampler(ds.observations, priors, adapt_iters=2)
    start = ModelState(path=ds.true_path, transition=transition, params=true)
    chain = run_chain(sampler.sweep, start, n_iter=5, burn_in=2, rng=np.random.default_rng(20))
    assert len(chain.draws) == 3
    assert all(0.0 < d.params.theta[0] <= 0.5 < d.params.theta[1] <= 4.0 for d in chain.draws)


@pytest.mark.parametrize("theta", [0.3, 60.0])
def test_n_jump_weights_of_an_empty_state_are_the_prior(theta):
    # at theta = 60 the stopping rule never fires and the weights run to
    # N_max = 126
    from scipy.stats import poisson

    p = _params([0.0], [1.0], [theta], [0])
    w = jump_count_weights(np.empty(0), 1, p)
    pmf = poisson.pmf(np.arange(w.size), theta)
    assert w.size == _poisson_n_max(theta) + 1
    np.testing.assert_allclose(w, pmf / pmf.sum(), rtol=1e-12)


def test_n_jump_weights_run_the_convolution_to_n_max():
    # one tight observation: the stopping rule fires past count 64, so the
    # last pass runs the convolution to N_max = 126 counts
    p = _params([0.0], [1e-4], [60.0], [0])
    w = jump_count_weights(np.array([0.5]), 1, p)
    assert _poisson_n_max(60.0) == 126 and w.size - 1 > 64
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("u", [(760.0, 800.0), tuple(default_u_ladder(10))], ids=["800", "ladder"])
def test_priors_refuse_intensities_past_the_count_cap(u):
    # N_max past the convolution's 256 counts; at theta = 800 the truncated
    # Gamma draw would also underflow to its upper end
    with pytest.raises(ParameterError, match=r"u = .* enumeration supports theta up to 155\.4"):
        _priors(len(u), u=u)
    _priors(9)  # the default ladder tops out at 128


class _FixedUniform:
    """Generator stand-in whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_n_jumps_draw_stays_in_weighed_support(monkeypatch):
    # normalised weights whose cumulative sum ends a rounding step short of 1:
    # compared with the bare uniform, the top uniform would pick count 19,
    # which was never weighed
    w = next(w / w.sum() for w in (np.random.default_rng(s).random(19) for s in range(100))
             if (w / w.sum()).cumsum()[-1] < 1.0)
    top = _FixedUniform(np.nextafter(1.0, 0.0))
    assert np.searchsorted(np.cumsum(w), top.random()) == w.size
    monkeypatch.setattr(jump_model, "jump_count_weights", lambda *args: w)
    p = _params([0.0], [1.0], [2.0], [0])
    assert sample_n_jumps_j(np.zeros(3), 1, p, top) == w.size - 1


def test_poisson_n_max_matches_scipy_isf():
    # the package computes the Poisson tail bound from scipy.special alone;
    # scipy.stats is the oracle here only
    from scipy.stats import poisson

    thetas = np.concatenate([np.geomspace(1e-12, 200.0, 20_001), np.linspace(0.01, 200.0, 20_000)])
    expected = np.maximum(poisson.isf(1e-13, thetas).astype(int) + 1, 4)
    got = np.array([_poisson_n_max(float(t)) for t in thetas])
    bad = np.nonzero(got != expected)[0]
    assert bad.size == 0, [(thetas[i], got[i], expected[i]) for i in bad[:5]]


def test_n_jumps_recovery_with_strong_separation():
    # every observation carries exactly 3 jumps, amplitudes dominate the noise
    rng = np.random.default_rng(17)
    t_len = 200
    noise = rng.normal(0.0, 0.02, t_len)
    mags = rng.gamma(3.0, 1.0 / 5.0, t_len)
    signs = rng.integers(0, 2, t_len) * 2 - 1
    data = noise + signs * mags
    p = _params([0.0], [0.0004], [3.0], [0], b=5.0)
    draws = np.array([sample_n_jumps_j(data, 1, p, rng) for _ in range(100)])
    assert np.mean(draws == 3) >= 0.8


# ---------------------------------------------------------------------------
# intensity update


# intervals (0, 0.5], (2, 4] and (32, 64] are states 1, 3 and 5 of this ladder
_THETA_U = (0.5, 2.0, 4.0, 32.0, 64.0)


def _theta_case(j, n_j):
    p = _params(np.zeros(5), 2.0 ** np.arange(5), np.asarray(_THETA_U) - 0.1,
                np.where(np.arange(1, 6) == j, n_j, 0))
    return p, _priors(5, u=_THETA_U)


def _truncated_gamma_cdf(n_j, lo, hi):
    """CDF of Gamma(n_j + 1, 1) on (lo, hi], from the cumulative trapezoid rule
    over the unnormalised density t^n_j e^-t on a fine grid."""
    grid = np.linspace(lo, hi, 200_001)
    f = grid**n_j * np.exp(lo - grid)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]))))
    return lambda t: np.interp(t, grid, cum / cum[-1])


@pytest.mark.parametrize("n_j", [0, 3, 10])
@pytest.mark.parametrize("j", [1, 3, 5])
def test_theta_draws_match_truncated_gamma(j, n_j):
    p, priors = _theta_case(j, n_j)
    lo, hi = priors.theta_interval(j)
    rng = np.random.default_rng(18 + 10 * j + n_j)
    draws = np.array([sample_theta_j(j, p, priors, rng) for _ in range(5000)])
    assert np.all((draws > lo) & (draws <= hi))
    assert kstest(draws, _truncated_gamma_cdf(n_j, lo, hi)).pvalue > 0.01


@pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)])
@pytest.mark.parametrize("n_j", [0, 3, 10, 80])
@pytest.mark.parametrize("j", [1, 3, 5])
def test_theta_draw_at_extreme_uniforms_stays_in_interval(j, n_j, u):
    p, priors = _theta_case(j, n_j)
    lo, hi = priors.theta_interval(j)
    assert lo < sample_theta_j(j, p, priors, _FixedUniform(u)) <= hi


@pytest.mark.parametrize("n_j", [150, 200])
def test_theta_draw_far_below_the_mode_matches_truncated_gamma(n_j):
    # the Gamma(n_j + 1) mass of (0, 0.5] is subnormal (4e-311 at 150) or 0,
    # where inverting the CDF returned 0 on every draw
    p, priors = _theta_case(1, n_j)
    rng = np.random.default_rng(20 + n_j)
    draws = np.array([sample_theta_j(1, p, priors, rng) for _ in range(5000)])
    assert np.all((draws > 0.0) & (draws <= 0.5))
    assert kstest(draws, _truncated_gamma_cdf(n_j, 0.0, 0.5)).pvalue > 0.01


def test_theta_target_matches_grid_oracle_shape():
    # normalized target == grid_posterior(prior x Poisson likelihood), and the
    # exact draws match that grid oracle
    # the prior truncates theta_1 to (0, 0.5], so both grid ends are closed
    priors = _priors(u=(0.5, 1.0))
    lo, hi = priors.theta_interval(1)
    grid = np.linspace(1e-4, hi, 2000)
    n_j = 0
    oracle = grid_posterior(
        lambda t: 0.0 if lo < t <= hi else -math.inf,
        lambda t: n_j * math.log(t) - t,
        grid,
        support=(lo, hi),
    )
    direct = np.exp(-grid)
    direct /= direct.sum()
    assert 0.5 * np.abs(oracle - direct).sum() < 1e-3
    p = _params([0.0, 0.0], [1.0, 4.0], [0.3, 0.8], [n_j, 0])
    rng = np.random.default_rng(18)
    draws = np.array([sample_theta_j(1, p, priors, rng) for _ in range(20_000)])
    assert _binned_tv(draws, grid, oracle, 10) < 3e-2


# ---------------------------------------------------------------------------
# full sweep


def test_sweep_preserves_invariants_under_fuzzing():
    rng = np.random.default_rng(19)
    true = _params([0.0, 0.0], [0.5, 2.5], [0.1, 2.0], [0, 0])
    ds = simulate_jump_model(true, np.array([[0.95, 0.05], [0.08, 0.92]]), None, 80, rng)
    priors = _priors(u=(0.5, 4.0))
    sampler = JumpGibbsSampler(ds.observations, priors, adapt_iters=200)
    state = initial_jump_state(ds.observations, priors, b=40.0)
    for _ in range(1000):
        state = sampler.sweep(state, rng)
        params = state.params
        assert np.all(np.diff(params.sigma_sq) > 0)
        assert np.all(np.diff(params.theta) >= 0)
        lo_hi = [priors.theta_interval(j) for j in (1, 2)]
        assert all(lo < t <= hi for (lo, hi), t in zip(lo_hi, params.theta))
        np.testing.assert_allclose(state.transition.sum(axis=1), 1.0, atol=1e-12)
        assert state.path.min() >= 1 and state.path.max() <= 2


def test_sweep_single_state_recovers_sigma():
    rng = np.random.default_rng(20)
    true = _params([0.0], [1.3], [0.2], [0])
    ds = simulate_jump_model(true, np.array([[1.0]]), None, 500, rng)
    priors = JumpPriors(
        k=1.0, sigma_prior=InvGammaParams(2.0, 0.3), frechet=FrechetParams(2.0, 0.5),
        u=np.array([0.5]), dirichlet_rows=np.ones((1, 1)),
    )
    sampler = JumpGibbsSampler(ds.observations, priors, adapt_iters=150)
    chain = run_chain(
        sampler.sweep, initial_jump_state(ds.observations, priors, b=40.0),
        n_iter=1000, burn_in=150, rng=np.random.default_rng(21),
        acceptance=sampler.acceptance,
    )
    est = np.mean([d.params.sigma1_sq for d in chain.draws])
    assert abs(est - 1.3) / 1.3 < 0.2


def test_sweep_deterministic_given_seed():
    rng = np.random.default_rng(22)
    true = _params([0.0, 0.0], [0.5, 2.5], [0.1, 2.0], [0, 0])
    ds = simulate_jump_model(true, np.array([[0.9, 0.1], [0.1, 0.9]]), None, 60, rng)
    priors = _priors(u=(0.5, 4.0))

    def one_run():
        sampler = JumpGibbsSampler(ds.observations, priors, adapt_iters=10)
        state = initial_jump_state(ds.observations, priors, b=40.0)
        r = np.random.default_rng(23)
        for _ in range(30):
            state = sampler.sweep(state, r)
        return state

    a, b = one_run(), one_run()
    np.testing.assert_array_equal(a.path, b.path)
    np.testing.assert_array_equal(a.transition, b.transition)
    assert a.params.to_param_dict() == b.params.to_param_dict()
