import math

import numpy as np
import pytest
from scipy.stats import chisquare, invgamma, norm

from regimevol import (
    InvGammaParams,
    NumericalError,
    ParameterError,
    chain_summary,
    run_chain,
)
from regimevol.distributions import inv_gamma_sample
from regimevol.mcmc import (
    AdaptiveRw,
    Chain,
    ModelState,
    inv_gamma_normal_update,
    normal_normal_update,
)

from oracles import grid_posterior


def _tv(p, q):
    return 0.5 * np.sum(np.abs(p - q))


# ---------------------------------------------------------------------------
# adaptive random walk


@pytest.mark.parametrize("scale", [0.0, -0.5, math.nan, math.inf])
def test_adaptive_rw_rejects_a_step_scale_that_is_not_finite_and_positive(scale):
    with pytest.raises(ParameterError, match="step scale"):
        AdaptiveRw(scale)


def test_adaptive_rw_zero_density_proposal_rejects():
    # the target is zero everywhere except the start, so every proposal lands
    # on zero density and must be rejected
    sampler = AdaptiveRw(scale=1.0, transform="identity")
    log_target = lambda x: -0.5 * x * x if x == -1.0 else -math.inf
    rng = np.random.default_rng(1)
    for _ in range(50):
        assert sampler.step(-1.0, log_target, rng) == -1.0
    assert sampler.accepted == 0 and sampler.attempts == 50


def test_adaptive_rw_standard_normal_ergodic_averages():
    sampler = AdaptiveRw(scale=2.4, transform="identity")
    log_target = lambda x: -0.5 * x * x
    rng = np.random.default_rng(2)
    x = 0.0
    draws = np.empty(100_000)
    for i in range(draws.size):
        x = sampler.step(x, log_target, rng)
        draws[i] = x
    thinned = draws[::20]  # near-independent at this step scale
    n = thinned.size
    assert abs(thinned.mean()) < 3 * thinned.std() / math.sqrt(n)
    sq = thinned**2
    se_var = math.sqrt((np.mean(sq**2) - np.mean(sq) ** 2) / n)
    assert abs(thinned.var() - 1.0) < 3 * se_var


def test_adaptive_rw_binned_goodness_of_fit():
    sampler = AdaptiveRw(scale=2.4, transform="identity")
    log_target = lambda x: -0.5 * x * x
    rng = np.random.default_rng(3)
    x = 0.0
    draws = []
    for i in range(400_000):
        x = sampler.step(x, log_target, rng)
        if i % 40 == 0:
            draws.append(x)
    draws = np.array(draws)
    edges = norm.ppf(np.linspace(0, 1, 41))
    counts, _ = np.histogram(draws, edges)
    assert chisquare(counts).pvalue > 0.01


def test_adaptive_rw_reaches_target_acceptance():
    sampler = AdaptiveRw(scale=8.0, transform="log")
    prior = InvGammaParams(3.0, 2.0)
    rng = np.random.default_rng(5)
    log_target = lambda x: -(prior.shape + 1) * math.log(x) - prior.rate / x
    x = 1.0
    for _ in range(3000):
        x = sampler.step(x, log_target, rng, adapt=True)
    sampler.accepted = sampler.attempts = 0
    for _ in range(4000):
        x = sampler.step(x, log_target, rng, adapt=False)
    assert 0.15 < sampler.accepted / sampler.attempts < 0.5


def test_adaptive_rw_log_transform_targets_right_law():
    # frozen scale, long run: moments must match the inverse-Gamma target
    sampler = AdaptiveRw(scale=1.1, transform="log")
    prior = InvGammaParams(6.0, 5.0)
    rng = np.random.default_rng(6)
    log_target = lambda x: -(prior.shape + 1) * math.log(x) - prior.rate / x
    x = 1.0
    draws = np.empty(150_000)
    for i in range(draws.size):
        x = sampler.step(x, log_target, rng, adapt=False)
        draws[i] = x
    thinned = draws[::15]
    target_mean = prior.rate / (prior.shape - 1)
    se = thinned.std() / math.sqrt(thinned.size)
    assert abs(thinned.mean() - target_mean) < 3.5 * se


def test_adaptive_rw_shifted_log_respects_support():
    sampler = AdaptiveRw(scale=0.7, transform="log_shift")
    rng = np.random.default_rng(7)
    log_target = lambda h: -2.0 * math.log(h) - 1.0 / (h - 1.0) ** 0.5 if h > 1 else -math.inf
    h = 1.5
    for _ in range(5000):
        h = sampler.step(h, log_target, rng, adapt=False)
        assert h > 1.0


# ---------------------------------------------------------------------------
# conjugate updates


class _FixedNormal:
    """Stands in for a Generator whose normal variates are all ``z``, so a
    draw mean + sd * z reads off the posterior mean (z = 0) and sd (z = 1)."""

    def __init__(self, z):
        self.z = z

    def normal(self):
        return self.z


def test_normal_normal_no_data_is_prior():
    # prior N(0, 1/4); the variance 2 of the (absent) data plays no part
    mean = normal_normal_update(np.array([]), 2.0, 4.0, _FixedNormal(0.0))
    sd = normal_normal_update(np.array([]), 2.0, 4.0, _FixedNormal(1.0)) - mean
    assert mean == 0.0
    assert sd == pytest.approx(0.5)


def test_normal_normal_dogmatic_prior():
    data = np.full(25, 3.0)
    rng = np.random.default_rng(8)
    draws = np.array([normal_normal_update(data, 1.0, 1e12, rng) for _ in range(200)])
    assert np.all(np.abs(draws) < 1e-5)


def test_normal_normal_rejects_nonpositive_variance_or_precision():
    for var, k in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, math.nan), (math.inf, 1.0),
                   (1.0, math.inf)):
        with pytest.raises(ParameterError):
            normal_normal_update(np.ones(3), var, k, np.random.default_rng(0))


def test_normal_normal_posterior_mean_and_grid_oracle():
    data = np.full(100, 1.0)
    mean = normal_normal_update(data, 1.0, 1.0, _FixedNormal(0.0))
    sd = normal_normal_update(data, 1.0, 1.0, _FixedNormal(1.0)) - mean
    assert mean == pytest.approx(100.0 / 101.0)
    assert sd == pytest.approx(math.sqrt(1.0 / 101.0))
    grid = np.linspace(mean - 9 * sd, mean + 9 * sd, 4001)
    oracle = grid_posterior(
        log_prior=lambda mu: -0.5 * mu * mu,
        log_lik=lambda mu: -0.5 * 100.0 * (1.0 - mu) ** 2,
        grid=grid,
    )
    closed = np.exp(-0.5 * ((grid - mean) / sd) ** 2)
    closed /= closed.sum()
    assert _tv(oracle, closed) < 1e-3


def test_inv_gamma_normal_no_data_is_prior_draw():
    prior = InvGammaParams(2.5, 1.5)
    a = inv_gamma_normal_update(0.0, 0, prior, np.random.default_rng(9))
    b = inv_gamma_sample(prior, np.random.default_rng(9))
    assert a == b


def test_inv_gamma_normal_posterior_moments():
    # n=50, rss=50, prior (2, 1) -> invGamma(27, 26)
    prior = InvGammaParams(2.0, 1.0)
    rng = np.random.default_rng(10)
    draws = np.array([inv_gamma_normal_update(50.0, 50, prior, rng) for _ in range(100_000)])
    mean = 26.0 / 26.0
    var = 26.0**2 / (26.0**2 * 25.0)
    se_mean = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - mean) < 3 * se_mean
    sq = (draws - draws.mean()) ** 2
    se_var = math.sqrt((np.mean(sq**2) - np.mean(sq) ** 2) / draws.size)
    assert abs(draws.var() - var) < 3 * se_var


def test_inv_gamma_normal_grid_oracle():
    post = InvGammaParams(27.0, 26.0)
    grid = np.linspace(0.3, 5.0, 6001)
    oracle = grid_posterior(
        log_prior=lambda s: -3.0 * math.log(s) - 1.0 / s,  # invGamma(2, 1)
        log_lik=lambda s: -25.0 * math.log(s) - 25.0 / s,  # n=50, rss=50
        grid=grid,
    )
    closed = invgamma.pdf(grid, post.shape, scale=post.rate)
    closed /= closed.sum()
    assert _tv(oracle, closed) < 1e-3


# ---------------------------------------------------------------------------
# chains


def _dict_sweep(state, rng):
    return {"x": state["x"] + rng.normal()}


def test_run_chain_keeps_exactly_last_draws():
    chain = run_chain(_dict_sweep, {"x": 0.0}, n_iter=10, burn_in=9, rng=np.random.default_rng(11))
    assert len(chain.draws) == 1
    assert chain.burn_in == 9


def test_run_chain_identity_sweep():
    init = {"x": 3.0}
    chain = run_chain(lambda s, r: s, init, 7, 2, np.random.default_rng(12))
    assert all(d is init for d in chain.draws)


def test_run_chain_deterministic():
    a = run_chain(_dict_sweep, {"x": 0.0}, 50, 10, np.random.default_rng(13))
    b = run_chain(_dict_sweep, {"x": 0.0}, 50, 10, np.random.default_rng(13))
    assert [d["x"] for d in a.draws] == [d["x"] for d in b.draws]


def test_run_chain_rejects_bad_burnin():
    with pytest.raises(ParameterError):
        run_chain(_dict_sweep, {"x": 0.0}, 10, 10, np.random.default_rng(0))


def test_run_chain_tags_failing_iteration():
    def bad_sweep(state, rng):
        if state["x"] > 2.5:
            raise NumericalError("theta_2 exploded")
        return {"x": state["x"] + 1.0}

    with pytest.raises(NumericalError, match=r"iteration 3.*theta_2"):
        run_chain(bad_sweep, {"x": 0.0}, 10, 0, np.random.default_rng(0))


def test_chain_summary_constant_and_two_point():
    chain = Chain(draws=[{"a": 2.0}] * 5, burn_in=0)
    summary = chain_summary(chain)
    assert summary["a"].mean == 2.0 and summary["a"].sd == 0.0

    chain2 = Chain(draws=[{"a": 0.0}, {"a": 2.0}], burn_in=0)
    assert chain_summary(chain2)["a"].mean == 1.0


def test_chain_summary_gaussian_mean():
    rng = np.random.default_rng(14)
    draws = [{"x": float(v)} for v in rng.normal(0, 1, 100_000)]
    chain = Chain(draws=draws, burn_in=0)
    s = chain_summary(chain)["x"]
    assert abs(s.mean) < 3 / math.sqrt(100_000)


def test_chain_summary_empty_raises():
    chain = Chain(draws=[], burn_in=0)
    with pytest.raises(ParameterError):
        chain_summary(chain)


def test_model_state_param_dict_includes_transition():
    class P:
        @staticmethod
        def to_param_dict():
            return {"mu_1": 0.5}

    state = ModelState(path=np.array([1, 1]), transition=np.array([[0.9, 0.1], [0.2, 0.8]]), params=P())
    d = state.to_param_dict()
    assert d["p_12"] == pytest.approx(0.1)
    assert d["mu_1"] == 0.5
