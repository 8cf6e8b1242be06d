import math

import numpy as np
import pytest
from scipy.stats import kstest

from regimevol import (
    JumpParams,
    NumericalError,
    ParameterError,
    StableModelParams,
    simulate_jump_model,
    simulate_stable_model,
)
from regimevol.distributions import stable_sample

from oracles import grid_posterior


def _jump_params(mu, sigma_sq, theta, b=40.0):
    mu = np.asarray(mu, dtype=float)
    sigma_sq = np.asarray(sigma_sq, dtype=float)
    h = sigma_sq[1:] / sigma_sq[:-1]
    return JumpParams(
        mu=mu, sigma1_sq=float(sigma_sq[0]), h_star=h,
        theta=np.asarray(theta, dtype=float),
        n_jumps=np.zeros(mu.size, dtype=int), b=b,
    )


def test_simulate_jump_no_intensity_is_pure_gaussian():
    params = _jump_params([0.0, 0.0], [1.0, 4.0], [0.0, 0.0])
    ds = simulate_jump_model(params, np.array([[0.9, 0.1], [0.2, 0.8]]), None, 2000,
                             np.random.default_rng(0))
    # zero intensity: no observation carries a jump, so each state is Gaussian
    for j, var in ((1, 1.0), (2, 4.0)):
        sel = ds.observations[ds.true_path == j]
        assert kstest(sel / math.sqrt(var), "norm").pvalue > 0.01


def test_simulate_jump_single_state_variance():
    params = _jump_params([0.0], [1.0], [0.0])
    ds = simulate_jump_model(params, np.array([[1.0]]), None, 100_000,
                             np.random.default_rng(1))
    y = ds.observations
    sq = y**2
    se = math.sqrt((np.mean(sq**2) - np.mean(sq) ** 2) / y.size)
    assert abs(y.var() - 1.0) < 3 * se


def test_simulate_jump_poisson_moment_oracle():
    # total variance = sigma^2 + E[N(N+1)]/b^2 with E[N(N+1)] = theta^2 + 2 theta
    theta, b, sigma_sq = 2.0, 40.0, 1.0
    params = _jump_params([0.0], [sigma_sq], [theta], b=b)
    ds = simulate_jump_model(params, np.array([[1.0]]), None, 100_000,
                             np.random.default_rng(2))
    y = ds.observations
    target = sigma_sq + (theta**2 + 2 * theta) / b**2
    sq = y**2
    se = math.sqrt((np.mean(sq**2) - np.mean(sq) ** 2) / y.size)
    assert abs(y.var() - target) < 3 * se


def test_simulate_jump_regenerable_from_seed():
    params = _jump_params([0.0, 0.1], [1.0, 5.0], [0.5, 2.0])
    p = np.array([[0.95, 0.05], [0.1, 0.9]])
    a = simulate_jump_model(params, p, None, 300, np.random.default_rng(77), seed=77)
    b = simulate_jump_model(params, p, None, 300, np.random.default_rng(77), seed=77)
    np.testing.assert_array_equal(a.observations, b.observations)
    np.testing.assert_array_equal(a.true_path, b.true_path)
    assert a.seed == 77


def _stable_params(mu, gamma_sq, alpha=1.7):
    mu = np.asarray(mu, dtype=float)
    gamma_sq = np.asarray(gamma_sq, dtype=float)
    return StableModelParams(
        mu=mu, gamma1_sq=float(gamma_sq[0]), h_star=gamma_sq[1:] / gamma_sq[:-1],
        lam=1.0, alpha=alpha,
    )


def test_simulate_stable_gaussian_limit():
    # alpha -> 2: stable reduces to Normal(mu, 2 gamma^2); use alpha just inside
    params = StableModelParams(
        mu=np.array([0.0]), gamma1_sq=0.25, h_star=np.array([]), lam=1.0, alpha=1.999999
    )
    ds = simulate_stable_model(params, np.array([[1.0]]), None, 50_000,
                               np.random.default_rng(3))
    assert kstest(ds.observations, "norm", args=(0.0, math.sqrt(2 * 0.25))).pvalue > 0.01


def test_simulate_stable_single_state_delegates_to_stable_sample():
    params = _stable_params([0.3], [0.8])
    ds = simulate_stable_model(params, np.array([[1.0]]), None, 500,
                               np.random.default_rng(4))
    direct = stable_sample(1.7, math.sqrt(0.8), 0.3, np.random.default_rng(4), size=500)
    np.testing.assert_array_equal(ds.observations, direct)


def test_simulate_stable_state_medians():
    params = _stable_params([-0.5, 0.7], [0.5, 3.0])
    p = np.array([[0.9, 0.1], [0.15, 0.85]])
    ds = simulate_stable_model(params, p, None, 40_000, np.random.default_rng(5))
    for j, mu in ((1, -0.5), (2, 0.7)):
        sel = ds.observations[ds.true_path == j]
        med = np.median(sel)
        h = 0.1
        f_hat = np.mean(np.abs(sel - mu) < h) / (2 * h)
        se = 1.0 / (2.0 * f_hat * math.sqrt(sel.size))
        assert abs(med - mu) < 3 * se


@pytest.mark.parametrize("p, pi0, t_len, match", [
    ([[0.9, 0.1], [0.2, 0.8]], [2.0, -1.0], 10, "pi0"),
    ([[0.9, 0.1], [0.2, 0.8]], [0.2, 0.3, 0.5], 10, "pi0"),
    (np.full((3, 3), 1 / 3), None, 10, r"shape \(3, 3\), expected \(2, 2\)"),
    pytest.param([[0.9, 0.1], [0.2, 0.8]], None, 0, "^t_len must be an integer >= 1, got 0$",
                 id="p3-None-0-t_len=0"),
])
def test_simulators_reject_a_bad_chain_before_any_draw(p, pi0, t_len, match):
    jump = _jump_params([0.0, 0.1], [1.0, 5.0], [0.5, 2.0])
    stable = _stable_params([0.0, 0.1], [1.0, 5.0])
    for simulate, params in ((simulate_jump_model, jump), (simulate_stable_model, stable)):
        rng = np.random.default_rng(6)
        with pytest.raises(ParameterError, match=match):
            simulate(params, np.array(p), pi0, t_len, rng)
        assert rng.bit_generator.state == np.random.default_rng(6).bit_generator.state


# ---------------------------------------------------------------------------
# grid posterior oracle


def test_grid_posterior_flat_prior_gaussian_likelihood():
    grid = np.linspace(-6, 6, 2001)
    probs = grid_posterior(lambda x: 0.0, lambda x: -0.5 * x * x, grid)
    step = grid[1] - grid[0]
    mean = float(np.sum(grid * probs))
    var = float(np.sum((grid - mean) ** 2 * probs))
    assert abs(mean) < step
    assert var == pytest.approx(1.0, abs=2 * step)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_grid_posterior_conjugate_instance_mean():
    # Normal-Normal: n=100, ybar=1, sigma^2=1, k=1 -> posterior mean 100/101
    grid = np.linspace(0.2, 1.8, 4001)
    probs = grid_posterior(
        lambda mu: -0.5 * mu * mu, lambda mu: -50.0 * (1.0 - mu) ** 2, grid
    )
    mean = float(np.sum(grid * probs))
    assert abs(mean - 100.0 / 101.0) < (grid[1] - grid[0])


def test_grid_posterior_demands_coverage():
    grid = np.linspace(-0.5, 0.5, 101)  # chops off most of a unit Gaussian
    with pytest.raises(NumericalError, match="widen"):
        grid_posterior(lambda x: 0.0, lambda x: -0.5 * x * x, grid)


def _truncated_exp(x):
    # Exp(1) cut off at 0; only the right tail is open
    return -x if x >= 0.0 else -math.inf


def test_grid_posterior_closed_support_end_keeps_real_edge_mass():
    grid = np.linspace(0.0, 40.0, 4001)
    probs = grid_posterior(lambda x: 0.0, _truncated_exp, grid, support=(0.0, math.inf))
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert probs[0] > 1e-3  # the support edge, not a too-narrow grid
    closed = np.exp(-grid)
    np.testing.assert_allclose(probs, closed / closed.sum(), rtol=1e-10, atol=1e-300)


def test_grid_posterior_without_support_refuses_edge_mass():
    grid = np.linspace(0.0, 40.0, 4001)
    with pytest.raises(NumericalError, match=r"left end.*widen") as info:
        grid_posterior(lambda x: 0.0, _truncated_exp, grid)
    assert "right" not in str(info.value)


def test_grid_posterior_support_beyond_one_spacing_is_open():
    grid = np.linspace(0.0, 40.0, 4001)
    step = grid[1] - grid[0]
    # within one spacing of the end node: closed
    grid_posterior(lambda x: 0.0, _truncated_exp, grid, support=(-0.5 * step, math.inf))
    with pytest.raises(NumericalError, match=r"left end.*widen"):
        grid_posterior(
            lambda x: 0.0, _truncated_exp, grid, support=(-1.5 * step, math.inf)
        )
    # a declared right bound does not close the left end
    with pytest.raises(NumericalError, match="left end"):
        grid_posterior(lambda x: 0.0, _truncated_exp, grid, support=(-math.inf, 40.0))
    with pytest.raises(ParameterError):
        grid_posterior(lambda x: 0.0, _truncated_exp, grid, support=(40.0, 0.0))
