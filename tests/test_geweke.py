"""Geweke's joint-distribution tests (Geweke, "Getting it right", JASA 2004)
of the sampler blocks whose updates are exact full conditionals or
invariant MH steps.

A block alternates  y ~ p(y | path, theta)  with its updates given y.  If
every update leaves p(. | y) invariant, the chain leaves the joint prior
invariant, so its means of a few statistics must match those of independent
draws from the prior, within their Monte Carlo error (batch means for the
chain).  The forward draws are vectorised over draws.

The state block is the start of both samplers' sweep: forward filter,
backward path draw, transition counts and Dirichlet rows for P, with the
emission law fixed.  The model: M = 3 states, T = 30 steps, a uniform first
state (the filter's default), rows of P from Dirichlet(c + 2I) and
N(0, sd_j^2) emissions.  Under c = 0.02 most draws of P have an entry below
2^-150, so the filter takes its exact log-space path there.

The stable block is the stable sampler's sweep with the scales fixed: the
state block, then three log-scale MH steps on lambda at a fixed walk scale
(adaptation would break invariance) and the conjugate state means.  The
model: M = 2, T = 40, alpha = 1.7, gamma_1^2 = 0.5 and h* = 4, lambda from
its positive-stable prior and mu_j ~ N(0, 1/k).  It also checks the
positive-stable log density against the positive-stable sampler.
"""

import math

import numpy as np
import pytest

from regimevol.distributions import (
    FrechetParams,
    InvGammaParams,
    gaussian_logpdf,
    positive_stable_sample,
)
from regimevol.mcmc import AdaptiveRw
from regimevol.regime import (
    count_transitions,
    hamilton_filter,
    sample_state_path,
    sample_transition_matrix,
)
from regimevol.stable_model import (
    StableModelParams,
    StablePriors,
    sample_lambda,
    sample_stable_mu_j,
)

M, T = 3, 30
SD = np.array([1.0, 1.7, 2.9])
N_STEPS = 10_000  # forward draws, and as many successive-conditional steps
BATCH = 100  # batch length of the chain's batch-means variance
NAMES = ["P11", "P23", "share of state 1", "switches", "S_0 = 3", "S_T = 1"]


def _statistics(p, paths):
    """Per-draw statistics; p is (n, M, M), paths (n, T) with labels 1..M."""
    return np.column_stack([
        p[:, 0, 0],
        p[:, 1, 2],
        (paths == 1).mean(axis=1),
        (np.diff(paths, axis=1) != 0).sum(axis=1),
        paths[:, 0] == 3,
        paths[:, -1] == 1,
    ]).astype(float)


def _forward(rows, n, t_len, rng):
    """n independent draws of (P, path) from the prior, vectorised over n."""
    m = rows.shape[0]
    p = np.stack([rng.dirichlet(rows[i], size=n) for i in range(m)], axis=1)
    paths = np.empty((n, t_len), dtype=int)
    paths[:, 0] = rng.integers(0, m, n)
    for t in range(1, t_len):
        cdf = np.cumsum(p[np.arange(n), paths[:, t - 1]], axis=1)
        paths[:, t] = (cdf[:, :-1] < rng.random(n)[:, None] * cdf[:, -1:]).sum(axis=1)
    return p, paths + 1


def _successive(rows, n, rng, p, path):
    """n steps of the chain started from one prior draw (p, path)."""
    ps = np.empty((n, M, M))
    paths = np.empty((n, T), dtype=int)
    var = SD * SD
    for i in range(n):
        y = rng.normal(0.0, SD[path - 1])
        logem = -0.5 * (np.log(2.0 * np.pi * var) + y[:, None] ** 2 / var)
        path = sample_state_path(hamilton_filter(logem, T, p), p, rng)
        p = sample_transition_matrix(count_transitions(path, M), rows, rng)
        ps[i], paths[i] = p, path
    return ps, paths


def _z_scores(forward, chain, batch=BATCH):
    """Difference of means over its standard error: iid variance for the
    forward draws, batch means for the chain."""
    n_batches = chain.shape[0] // batch
    batch_means = chain[: n_batches * batch].reshape(n_batches, batch, -1).mean(axis=1)
    var = forward.var(axis=0, ddof=1) / forward.shape[0]
    var += batch_means.var(axis=0, ddof=1) / n_batches
    return (forward.mean(axis=0) - chain.mean(axis=0)) / np.sqrt(var)


@pytest.mark.parametrize("c", [1.0, 0.02], ids=["dense", "sparse"])
def test_state_block_leaves_the_prior_invariant(c):
    rows = np.full((M, M), c) + 2.0 * np.eye(M)
    rng = np.random.default_rng([2004, int(c * 100)])
    p, paths = _forward(rows, N_STEPS + 1, T, rng)
    chain_p, chain_paths = _successive(rows, N_STEPS, rng, p[0], paths[0])
    z = _z_scores(_statistics(p[1:], paths[1:]), _statistics(chain_p, chain_paths))
    assert np.all(np.abs(z) < 4.0), dict(zip(NAMES, np.round(z, 2)))
    # the share of the chain's P draws that send the next filter call down its exact path
    exact = np.mean(chain_p.min(axis=(1, 2)) < 2.0**-150)
    assert exact > 0.3 if c < 1.0 else exact == 0.0


ALPHA = 1.7
GAMMA_SQ = np.array([0.5, 2.0])  # gamma_1^2 = 0.5, h* = 4
STABLE_T = 40
STABLE_STEPS = 6000
STABLE_BATCH = 200  # lambda's autocorrelation time is 20-70 steps
STABLE_NAMES = ["log lambda", "lambda < 1", "mu_1", "mu_2^2", "P11", "share of state 1",
                "switches"]


def _stable_statistics(lam, mu, p, paths):
    """Per-draw statistics; lam is (n,), mu (n, 2), p (n, 2, 2), paths (n, T)."""
    return np.column_stack([
        np.log(lam),
        lam < 1.0,
        mu[:, 0],
        mu[:, 1] ** 2,
        p[:, 0, 0],
        (paths == 1).mean(axis=1),
        (np.diff(paths, axis=1) != 0).sum(axis=1),
    ]).astype(float)


def test_stable_block_leaves_the_prior_invariant():
    rows = np.ones((2, 2)) + 2.0 * np.eye(2)
    priors = StablePriors(k=1.0, scale_prior=InvGammaParams(2.0, 0.5),
                          frechet=FrechetParams(2.0, 0.5), dirichlet_rows=rows)
    rng = np.random.default_rng([2004, 17])
    n = STABLE_STEPS + 1
    p, paths = _forward(rows, n, STABLE_T, rng)
    lam = positive_stable_sample(ALPHA, rng, n)
    mu = rng.normal(0.0, 1.0 / math.sqrt(priors.k), (n, 2))

    params = StableModelParams(mu=mu[0].copy(), gamma1_sq=GAMMA_SQ[0],
                               h_star=GAMMA_SQ[1:] / GAMMA_SQ[:-1], lam=lam[0], alpha=ALPHA)
    trans, path = p[0], paths[0]
    walk = AdaptiveRw(0.5, "log")
    chain_lam = np.empty(STABLE_STEPS)
    chain_mu = np.empty((STABLE_STEPS, 2))
    chain_p = np.empty((STABLE_STEPS, 2, 2))
    chain_paths = np.empty((STABLE_STEPS, STABLE_T), dtype=int)
    for i in range(STABLE_STEPS):
        var = params.lam * params.gamma_sq
        y = rng.normal(params.mu[path - 1], np.sqrt(var[path - 1]))
        logem = gaussian_logpdf(y[:, None], params.mu[None, :], var[None, :])
        path = sample_state_path(hamilton_filter(logem, STABLE_T, trans), trans, rng)
        trans = sample_transition_matrix(count_transitions(path, 2), rows, rng)
        groups = [y[path == j] for j in (1, 2)]
        for _ in range(3):
            params.lam = sample_lambda(groups, params, priors, rng, walk, adapt=False)
        for j in (1, 2):
            params.mu[j - 1] = sample_stable_mu_j(groups[j - 1], j, params, priors, rng)
        chain_lam[i], chain_mu[i], chain_p[i], chain_paths[i] = params.lam, params.mu, trans, path
    z = _z_scores(_stable_statistics(lam[1:], mu[1:], p[1:], paths[1:]),
                  _stable_statistics(chain_lam, chain_mu, chain_p, chain_paths), STABLE_BATCH)
    assert np.all(np.abs(z) < 4.0), dict(zip(STABLE_NAMES, np.round(z, 2)))
