"""Geweke's joint-distribution test of the state block (Geweke, "Getting it
right", JASA 2004).

The block is the start of both samplers' sweep: forward filter, backward
path draw, transition counts and Dirichlet rows for P.  With the emission
law fixed, the path and P are exact full conditionals, so alternating

    y ~ p(y | path),  path ~ p(path | y, P),  P ~ p(P | path)

leaves the joint prior p(P, path) invariant.  The chain's means of a few
statistics must then match those of independent draws from that prior,
within their Monte Carlo error.  The model: M = 3 states, T = 30 steps, a
uniform first state (the filter's default), rows of P from Dirichlet(c + 2I)
and N(0, sd_j^2) emissions.  Under c = 0.02 most draws of P have an entry
below 2^-150, so the filter takes its exact log-space path there.
"""

import numpy as np
import pytest

from regimevol.regime import (
    count_transitions,
    hamilton_filter,
    sample_state_path,
    sample_transition_matrix,
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


def _forward(rows, n, rng):
    """n independent draws of (P, path) from the prior, vectorised over n."""
    p = np.stack([rng.dirichlet(rows[i], size=n) for i in range(M)], axis=1)
    paths = np.empty((n, T), dtype=int)
    paths[:, 0] = rng.integers(0, M, n)
    for t in range(1, T):
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


def _z_scores(forward, chain):
    """Difference of means over its standard error: iid variance for the
    forward draws, batch means for the chain."""
    n_batches = chain.shape[0] // BATCH
    batch_means = chain[: n_batches * BATCH].reshape(n_batches, BATCH, -1).mean(axis=1)
    var = forward.var(axis=0, ddof=1) / forward.shape[0]
    var += batch_means.var(axis=0, ddof=1) / n_batches
    return (forward.mean(axis=0) - chain.mean(axis=0)) / np.sqrt(var)


@pytest.mark.parametrize("c", [1.0, 0.02], ids=["dense", "sparse"])
def test_state_block_leaves_the_prior_invariant(c):
    rows = np.full((M, M), c) + 2.0 * np.eye(M)
    rng = np.random.default_rng([2004, int(c * 100)])
    p, paths = _forward(rows, N_STEPS + 1, rng)
    chain_p, chain_paths = _successive(rows, N_STEPS, rng, p[0], paths[0])
    z = _z_scores(_statistics(p[1:], paths[1:]), _statistics(chain_p, chain_paths))
    assert np.all(np.abs(z) < 4.0), dict(zip(NAMES, np.round(z, 2)))
    # the share of the chain's P draws that send the next filter call down its exact path
    exact = np.mean(chain_p.min(axis=(1, 2)) < 2.0**-150)
    assert exact > 0.3 if c < 1.0 else exact == 0.0
