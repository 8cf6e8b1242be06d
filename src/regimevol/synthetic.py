"""Forward simulators for both models.

The jump simulator is faithful to the generative model: every observation
draws its own Poisson jump count (inference works with a single per-state
count; the mismatch is deliberate and the recovery tolerances absorb it).
The stable simulator draws each observation directly from the symmetric
stable law of its state (``distributions.stable_sample``), not through the
Gaussian scale mixture the sampler fits.

Both simulators raise ParameterError before any draw unless P is an (M, M)
transition matrix, pi0 a length-M probability vector (uniform when None)
and t_len >= 1.

The brute-force oracles the samplers are checked against (path enumeration,
grid posteriors) live with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .distributions import stable_sample
from .errors import ParameterError
from .jump_model import JumpParams
from .regime import validate_initial_distribution, validate_transition_matrix
from .stable_model import StableModelParams

__all__ = [
    "SyntheticDataset",
    "simulate_jump_model",
    "simulate_stable_model",
]


@dataclass
class SyntheticDataset:
    """Simulated observations with their latent truth, regenerable from seed."""

    observations: np.ndarray
    true_path: np.ndarray  # labels 1..M
    true_params: Any
    seed: int | None = None


def _simulate_path(
    p: np.ndarray, pi0: np.ndarray | None, t_len: int, rng: np.random.Generator, m: int
) -> np.ndarray:
    p = validate_transition_matrix(p)
    if p.shape != (m, m):
        raise ParameterError(f"transition matrix has shape {p.shape}, expected {(m, m)}")
    if t_len < 1:
        raise ParameterError(f"need at least one observation to simulate, got t_len={t_len}")
    pi0 = validate_initial_distribution(pi0, m)
    # a single state carries no randomness; skipping the draw keeps the
    # observation stream aligned with direct sampling
    if m == 1:
        return np.ones(t_len, dtype=np.int64)
    path = np.empty(t_len, dtype=np.int64)
    cum0 = np.cumsum(pi0)
    cump = np.cumsum(p, axis=1)
    path[0] = np.searchsorted(cum0, rng.random() * cum0[-1])
    for t in range(1, t_len):
        row = cump[path[t - 1]]
        path[t] = np.searchsorted(row, rng.random() * row[-1])
    return path + 1


def simulate_jump_model(
    params: JumpParams,
    p: np.ndarray,
    pi0: np.ndarray | None,
    t_len: int,
    rng: np.random.Generator,
    seed: int | None = None,
) -> SyntheticDataset:
    """Forward-simulate the jump model: per observation draw the state, the
    Gaussian part, a Poisson jump count N_t, the Gamma jump magnitude and a
    fair sign."""
    m = params.n_states
    path = _simulate_path(p, pi0, t_len, rng, m)
    sd = np.sqrt(params.sigma_sq)[path - 1]
    mu = params.mu[path - 1]
    eps = rng.normal(mu, sd)
    counts = rng.poisson(params.theta[path - 1])
    magnitude = rng.gamma(np.maximum(counts, 1), 1.0 / params.b)
    signs = rng.integers(0, 2, t_len) * 2 - 1
    jumps = np.where(counts > 0, signs * magnitude, 0.0)
    return SyntheticDataset(
        observations=eps + jumps, true_path=path, true_params=params, seed=seed
    )


def simulate_stable_model(
    params: StableModelParams,
    p: np.ndarray,
    pi0: np.ndarray | None,
    t_len: int,
    rng: np.random.Generator,
    seed: int | None = None,
) -> SyntheticDataset:
    """Forward-simulate the stable model: state path, then a symmetric stable
    draw with the state's scale and location.  With a single state this
    reduces to (and exactly reproduces) a stable_sample stream."""
    m = params.n_states
    path = _simulate_path(p, pi0, t_len, rng, m)
    gamma = np.sqrt(params.gamma_sq).tolist()
    mu = params.mu.tolist()
    if m == 1:
        values = stable_sample(params.alpha, gamma[0], mu[0], rng, t_len)
    else:
        values = np.array([stable_sample(params.alpha, gamma[j - 1], mu[j - 1], rng) for j in path])
    return SyntheticDataset(
        observations=values, true_path=path, true_params=params, seed=seed
    )
