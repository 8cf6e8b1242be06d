"""Forward simulators for both models.

The jump simulator is faithful to the generative model: every observation
draws its own Poisson jump count (inference works with a single per-state
count; the mismatch is deliberate and the recovery tolerances absorb it).
The brute-force oracles the samplers are checked against (path enumeration,
grid posteriors) live with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .distributions import StableParams, stable_sample
from .jump_model import JumpParams
from .regime import validate_transition_matrix
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
    p: np.ndarray, pi0: np.ndarray, t_len: int, rng: np.random.Generator, m: int
) -> np.ndarray:
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
    p = validate_transition_matrix(p)
    pi0 = np.full(m, 1.0 / m) if pi0 is None else np.asarray(pi0, dtype=float)
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
    p = validate_transition_matrix(p)
    pi0 = np.full(m, 1.0 / m) if pi0 is None else np.asarray(pi0, dtype=float)
    path = _simulate_path(p, pi0, t_len, rng, m)
    gamma = np.sqrt(params.gamma_sq)
    if m == 1:
        sp = StableParams(params.alpha, 0.0, float(gamma[0]), float(params.mu[0]))
        values = stable_sample(sp, rng, size=t_len)
    else:
        state_params = [
            StableParams(params.alpha, 0.0, float(gamma[j]), float(params.mu[j]))
            for j in range(m)
        ]
        values = np.empty(t_len)
        for t in range(t_len):
            values[t] = stable_sample(state_params[path[t] - 1], rng)
    return SyntheticDataset(
        observations=values, true_path=path, true_params=params, seed=seed
    )
