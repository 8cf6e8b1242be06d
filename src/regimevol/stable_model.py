"""Markov-switching symmetric alpha-stable model via its Gaussian scale
mixture: conditional on the global mixing variable lambda (a totally skewed
positive stable draw), every observation is Gaussian with variance
lambda * gamma_j^2, so all updates except lambda's are standard.

lambda itself has no closed-form conditional and moves by a log-scale MH step
against its heavy-tailed prior times the conditional Gaussian likelihood.
Its chain is floored at a small constant: runaway small lambdas would force
the scale parameters to blow up in compensation (the likelihood only
identifies the product lambda * gamma^2), and the floor keeps that failure
mode out.  The acceptance tally for lambda is exposed; low rates near small
values are expected behaviour of this model, not a bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    FrechetParams,
    InvGammaParams,
    gaussian_logpdf,
    positive_stable_logpdf,
)
from .errors import ParameterError
from .mcmc import (
    AdaptiveRw,
    GibbsSampler,
    ModelState,
    check_scale_ladder,
    gaussian_h_star_step,
    inv_gamma_normal_update,
    normal_normal_update,
    quantile_start,
)
from .regime import (
    check_dirichlet_rows,
    count_transitions,
    hamilton_filter,
    sample_state_path,
    sample_transition_matrix,
)

__all__ = [
    "StableModelParams",
    "StablePriors",
    "sample_lambda",
    "sample_gamma1_sq",
    "sample_stable_mu_j",
    "sample_stable_h_star_j",
    "StableGibbsSampler",
    "initial_stable_state",
]


@dataclass
class StableModelParams:
    """One draw of the stable model's parameters.

    gamma1_sq and the multipliers h* induce increasing squared scales
    gamma_j^2; ``lam`` is the shared mixing variable; ``alpha`` the fixed
    stability index in (1, 2).
    """

    mu: np.ndarray
    gamma1_sq: float
    h_star: np.ndarray
    lam: float
    alpha: float

    def __post_init__(self) -> None:
        self.mu = np.asarray(self.mu, dtype=float)
        self.h_star = np.asarray(self.h_star, dtype=float)
        check_scale_ladder(self.mu, "gamma1_sq", self.gamma1_sq, self.h_star)
        if not 0.0 < self.lam < math.inf:
            raise ParameterError(f"mixing variable lambda must be finite and > 0, got {self.lam}")
        if not 1.0 < self.alpha < 2.0:
            raise ParameterError(f"stability index must lie in (1, 2), got {self.alpha}")

    @property
    def n_states(self) -> int:
        return self.mu.size

    @property
    def gamma_sq(self) -> np.ndarray:
        """Derived squared scales gamma_1^2 < ... < gamma_M^2."""
        return self.gamma1_sq * np.cumprod(np.concatenate(([1.0], self.h_star)))

    def to_param_dict(self) -> dict[str, float]:
        out: dict[str, float] = {"lambda": float(self.lam)}
        gam = self.gamma_sq
        for j in range(self.n_states):
            out[f"mu_{j + 1}"] = float(self.mu[j])
            out[f"gamma_sq_{j + 1}"] = float(gam[j])
        for j in range(2, self.n_states + 1):
            out[f"h_star_{j}"] = float(self.h_star[j - 2])
        return out


@dataclass
class StablePriors:
    k: float
    scale_prior: InvGammaParams
    frechet: FrechetParams
    dirichlet_rows: np.ndarray
    lambda_floor: float = 1e-6

    def __post_init__(self) -> None:
        # each check is written so that NaN fails it
        if not (0.0 < self.k < math.inf and 0.0 < self.lambda_floor < math.inf):
            raise ParameterError(
                f"k and lambda_floor must be finite and > 0, got {self.k} and {self.lambda_floor}"
            )
        self.dirichlet_rows = check_dirichlet_rows(self.dirichlet_rows)

    @property
    def n_states(self) -> int:
        return self.dirichlet_rows.shape[0]


# ---------------------------------------------------------------------------
# updates


def sample_lambda(
    groups: list[np.ndarray],
    params: StableModelParams,
    priors: StablePriors,
    rng: np.random.Generator,
    sampler: AdaptiveRw,
    adapt: bool,
) -> float:
    """One MH step on the mixing variable; proposals below the floor auto-reject.

    ``groups[j]`` holds the observations the current path puts in state
    j + 1.  The target is the positive-stable prior density times the
    conditional Gaussian likelihood, written from each state's count and
    residual sum of squares so that a target evaluation is O(M) plus one
    prior-density evaluation (a fixed tanh-sinh rule; the current value's
    comes from the density's cache) rather than a pass over the series.
    """
    counts = np.array([g.size for g in groups], dtype=float)
    rss = np.array([np.sum((g - mu) ** 2) for g, mu in zip(groups, params.mu)])
    gam = params.gamma_sq

    def log_target(lam: float) -> float:
        if lam < priors.lambda_floor:
            return -math.inf
        lp = positive_stable_logpdf(lam, params.alpha)
        if lp == -math.inf:
            return -math.inf
        var = lam * gam
        return lp + float(np.sum(-0.5 * counts * np.log(2.0 * np.pi * var) - 0.5 * rss / var))

    return sampler.step(float(params.lam), log_target, rng, adapt)


def sample_gamma1_sq(
    data_1: np.ndarray,
    params: StableModelParams,
    priors: StablePriors,
    rng: np.random.Generator,
) -> float:
    """Exact conjugate draw of the base squared scale.

    Conditional on lambda, state-1 observations are N(mu_1, lambda gamma_1^2),
    so the inverse-Gamma update applies to the residuals divided by lambda.
    """
    data_1 = np.asarray(data_1, dtype=float)
    rss = float(np.sum((data_1 - params.mu[0]) ** 2)) / params.lam
    return inv_gamma_normal_update(rss, data_1.size, priors.scale_prior, rng)


def sample_stable_mu_j(
    data_j: np.ndarray,
    j: int,
    params: StableModelParams,
    priors: StablePriors,
    rng: np.random.Generator,
) -> float:
    """Exact conjugate draw of the state-j mean with variance lambda gamma_j^2."""
    data_j = np.asarray(data_j, dtype=float)
    var = float(params.lam * params.gamma_sq[j - 1])
    return normal_normal_update(data_j, var, priors.k, rng)


def sample_stable_h_star_j(
    data_j: np.ndarray,
    j: int,
    params: StableModelParams,
    priors: StablePriors,
    rng: np.random.Generator,
    sampler: AdaptiveRw,
    adapt: bool,
) -> float:
    """Scale multiplier of state j >= 2: the shared Gaussian h* step,
    ``mcmc.gaussian_h_star_step``, with lambda gamma^2 in place of the jump
    model's sigma^2 (the likelihood is Gaussian here, so the analytic residual
    form always applies).
    """
    if not 2 <= j <= params.n_states:
        raise ParameterError(f"h* index must lie in 2..{params.n_states}, got {j}")
    return gaussian_h_star_step(
        np.asarray(data_j, dtype=float), params.mu[j - 1],
        float(params.lam * params.gamma_sq[j - 2]), float(params.h_star[j - 2]),
        priors.frechet, rng, sampler, adapt,
    )


# ---------------------------------------------------------------------------
# full sweep


class StableGibbsSampler(GibbsSampler):
    """One chain of the stable model on the shared Gibbs engine.

    Adaptive steps: lambda on a log scale and the h*_j on log(h* - 1); every
    other update is an exact conjugate draw.
    """

    def adaptive_params(self) -> list[tuple[str, str]]:
        return [("lambda", "log")] + [
            (f"h_star_{j}", "log_shift") for j in range(2, self.n_states + 1)
        ]

    def emission_matrix(self, params: StableModelParams) -> np.ndarray:
        var = params.lam * params.gamma_sq
        return gaussian_logpdf(self.data[:, None], params.mu[None, :], var[None, :])

    def update(
        self, params: StableModelParams, transition: np.ndarray, rng: np.random.Generator,
        adapt: bool,
    ):
        self.stage = "state_path"
        filt = hamilton_filter(self.emission_matrix(params), self.data.size, transition)
        path = sample_state_path(filt, transition, rng)

        self.stage = "transition_matrix"
        counts = count_transitions(path, self.n_states)
        transition = sample_transition_matrix(counts, self.priors.dirichlet_rows, rng)

        groups = [self.data[path == j] for j in range(1, self.n_states + 1)]

        self.stage = "lambda"
        params.lam = sample_lambda(groups, params, self.priors, rng, self.samplers["lambda"], adapt)

        self.stage = "gamma1_sq"
        params.gamma1_sq = sample_gamma1_sq(groups[0], params, self.priors, rng)

        for j in range(2, self.n_states + 1):
            self.stage = f"h_star_{j}"
            params.h_star[j - 2] = sample_stable_h_star_j(
                groups[j - 1], j, params, self.priors, rng,
                self.samplers[f"h_star_{j}"], adapt,
            )

        for j in range(1, self.n_states + 1):
            self.stage = f"mu_{j}"
            params.mu[j - 1] = sample_stable_mu_j(groups[j - 1], j, params, self.priors, rng)
        return filt, path, transition


def initial_stable_state(
    data: np.ndarray, priors: StablePriors, alpha: float = 1.7, diag: float = 0.8
) -> ModelState:
    """Deterministic starting point: the shared quantile start (path, gamma1^2,
    multipliers, transition matrix); state means at zero and lambda at 1."""
    m = priors.n_states
    path, gamma1_sq, h_star, transition = quantile_start(data, m, diag)
    params = StableModelParams(
        mu=np.zeros(m), gamma1_sq=gamma1_sq, h_star=h_star, lam=1.0, alpha=alpha
    )
    return ModelState(path=path, transition=transition, params=params)
