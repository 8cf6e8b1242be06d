"""Shared MCMC machinery: adaptive random-walk Metropolis steps, conjugate
updates, the Gaussian h* step and parameter checks both models share, the
Gibbs engine both samplers run on, chain storage and summaries.

All target evaluations happen in log space.  Positive-constrained parameters
are proposed with a Gaussian random walk on a log (or shifted-log) scale with
the Jacobian folded into the transformed target; step scales adapt toward 30%
acceptance during burn-in only (Robbins-Monro) and are frozen afterwards.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from .distributions import (
    FrechetParams, InvGammaParams, frechet_logpdf, frechet_sample, inv_gamma_sample,
)
from .errors import ParameterError, RegimevolError

__all__ = [
    "AdaptiveRw",
    "normal_normal_update",
    "inv_gamma_normal_update",
    "gaussian_h_star_step",
    "check_scale_ladder",
    "ModelState",
    "GibbsSampler",
    "quantile_start",
    "Chain",
    "run_chain",
    "ParamSummary",
    "chain_summary",
]


# ---------------------------------------------------------------------------
# Metropolis-Hastings

_TARGET_ACCEPT = 0.3  # acceptance rate the step scales adapt toward


class AdaptiveRw:
    """Random-walk MH on a transformed scale with burn-in step adaptation.

    ``transform='log'`` walks in log(v), ``'log_shift'`` in log(v - 1)
    (used for the variance multipliers with support (1, inf)), ``'identity'``
    in v itself.  The Jacobian of the transform is added to the transformed
    log target, so ``step`` samples the intended distribution on the original
    scale.  While ``adapt=True`` the log step scale follows a Robbins-Monro
    recursion toward 30% acceptance and must be frozen (pass ``adapt=False``)
    once draws are being kept.
    """

    def __init__(self, scale: float = 0.5, transform: str = "identity") -> None:
        if transform not in ("identity", "log", "log_shift"):
            raise ParameterError(f"unknown transform {transform!r}")
        if not 0 < scale < math.inf:
            raise ParameterError(f"step scale must be finite and > 0, got {scale}")
        self.scale = scale
        self.transform = transform
        self.accepted = 0
        self.attempts = 0
        self._adapt_steps = 0

    # transform helpers -----------------------------------------------------
    def _to_x(self, v: float) -> float:
        if self.transform == "log":
            return math.log(v)
        if self.transform == "log_shift":
            return math.log(v - 1.0)
        return v

    def _to_v(self, x: float) -> float:
        if self.transform == "log":
            return math.exp(x)
        if self.transform == "log_shift":
            return 1.0 + math.exp(x)
        return x

    def _log_jacobian(self, x: float) -> float:
        # dv/dx = e^x for both log transforms, 1 for identity
        return x if self.transform != "identity" else 0.0

    # ------------------------------------------------------------------------
    def step(
        self,
        current: float,
        log_target: Callable[[float], float],
        rng: np.random.Generator,
        adapt: bool = False,
    ) -> float:
        x = self._to_x(current)
        x_new = x + self.scale * rng.normal()
        v_new = self._to_v(x_new)
        lp_cur = log_target(current) + self._log_jacobian(x)
        lp_new = log_target(v_new) + self._log_jacobian(x_new)
        log_r = lp_new - lp_cur if np.isfinite(lp_new) else -math.inf
        accept_prob = min(1.0, math.exp(min(log_r, 0.0)))
        self.attempts += 1
        out = current
        if np.isfinite(lp_new) and (
            not np.isfinite(lp_cur) or math.log(rng.random()) < log_r
        ):
            self.accepted += 1
            out = v_new
        if adapt:
            self._adapt_steps += 1
            gain = 1.0 / (1.0 + self._adapt_steps) ** 0.66
            self.scale *= math.exp(gain * (accept_prob - _TARGET_ACCEPT))
            self.scale = min(max(self.scale, 1e-4), 1e4)
        return out


# ---------------------------------------------------------------------------
# conjugate updates


def normal_normal_update(
    data: np.ndarray, var: float, k: float, rng: np.random.Generator
) -> float:
    """One exact draw of a Gaussian mean from its conjugate posterior.

    The observations ``data`` are N(mu, var) with var known, and the prior is
    mu ~ N(0, 1/k); the posterior is N(n ybar/(n + k var), var/(n + k var)).
    """
    if not (0 < var < math.inf and 0 < k < math.inf):
        raise ParameterError(
            f"variance and prior precision k must be finite and > 0, got {var}, {k}"
        )
    n = data.size
    ybar = float(data.mean()) if n else 0.0
    return n * ybar / (n + k * var) + math.sqrt(var / (n + k * var)) * rng.normal()


def inv_gamma_normal_update(
    residual_sq_sum: float,
    n: int,
    prior: InvGammaParams,
    rng: np.random.Generator,
) -> float:
    """One exact draw of a Gaussian variance with inverse-Gamma prior.

    Posterior is invGamma(n/2 + shape, residual_sq_sum/2 + rate).
    """
    if n < 0 or residual_sq_sum < 0:
        raise ParameterError("need n >= 0 and a nonnegative residual sum of squares")
    post = InvGammaParams(n / 2.0 + prior.shape, residual_sq_sum / 2.0 + prior.rate)
    return float(inv_gamma_sample(post, rng))


def gaussian_h_star_step(
    data: np.ndarray, mu: float, lower_var: float, current: float, prior: FrechetParams,
    rng: np.random.Generator, sampler: AdaptiveRw, adapt: bool,
) -> float:
    """One update of a variance multiplier h* whose state holds Gaussian data.

    An empty state draws h* from its Frechet prior.  Otherwise the
    observations are N(mu, lower_var * h*), with lower_var the variance of the
    state below, and ``sampler`` takes one step from ``current`` on the
    Frechet prior times h^(-n/2) exp(-ss / (2h)), ss the residual sum of
    squares over lower_var.
    """
    if data.size == 0:
        return float(frechet_sample(prior, rng))
    ss = float(np.sum((data - mu) ** 2)) / lower_var
    n = data.size

    def log_target(h: float) -> float:
        base = frechet_logpdf(h, prior)
        if base == -math.inf:
            return base
        return base - 0.5 * n * math.log(h) - 0.5 * ss / h

    return sampler.step(current, log_target, rng, adapt)


def check_scale_ladder(mu: np.ndarray, base_name: str, base: float, h_star: np.ndarray) -> None:
    """Checks both models' parameters share: M finite state means, a finite
    base variance > 0 and M - 1 finite multipliers h* > 1.  NaN fails each."""
    m = mu.size
    if h_star.size != m - 1:
        raise ParameterError(f"need {m - 1} variance multipliers for {m} states")
    if not np.all(np.isfinite(mu)):
        raise ParameterError(f"state means must be finite, got {mu}")
    if not 0.0 < base < math.inf:
        raise ParameterError(f"{base_name} must be finite and > 0, got {base}")
    if not np.all((h_star > 1.0) & (h_star < math.inf)):
        raise ParameterError(f"every multiplier h* must be finite and exceed 1, got {h_star}")


# ---------------------------------------------------------------------------
# chains


@dataclass
class ModelState:
    """One full posterior draw: state path, transition matrix, model parameters."""

    path: np.ndarray  # (T,) int, labels 1..M
    transition: np.ndarray  # (M, M) row-stochastic
    params: Any

    def to_param_dict(self) -> dict[str, float]:
        out = dict(self.params.to_param_dict())
        m = self.transition.shape[0]
        for i in range(m):
            for j in range(m):
                out[f"p_{i + 1}{j + 1}"] = float(self.transition[i, j])
        return out


# ---------------------------------------------------------------------------
# Gibbs engine


class GibbsSampler:
    """One chain of a Markov-switching model: data, priors, the adaptive MH
    steps and the post-burn-in filtered-probability accumulator.

    A model subclass supplies three methods:

    - ``adaptive_params()``: the (name, transform) pairs that get one
      AdaptiveRw each.  Log-scale walks start at ``step_scale``; identity
      walks move a state mean and start at a quarter of the data's standard
      deviation.
    - ``emission_matrix(params)``: the (T, M) log emission densities.
    - ``update(params, transition, rng, adapt)``: the state step (filter from
      the uniform initial law, path, counts, transition matrix), then the
      parameter updates, each MH step handed its walk from ``self.samplers``.
      It writes each new value into ``params`` in place, sets ``self.stage``
      before each stage and returns the filtered probabilities, the path and
      the new transition matrix.

    The state step is the same in both models, yet it stays at the top of
    each ``update`` rather than in ``sweep``: the benchmark's tracer
    (``perfbench/spans.py``) times it by patching ``hamilton_filter``,
    ``sample_state_path``, ``count_transitions`` and
    ``sample_transition_matrix`` at the model modules' globals.  Moving the
    step into the engine first needs the tracer to patch those names here.

    ``sweep`` is handed to run_chain and keeps every returned draw unchanged:
    ``update`` writes into a deep copy of the previous parameters, which the
    sweep then rebuilds once, under stage ``validate``, so that their
    dataclass checks run once per draw.  Adaptation runs for the first
    ``adapt_iters`` sweeps (the burn-in) and freezes afterwards, from when the
    per-sweep filtered probabilities also start accumulating into
    ``mean_filtered_probs``.  A RegimevolError raised inside a sweep leaves
    with its ``stage`` set to the update that failed.
    """

    def __init__(
        self,
        data: np.ndarray,
        priors: Any,
        adapt_iters: int = 0,
        step_scale: float = 0.4,
    ) -> None:
        self.data = np.asarray(data, dtype=float)
        if self.data.ndim != 1 or self.data.size < 2:
            raise ParameterError("need a 1-D series of at least two observations")
        if not np.all(np.isfinite(self.data)):
            t = int(np.argmin(np.isfinite(self.data)))
            raise ParameterError(f"observations must be finite; index {t} is {self.data[t]}")
        self.priors = priors
        m = priors.n_states
        self.n_states = m
        self.adapt_iters = adapt_iters
        location_scale = 0.25 * math.sqrt(np.var(self.data))
        self.samplers: dict[str, AdaptiveRw] = {}
        for name, transform in self.adaptive_params():
            if transform == "identity" and not location_scale > 0:
                raise ParameterError(
                    f"observations have zero variance, so the {name} walk has no step scale"
                )
            scale = location_scale if transform == "identity" else step_scale
            self.samplers[name] = AdaptiveRw(scale, transform)
        self.stage: str | None = None
        self._sweeps = 0
        self._filtered_sum = np.zeros((self.data.size, m))
        self._filtered_draws = 0

    def adaptive_params(self) -> list[tuple[str, str]]:
        raise NotImplementedError

    def emission_matrix(self, params: Any) -> np.ndarray:
        raise NotImplementedError

    def update(self, params: Any, transition: np.ndarray, rng: np.random.Generator, adapt: bool):
        raise NotImplementedError

    def sweep(self, state: ModelState, rng: np.random.Generator) -> ModelState:
        adapt = self._sweeps < self.adapt_iters
        params = copy.deepcopy(state.params)
        try:
            filt, path, transition = self.update(params, state.transition, rng, adapt)
            self.stage = "validate"
            params = replace(params)
        except RegimevolError as exc:
            exc.stage = self.stage
            raise
        self._sweeps += 1
        if not adapt:
            self._filtered_sum += filt.probs
            self._filtered_draws += 1
        return ModelState(path=path.astype(np.int16), transition=transition, params=params)

    def acceptance(self) -> dict[str, tuple[int, int]]:
        return {name: (s.accepted, s.attempts) for name, s in self.samplers.items()}

    @property
    def mean_filtered_probs(self) -> np.ndarray:
        """Filtered state probabilities averaged over post-adaptation sweeps."""
        if self._filtered_draws == 0:
            raise ParameterError("no post-burn-in sweeps have run yet")
        return self._filtered_sum / self._filtered_draws


def quantile_start(
    data: np.ndarray, n_states: int, diag: float
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Deterministic starting point shared by both models.

    Observations bucketed into M volatility quantiles by |y - median| define
    the initial path.  The bucket variances seed the base variance and the
    multipliers, each multiplier floored at 1.05.  The transition matrix keeps
    ``diag`` on its diagonal and spreads the rest of each row evenly.  Returns
    (path, base variance, multipliers, transition matrix).
    """
    data = np.asarray(data, dtype=float)
    m = n_states
    t_len = data.size
    dev = np.abs(data - np.median(data))
    ranks = np.argsort(np.argsort(dev))
    path = 1 + np.minimum((ranks * m) // t_len, m - 1)
    bucket_var = np.array([
        max(np.var(data[path == j]), np.var(data) * 1e-4) if np.any(path == j) else np.var(data)
        for j in range(1, m + 1)
    ])
    h_star = np.maximum(bucket_var[1:] / bucket_var[:-1], 1.05)
    transition = np.full((m, m), (1.0 - diag) / (m - 1) if m > 1 else 0.0)
    np.fill_diagonal(transition, diag if m > 1 else 1.0)
    return path.astype(np.int16), float(bucket_var[0]), h_star, transition


@dataclass
class Chain:
    """Post-burn-in draws plus acceptance tallies.

    ``draws`` holds the states the sweep produced after the first ``burn_in``;
    ``acceptance`` maps parameter names to (accepted, attempted), the walks'
    own tallies as ``GibbsSampler.acceptance`` reports them.
    """

    draws: list
    burn_in: int
    acceptance: dict[str, tuple[int, int]] = field(default_factory=dict)


def run_chain(
    sweep: Callable[[Any, np.random.Generator], Any],
    init: Any,
    n_iter: int,
    burn_in: int,
    rng: np.random.Generator,
    acceptance: Callable[[], dict[str, tuple[int, int]]] | None = None,
) -> Chain:
    """Apply ``sweep`` n_iter times from ``init``, keeping the last n_iter - burn_in states.

    ``sweep`` must return a fresh state (stored draws are not copied).  A
    RegimevolError leaving a sweep is re-raised as the same object with its
    ``iteration`` set (samplers have already set its ``stage``); any other
    exception passes through unchanged.
    """
    if not 0 <= burn_in < n_iter:
        raise ParameterError(f"need 0 <= burn_in < n_iter, got J={burn_in} N={n_iter}")
    state = init
    draws: list = []
    for it in range(n_iter):
        try:
            state = sweep(state, rng)
        except RegimevolError as exc:
            exc.iteration = it
            raise
        if it >= burn_in:
            draws.append(state)
    return Chain(
        draws=draws,
        burn_in=burn_in,
        acceptance=dict(acceptance()) if acceptance is not None else {},
    )


@dataclass
class ParamSummary:
    mean: float
    sd: float


def chain_summary(chain: Chain) -> dict[str, ParamSummary]:
    """Post-burn-in mean and sd per scalar parameter.

    Draws may be ModelState objects or plain name->value mappings.
    """
    if not chain.draws:
        raise ParameterError("cannot summarize an empty chain")
    rows = [d.to_param_dict() if hasattr(d, "to_param_dict") else d for d in chain.draws]
    out: dict[str, ParamSummary] = {}
    for name in rows[0]:
        values = np.array([r[name] for r in rows], dtype=float)
        out[name] = ParamSummary(mean=float(values.mean()), sd=float(values.std()))
    return out
