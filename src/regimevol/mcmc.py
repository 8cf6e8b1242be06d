"""Shared MCMC machinery: adaptive random-walk Metropolis steps, conjugate
updates, the h* step, the scale ladder and the parameter checks both models
share, the Gibbs engine both samplers run on, chain storage and summaries.

All target evaluations happen in log space.  Positive-constrained parameters
are proposed with a Gaussian random walk on a log (or shifted-log) scale with
the Jacobian folded into the transformed target.  Step scales adapt toward 30%
acceptance (Robbins-Monro) while a walk's ``adapting`` switch is on; the Gibbs
engine turns it on for every walk during burn-in only, so the scales are
frozen once draws are kept and no update passes the decision along.
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
from .errors import ParameterError, RegimevolError, check_entries, check_integer, check_positive
from .regime import StateWorkspace

__all__ = [
    "AdaptiveRw",
    "normal_normal_update",
    "inv_gamma_normal_update",
    "h_star_step",
    "scale_ladder",
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

# transform -> (to_x, to_v): the walk moves x = to_x(v), and dv/dx is e^x for
# both log transforms, 1 for identity
_TRANSFORMS: dict[str, tuple[Callable[[float], float], Callable[[float], float]]] = {
    "identity": (lambda v: v, lambda x: x),
    "log": (math.log, math.exp),
    "log_shift": (lambda v: math.log(v - 1.0), lambda x: 1.0 + math.exp(x)),
}


class AdaptiveRw:
    """Random-walk MH on a transformed scale with burn-in step adaptation.

    ``transform='log'`` walks in log(v), ``'log_shift'`` in log(v - 1)
    (used for the variance multipliers with support (1, inf)), ``'identity'``
    in v itself.  The Jacobian of the transform is added to the transformed
    log target, so ``step`` samples the intended distribution on the original
    scale.  While ``adapting`` is True the log step scale follows a
    Robbins-Monro recursion toward 30% acceptance.  It is False at
    construction; ``GibbsSampler.sweep`` sets it on every walk at the start of
    each sweep, True during burn-in only, so the scale is frozen once draws
    are being kept.  A proposal whose back-transform overflows (a log-scale x
    past about 709) is rejected like one of zero target density.
    """

    def __init__(self, scale: float = 0.5, transform: str = "identity") -> None:
        if transform not in _TRANSFORMS:
            raise ParameterError(f"unknown transform {transform!r}")
        check_positive("step scale", scale)
        self.scale = scale
        self.transform = transform
        self._to_x, self._to_v = _TRANSFORMS[transform]
        self._jacobian = transform != "identity"
        self.adapting = False
        self.accepted = 0
        self.attempts = 0
        self._adapt_steps = 0

    def step(
        self, current: float, log_target: Callable[[float], float], rng: np.random.Generator
    ) -> float:
        x = self._to_x(current)
        x_new = x + self.scale * rng.normal()
        lp_cur = log_target(current) + (x if self._jacobian else 0.0)
        try:
            v_new = self._to_v(x_new)
        except OverflowError:
            lp_new = -math.inf
        else:
            lp_new = log_target(v_new) + (x_new if self._jacobian else 0.0)
        log_r = lp_new - lp_cur if math.isfinite(lp_new) else -math.inf
        self.attempts += 1
        if math.isfinite(lp_new) and (
            not math.isfinite(lp_cur) or math.log(rng.random()) < log_r
        ):
            self.accepted += 1
            current = v_new
        if self.adapting:
            self._adapt_steps += 1
            gain = 1.0 / (1.0 + self._adapt_steps) ** 0.66
            accept_prob = min(1.0, math.exp(min(log_r, 0.0)))
            scale = self.scale * math.exp(gain * (accept_prob - _TARGET_ACCEPT))
            self.scale = min(max(scale, 1e-4), 1e4)
        return current


# ---------------------------------------------------------------------------
# conjugate updates


def normal_normal_update(
    data: np.ndarray, var: float, k: float, rng: np.random.Generator
) -> float:
    """One exact draw of a Gaussian mean from its conjugate posterior.

    The observations ``data`` are N(mu, var) with var known, and the prior is
    mu ~ N(0, 1/k); the posterior is N(n ybar/(n + k var), var/(n + k var)).
    """
    check_positive("variance", var)
    check_positive("prior precision k", k)
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
    check_integer("n", n)
    if not residual_sq_sum >= 0.0:
        raise ParameterError(f"residual sum of squares must be >= 0, got {residual_sq_sum}")
    post = InvGammaParams(n / 2.0 + prior.shape, residual_sq_sum / 2.0 + prior.rate)
    return float(inv_gamma_sample(post, rng))


def h_star_step(
    data: np.ndarray, j: int, mu: np.ndarray, var: np.ndarray, h_star: np.ndarray,
    prior: FrechetParams, rng: np.random.Generator, sampler: AdaptiveRw,
    state_loglik: Callable[[int], Callable | None] | None = None,
) -> float:
    """One update of the variance multiplier h*_j, 2 <= j <= M, in either model.

    ``mu``, ``var`` and ``h_star`` are the model's M state means, M state
    variances and M - 1 multipliers.  An empty state draws h*_j from its
    Frechet prior.  Otherwise ``sampler`` takes one step from the current
    h*_j on the Frechet prior times the state's likelihood at mean mu_j and
    variance var_{j-1} * h.  ``state_loglik(j)``, when given, returns state
    j's per-observation log-likelihood ``loglik(y, mu, var)``, or None where
    the state is Gaussian.  A Gaussian state's likelihood is h^(-n/2)
    exp(-ss / (2h)), ss the residual sum of squares over var_{j-1}.
    """
    check_integer("h* index", j, 2, mu.size)
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        return float(frechet_sample(prior, rng))
    mu_j, lower_var = float(mu[j - 1]), float(var[j - 2])
    loglik = state_loglik(j) if state_loglik else None
    if loglik is None:
        ss = float(np.sum((data - mu_j) ** 2)) / lower_var
        n = data.size

        def log_target(h: float) -> float:
            return frechet_logpdf(h, prior) - 0.5 * n * math.log(h) - 0.5 * ss / h
    else:

        def log_target(h: float) -> float:
            return frechet_logpdf(h, prior) + float(np.sum(loglik(data, mu_j, lower_var * h)))

    return sampler.step(float(h_star[j - 2]), log_target, rng)


def scale_ladder(base: float, h_star: np.ndarray) -> np.ndarray:
    """The M state variances base * (1, h*_2, h*_2 h*_3, ...), increasing."""
    return base * np.cumprod(np.concatenate(([1.0], h_star)))


def check_scale_ladder(mu: np.ndarray, base_name: str, base: float, h_star: np.ndarray) -> None:
    """Checks both models' parameters share: M finite state means, a finite
    base variance > 0 and M - 1 finite multipliers h* > 1.  NaN fails each."""
    m = mu.size
    if h_star.size != m - 1:
        raise ParameterError(f"need {m - 1} variance multipliers for {m} states")
    check_entries(np.isfinite(mu), "state means must be finite", mu)
    check_positive(base_name, base)
    check_entries((h_star > 1.0) & (h_star < math.inf),
                  "every multiplier h* must be finite and exceed 1", h_star)


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
    - ``emission_matrix(params)``: the (T, M) log emission densities,
      written into ``self.work.emission`` and returned as its transpose.
      Both models write their Gaussian rows with one
      ``distributions.gaussian_logpdf`` call over all M states.
    - ``update(params, transition, rng)``: the state step (filter from the
      uniform initial law, path, counts, transition matrix), each of the
      filter and the path draw handed ``work=self.work``, then the
      parameter updates, each MH step handed its walk from ``self.samplers``.
      It writes each new value into ``params`` in place, sets ``self.stage``
      before each stage and returns the filtered probabilities, the path and
      the new transition matrix.  It never decides adaptation: the walks
      carry that switch.

    The state step is the same in both models, yet it stays at the top of
    each ``update`` rather than in ``sweep``: the benchmark's tracer
    (``perfbench/spans.py``) times it by patching ``hamilton_filter``,
    ``sample_state_path``, ``count_transitions`` and
    ``sample_transition_matrix`` at the model modules' globals.  Moving the
    step into the engine first needs the tracer to patch those names here.

    ``work`` is the chain's one StateWorkspace, built once for the series'
    (T, M): the emission rows, the filtered rows and the working arrays of
    the filter and the path draw, reused by every sweep, so that a long
    series does not allocate and free them every sweep.  It holds about 2.8
    emission matrices at T = 10^6, 5.6 at T = 10^5 and 19.5 at T <= 2^14.  The
    filtered probabilities ``update`` returns live in it until the next
    sweep's filter, which is why the sweep adds them into the accumulator
    before it returns.

    ``sweep`` is handed to run_chain and keeps every returned draw unchanged:
    ``update`` writes into a deep copy of the previous parameters, which the
    sweep then rebuilds once, under stage ``validate``, so that their
    dataclass checks run once per draw.  The engine alone decides
    adaptation: at the start of each sweep it sets ``adapting`` on every walk
    in ``self.samplers``, True for the first ``adapt_iters`` sweeps (the
    burn-in) and False afterwards, from when the per-sweep filtered
    probabilities also start accumulating into ``mean_filtered_probs``.  A
    RegimevolError raised inside a sweep leaves with its ``stage`` set to the
    update that failed.
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
        check_entries(np.isfinite(self.data), "observations must be finite", self.data)
        self.priors = priors
        m = priors.n_states
        self.n_states = m
        self.adapt_iters = check_integer("adapt_iters", adapt_iters)
        location_scale = 0.25 * math.sqrt(np.var(self.data))
        self.samplers: dict[str, AdaptiveRw] = {}
        for name, transform in self.adaptive_params():
            if transform == "identity" and not location_scale > 0:
                raise ParameterError(
                    f"observations have zero variance, so the {name} walk has no step scale"
                )
            scale = location_scale if transform == "identity" else step_scale
            self.samplers[name] = AdaptiveRw(scale, transform)
        self.work = StateWorkspace(self.data.size, m)
        self.stage: str | None = None
        self._sweeps = 0
        self._filtered_sum = np.zeros((self.data.size, m))

    def adaptive_params(self) -> list[tuple[str, str]]:
        raise NotImplementedError

    def emission_matrix(self, params: Any) -> np.ndarray:
        raise NotImplementedError

    def update(self, params: Any, transition: np.ndarray, rng: np.random.Generator):
        raise NotImplementedError

    def sweep(self, state: ModelState, rng: np.random.Generator) -> ModelState:
        adapting = self._sweeps < self.adapt_iters
        for walk in self.samplers.values():
            walk.adapting = adapting
        params = copy.deepcopy(state.params)
        try:
            filt, path, transition = self.update(params, state.transition, rng)
            self.stage = "validate"
            params = replace(params)
        except RegimevolError as exc:
            exc.stage = self.stage
            raise
        self._sweeps += 1
        if not adapting:
            self._filtered_sum += filt.probs
        return ModelState(path=path.astype(np.int16), transition=transition, params=params)

    def acceptance(self) -> dict[str, tuple[int, int]]:
        return {name: (s.accepted, s.attempts) for name, s in self.samplers.items()}

    @property
    def mean_filtered_probs(self) -> np.ndarray:
        """Filtered state probabilities averaged over the sweeps after the
        first ``adapt_iters``; ParameterError before there is one."""
        draws = self._sweeps - self.adapt_iters
        if draws <= 0:
            raise ParameterError("no post-burn-in sweeps have run yet")
        return self._filtered_sum / draws


def quantile_start(
    data: np.ndarray, n_states: int, diag: float
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Deterministic starting point shared by both models.

    Observations bucketed into M volatility quantiles by |y - median| define
    the initial path.  The bucket variances seed the base variance and the
    multipliers, each multiplier floored at 1.05.  The transition matrix keeps
    ``diag``, in [0, 1], on its diagonal and spreads the rest of each row
    evenly.  Returns (path, base variance, multipliers, transition matrix).
    ParameterError unless n_states is an integer >= 1, diag lies in [0, 1]
    and every observation is finite, and for a series whose values are all
    equal, which has no spread to seed a variance from.
    """
    data = np.asarray(data, dtype=float)
    m = check_integer("n_states", n_states, 1)
    if not 0.0 <= diag <= 1.0:
        raise ParameterError(f"diag must lie in [0, 1], got {diag}")
    if data.size == 0:
        raise ParameterError("quantile_start needs at least one observation, got an empty series")
    check_entries(np.isfinite(data), "observations must be finite", data)
    if data.min() == data.max():
        raise ParameterError(f"quantile_start needs a series that varies, got all "
                             f"{data.size} values equal to {data[0]}")
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
    check_integer("n_iter", n_iter, 1)
    check_integer("burn_in", burn_in, 0, n_iter - 1)
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
