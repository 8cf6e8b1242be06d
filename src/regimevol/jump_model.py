"""Markov-switching jump-diffusion model: observations are state-dependent
Gaussians plus a sum of N_j jumps (a Gamma(N_j, b) magnitude with a random
sign), with state variances forced upward through multiplicative factors
h*_j > 1 and jump intensities ordered by disjoint uniform prior intervals.

Inference is Metropolis-within-Gibbs.  Per sweep: state path (forward filter,
backward draw), transition matrix (conjugate Dirichlet rows), then per state
the mean (conjugate when the state carries no jumps, MH otherwise), the base
variance, the variance multipliers, the latent jump counts (exact truncated
discrete draw) and the Poisson rates (exact truncated-Gamma draw by inverse
CDF).  The state-j conditionals for sigma1^2 and h*_j use state-j data only,
with the derived variances of all higher states moving along; that is the
scheme the model defines.

The emission matrix and the MH targets evaluate the likelihood through
``_obs_logpdf``: Gaussian without jumps, the Normal (x) jump-sum convolution
with them.  The jump-count weights take every count's convolution from one
``jump_convolved_logpdf_counts`` pass, whose rows agree with the single-count
values to 1e-10.  An h*_j update without jumps, or on an empty state, is
``mcmc.gaussian_h_star_step``, the one the stable model uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc, gammainccinv, gammaincinv, pdtr, pdtrik

from .distributions import (
    _MAX_BATCH_JUMPS,
    FrechetParams,
    InvGammaParams,
    frechet_logpdf,
    gaussian_logpdf,
    jump_convolved_logpdf,
    jump_convolved_logpdf_counts,
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
    "JumpParams",
    "JumpPriors",
    "sample_mu_j",
    "sample_sigma1_sq",
    "sample_h_star_j",
    "jump_count_weights",
    "sample_n_jumps_j",
    "sample_theta_j",
    "JumpGibbsSampler",
    "initial_jump_state",
    "default_u_ladder",
    "check_u_cap",
]


@dataclass
class JumpParams:
    """One draw of the jump model's parameters.

    ``sigma1_sq`` and the multipliers ``h_star`` (one per state above the
    first, each > 1) induce the strictly increasing state variances
    sigma_j^2 = sigma1^2 * prod(h*_2..h*_j).  ``n_jumps`` holds the current
    per-state latent jump counts; ``b`` is the fixed exponential amplitude
    rate shared by all states.
    """

    mu: np.ndarray
    sigma1_sq: float
    h_star: np.ndarray
    theta: np.ndarray
    n_jumps: np.ndarray
    b: float

    def __post_init__(self) -> None:
        self.mu = np.asarray(self.mu, dtype=float)
        self.h_star = np.asarray(self.h_star, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        counts = np.asarray(self.n_jumps)
        # checked before the cast, which would truncate 1.5 and fail on NaN
        if not np.all((counts >= 0) & np.isfinite(counts) & (counts == np.trunc(counts))):
            raise ParameterError(f"jump counts must be nonnegative integers, got {counts}")
        self.n_jumps = counts.astype(int, copy=False)
        check_scale_ladder(self.mu, "sigma1_sq", self.sigma1_sq, self.h_star)
        m = self.mu.size
        if self.theta.size != m or self.n_jumps.size != m:
            raise ParameterError("theta and n_jumps must have one entry per state")
        # nonnegative and nondecreasing, so a finite last entry bounds them all
        if not (np.all(np.diff(self.theta, prepend=0.0) >= 0) and self.theta[-1] < math.inf):
            raise ParameterError(f"jump intensities must be finite, sorted, >= 0; got {self.theta}")
        if not 0.0 < self.b < math.inf:
            raise ParameterError(f"jump amplitude rate b must be finite and > 0, got {self.b}")

    @property
    def n_states(self) -> int:
        return self.mu.size

    @property
    def sigma_sq(self) -> np.ndarray:
        """Derived state variances sigma_1^2 < ... < sigma_M^2."""
        return self.sigma1_sq * np.cumprod(np.concatenate(([1.0], self.h_star)))

    def to_param_dict(self) -> dict[str, float]:
        out: dict[str, float] = {}
        sig = self.sigma_sq
        for j in range(self.n_states):
            out[f"mu_{j + 1}"] = float(self.mu[j])
            out[f"sigma_sq_{j + 1}"] = float(sig[j])
            out[f"theta_{j + 1}"] = float(self.theta[j])
            out[f"n_jumps_{j + 1}"] = float(self.n_jumps[j])
        for j in range(2, self.n_states + 1):
            out[f"h_star_{j}"] = float(self.h_star[j - 2])
        return out


def default_u_ladder(n_states: int) -> np.ndarray:
    """Default intensity-interval endpoints 0.5, 1, 2, 4, ... (doubling)."""
    return 0.5 * 2.0 ** np.arange(n_states)


@dataclass
class JumpPriors:
    """Hyperparameters of the jump model.

    ``u`` are the increasing interval endpoints of the uniform intensity
    priors (theta_j lives on (u_{j-1}, u_j]), the last at most about 155,
    where the jump-count enumeration reaches the convolution's count cap;
    ``dirichlet_rows`` the (M, M) transition-prior concentrations;
    ``fix_mean_zero`` pins every state mean at zero (the default for this
    model).
    """

    k: float
    sigma_prior: InvGammaParams
    frechet: FrechetParams
    u: np.ndarray
    dirichlet_rows: np.ndarray
    fix_mean_zero: bool = True

    def __post_init__(self) -> None:
        self.u = np.asarray(self.u, dtype=float)
        # each check is written so that NaN fails it
        if not 0.0 < self.k < math.inf:
            raise ParameterError(f"mean-prior precision k must be finite and > 0, got {self.k}")
        if not (np.all((self.u > 0) & (self.u < math.inf)) and np.all(np.diff(self.u) > 0)):
            raise ParameterError(
                f"intensity endpoints u must be finite, positive and increasing; got {self.u}"
            )
        check_u_cap(self.u)
        self.dirichlet_rows = check_dirichlet_rows(self.dirichlet_rows, self.u.size)

    @property
    def n_states(self) -> int:
        return self.u.size

    def theta_interval(self, j: int) -> tuple[float, float]:
        """Support (lo, hi] of theta_j, 1-based state index."""
        return (0.0 if j == 1 else float(self.u[j - 2])), float(self.u[j - 1])


# ---------------------------------------------------------------------------
# likelihood pieces


def _obs_logpdf(y, mu: float, var: float, n: int, b: float):
    """Per-observation log density in a state with mean mu, Gaussian variance
    var and n jumps of amplitude rate b: Gaussian when n = 0, otherwise the
    Normal (x) symGamma(n, b) convolution."""
    if n == 0:
        return gaussian_logpdf(y, mu, var)
    return jump_convolved_logpdf(y, mu, math.sqrt(var), n, b)


def _inv_gamma_logpdf_unnorm(s: float, prior: InvGammaParams) -> float:
    return -(prior.shape + 1.0) * math.log(s) - prior.rate / s


# ---------------------------------------------------------------------------
# per-parameter updates


def sample_mu_j(
    data_j: np.ndarray,
    j: int,
    params: JumpParams,
    priors: JumpPriors,
    rng: np.random.Generator,
    sampler: AdaptiveRw,
    adapt: bool,
) -> float:
    """State-j mean: exact conjugate draw when N_j = 0, otherwise one MH step."""
    data_j = np.asarray(data_j, dtype=float)
    var = float(params.sigma_sq[j - 1])
    n_jumps = int(params.n_jumps[j - 1])
    if n_jumps == 0:
        return normal_normal_update(data_j, var, priors.k, rng)

    def log_target(mu: float) -> float:
        prior = -0.5 * priors.k * mu * mu
        if data_j.size == 0:
            return prior
        return prior + float(np.sum(_obs_logpdf(data_j, mu, var, n_jumps, params.b)))

    return sampler.step(float(params.mu[j - 1]), log_target, rng, adapt)


def sample_sigma1_sq(
    data_1: np.ndarray,
    params: JumpParams,
    priors: JumpPriors,
    rng: np.random.Generator,
    sampler: AdaptiveRw,
    adapt: bool,
) -> float:
    """Base variance: conjugate inverse-Gamma draw when state 1 has no jumps,
    else a log-scale MH step against prior x state-1 likelihood.  The caller's
    derived sigma_j^2 move with the returned value through the h* products.
    """
    data_1 = np.asarray(data_1, dtype=float)
    mu1 = float(params.mu[0])
    if int(params.n_jumps[0]) == 0:
        rss = float(np.sum((data_1 - mu1) ** 2))
        return inv_gamma_normal_update(rss, data_1.size, priors.sigma_prior, rng)
    n1 = int(params.n_jumps[0])

    def log_target(s: float) -> float:
        if not s > 0:
            return -math.inf
        return _inv_gamma_logpdf_unnorm(s, priors.sigma_prior) + float(
            np.sum(_obs_logpdf(data_1, mu1, s, n1, params.b))
        )

    return sampler.step(float(params.sigma1_sq), log_target, rng, adapt)


def sample_h_star_j(
    data_j: np.ndarray,
    j: int,
    params: JumpParams,
    priors: JumpPriors,
    rng: np.random.Generator,
    sampler: AdaptiveRw,
    adapt: bool,
) -> float:
    """Variance multiplier of state j >= 2; always > 1 on exit.

    An empty state or N_j = 0 takes the shared Gaussian step,
    ``mcmc.gaussian_h_star_step``; with jumps the convolution likelihood
    times the Frechet prior is the target.  Proposals walk log(h* - 1), so
    values at or below 1 cannot be proposed and carry zero density anyway.
    """
    if not 2 <= j <= params.n_states:
        raise ParameterError(f"h* index must lie in 2..{params.n_states}, got {j}")
    data_j = np.asarray(data_j, dtype=float)
    lower_var = float(params.sigma_sq[j - 2])
    mu_j = float(params.mu[j - 1])
    n_jumps = int(params.n_jumps[j - 1])
    current = float(params.h_star[j - 2])
    if n_jumps == 0 or data_j.size == 0:
        return gaussian_h_star_step(
            data_j, mu_j, lower_var, current, priors.frechet, rng, sampler, adapt
        )

    def log_target(h: float) -> float:
        base = frechet_logpdf(h, priors.frechet)
        if base == -math.inf:
            return base
        return base + float(np.sum(_obs_logpdf(data_j, mu_j, lower_var * h, n_jumps, params.b)))

    return sampler.step(current, log_target, rng, adapt)


def _poisson_n_max(theta: float) -> int:
    """Smallest count whose Poisson upper tail is below 1e-13 (< the 1e-12 budget).

    The 1 - 1e-13 quantile is found the way scipy's Poisson ``isf`` finds
    it: the ceiling of the continuous inverse of the CDF, stepped down by one
    where the CDF already reaches the level there.
    """
    q = 1.0 - 1e-13
    k = np.ceil(pdtrik(q, theta))
    below = max(k - 1.0, 0.0)
    quantile = below if pdtr(below, theta) >= q else k
    return max(int(quantile) + 1, 4)


def _largest_theta() -> float:
    """The largest intensity whose N_max stays within the convolution's count
    cap, by bisection: N_max is nondecreasing in theta and exceeds it."""
    lo, hi = 0.0, float(_MAX_BATCH_JUMPS)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _poisson_n_max(mid) <= _MAX_BATCH_JUMPS else (lo, mid)
    return lo


def check_u_cap(u: np.ndarray) -> None:
    """ParameterError unless the jump-count enumeration covers every intensity
    up to u[-1]: the counts 0..N_max it weighs must stay within the
    convolution's count cap, which holds for theta up to about 155."""
    if _poisson_n_max(float(u[-1])) > _MAX_BATCH_JUMPS:
        raise ParameterError(
            f"intensity endpoints u = {u} reach theta = {u[-1]:g}, but the jump-count "
            f"enumeration supports theta up to {_largest_theta():.1f}"
        )


def _stop_count(log_w: np.ndarray, theta: float) -> int | None:
    """First count at which the enumeration may stop: past theta, three
    declines since the running maximum, and 46 nats below it.  None if no
    count in ``log_w`` qualifies."""
    best = -math.inf
    declines = 0
    for n, lw in enumerate(log_w.tolist()):
        if lw > best:
            best = lw
            declines = 0
        else:
            declines += 1
        if n > theta and declines >= 3 and lw < best - 46.0:
            return n
    return None


def jump_count_weights(
    data_j: np.ndarray, j: int, params: JumpParams, priors: JumpPriors
) -> np.ndarray:
    """Normalized discrete conditional of N_j over 0..N_max.

    Weights are Poisson(N; theta_j) times the state-j likelihood at count N,
    computed in log space.  N_max truncates the prior tail below 1e-12;
    enumeration stops early once the weights have fallen 46 nats below the
    running maximum and keep falling, which leaves relative mass below
    categorical-draw resolution.

    The likelihoods of counts 1..n come from one three-term-recurrence pass
    over the state's data (``jump_convolved_logpdf_counts``), first for
    n = N_j + 4 (the current count) and, only if the stopping rule has not
    fired by then, again for twice as many counts, up to N_max.  A pass's
    cost grows with n, and the rule usually fires three counts past the mode.
    """
    data_j = np.asarray(data_j, dtype=float)
    theta = float(params.theta[j - 1])
    var = float(params.sigma_sq[j - 1])
    mu = float(params.mu[j - 1])
    n_max = _poisson_n_max(theta)
    log_pois = np.empty(n_max + 1)
    log_pois[0] = -theta
    for n in range(1, n_max + 1):
        log_pois[n] = log_pois[n - 1] + (math.log(theta) - math.log(n))
    # an empty state's likelihood is 0.0 at every count, so it weighs the prior alone
    gauss = float(np.sum(gaussian_logpdf(data_j, mu, var)))
    n_top = min(n_max, int(params.n_jumps[j - 1]) + 4)
    while True:
        rows = (jump_convolved_logpdf_counts(data_j, mu, math.sqrt(var), n_top, params.b)
                if data_j.size else np.zeros((n_top, 0)))
        log_w = log_pois[: n_top + 1] + np.concatenate(([gauss], rows.sum(axis=1)))
        last = _stop_count(log_w, theta)
        if last is not None or n_top == n_max:
            break
        n_top = min(n_max, 2 * n_top)
    if last is not None:
        log_w = log_w[: last + 1]
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


def sample_n_jumps_j(
    data_j: np.ndarray,
    j: int,
    params: JumpParams,
    priors: JumpPriors,
    rng: np.random.Generator,
) -> int:
    """Exact draw from the truncated discrete conditional of the state-j jump count.

    The uniform is scaled by the cumulative sum's last entry, which can fall
    short of 1 by rounding, so the draw always indexes a weighed count.
    """
    w = jump_count_weights(data_j, j, params, priors)
    cdf = np.cumsum(w)
    return int(np.searchsorted(cdf, rng.random() * cdf[-1]))


def sample_theta_j(
    j: int, params: JumpParams, priors: JumpPriors, rng: np.random.Generator
) -> float:
    """Poisson rate of state j: one exact draw from its full conditional.

    theta_j enters the model only through the Poisson prior of N_j, so under
    its uniform prior on (lo, hi] = (u_{j-1}, u_j] it is Gamma(N_j + 1, 1)
    truncated to that interval, drawn by inverting the CDF at one uniform.
    The regularised gamma inverted is the lower one when lo < N_j + 1 and the
    upper one otherwise, so that neither end's tail mass rounds to 1.  The
    draw is clamped into (lo, hi], which keeps the rates ordered across states.
    """
    lo, hi = priors.theta_interval(j)
    a = params.n_jumps[j - 1] + 1.0
    u = rng.random()
    if lo < a:
        p_lo = gammainc(a, lo)
        theta = gammaincinv(a, p_lo + u * (gammainc(a, hi) - p_lo))
    else:
        q_hi = gammaincc(a, hi)
        theta = gammainccinv(a, q_hi + u * (gammaincc(a, lo) - q_hi))
    return min(max(float(theta), math.nextafter(lo, hi)), hi)


# ---------------------------------------------------------------------------
# full sweep


class JumpGibbsSampler(GibbsSampler):
    """One chain of the jump model on the shared Gibbs engine.

    Adaptive steps: sigma1^2 on a log scale, the h*_j on log(h* - 1), and the
    state means on their own scale when they are free.  The jump counts and
    intensities are drawn exactly and need no walk.
    """

    def adaptive_params(self) -> list[tuple[str, str]]:
        table = [("sigma1_sq", "log")]
        table += [(f"h_star_{j}", "log_shift") for j in range(2, self.n_states + 1)]
        if not self.priors.fix_mean_zero:
            table += [(f"mu_{j}", "identity") for j in range(1, self.n_states + 1)]
        return table

    def emission_matrix(self, params: JumpParams) -> np.ndarray:
        logem = np.empty((self.data.size, self.n_states))
        var = params.sigma_sq
        for j in range(self.n_states):
            logem[:, j] = _obs_logpdf(
                self.data, params.mu[j], var[j], int(params.n_jumps[j]), params.b
            )
        return logem

    def update(
        self, params: JumpParams, transition: np.ndarray, rng: np.random.Generator, adapt: bool
    ):
        self.stage = "state_path"
        filt = hamilton_filter(self.emission_matrix(params), self.data.size, transition)
        path = sample_state_path(filt, transition, rng)

        self.stage = "transition_matrix"
        counts = count_transitions(path, self.n_states)
        transition = sample_transition_matrix(counts, self.priors.dirichlet_rows, rng)

        groups = [self.data[path == j] for j in range(1, self.n_states + 1)]

        if not self.priors.fix_mean_zero:
            for j in range(1, self.n_states + 1):
                self.stage = f"mu_{j}"
                params.mu[j - 1] = sample_mu_j(
                    groups[j - 1], j, params, self.priors, rng,
                    self.samplers[f"mu_{j}"], adapt,
                )

        self.stage = "sigma1_sq"
        params.sigma1_sq = sample_sigma1_sq(
            groups[0], params, self.priors, rng, self.samplers["sigma1_sq"], adapt
        )

        for j in range(2, self.n_states + 1):
            self.stage = f"h_star_{j}"
            params.h_star[j - 2] = sample_h_star_j(
                groups[j - 1], j, params, self.priors, rng,
                self.samplers[f"h_star_{j}"], adapt,
            )

        for j in range(1, self.n_states + 1):
            self.stage = f"n_jumps_{j}"
            params.n_jumps[j - 1] = sample_n_jumps_j(groups[j - 1], j, params, self.priors, rng)

        for j in range(1, self.n_states + 1):
            self.stage = f"theta_{j}"
            params.theta[j - 1] = sample_theta_j(j, params, self.priors, rng)
        return filt, path, transition


def initial_jump_state(
    data: np.ndarray, priors: JumpPriors, b: float = 40.0, diag: float = 0.8
) -> ModelState:
    """Deterministic starting point: the shared quantile start (path, sigma1^2,
    multipliers, transition matrix); state means at zero, no jumps, and
    intensities at their interval midpoints.
    """
    m = priors.n_states
    path, sigma1_sq, h_star, transition = quantile_start(data, m, diag)
    theta = np.array([0.5 * (lo + hi) for lo, hi in (priors.theta_interval(j) for j in range(1, m + 1))])
    params = JumpParams(
        mu=np.zeros(m),
        sigma1_sq=sigma1_sq,
        h_star=h_star,
        theta=theta,
        n_jumps=np.zeros(m, dtype=int),
        b=b,
    )
    return ModelState(path=path, transition=transition, params=params)
