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

One function, ``_state_loglik``, decides whether a state is Gaussian: with
N_j = 0 it is, and the emission column is Gaussian while the mean and the
base variance take their conjugate draws; otherwise every one of them, and
the MH targets, evaluate the Normal (x) jump-sum convolution.  The h*_j
update is ``mcmc.h_star_step``, the one the stable model uses, handed the
same decision.  The jump-count weights take every count's convolution from
one ``jump_convolved_logpdf_counts`` pass, whose rows agree with the
single-count values to 1e-10.

The other updates take an empty state down their general path: its
likelihood is a sum over no observations, 0.0 at every mean and every jump
count (a convolution pass over an empty array has empty rows), so the mean's
MH step targets its N(0, 1/k) prior and the jump-count weights are the
truncated Poisson prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import gammainc, gammaincc, gammainccinv, gammaincinv, pdtr, pdtrik

from .distributions import (
    _MAX_BATCH_JUMPS,
    FrechetParams,
    InvGammaParams,
    gaussian_logpdf,
    jump_convolved_logpdf,
    jump_convolved_logpdf_counts,
)
from .errors import ParameterError, check_entries, check_integer, check_positive, check_vector
from .mcmc import (
    AdaptiveRw,
    GibbsSampler,
    ModelState,
    check_scale_ladder,
    h_star_step,
    inv_gamma_normal_update,
    normal_normal_update,
    quantile_start,
    scale_ladder,
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
    "check_u_ladder",
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
        self.mu = check_vector("mu", self.mu)
        self.h_star = check_vector("h_star", self.h_star)
        self.theta = check_vector("theta", self.theta)
        counts = check_vector("n_jumps", self.n_jumps, None)
        # checked before the cast, which would truncate 1.5 and fail on NaN
        check_entries((counts >= 0) & np.isfinite(counts) & (counts == np.trunc(counts)),
                      "jump counts must be nonnegative integers", counts)
        self.n_jumps = counts.astype(int, copy=False)
        check_scale_ladder(self.mu, "sigma1_sq", self.sigma1_sq, self.h_star)
        m = self.mu.size
        if self.theta.size != m or self.n_jumps.size != m:
            raise ParameterError("theta and n_jumps must have one entry per state")
        check_entries((np.diff(self.theta, prepend=0.0) >= 0) & (self.theta < math.inf),
                      "jump intensities must be finite, sorted, >= 0", self.theta)
        check_positive("jump amplitude rate b", self.b)

    @property
    def n_states(self) -> int:
        return self.mu.size

    @property
    def sigma_sq(self) -> np.ndarray:
        """Derived state variances sigma_1^2 < ... < sigma_M^2."""
        return scale_ladder(self.sigma1_sq, self.h_star)

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
    return 0.5 * 2.0 ** np.arange(check_integer("n_states", n_states, 1))


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
        self.u = check_u_ladder(self.u)
        check_positive("mean-prior precision k", self.k)
        self.dirichlet_rows = check_dirichlet_rows(self.dirichlet_rows, self.u.size)
        check_u_cap(self.u)

    @property
    def n_states(self) -> int:
        return self.u.size

    def theta_interval(self, j: int) -> tuple[float, float]:
        """Support (lo, hi] of theta_j, 1-based state index."""
        j = check_integer("state index j", j, 1, self.n_states)
        return (0.0 if j == 1 else float(self.u[j - 2])), float(self.u[j - 1])


# ---------------------------------------------------------------------------
# likelihood pieces


def _state_loglik(params: JumpParams, j: int):
    """State j's per-observation log-likelihood ``loglik(y, mu, var)``, with
    var the Gaussian variance: None when N_j = 0, where the state is Gaussian,
    otherwise the Normal (x) symGamma(N_j, b) convolution."""
    n_jumps = int(params.n_jumps[j - 1])
    if n_jumps == 0:
        return None
    return lambda y, mu, var: jump_convolved_logpdf(y, mu, math.sqrt(var), n_jumps, params.b)


# ---------------------------------------------------------------------------
# per-parameter updates


def sample_mu_j(
    data_j: np.ndarray,
    j: int,
    params: JumpParams,
    priors: JumpPriors,
    rng: np.random.Generator,
    sampler: AdaptiveRw,
) -> float:
    """State-j mean: exact conjugate draw when N_j = 0, otherwise one MH step."""
    j = check_integer("state index j", j, 1, params.n_states)
    data_j = np.asarray(data_j, dtype=float)
    var = float(params.sigma_sq[j - 1])
    loglik = _state_loglik(params, j)
    if loglik is None:
        return normal_normal_update(data_j, var, priors.k, rng)

    def log_target(mu: float) -> float:
        return -0.5 * priors.k * mu * mu + float(np.sum(loglik(data_j, mu, var)))

    return sampler.step(float(params.mu[j - 1]), log_target, rng)


def sample_sigma1_sq(
    data_1: np.ndarray,
    params: JumpParams,
    priors: JumpPriors,
    rng: np.random.Generator,
    sampler: AdaptiveRw,
) -> float:
    """Base variance: conjugate inverse-Gamma draw when state 1 has no jumps,
    else a log-scale MH step against prior x state-1 likelihood.  The caller's
    derived sigma_j^2 move with the returned value through the h* products.
    """
    data_1 = np.asarray(data_1, dtype=float)
    mu1 = float(params.mu[0])
    loglik = _state_loglik(params, 1)
    if loglik is None:
        rss = float(np.sum((data_1 - mu1) ** 2))
        return inv_gamma_normal_update(rss, data_1.size, priors.sigma_prior, rng)
    shape, rate = priors.sigma_prior.shape, priors.sigma_prior.rate

    def log_target(s: float) -> float:
        if not s > 0:
            return -math.inf
        return (-(shape + 1.0) * math.log(s) - rate / s) + float(np.sum(loglik(data_1, mu1, s)))

    return sampler.step(float(params.sigma1_sq), log_target, rng)


def sample_h_star_j(
    data_j: np.ndarray,
    j: int,
    params: JumpParams,
    priors: JumpPriors,
    rng: np.random.Generator,
    sampler: AdaptiveRw,
) -> float:
    """Variance multiplier of state j >= 2, always > 1 on exit: the shared
    ``mcmc.h_star_step``, whose target is the Frechet prior times the
    Gaussian likelihood when N_j = 0 and the convolution likelihood otherwise.
    Proposals walk log(h* - 1), so values at or below 1 cannot be proposed
    and carry zero density anyway.
    """
    return h_star_step(
        data_j, j, params.mu, params.sigma_sq, params.h_star, priors.frechet, rng, sampler,
        partial(_state_loglik, params),
    )


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


def check_u_ladder(u) -> np.ndarray:
    """The intensity endpoints as a float vector; ParameterError unless they
    are finite, > 0 and strictly increasing (written so that NaN fails)."""
    u = check_vector("u", u)
    check_entries((np.diff(u, prepend=0.0) > 0) & (u < math.inf),
                  "intensity endpoints u must be finite, > 0 and increasing", u)
    return u


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


def jump_count_weights(data_j: np.ndarray, j: int, params: JumpParams) -> np.ndarray:
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
    j = check_integer("state index j", j, 1, params.n_states)
    data_j = np.asarray(data_j, dtype=float)
    theta = float(params.theta[j - 1])
    var = float(params.sigma_sq[j - 1])
    mu = float(params.mu[j - 1])
    n_max = _poisson_n_max(theta)
    # theta = 0 is a valid intensity: the prior is the point mass at N = 0
    log_theta = math.log(theta) if theta > 0.0 else -math.inf
    log_pois = np.empty(n_max + 1)
    log_pois[0] = -theta
    for n in range(1, n_max + 1):
        log_pois[n] = log_pois[n - 1] + (log_theta - math.log(n))
    gauss = float(np.sum(gaussian_logpdf(data_j, mu, var)))
    n_top = min(n_max, int(params.n_jumps[j - 1]) + 4)
    while True:
        rows = jump_convolved_logpdf_counts(data_j, mu, math.sqrt(var), n_top, params.b)
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
    data_j: np.ndarray, j: int, params: JumpParams, rng: np.random.Generator
) -> int:
    """Exact draw from the truncated discrete conditional of the state-j jump count.

    The uniform is scaled by the cumulative sum's last entry, which can fall
    short of 1 by rounding, so the draw always indexes a weighed count.
    """
    w = jump_count_weights(data_j, j, params)
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
        logem = self.work.emission.T
        var = params.sigma_sq
        for j in range(1, self.n_states + 1):
            loglik = _state_loglik(params, j) or gaussian_logpdf
            logem[:, j - 1] = loglik(self.data, params.mu[j - 1], var[j - 1])
        return logem

    def update(self, params: JumpParams, transition: np.ndarray, rng: np.random.Generator):
        self.stage = "state_path"
        filt = hamilton_filter(self.emission_matrix(params), self.data.size, transition,
                               work=self.work)
        path = sample_state_path(filt, transition, rng, work=self.work)

        self.stage = "transition_matrix"
        counts = count_transitions(path, self.n_states)
        transition = sample_transition_matrix(counts, self.priors.dirichlet_rows, rng)

        groups = [self.data[path == j] for j in range(1, self.n_states + 1)]

        if not self.priors.fix_mean_zero:
            for j in range(1, self.n_states + 1):
                self.stage = f"mu_{j}"
                params.mu[j - 1] = sample_mu_j(
                    groups[j - 1], j, params, self.priors, rng, self.samplers[f"mu_{j}"]
                )

        self.stage = "sigma1_sq"
        params.sigma1_sq = sample_sigma1_sq(
            groups[0], params, self.priors, rng, self.samplers["sigma1_sq"]
        )

        for j in range(2, self.n_states + 1):
            self.stage = f"h_star_{j}"
            params.h_star[j - 2] = sample_h_star_j(
                groups[j - 1], j, params, self.priors, rng, self.samplers[f"h_star_{j}"]
            )

        for j in range(1, self.n_states + 1):
            self.stage = f"n_jumps_{j}"
            params.n_jumps[j - 1] = sample_n_jumps_j(groups[j - 1], j, params, rng)

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
