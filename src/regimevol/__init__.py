"""Bayesian Markov-switching volatility models.

Two models over one latent M-state Markov chain: a Gaussian jump-diffusion
(state-dependent normals plus symmetric-Gamma jump sums) and a symmetric
alpha-stable law handled through its Gaussian scale-mixture representation.
Fitting is Metropolis-within-Gibbs with a Hamilton filter / backward-sampling
state step; post-fit analytics produce expected regime durations and a
VIX-style expected-volatility indicator.

The package namespace holds what a fit uses, in pipeline order: config and
priors, price and reference loading, the two samplers with their parameter
and prior types and starting states, the chain runner and its summary, the
duration and indicator analytics, the error classes (each maps to a CLI exit
code), the state-step and density kernels, and the two simulators.
Everything else (the per-parameter updates, the conjugate draws, samplers
for the distributions, chain and state containers, transition counting) is
imported from its submodule, e.g. ``regimevol.mcmc`` or
``regimevol.distributions``.
"""

from .analysis import (
    IndicatorSeries,
    affine_align,
    durations_from_draws,
    expected_durations,
    indicator_jump,
    indicator_stable,
    score,
)
from .config import RunConfig, build_jump_priors, build_stable_priors, load_config
from .dataio import (
    DatedSeries,
    align_series,
    load_prices_csv,
    load_reference_csv,
    log_returns,
)
from .distributions import (
    FrechetParams,
    InvGammaParams,
    jump_convolved_logpdf,
    positive_stable_logpdf,
)
from .errors import (
    ConfigError,
    DataError,
    FilterDegeneracyError,
    NumericalError,
    ParameterError,
    RegimevolError,
)
from .jump_model import (
    JumpGibbsSampler,
    JumpParams,
    JumpPriors,
    initial_jump_state,
)
from .mcmc import chain_summary, run_chain
from .regime import hamilton_filter, sample_state_path
from .stable_model import (
    StableGibbsSampler,
    StableModelParams,
    StablePriors,
    initial_stable_state,
)
from .synthetic import simulate_jump_model, simulate_stable_model

__version__ = "0.1.0"
