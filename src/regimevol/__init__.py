"""Bayesian Markov-switching volatility models.

Two models over one latent M-state Markov chain: a Gaussian jump-diffusion
(state-dependent normals plus symmetric-Gamma jump sums) and a symmetric
alpha-stable law handled through its Gaussian scale-mixture representation.
Fitting is Metropolis-within-Gibbs with a Hamilton filter / backward-sampling
state step; post-fit analytics produce expected regime durations and a
VIX-style expected-volatility indicator.
"""

from .analysis import (
    DurationReport,
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
    ReturnSeries,
    align_series,
    load_prices_csv,
    load_reference_csv,
    log_returns,
)
from .distributions import (
    FrechetParams,
    InvGammaParams,
    StableParams,
    frechet_sample,
    gaussian_logpdf,
    inv_gamma_sample,
    jump_convolved_logpdf,
    positive_stable_logpdf,
    positive_stable_sample,
    stable_sample,
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
from .mcmc import (
    Chain,
    ModelState,
    NormalNormalPosterior,
    chain_summary,
    inv_gamma_normal_update,
    normal_normal_update,
    run_chain,
)
from .regime import (
    FilteredProbs,
    count_transitions,
    hamilton_filter,
    sample_state_path,
    sample_transition_matrix,
)
from .stable_model import (
    StableGibbsSampler,
    StableModelParams,
    StablePriors,
    initial_stable_state,
)
from .synthetic import (
    SyntheticDataset,
    simulate_jump_model,
    simulate_stable_model,
)

__version__ = "0.1.0"
