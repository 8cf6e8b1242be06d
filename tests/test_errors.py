"""The package's parameter rules.  Every scalar it takes as a scale,
rate, shape, precision or floor goes through ``errors.check_positive``, so
zero, negative, NaN and +inf all fail with the same ParameterError; every
integer (a count, a size or a state index) goes through
``errors.check_integer``, so a float, a bool or a value outside its range
fails with a ParameterError that names it and the range; every vector
parameter goes through ``errors.check_vector``, so one that is not 1-D
fails with a ParameterError that names it and its shape; every array
argument goes through ``errors.check_entries``, so a bad entry fails with a
ParameterError that names its row or index."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import regimevol
from regimevol import (
    ConfigError,
    FrechetParams,
    IndicatorSeries,
    InvGammaParams,
    JumpGibbsSampler,
    JumpParams,
    JumpPriors,
    ParameterError,
    RunConfig,
    StableModelParams,
    StablePriors,
    hamilton_filter,
    indicator_jump,
    indicator_stable,
    jump_convolved_logpdf,
    run_chain,
    sample_state_path,
    score,
    simulate_jump_model,
    simulate_stable_model,
)
from regimevol.distributions import gaussian_logpdf, jump_convolved_logpdf_counts, stable_sample
from regimevol.errors import check_entries, check_integer, check_positive, check_vector
from regimevol.jump_model import (
    check_u_ladder,
    default_u_ladder,
    jump_count_weights,
    sample_mu_j,
    sample_n_jumps_j,
    sample_theta_j,
)
from regimevol.mcmc import (
    AdaptiveRw,
    check_scale_ladder,
    h_star_step,
    inv_gamma_normal_update,
    normal_normal_update,
    quantile_start,
)
from regimevol.regime import (
    StateWorkspace,
    check_dirichlet_rows,
    count_transitions,
    default_dirichlet_rows,
    sample_transition_matrix,
    validate_initial_distribution,
    validate_transition_matrix,
)
from regimevol.stable_model import sample_stable_mu_j

_RNG = np.random.default_rng(0)
_ROWS = np.ones((2, 2))


def _jump_params(b):
    return JumpParams(mu=np.zeros(2), sigma1_sq=1.0, h_star=[2.0], theta=[0.0, 1.0],
                      n_jumps=[0, 0], b=b)


def _jump_priors(k):
    return JumpPriors(k=k, sigma_prior=InvGammaParams(2.0, 0.5), frechet=FrechetParams(2.0, 0.5),
                      u=[0.5, 1.0], dirichlet_rows=_ROWS)


def _stable_params(lam):
    return StableModelParams(mu=np.zeros(2), gamma1_sq=1.0, h_star=[2.0], lam=lam, alpha=1.7)


def _stable_priors(k=1.0, lambda_floor=1e-6):
    return StablePriors(k=k, scale_prior=InvGammaParams(2.0, 0.5), frechet=FrechetParams(2.0, 0.5),
                        dirichlet_rows=_ROWS, lambda_floor=lambda_floor)


# (entry point with the checked scalar as its argument, the name the message gives it)
ENTRY_POINTS = {
    "InvGammaParams.shape": (lambda x: InvGammaParams(x, 1.0), "inverse-Gamma shape"),
    "InvGammaParams.rate": (lambda x: InvGammaParams(1.0, x), "inverse-Gamma rate"),
    "FrechetParams.shape": (lambda x: FrechetParams(x, 1.0), "Frechet shape"),
    "FrechetParams.scale": (lambda x: FrechetParams(1.0, x), "Frechet scale"),
    "stable_sample.gamma": (lambda x: stable_sample(1.5, x, 0.0, _RNG), "stable scale"),
    "jump_convolved_logpdf.sigma": (
        lambda x: jump_convolved_logpdf(0.1, 0.0, x, 2, 40.0), "Gaussian scale sigma"),
    "jump_convolved_logpdf.b": (
        lambda x: jump_convolved_logpdf(0.1, 0.0, 1.0, 2, x), "jump amplitude rate b"),
    "jump_convolved_logpdf_counts.sigma": (
        lambda x: jump_convolved_logpdf_counts([0.1], 0.0, x, 3, 40.0), "Gaussian scale sigma"),
    "jump_convolved_logpdf_counts.b": (
        lambda x: jump_convolved_logpdf_counts([0.1], 0.0, 1.0, 3, x), "jump amplitude rate b"),
    "AdaptiveRw.scale": (lambda x: AdaptiveRw(x), "step scale"),
    "normal_normal_update.var": (
        lambda x: normal_normal_update(np.ones(3), x, 1.0, _RNG), "variance"),
    "normal_normal_update.k": (
        lambda x: normal_normal_update(np.ones(3), 1.0, x, _RNG), "prior precision k"),
    "check_scale_ladder.base": (
        lambda x: check_scale_ladder(np.zeros(2), "sigma1_sq", x, np.array([2.0])), "sigma1_sq"),
    "JumpParams.b": (_jump_params, "jump amplitude rate b"),
    "JumpPriors.k": (_jump_priors, "mean-prior precision k"),
    "StableModelParams.lam": (_stable_params, "mixing variable lambda"),
    "StablePriors.k": (lambda x: _stable_priors(k=x), "mean-prior precision k"),
    "StablePriors.lambda_floor": (lambda x: _stable_priors(lambda_floor=x), "lambda_floor"),
    # var = 0 ended in a divide-by-zero RuntimeWarning and NaN, var = -1 in
    # an invalid-value one
    "gaussian_logpdf.var": (lambda x: gaussian_logpdf(0.1, 0.0, x), "variance"),
}


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf], ids=["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_every_positive_scalar_refuses_zero_negative_nan_and_inf(entry, value):
    # sigma, b and the stable scale at +inf used to give NaN or inf draws
    call, name = ENTRY_POINTS[entry]
    with pytest.raises(ParameterError, match=f"^{re.escape(name)} must be finite and > 0, "
                                             f"got {value}$"):
        call(value)


def test_check_positive_accepts_the_ends_of_the_open_interval():
    check_positive("x", 5e-324)
    check_positive("x", np.float64(1.7e308))


# ---------------------------------------------------------------------------
# the one rule for an integer argument

_P2 = np.full((2, 2), 0.5)
_Y = np.array([0.1, -0.2, 0.3, -0.4])
_CONFIG = {"model": "jump", "seed": 1, "states": 2, "iters": 10, "burnin": 2}


def _jump_chain(x):
    return JumpGibbsSampler(_Y, _jump_priors(1.0), adapt_iters=x)


def _h_star(j):
    return h_star_step(_Y, j, np.zeros(2), np.array([1.0, 2.0]), np.array([2.0]),
                       FrechetParams(2.0, 0.5), _RNG, AdaptiveRw(0.4, "log_shift"))


# (entry point with the checked integer as its argument, the name the
# message gives it, the lowest and the highest value it takes; None when
# there is no highest).  The comments say what each did before this rule
# covered it, where it was not refused already.
INTEGER_ENTRY_POINTS = {
    # 2.0 and True were taken as counts; NaN ended in a bare ValueError
    "jump_convolved_logpdf.n_jumps": (
        lambda x: jump_convolved_logpdf(0.1, 0.0, 1.0, x, 40.0), "jump count", 1, None),
    "jump_convolved_logpdf_counts.n_top": (
        lambda x: jump_convolved_logpdf_counts([0.1], 0.0, 1.0, x, 40.0), "jump count", 1, None),
    # 2.5 was taken
    "inv_gamma_normal_update.n": (
        lambda x: inv_gamma_normal_update(1.0, x, InvGammaParams(2.0, 0.5), _RNG), "n", 0, None),
    "h_star_step.j": (_h_star, "h* index", 2, 2),
    # 3.0 ended in a bare TypeError
    "run_chain.n_iter": (lambda x: run_chain(lambda s, r: s, {}, x, 0, _RNG), "n_iter", 1, None),
    "run_chain.burn_in": (lambda x: run_chain(lambda s, r: s, {}, 3, x, _RNG), "burn_in", 0, 2),
    # 2.5 ended in a bare AttributeError
    "StateWorkspace.t_len": (lambda x: StateWorkspace(x, 2), "t_len", 1, None),
    "StateWorkspace.m": (lambda x: StateWorkspace(3, x), "m", 1, None),
    "hamilton_filter.t_len": (lambda x: hamilton_filter(np.zeros((3, 2)), x, _P2), "t_len", 1, None),
    "simulate_jump_model.t_len": (
        lambda x: simulate_jump_model(_jump_params(1.0), _P2, None, x, _RNG), "t_len", 1, None),
    "simulate_stable_model.t_len": (
        lambda x: simulate_stable_model(_stable_params(1.0), _P2, None, x, _RNG), "t_len", 1, None),
    # -5 never adapted, 2.5 and True were taken
    "GibbsSampler.adapt_iters": (_jump_chain, "adapt_iters", 0, None),
    # 0 gave "labels must lie in 1..0", 2.5 a bare TypeError
    "count_transitions.m": (lambda x: count_transitions(np.array([1, 1]), x), "m", 1, None),
    "default_dirichlet_rows.n_states": (lambda x: default_dirichlet_rows(x), "n_states", 1, None),
    "quantile_start.n_states": (lambda x: quantile_start(_Y, x, 0.8), "n_states", 1, None),
    "default_u_ladder.n_states": (lambda x: default_u_ladder(x), "n_states", 1, None),
    "validate_initial_distribution.m": (
        lambda x: validate_initial_distribution(None, x), "m", 1, None),
    # 2.0 with 2x2 rows and True with 1x1 rows were taken (see below); 0 is
    # refused as a model without states
    "check_dirichlet_rows.m": (lambda x: check_dirichlet_rows(np.ones((2, 2)), x), "m", 0, None),
    # j <= 0 wrapped to another state, j = M + 1 raised a bare IndexError
    "sample_mu_j.j": (
        lambda x: sample_mu_j(_Y, x, _jump_params(1.0), _jump_priors(1.0), _RNG, AdaptiveRw()),
        "state index j", 1, 2),
    "jump_count_weights.j": (
        lambda x: jump_count_weights(_Y, x, _jump_params(1.0)), "state index j", 1, 2),
    "sample_n_jumps_j.j": (
        lambda x: sample_n_jumps_j(_Y, x, _jump_params(1.0), _RNG), "state index j", 1, 2),
    "JumpPriors.theta_interval.j": (
        lambda x: _jump_priors(1.0).theta_interval(x), "state index j", 1, 2),
    "sample_theta_j.j": (
        lambda x: sample_theta_j(x, _jump_params(1.0), _jump_priors(1.0), _RNG),
        "state index j", 1, 2),
    "sample_stable_mu_j.j": (
        lambda x: sample_stable_mu_j(_Y, x, _stable_params(1.0), _stable_priors(), _RNG),
        "state index j", 1, 2),
}

# RunConfig fields: (the lowest and the highest value each takes, given
# _CONFIG's other fields)
CONFIG_INTEGERS = {"seed": (0, None), "states": (1, None), "iters": (1, None), "burnin": (0, 9)}


def _integer_cases(table):
    for entry, (*_, low, high) in table.items():
        for value in [2.5, True, low - 1] + ([] if high is None else [high + 1]):
            yield pytest.param(entry, value, id=f"{entry}-{value}")


@pytest.mark.parametrize("entry, value", _integer_cases(INTEGER_ENTRY_POINTS))
def test_every_integer_argument_refuses_a_float_a_bool_and_each_end(entry, value):
    call, name, low, high = INTEGER_ENTRY_POINTS[entry]
    rng_state = _RNG.bit_generator.state
    with pytest.raises(ParameterError) as info:
        call(value)
    assert type(info.value) is ParameterError
    rule = f"must be an integer >= {low}" if high is None else f"must lie in {low}..{high}"
    assert str(info.value) == f"{name} {rule}, got {value}"
    assert _RNG.bit_generator.state == rng_state


@pytest.mark.parametrize("field, value", _integer_cases(CONFIG_INTEGERS))
def test_every_integer_config_field_refuses_a_float_a_bool_and_each_end(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must "):
        RunConfig(**{**_CONFIG, field: value}).validate()


def test_check_integer_returns_an_int_and_takes_numpy_integers():
    assert check_integer("x", np.int16(3), 1, 3) == 3
    assert type(check_integer("x", np.int64(0))) is int
    with pytest.raises(ParameterError, match=r"^x must be an integer >= 0, got nan$"):
        check_integer("x", math.nan)
    with pytest.raises(ParameterError, match=r"^x must lie in 0\.\.2, got False$"):
        check_integer("x", np.bool_(False), 0, 2)


def test_a_transition_matrix_without_states_is_refused():
    # the filter ended in a bare ZeroDivisionError inside the pi0 check
    with pytest.raises(ParameterError, match="^a model needs at least one state, got 0$"):
        hamilton_filter(np.zeros((3, 0)), 3, np.zeros((0, 0)))
    with pytest.raises(ParameterError, match="^a model needs at least one state, got 0$"):
        validate_transition_matrix(np.zeros((0, 0)))


def test_dirichlet_rows_take_only_an_integer_state_count():
    # (2, 2) == (2.0, 2.0) and (1, 1) == (True, True), so these matched the rows
    for m, shape in [(2.0, (2, 2)), (True, (1, 1))]:
        with pytest.raises(ParameterError, match=f"^m must be an integer >= 0, got {m}$"):
            check_dirichlet_rows(np.ones(shape), m)
    with pytest.raises(ParameterError, match="^a model needs at least one state, got 0$"):
        check_dirichlet_rows(np.ones((0, 0)), 0)


def test_the_shared_start_refuses_an_empty_series():
    # np.median of no observations ended in a "Mean of empty slice" RuntimeWarning
    with pytest.raises(ParameterError, match="^quantile_start needs at least one observation"):
        quantile_start(np.array([]), 2, 0.8)


def test_the_shared_start_refuses_a_constant_series():
    # every bucket variance was 0, so the multipliers were 0 / 0: a numpy
    # RuntimeWarning and NaN, then "gamma1_sq must be finite and > 0, got 0.0"
    message = "^quantile_start needs a series that varies, got all 5 values equal to 0.0$"
    with pytest.raises(ParameterError, match=message):
        quantile_start(np.zeros(5), 3, 0.8)
    returns = np.zeros(50)
    priors = regimevol.build_stable_priors(
        regimevol.load_config(model="stable", seed=0, states=3, sigma_rate=1e-4), returns)
    with pytest.raises(ParameterError, match="^quantile_start needs a series that varies"):
        regimevol.initial_stable_state(returns, priors)


@pytest.mark.parametrize("diag", [-1.0, math.nan, 1.5])
def test_the_shared_start_refuses_a_diagonal_outside_0_to_1(diag):
    # diag = -1 built [[-1, 2], [2, -1]] and NaN a NaN matrix, refused only
    # at the first sweep as a transition-matrix row
    message = f"^{re.escape(f'diag must lie in [0, 1], got {diag}')}$"
    with pytest.raises(ParameterError, match=message):
        quantile_start(_Y, 2, diag)
    for start, priors in ((regimevol.initial_jump_state, _jump_priors(1.0)),
                          (regimevol.initial_stable_state, _stable_priors())):
        with pytest.raises(ParameterError, match=message):
            start(_Y, priors, diag=diag)
    for end in (0.0, 1.0):
        assert np.all(np.diag(quantile_start(_Y, 2, end)[3]) == end)


# ---------------------------------------------------------------------------
# the one rule for an array argument


def _three_states(**bad):
    fields = dict(mu=np.zeros(3), sigma1_sq=1.0, h_star=[2.0, 2.0], theta=[0.0, 1.0, 2.0],
                  n_jumps=[0, 0, 0], b=1.0)
    return JumpParams(**{**fields, **bad})


def _with(rows, row, entries):
    out = np.array(rows, dtype=float)
    out[row] = entries
    return out


_P = np.full((3, 3), 1.0 / 3.0)
_FILTERED = np.full((5, 3), 1.0 / 3.0)
_EMISSIONS = np.zeros((5, 3))
_SIGMA_SQ = np.array([0.01, 0.04, 0.09])

# (entry point with one bad entry in a middle row or index, "row" or
# "index", the position the message names)
ARRAY_ENTRY_POINTS = {
    "check_dirichlet_rows": (
        lambda: check_dirichlet_rows(_with(np.ones((3, 3)), 1, [1.0, np.nan, 1.0])), "row", 1),
    "sample_transition_matrix.counts": (
        lambda: sample_transition_matrix(_with(np.zeros((3, 3)), 1, [0.0, -1.0, 0.0]),
                                         np.ones((3, 3)), _RNG), "row", 1),
    "validate_transition_matrix.negative": (
        lambda: validate_transition_matrix(_with(_P, 1, [-0.5, 1.0, 0.5])), "row", 1),
    "validate_transition_matrix.nan": (
        lambda: validate_transition_matrix(_with(_P, 1, [np.nan, 0.5, 0.5])), "row", 1),
    "validate_transition_matrix.sum": (
        lambda: validate_transition_matrix(_with(_P, 1, [0.5, 0.5, 0.1])), "row", 1),
    "validate_initial_distribution": (
        lambda: validate_initial_distribution(np.array([0.6, -0.1, 0.5]), 3), "index", 1),
    "hamilton_filter.emissions": (
        lambda: hamilton_filter(_with(_EMISSIONS, 2, [0.0, np.nan, 0.0]), 5, _P), "row", 2),
    "sample_state_path.probs": (
        lambda: sample_state_path(_with(_FILTERED, 2, [0.5, -0.2, 0.7]), _P, _RNG), "row", 2),
    "count_transitions.labels": (lambda: count_transitions(np.array([1, 2, 4, 1]), 3), "index", 2),
    "check_scale_ladder.mu": (
        lambda: check_scale_ladder(np.array([0.0, np.nan, 0.0]), "sigma1_sq", 1.0,
                                   np.array([2.0, 2.0])), "index", 1),
    "check_scale_ladder.h_star": (
        lambda: check_scale_ladder(np.zeros(3), "sigma1_sq", 1.0, np.array([np.inf, 2.0])),
        "index", 0),
    "GibbsSampler.data": (
        lambda: JumpGibbsSampler(np.array([0.1, -0.2, np.inf, 0.3]),
                                 _jump_priors(1.0)), "index", 2),
    "JumpParams.n_jumps": (lambda: _three_states(n_jumps=[0, 1.5, 2]), "index", 1),
    "JumpParams.theta": (lambda: _three_states(theta=[0.0, -1.0, 2.0]), "index", 1),
    "check_u_ladder": (lambda: check_u_ladder([0.5, 0.4, 1.0]), "index", 1),
    "indicator_jump.sigma_sq": (
        lambda: indicator_jump(_FILTERED, [0.01, np.nan, 0.09], np.zeros(3), 40.0), "index", 1),
    "indicator_jump.overflow": (
        lambda: indicator_jump(_FILTERED, _SIGMA_SQ, [0.0, 1e200, 0.0], 1.0), "index", 1),
    "indicator_stable.gamma_sq": (
        lambda: indicator_stable(_FILTERED, 1.0, [1.0, -0.5, 4.0]), "index", 1),
    "score.reference": (
        lambda: score(IndicatorSeries(np.ones(4), "jump"), np.array([1.0, 2.0, np.nan, 1.0])),
        "row", 2),
    # the filtered matrix was used as given: a negative entry ended in
    # numpy's invalid-sqrt RuntimeWarning, a NaN gave a NaN indicator
    "indicator_jump.filtered_negative": (
        lambda: indicator_jump(_with(_FILTERED, 2, [0.6, -0.1, 0.5]), _SIGMA_SQ, np.zeros(3),
                               40.0), "row", 2),
    "indicator_jump.filtered_nan": (
        lambda: indicator_jump(_with(_FILTERED, 2, [0.5, np.nan, 0.5]), _SIGMA_SQ, np.zeros(3),
                               40.0), "row", 2),
    "indicator_stable.filtered_sum": (
        lambda: indicator_stable(_with(_FILTERED, 2, [0.5, 0.3, 0.3]), 1.0, _SIGMA_SQ), "row", 2),
    # each of the four below ended in RuntimeWarnings, or returned NaN
    "gaussian_logpdf.var_array": (
        lambda: gaussian_logpdf(_EMISSIONS, 0.0, np.array([0.01, 0.0, 0.09])), "index", 1),
    "jump_convolved_logpdf.z": (
        lambda: jump_convolved_logpdf([0.1, -0.2, np.inf], 0.0, 1.0, 2, 40.0), "index", 2),
    "jump_convolved_logpdf.mu": (
        lambda: jump_convolved_logpdf([0.1, -0.2], np.nan, 1.0, 2, 40.0), "index", 0),
    "jump_convolved_logpdf_counts.z": (
        lambda: jump_convolved_logpdf_counts([0.1, np.nan], 0.0, 1.0, 3, 40.0), "index", 1),
    # NaN data gave a NaN base variance, refused only by the start's params
    "quantile_start.data": (lambda: quantile_start([0.1, -0.2, np.nan, 0.3], 2, 0.8), "index", 2),
}


@pytest.mark.parametrize("entry", list(ARRAY_ENTRY_POINTS))
def test_every_array_argument_names_its_first_bad_row_or_index(entry):
    call, where, i = ARRAY_ENTRY_POINTS[entry]
    with pytest.raises(ParameterError) as info:
        call()
    assert type(info.value) is ParameterError
    assert re.search(f"; {where} {i} is [^;]+$", str(info.value)), str(info.value)


@pytest.mark.parametrize("ok, values, message", [
    ([True, False, False], np.array([1.0, np.nan, 2.0]), "x; index 1 is nan"),
    ([[True, True], [False, True]], np.array([[1.0, 2.0], [np.inf, 3.0]]), "x; row 1 is [inf  3.]"),
    ([True, False], np.array([[1.0, 2.0], [np.nan, 3.0]]), "x; row 1 is [nan  3.]"),
    (np.False_, np.float64(np.nan), "x; index 0 is nan"),
])
def test_check_entries_names_the_first_false(ok, values, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        check_entries(np.array(ok), "x", values)
    check_entries(np.ones(np.shape(ok), dtype=bool), "x", values)
    check_entries(np.zeros((0, 3), dtype=bool), "x", np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# the one rule for the shape of a vector argument


def _one_state(**bad):
    fields = dict(mu=[0.0], sigma1_sq=1.0, h_star=[], theta=[0.5], n_jumps=[0], b=1.0)
    return JumpParams(**{**fields, **bad})


# (entry point with one vector argument that is not 1-D, the field the
# message names, its shape); a scalar theta or u ended in numpy's bare
# "diff requires input that is at least one dimensional" ValueError, and
# the others were accepted and failed later, in to_param_dict or sigma_sq
VECTOR_ENTRY_POINTS = {
    "JumpParams.theta": (lambda: _one_state(theta=0.0), "theta", ()),
    "JumpParams.mu": (lambda: _one_state(mu=0.0), "mu", ()),
    "JumpParams.n_jumps": (lambda: _one_state(n_jumps=0), "n_jumps", ()),
    "JumpParams.h_star": (
        lambda: JumpParams(mu=np.zeros(2), sigma1_sq=1.0, h_star=[[2.0]], theta=[0.0, 1.0],
                           n_jumps=[0, 0], b=1.0), "h_star", (1, 1)),
    "StableModelParams.mu": (
        lambda: StableModelParams(mu=0.0, gamma1_sq=1.0, h_star=[], lam=1.0, alpha=1.7),
        "mu", ()),
    "StableModelParams.h_star": (
        lambda: StableModelParams(mu=np.zeros(2), gamma1_sq=1.0, h_star=[[2.0]], lam=1.0,
                                  alpha=1.7), "h_star", (1, 1)),
    "check_u_ladder.scalar": (lambda: check_u_ladder(1.0), "u", ()),
    "check_u_ladder.matrix": (lambda: check_u_ladder([[0.5, 1.0]]), "u", (1, 2)),
    "JumpPriors.u": (
        lambda: JumpPriors(k=1.0, sigma_prior=InvGammaParams(2.0, 0.5),
                           frechet=FrechetParams(2.0, 0.5), u=1.0,
                           dirichlet_rows=np.ones((1, 1))), "u", ()),
}


@pytest.mark.parametrize("entry", list(VECTOR_ENTRY_POINTS))
def test_every_vector_argument_must_be_one_dimensional(entry):
    call, name, shape = VECTOR_ENTRY_POINTS[entry]
    with pytest.raises(ParameterError) as info:
        call()
    assert type(info.value) is ParameterError
    assert str(info.value) == f"{name} must be a 1-D vector, got shape {shape}"


def test_check_vector_keeps_a_vector():
    np.testing.assert_array_equal(check_vector("x", [1, 2]), [1.0, 2.0])
    assert check_vector("x", [1, 2], None).dtype.kind == "i"
    assert check_vector("x", []).shape == (0,)


def _is_array_test(test: ast.expr) -> bool:
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr in ("all", "any") for node in ast.walk(test))


def test_array_checks_go_through_check_entries():
    # an `if` over np.all/np.any/.all()/.any() that raises ParameterError is
    # an array check written by hand
    package = Path(regimevol.__file__).parent
    raises = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.If) and _is_array_test(node.test)):
                continue
            for inner in ast.walk(node):
                if (isinstance(inner, ast.Raise) and isinstance(inner.exc, ast.Call)
                        and isinstance(inner.exc.func, ast.Name)
                        and inner.exc.func.id == "ParameterError"):
                    raises.add(f"{path.name}:{inner.lineno}")
    assert not raises, f"array checks outside errors.check_entries: {sorted(raises)}"


def _is_int(annotation: ast.expr | None) -> bool:
    return isinstance(annotation, ast.Name) and annotation.id == "int"


def _reads_integer_argument(test: ast.expr, params: set[str], fields: set[str]) -> bool:
    """Whether ``test`` compares something with an integer literal and reads
    an integer argument: a parameter in ``params`` or ``self.<f>`` with f in
    ``fields``."""
    literal = any(isinstance(node, ast.Compare) and any(
        isinstance(side, ast.Constant) and type(side.value) is int
        for side in (node.left, *node.comparators)) for node in ast.walk(test))
    return literal and any(
        (isinstance(node, ast.Name) and node.id in params)
        or (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self" and node.attr in fields)
        for node in ast.walk(test))


def _hand_written_integer_checks(tree: ast.Module) -> list[int]:
    """Lines of the ParameterError or ConfigError raised by an `if` that
    compares an integer argument (a parameter or a dataclass field annotated
    `int`) with an integer literal.  A count derived from a shape, such as
    check_dirichlet_rows' M, is no argument of that kind."""
    fields_of = {}  # method -> the int fields of its class
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        fields = {node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name) and _is_int(node.annotation)}
        fields_of.update((method, fields) for method in cls.body)
    lines = []
    for func in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
        params = {a.arg for a in func.args.args + func.args.kwonlyargs if _is_int(a.annotation)}
        for node in ast.walk(func):
            if isinstance(node, ast.If) and _reads_integer_argument(
                    node.test, params, fields_of.get(func, set())):
                lines += [inner.lineno for inner in ast.walk(node)
                          if isinstance(inner, ast.Raise) and isinstance(inner.exc, ast.Call)
                          and isinstance(inner.exc.func, ast.Name)
                          and inner.exc.func.id in ("ParameterError", "ConfigError")]
    return lines


def test_integer_checks_go_through_check_integer():
    package = Path(regimevol.__file__).parent
    raises = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        raises.update(f"{path.name}:{line}" for line in _hand_written_integer_checks(tree))
    assert not raises, f"integer checks outside errors.check_integer: {sorted(raises)}"


@pytest.mark.parametrize("source", [
    "def f(n: int):\n    if n < 1:\n        raise ParameterError(n)\n",
    "def f(j: int, m):\n    if not 2 <= j <= m:\n        raise ParameterError(j)\n",
    "class C:\n    seed: int\n    def validate(self):\n        if self.seed < 0:\n"
    "            raise ConfigError(self.seed)\n",
])
def test_the_integer_check_scan_finds_a_hand_written_check(source):
    assert _hand_written_integer_checks(ast.parse(source))
