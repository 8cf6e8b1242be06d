"""The one "finite and > 0" rule: every scalar the package takes as a scale,
rate, shape, precision or floor goes through ``errors.check_positive``, so
zero, negative, NaN and +inf all fail with the same ParameterError."""

import math
import re

import numpy as np
import pytest

from regimevol import (
    FrechetParams,
    InvGammaParams,
    JumpParams,
    JumpPriors,
    ParameterError,
    StableModelParams,
    StablePriors,
    jump_convolved_logpdf,
)
from regimevol.distributions import jump_convolved_logpdf_counts, stable_sample
from regimevol.errors import check_positive
from regimevol.mcmc import AdaptiveRw, check_scale_ladder, normal_normal_update

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
