"""Run configuration: one JSON file, overridden by CLI flags (flags win).
The file is read by ``dataio.read_text``, as the data files are: as UTF-8,
with a leading byte-order mark ignored, and a byte that is not UTF-8 named
by its line.

The seed is mandatory — every fit must be reproducible.  Hyperparameters the
source material never pins (the u ladder, Dirichlet rows, inverse-Gamma rate)
have documented defaults here; the inverse-Gamma rate defaults to a
data-scale-aware value at fit time so the prior is weakly informative on any
return scale.

Most fields feed both models.  ``b``, ``u`` and ``fix_mean_zero`` are read by
the jump model only, ``alpha`` and ``lambda_floor`` by the stable model only,
and ``dirichlet_diag`` only when there are at least 3 states (the rows of
states 1 and 2 are uniform).  ``fix_mean_zero`` left unset takes the model's
own default: pinned means for the jump model, free means for the stable
model, which has no pinned-mean path and so refuses an explicit true.

This module states no domain rule of its own: ``validate`` checks each
field's type here, then hands every value to the check the package applies
where the value is used, and reports that check's message as a ConfigError.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .dataio import read_text
from .distributions import FrechetParams, InvGammaParams, check_alpha
from .errors import ConfigError, DataError, ParameterError, check_integer, check_positive
from .jump_model import JumpPriors, check_u_cap, check_u_ladder, default_u_ladder
from .regime import default_dirichlet_rows
from .stable_model import StablePriors

__all__ = [
    "RunConfig",
    "load_config",
    "build_jump_priors",
    "build_stable_priors",
]

_MODELS = ("jump", "stable")
# the fields that must be finite and > 0; sigma_rate only when given
_POSITIVE = ("b", "k", "sigma_shape", "sigma_rate", "frechet_shape", "frechet_scale",
             "dirichlet_diag", "lambda_floor", "step_scale")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return _is_real(value) and math.isfinite(value)


# a field's declared type, less any "| None" -> (check, what the message asks
# for); a bool is neither an integer nor a number here, and a number must be
# finite, as JSON parses NaN and Infinity
_TYPE_CHECKS = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "int": (lambda v: _is_real(v) and isinstance(v, numbers.Integral), "an integer"),
    "float": (_is_finite, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "list[float]": (lambda v: isinstance(v, list) and all(map(_is_finite, v)),
                    "a list of finite numbers"),
}


@dataclass
class RunConfig:
    model: str
    seed: int
    states: int = 4
    iters: int = 20000
    burnin: int = 5000
    b: float = 40.0
    alpha: float = 1.7
    k: float = 1.0
    sigma_shape: float = 2.0
    sigma_rate: float | None = None  # None -> (shape-1) * var(y)/4 at fit time
    frechet_shape: float = 2.0
    frechet_scale: float = 0.5
    u: list[float] | None = None  # None -> 0.5, 1, 2, 4, ...
    dirichlet_diag: float = 8.0
    lambda_floor: float = 1e-6
    fix_mean_zero: bool | None = None  # None -> the model's own default
    step_scale: float = 0.4
    data: str | None = None
    reference: str | None = None
    out: str | None = None

    def validate(self) -> "RunConfig":
        if self.model not in _MODELS:
            raise ConfigError(f"model must be one of {_MODELS}, got {self.model!r}")
        if self.seed is None:
            raise ConfigError("a seed is mandatory (reproducibility contract)")
        for f in fields(self):
            value = getattr(self, f.name)
            kind = f.type.removesuffix(" | None")
            if value is None and kind != f.type:
                continue
            check, expected = _TYPE_CHECKS[kind]
            if not check(value):
                optional = " or null" if kind != f.type else ""
                raise ConfigError(f"{f.name} must be {expected}{optional}, got {value!r}")
        if self.model == "stable" and self.fix_mean_zero:
            raise ConfigError("fix_mean_zero pins jump-model means; stable means are free")
        try:
            check_integer("seed", self.seed)
            check_integer("states", self.states, 1)
            check_integer("iters", self.iters, 1)
            check_integer("burnin", self.burnin, 0, self.iters - 1)
            if self.u is not None and len(self.u) != self.states:
                raise ConfigError(f"u must have one entry per state ({self.states}), got {self.u}")
            for name in _POSITIVE:
                if getattr(self, name) is not None:
                    check_positive(name, getattr(self, name))
            check_alpha(self.alpha)
            u = check_u_ladder(_u_ladder(self))
            if self.model == "jump":
                check_u_cap(u)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc
        return self


def load_config(path: str | Path | None = None, **overrides) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus keyword overrides.

    Unknown file keys are rejected; overrides equal to None are ignored so
    CLI flags only apply when actually given.
    """
    values: dict = {}
    if path is not None:
        try:
            values = json.loads(read_text(Path(path), ConfigError))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(values, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = set(values) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    missing = [key for key in ("model", "seed") if key not in values]
    if missing:
        raise ConfigError(f"missing required config keys: {missing}")
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg.validate()


def _sigma_rate(cfg: RunConfig, data: np.ndarray) -> float:
    if cfg.sigma_rate is not None:
        return cfg.sigma_rate
    # weakly informative on the data's own scale: prior mean ~ var(y)/4
    var = float(np.var(data))
    if not var > 0:
        raise DataError(
            f"the return series has zero variance over its {np.size(data)} values; "
            "a constant price series has no volatility to fit"
        )
    return max((cfg.sigma_shape - 1.0), 0.5) * var / 4.0


def _u_ladder(cfg: RunConfig) -> np.ndarray | list[float]:
    """The intensity endpoints: ``cfg.u`` when given, else the default ladder."""
    return default_u_ladder(cfg.states) if cfg.u is None else cfg.u


def build_jump_priors(cfg: RunConfig, data: np.ndarray) -> JumpPriors:
    return JumpPriors(
        k=cfg.k,
        sigma_prior=InvGammaParams(cfg.sigma_shape, _sigma_rate(cfg, data)),
        frechet=FrechetParams(cfg.frechet_shape, cfg.frechet_scale),
        u=_u_ladder(cfg),
        dirichlet_rows=default_dirichlet_rows(cfg.states, cfg.dirichlet_diag),
        fix_mean_zero=cfg.fix_mean_zero is not False,  # unset -> pinned
    )


def build_stable_priors(cfg: RunConfig, data: np.ndarray) -> StablePriors:
    return StablePriors(
        k=cfg.k,
        scale_prior=InvGammaParams(cfg.sigma_shape, _sigma_rate(cfg, data)),
        frechet=FrechetParams(cfg.frechet_shape, cfg.frechet_scale),
        dirichlet_rows=default_dirichlet_rows(cfg.states, cfg.dirichlet_diag),
        lambda_floor=cfg.lambda_floor,
    )
