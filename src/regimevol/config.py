"""Run configuration: one JSON file, overridden by CLI flags (flags win).

The seed is mandatory — every fit must be reproducible.  Hyperparameters the
source material never pins (the u ladder, Dirichlet rows, inverse-Gamma rate)
have documented defaults here; the inverse-Gamma rate defaults to a
data-scale-aware value at fit time so the prior is weakly informative on any
return scale.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .distributions import FrechetParams, InvGammaParams
from .errors import ConfigError, DataError, ParameterError
from .jump_model import JumpPriors, check_u_cap, default_u_ladder
from .regime import default_dirichlet_rows
from .stable_model import StablePriors

__all__ = [
    "RunConfig",
    "load_config",
    "build_jump_priors",
    "build_stable_priors",
]

_MODELS = ("jump", "stable")


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
    fix_mean_zero: bool = True
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.states < 1:
            raise ConfigError(f"need at least one state, got {self.states}")
        if not 0 <= self.burnin < self.iters:
            raise ConfigError(
                f"need 0 <= burnin < iters, got burnin={self.burnin} iters={self.iters}"
            )
        if not self.b > 0:
            raise ConfigError(f"jump amplitude rate b must be > 0, got {self.b}")
        if not 1.0 < self.alpha < 2.0:
            raise ConfigError(f"alpha must lie in (1, 2), got {self.alpha}")
        for name in ("k", "sigma_shape", "frechet_shape", "frechet_scale",
                     "dirichlet_diag", "lambda_floor", "step_scale"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.sigma_rate is not None and not self.sigma_rate > 0:
            raise ConfigError(f"sigma_rate must be > 0, got {self.sigma_rate}")
        if self.u is not None:
            u = np.asarray(self.u, dtype=float)
            if u.size != self.states or np.any(u <= 0) or np.any(np.diff(u) <= 0):
                raise ConfigError(
                    "u must be a strictly increasing positive vector with one entry per state"
                )
        if self.model == "jump":
            try:
                check_u_cap(default_u_ladder(self.states) if self.u is None else u)
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
            with Path(path).open() as handle:
                values = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
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


def build_jump_priors(cfg: RunConfig, data: np.ndarray) -> JumpPriors:
    u = np.asarray(cfg.u, dtype=float) if cfg.u is not None else default_u_ladder(cfg.states)
    return JumpPriors(
        k=cfg.k,
        sigma_prior=InvGammaParams(cfg.sigma_shape, _sigma_rate(cfg, data)),
        frechet=FrechetParams(cfg.frechet_shape, cfg.frechet_scale),
        u=u,
        dirichlet_rows=default_dirichlet_rows(cfg.states, cfg.dirichlet_diag),
        fix_mean_zero=cfg.fix_mean_zero,
    )


def build_stable_priors(cfg: RunConfig, data: np.ndarray) -> StablePriors:
    return StablePriors(
        k=cfg.k,
        scale_prior=InvGammaParams(cfg.sigma_shape, _sigma_rate(cfg, data)),
        frechet=FrechetParams(cfg.frechet_shape, cfg.frechet_scale),
        dirichlet_rows=default_dirichlet_rows(cfg.states, cfg.dirichlet_diag),
        lambda_floor=cfg.lambda_floor,
    )
