import json
import math
import re

import numpy as np
import pytest

from regimevol import (
    ConfigError,
    ParameterError,
    RunConfig,
    StableModelParams,
    build_jump_priors,
    load_config,
    positive_stable_logpdf,
)


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", "x"),
        ("seed", 1.5),
        ("seed", -3),
        ("seed", True),
        ("states", 2.5),
        ("states", True),
        ("iters", "100"),
        ("burnin", False),
        ("b", True),
        ("alpha", "1.7"),
        ("sigma_rate", "0.1"),
        ("u", [0.5, "1"]),
        ("fix_mean_zero", "no"),
        ("fix_mean_zero", 0),
        ("data", 3),
    ],
)
def test_wrong_field_type_is_config_error_naming_the_field(tmp_path, field, value):
    values = {"model": "jump", "seed": 1, "states": 2, "iters": 10, "burnin": 2}
    values[field] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(values))
    with pytest.raises(ConfigError, match=rf"^{field} must be"):
        load_config(path)
    with pytest.raises(ConfigError, match=rf"^{field} must be"):
        RunConfig(**values).validate()


@pytest.mark.parametrize(
    "field, value",
    [
        ("b", math.inf),
        ("alpha", -math.inf),
        ("k", math.inf),
        ("sigma_shape", math.inf),
        ("sigma_rate", math.inf),
        ("frechet_shape", math.inf),
        ("frechet_scale", math.inf),
        ("u", [0.5, math.inf]),
        ("dirichlet_diag", math.inf),
        ("lambda_floor", math.inf),
        ("step_scale", math.inf),
    ],
)
def test_non_finite_number_is_config_error_naming_the_field(tmp_path, field, value):
    values = {"model": "jump", "seed": 1, "states": 2, "iters": 10, "burnin": 2}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**values, field: value}))  # written as Infinity
    with pytest.raises(ConfigError, match=rf"^{field} must be a"):
        load_config(path)
    with pytest.raises(ConfigError, match=rf"^{field} must be a"):
        load_config(None, **values, **{field: value})


def test_valid_config_loads_with_overrides(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": "stable", "seed": 0, "states": 2, "burnin": 10,
                                "u": [1, 2.5]}))
    cfg = load_config(path, iters=100, seed=None)  # None overrides are ignored
    assert (cfg.seed, cfg.iters, cfg.burnin, cfg.u) == (0, 100, 10, [1, 2.5])
    assert cfg.fix_mean_zero is None  # the model's own default: free means for stable


_POSITIVE_FIELDS = ("b", "k", "sigma_shape", "sigma_rate", "frechet_shape", "frechet_scale",
                    "dirichlet_diag", "lambda_floor", "step_scale")


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("field", _POSITIVE_FIELDS)
def test_non_positive_field_is_config_error_with_the_package_message(field, value):
    for model in ("jump", "stable"):
        with pytest.raises(ConfigError, match=rf"^{field} must be finite and > 0, got {value}$"):
            load_config(model=model, seed=1, states=2, **{field: value})


@pytest.mark.parametrize("alpha", [1.0, 2.0, 0.5])
def test_alpha_outside_the_open_interval_gives_one_message_everywhere(alpha):
    message = f"^{re.escape(f'alpha must lie in (1, 2), got {alpha}')}$"
    with pytest.raises(ParameterError, match=message):
        StableModelParams(mu=np.zeros(2), gamma1_sq=1.0, h_star=[2.0], lam=1.0, alpha=alpha)
    with pytest.raises(ParameterError, match=message):
        positive_stable_logpdf(1.0, alpha)
    with pytest.raises(ConfigError, match=message):
        load_config(model="stable", seed=1, alpha=alpha)


@pytest.mark.parametrize("model", ["jump", "stable"])
def test_u_with_the_wrong_length_is_config_error(model):
    message = r"^u must have one entry per state \(3\), got \[0.5, 1\]$"
    with pytest.raises(ConfigError, match=message):
        load_config(model=model, seed=1, states=3, u=[0.5, 1])


@pytest.mark.parametrize("u, bad", [([1.0, 1.0], 1), ([2.0, 1.0], 1), ([-1.0, 1.0], 0)],
                         ids=["u0", "u1", "u2"])
@pytest.mark.parametrize("model", ["jump", "stable"])
def test_u_that_is_not_a_positive_increasing_ladder_is_config_error(model, u, bad):
    message = f"intensity endpoints u must be finite, > 0 and increasing; index {bad} is {u[bad]}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_config(model=model, seed=1, states=2, u=u)
    # JumpPriors applies the same rule with the same words
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        build_jump_priors(RunConfig(model=model, seed=1, states=2, u=u), np.array([0.1, -0.2]))


def test_unset_fix_mean_zero_takes_the_model_default():
    y = np.array([0.1, -0.2, 0.05, 0.3])
    assert build_jump_priors(load_config(model="jump", seed=1, states=2), y).fix_mean_zero
    assert not build_jump_priors(
        load_config(model="jump", seed=1, states=2, fix_mean_zero=False), y).fix_mean_zero
    load_config(model="stable", seed=1, fix_mean_zero=False)
    # the stable model has no pinned-mean path, so an explicit true is refused
    with pytest.raises(ConfigError, match=r"^fix_mean_zero pins jump-model means"):
        load_config(model="stable", seed=1, fix_mean_zero=True)


@pytest.mark.parametrize("values", [{"states": 10}, {"states": 2, "u": [760.0, 800.0]}],
                         ids=["default-ladder", "u"])
def test_jump_intensities_past_the_count_cap_are_config_errors(values):
    with pytest.raises(ConfigError, match=r"^intensity endpoints u = .* up to 155\.4"):
        load_config(model="jump", seed=1, **values)
    load_config(model="stable", seed=1, **values)  # the stable model has no intensities
    load_config(model="jump", seed=1, states=9)


def test_config_file_is_utf8_with_an_optional_byte_order_mark(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"model": "stable", "seed": 4}).encode())
    assert load_config(path).seed == 4
    # a byte that is not UTF-8 is named by its line, as in a data file
    path.write_bytes(b'{"model": "stable",\n "seed": 4,\n "data": "\xff.csv"}\n')
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path}: line 3: not UTF-8 text (invalid start byte)"


def test_missing_config_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="^cannot open .*absent.json"):
        load_config(tmp_path / "absent.json")
