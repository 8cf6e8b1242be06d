import json
import math

import pytest

from regimevol import ConfigError, RunConfig, load_config


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
    assert cfg.fix_mean_zero is True


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
    # a byte that is not UTF-8 was a bare UnicodeDecodeError
    path.write_bytes(b'{"model": "stable", "seed": 4, "data": "\xff.csv"}')
    with pytest.raises(ConfigError, match=r"is not valid JSON: 'utf-8' codec can't decode byte 0xff"):
        load_config(path)
