"""Exception hierarchy shared across the package, and its parameter checks.

The CLI maps these onto exit codes: ConfigError -> 2, NumericalError (and
subclasses) -> 3, DataError -> 4.  Four checks hold the package's
parameter rules, one per kind of argument: ``check_positive`` for a scalar
that must be finite and > 0 (a scale, rate, shape, precision or floor),
``check_integer`` for an integer (a count, a size or a state index) and its
range, ``check_vector`` for the shape of a vector argument, and
``check_entries`` for an array argument's entries: it names the first row or
index that fails the caller's test.  Every module can import them without an
import cycle.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RegimevolError",
    "ParameterError",
    "ConfigError",
    "DataError",
    "NumericalError",
    "FilterDegeneracyError",
    "check_positive",
    "check_integer",
    "check_vector",
    "check_entries",
]


class RegimevolError(Exception):
    """Base class for all package errors.

    A sampler sweep that fails sets ``stage`` (the update that raised) and
    ``run_chain`` sets ``iteration``; both show in ``str()`` and leave the
    exception's class untouched.
    """

    stage: str | None = None
    iteration: int | None = None

    def __str__(self) -> str:
        where = []
        if self.iteration is not None:
            where.append(f"sweep failed at iteration {self.iteration}")
        if self.stage is not None:
            where.append(f"stage {self.stage}")
        message = super().__str__()
        return f"{', '.join(where)}: {message}" if where else message


class ParameterError(RegimevolError, ValueError):
    """A parameter lies outside its valid domain."""


class ConfigError(RegimevolError, ValueError):
    """Invalid run configuration (bad file, missing seed, out-of-domain value)."""


class DataError(RegimevolError, ValueError):
    """Unusable input data (malformed CSV rows, unsorted dates, bad prices)."""


class NumericalError(RegimevolError, RuntimeError):
    """A numerical procedure failed (quadrature non-convergence, degeneracy)."""


class FilterDegeneracyError(NumericalError):
    """Every state had zero likelihood at some time step."""


def check_positive(name: str, value: float) -> None:
    """ParameterError naming ``name`` unless 0 < ``value`` < inf; NaN fails too."""
    if not 0.0 < value < np.inf:
        raise ParameterError(f"{name} must be finite and > 0, got {value}")


def check_integer(name: str, value, low: int = 0, high: int | None = None) -> int:
    """``value`` as an int; ParameterError naming ``name`` unless it is an
    integer (a numpy integer too, a bool not) with ``low <= value``, and
    ``value <= high`` when ``high`` is given."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        if high is None:
            raise ParameterError(f"{name} must be an integer >= {low}, got {value}")
        raise ParameterError(f"{name} must lie in {low}..{high}, got {value}")
    return int(value)


def check_vector(name: str, values, dtype=float) -> np.ndarray:
    """``values`` as an array of ``dtype`` (its own when None); ParameterError
    naming ``name`` and the shape unless it is 1-D."""
    values = np.asarray(values, dtype=dtype)
    if values.ndim != 1:
        raise ParameterError(f"{name} must be a 1-D vector, got shape {values.shape}")
    return values


def check_entries(ok: np.ndarray, what: str, values: np.ndarray) -> None:
    """ParameterError naming the first row (2-D ``values``) or index (1-D)
    where ``ok`` holds a False.  The first axis of ``ok`` indexes ``values``;
    a row passes when all its entries in ``ok`` are True.  Each caller writes
    ``ok`` so that NaN fails it."""
    # count_nonzero is the cheapest all-true test numpy has
    if np.count_nonzero(ok) != ok.size:
        # argwhere lists the False entries row by row, so the first is in the first bad row
        i = int(np.argwhere(~np.atleast_1d(ok))[0, 0])
        where = "row" if np.ndim(values) == 2 else "index"
        raise ParameterError(f"{what}; {where} {i} is {np.atleast_1d(values)[i]}")
