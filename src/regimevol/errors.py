"""Exception hierarchy shared across the package, and its one positivity check.

The CLI maps these onto exit codes: ConfigError -> 2, NumericalError (and
subclasses) -> 3, DataError -> 4.  ``check_positive`` is the one rule for a
scalar that must be finite and > 0 (a scale, rate, shape, precision or
floor); every module can import it without an import cycle.
"""

from __future__ import annotations

import math

__all__ = [
    "RegimevolError",
    "ParameterError",
    "ConfigError",
    "DataError",
    "NumericalError",
    "FilterDegeneracyError",
    "check_positive",
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
    if not 0.0 < value < math.inf:
        raise ParameterError(f"{name} must be finite and > 0, got {value}")
