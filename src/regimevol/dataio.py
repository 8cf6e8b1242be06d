"""CSV ingestion and the dated-series containers.

Input schemas: price files carry a ``date,price`` header, reference-index
files ``date,value``, both with ISO-8601 dates, strictly increasing.  Parse
and validation failures name the offending line.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = [
    "DatedSeries",
    "ReturnSeries",
    "load_prices_csv",
    "load_reference_csv",
    "log_returns",
    "align_series",
]


@dataclass
class DatedSeries:
    """Values indexed by strictly increasing dates (prices, index levels)."""

    dates: list[date]
    values: np.ndarray
    source: str = ""

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if len(self.dates) != self.values.size:
            raise DataError("dates and values have different lengths")
        for a, b in zip(self.dates, self.dates[1:]):
            if not a < b:
                raise DataError(f"dates must be strictly increasing ({a} !< {b})")

    def __len__(self) -> int:
        return self.values.size


@dataclass
class ReturnSeries(DatedSeries):
    """Log returns with provenance; fitting requires at least two finite values."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not np.all(np.isfinite(self.values)):
            raise DataError("return series contains non-finite values")


def _read_dated_csv(path: str | Path, value_header: str) -> DatedSeries:
    path = Path(path)
    try:
        handle = path.open(newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    dates: list[date] = []
    values: list[float] = []
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        expected = ["date", value_header]
        if [h.strip().lower() for h in header] != expected:
            raise DataError(
                f"{path}: line 1: expected header {','.join(expected)!r}, got {','.join(header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # tolerate trailing blank lines
            if len(row) != 2:
                raise DataError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            try:
                d = date.fromisoformat(row[0].strip())
            except ValueError:
                raise DataError(
                    f"{path}: line {lineno}: invalid ISO date {row[0]!r}"
                ) from None
            try:
                v = float(row[1])
            except ValueError:
                raise DataError(
                    f"{path}: line {lineno}: non-numeric {value_header} {row[1]!r}"
                ) from None
            if not math.isfinite(v):
                raise DataError(f"{path}: line {lineno}: non-finite {value_header}")
            if dates:
                if d == dates[-1]:
                    raise DataError(f"{path}: line {lineno}: duplicated date {d}")
                if d < dates[-1]:
                    raise DataError(f"{path}: line {lineno}: dates out of order at {d}")
            dates.append(d)
            values.append(v)
    if not dates:
        raise DataError(f"{path}: no data rows")
    return DatedSeries(dates=dates, values=np.array(values), source=str(path))


def load_prices_csv(path: str | Path) -> DatedSeries:
    """Read a ``date,price`` CSV into a validated, ordered price series."""
    return _read_dated_csv(path, "price")


def load_reference_csv(path: str | Path) -> DatedSeries:
    """Read a ``date,value`` CSV (the reference volatility index)."""
    return _read_dated_csv(path, "value")


def log_returns(prices: DatedSeries) -> ReturnSeries:
    """y_t = ln(p_t / p_{t-1}); output is one shorter than the input."""
    if len(prices) < 2:
        raise DataError("need at least two prices to form returns")
    if np.any(prices.values <= 0):
        bad = int(np.nonzero(prices.values <= 0)[0][0])
        raise DataError(
            f"nonpositive price {prices.values[bad]} at {prices.dates[bad]}"
        )
    return ReturnSeries(
        dates=prices.dates[1:],
        values=np.diff(np.log(prices.values)),
        source=prices.source,
    )


def align_series(
    a: DatedSeries, b: DatedSeries
) -> tuple[list[date], np.ndarray, np.ndarray, int]:
    """Inner join on dates; returns (dates, a values, b values, dropped count)."""
    index_b = {d: i for i, d in enumerate(b.dates)}
    keep = [(d, i, index_b[d]) for i, d in enumerate(a.dates) if d in index_b]
    dropped = (len(a) - len(keep)) + (len(b) - len(keep))
    if not keep:
        raise DataError("the two series share no dates")
    dates = [d for d, _, _ in keep]
    a_vals = a.values[[i for _, i, _ in keep]]
    b_vals = b.values[[j for _, _, j in keep]]
    return dates, a_vals, b_vals, dropped
