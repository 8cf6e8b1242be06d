"""CSV ingestion and the dated-series containers.

Input schemas: price files carry a ``date,price`` header, reference-index
files ``date,value``, both with ``YYYY-MM-DD`` dates, strictly increasing,
and values written as ASCII decimal numbers.
Every input file, the run configuration too, is read whole by ``read_text``:
as UTF-8 on every platform, with a leading byte-order mark ignored.  Parse
and validation failures name the offending line.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .errors import DataError, RegimevolError

__all__ = [
    "DatedSeries",
    "read_text",
    "load_prices_csv",
    "load_reference_csv",
    "log_returns",
    "align_series",
]


@dataclass
class DatedSeries:
    """Values indexed by strictly increasing dates (prices, index levels, returns)."""

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


def read_text(path: Path, error: type[RegimevolError] = DataError) -> str:
    """The whole file at ``path`` as text; a failure raises ``error``, the
    caller's documented class.  The bytes are decoded as plain UTF-8, which
    reads a byte-order mark as a character, so an undecodable byte's line is
    counted in the raw file, the mark's bytes included."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise error(f"cannot open {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None
    return text.removeprefix("\ufeff")


def _read_dated_csv(path: str | Path, value_header: str) -> DatedSeries:
    path = Path(path)
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    dates: list[date] = []
    values: list[float] = []
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
        text = row[0].strip()
        try:
            # YYYY-MM-DD only: Python 3.11's fromisoformat also reads compact
            # and week dates, which 3.10 refuses
            if len(text) != 10 or text[4] != "-" or text[7] != "-":
                raise ValueError(text)
            d = date.fromisoformat(text)
        except ValueError:
            raise DataError(
                f"{path}: line {lineno}: invalid ISO date {row[0]!r}"
            ) from None
        try:
            # float also reads digit-group underscores and non-ASCII digits
            if not row[1].strip().isascii() or "_" in row[1]:
                raise ValueError(row[1])
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


def log_returns(prices: DatedSeries) -> DatedSeries:
    """y_t = ln(p_t / p_{t-1}); output is one shorter than the input.  Every
    price must be finite and > 0, so every return is finite."""
    if len(prices) < 2:
        raise DataError("need at least two prices to form returns")
    v = prices.values
    bad = np.flatnonzero(~((v > 0) & (v < np.inf)))
    if bad.size:
        raise DataError(f"price must be finite and > 0, got {v[bad[0]]} at {prices.dates[bad[0]]}")
    return DatedSeries(dates=prices.dates[1:], values=np.diff(np.log(v)), source=prices.source)


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
