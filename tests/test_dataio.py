import ast
from datetime import date
from pathlib import Path

import numpy as np
import pytest

import regimevol
from regimevol import (
    DataError,
    DatedSeries,
    align_series,
    load_prices_csv,
    load_reference_csv,
    log_returns,
)


def _write(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_prices_and_log_returns(tmp_path):
    path = _write(tmp_path, "date,price\n2020-01-01,100\n2020-01-02,110\n2020-01-03,99\n\n")
    prices = load_prices_csv(path)
    assert prices.dates == [date(2020, 1, 1), date(2020, 1, 2), date(2020, 1, 3)]
    assert prices.source == str(path)
    returns = log_returns(prices)
    assert returns.dates == prices.dates[1:]
    np.testing.assert_allclose(returns.values, np.log([110 / 100, 99 / 110]), rtol=1e-14)


@pytest.mark.parametrize(
    "body, message",
    [
        ("date,close\n2020-01-01,1\n", "line 1: expected header 'date,price'"),
        ("date,price\n2020-01-01,1\n2020-01-02,2,3\n", "line 3: expected 2 fields, got 3"),
        ("date,price\n2020-13-01,1\n", "line 2: invalid ISO date '2020-13-01'"),
        # compact and week dates: Python 3.11's date.fromisoformat reads them
        # and 3.10 refuses them, so one file would load on one version only
        ("date,price\n20200101,1\n", "line 2: invalid ISO date '20200101'"),
        ("date,price\n2020-W01-1,1\n", "line 2: invalid ISO date '2020-W01-1'"),
        ("date,price\n2020-01-01,1\n2020-01-02,abc\n", "line 3: non-numeric price 'abc'"),
        ("date,price\n2020-01-01,inf\n", "line 2: non-finite price"),
        ("date,price\n2020-01-01,1\n2020-01-01,2\n", "line 3: duplicated date 2020-01-01"),
        ("date,price\n2020-01-02,1\n2020-01-01,2\n", "line 3: dates out of order at 2020-01-01"),
        ("", "file is empty"),
        ("date,price\n\n", "no data rows"),
    ],
)
def test_csv_errors_name_the_line(tmp_path, body, message):
    path = _write(tmp_path, body)
    with pytest.raises(DataError) as info:
        load_prices_csv(path)
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)


@pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662", "\uff11\uff12"],
                         ids=["underscore", "arabic_indic", "full_width"])
def test_prices_are_ascii_decimal_numbers(tmp_path, cell):
    # Python's float reads all three, as 1000.0 and 12.0
    path = tmp_path / "prices.csv"
    path.write_text(f"date,price\n2020-01-01,1\n2020-01-02,{cell}\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"line 3: non-numeric price '{cell}'$"):
        load_prices_csv(path)


@pytest.mark.parametrize("good_rows", [1, 2000])
def test_undecodable_bytes_are_a_data_error_naming_the_line(tmp_path, good_rows):
    # 2000 rows put the bad byte past the first chunk the text layer decodes
    rows = "".join(f"{date.fromordinal(737425 + i)},{100 + i}\n" for i in range(good_rows))
    path = tmp_path / "prices.csv"
    path.write_bytes(b"date,price\n" + rows.encode() + b"2030-01-01,1\xff\n")
    with pytest.raises(DataError) as info:
        load_prices_csv(path)
    assert str(info.value) == f"{path}: line {good_rows + 2}: not UTF-8 text (invalid start byte)"


def test_leading_byte_order_mark_is_ignored(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_bytes(b"\xef\xbb\xbfdate,price\n2020-01-01,100\n2020-01-02,110\n")
    prices = load_prices_csv(path)
    assert prices.dates == [date(2020, 1, 1), date(2020, 1, 2)]
    np.testing.assert_array_equal(prices.values, [100.0, 110.0])


def test_undecodable_byte_after_a_byte_order_mark_names_its_line(tmp_path):
    # the bad byte opens line 3: an offset counted from after the mark's three
    # bytes would stop short of the newline before it and name line 2
    path = tmp_path / "prices.csv"
    path.write_bytes(b"\xef\xbb\xbfdate,price\n2020-01-01,100\n\xff2020-01-02,110\n")
    with pytest.raises(DataError) as info:
        load_prices_csv(path)
    assert str(info.value) == f"{path}: line 3: not UTF-8 text (invalid start byte)"


def test_reference_csv_uses_value_header(tmp_path):
    path = _write(tmp_path, "date,value\n2020-01-01,12.5\n2020-01-02,x\n", "reference.csv")
    with pytest.raises(DataError, match="line 3: non-numeric value 'x'"):
        load_reference_csv(path)


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot open"):
        load_prices_csv(tmp_path / "absent.csv")


@pytest.mark.parametrize("price", [0.0, np.nan, np.inf, -np.inf])
def test_log_returns_rejects_nonpositive_price(price):
    prices = DatedSeries([date(2020, 1, 1), date(2020, 1, 2)], np.array([1.0, price]))
    with pytest.raises(DataError) as info:
        log_returns(prices)
    assert str(info.value) == f"price must be finite and > 0, got {price} at 2020-01-02"


def test_align_series_inner_join():
    days = [date(2020, 1, d) for d in range(1, 6)]
    a = DatedSeries(days[:4], np.arange(4.0))
    b = DatedSeries(days[1:], 10.0 + np.arange(4.0))
    dates, a_vals, b_vals, dropped = align_series(a, b)
    assert dates == days[1:4]
    np.testing.assert_array_equal(a_vals, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(b_vals, [10.0, 11.0, 12.0])
    assert dropped == 2
    with pytest.raises(DataError, match="share no dates"):
        align_series(DatedSeries(days[:1], [1.0]), DatedSeries(days[1:2], [1.0]))


def test_files_are_read_by_read_text_only():
    # one decoding rule for every input file: no other code in the package
    # opens or reads a file itself
    package = Path(regimevol.__file__).parent
    calls = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(inner) for node in tree.body if path.name == "dataio.py"
                   and isinstance(node, ast.FunctionDef) and node.name == "read_text"
                   for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            func = node.func
            if ((isinstance(func, ast.Name) and func.id == "open")
                    or (isinstance(func, ast.Attribute)
                        and func.attr in ("open", "read_bytes", "read_text"))):
                calls.append(f"{path.name}:{node.lineno}")
    assert not calls, f"files read outside dataio.read_text: {calls}"
