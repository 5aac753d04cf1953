import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from motlaser import results
from motlaser.results import ScanResultTable, format_cell, format_e17


_FLOAT_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                     -2.2250738585072014e-308, 1e17]))
_CELLS = st.one_of(
    _FLOAT_CELLS,
    _FLOAT_CELLS.map(np.float64),
    st.integers(-2**70, 2**70),
    st.booleans(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.none(),
    st.text(st.characters(blacklist_characters=",\n\r",
                          blacklist_categories=("Cs",))),
    st.sampled_from(["%", "%s", "%.17e", "100%", "nan", "-nan", "banana",
                     "a.clks", ""]))


@settings(max_examples=300, deadline=None)
@example([(0.1, math.nan, None, 7, "a.clks"),
          (-1e-300, 2.5, 0, -3, ""),
          (None, math.inf, 1e17, 2**62, "x y")])
@given(st.integers(1, 6).flatmap(
    lambda width: st.lists(st.lists(_CELLS, min_size=width,
                                    max_size=width).map(tuple),
                           max_size=12)))
def test_csv_text_equals_per_cell_formatting(rows):
    # the columnar writer must give the bytes of the per-cell oracle
    width = len(rows[0]) if rows else 3
    columns = [f"c{k}" for k in range(width)]
    table = ScanResultTable(columns)
    table.set_columns(*[[row[k] for row in rows] for k in range(width)])
    want = ",".join(columns) + "\n" + "".join(
        ",".join(map(format_cell, row)) + "\n" for row in rows)
    assert table.csv_text() == want


def test_float_and_text_columns_of_row_tables():
    table = ScanResultTable(["x", "n", "s"])
    table.set_columns([0.5, np.float64(-0.0), math.nan, None],
                      [3, np.int64(-7), True, None],
                      ["100%", "%s", "x", None])
    assert table.csv_text() == (
        "x,n,s\n"
        "5.00000000000000000e-01,3,100%\n"
        "-0.00000000000000000e+00,-7,%s\n"
        ",True,x\n"
        ",,\n")


def test_tolist_cells_format_like_numpy_scalars():
    # an array column stands for its tolist() cells; rows held numpy scalars
    lags = np.array([-2.6e-6, 0.0, 1.0 / 3.0, np.nan])
    counts = np.array([0, 5, 2**40, -1], dtype=np.int64)
    for x, y in zip(lags.tolist(), lags):
        assert format_cell(x) == format_cell(float(y))
    for x, y in zip(counts.tolist(), counts):
        assert format_cell(x) == format_cell(int(y))


def _kernel_lines(values) -> list:
    """format_e17 of each value, decoded; the kernel's pad byte dropped."""
    out = format_e17(values)
    lines = np.concatenate([out, np.full((len(out), 1), 10, np.uint8)], axis=1)
    return lines.tobytes().translate(None, b"\xff").decode().split("\n")[:-1]


def _assert_matches_printf(values):
    values = np.asarray(values, np.float64)
    if values.size:
        # repeated up to the size at which the array kernel takes over
        values = np.tile(values, -(-results._SMALL // values.size))
    want = ["" if math.isnan(v) else "%.17e" % v for v in values.tolist()]
    got = _kernel_lines(values)
    assert len(got) == len(want)
    bad = [(v, w, g) for v, w, g in zip(values.tolist(), want, got) if w != g]
    assert not bad, bad[:5]


def test_kernel_matches_printf_on_random_bit_patterns():
    bits = np.random.default_rng(17).integers(0, 2**64, 2**20,
                                                 dtype=np.uint64)
    # every one of the 2048 biased exponents occurs
    assert np.unique(bits >> np.uint64(52) & np.uint64(0x7FF)).size == 2048
    _assert_matches_printf(bits.view(np.float64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), max_size=50))
def test_kernel_matches_printf_on_hypothesis_floats(values):
    _assert_matches_printf(values)


def test_kernel_matches_printf_on_exact_ties():
    # m / 2**s with odd m < 2**53 is exactly T / 10**s with T = m * 5**s:
    # with 19 digits T ends in 5, a tie at the 18th significant digit
    rng = np.random.default_rng(5)
    ties, halves = [], []
    for s in range(5, 27):
        lo, hi = -(-10**18 // 5**s), min(10**19 // 5**s, 2**53)
        for m in rng.integers(lo, hi, 200).tolist():
            m |= 1
            if 10**18 <= m * 5**s < 10**19:
                ties.append(m / 2**s)
                halves.append(m * 5**s // 10)
    assert len(ties) > 3000
    digits = [int(("%.17e" % v).split("e")[0].replace(".", ""))
              for v in ties]
    # Python rounds half to even, up from some ties and down from others
    assert all(d % 2 == 0 and d - h in (0, 1) for d, h in zip(digits, halves))
    assert 0 < sum(d - h for d, h in zip(digits, halves)) < len(ties)
    ties = np.array(ties)
    _assert_matches_printf(np.concatenate([ties, -ties]))


def test_kernel_matches_printf_at_powers_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = np.concatenate([powers, np.nextafter(powers, 0),
                           np.nextafter(powers, np.inf)])
    _assert_matches_printf(np.concatenate([near, -near]))


def test_kernel_specials_and_three_digit_exponents():
    tiny = 5e-324
    specials = [0.0, -0.0, math.inf, -math.inf, tiny, -tiny,
                sys.float_info.max, -sys.float_info.max, sys.float_info.min,
                1e100, -1e-100, 1.5e-250, 2.5e279, 1e280, 9.99e-281, 1e-300]
    _assert_matches_printf(specials)
    assert _kernel_lines([-0.0, math.inf, 1e-100]) == [
        "-0.00000000000000000e+00", "inf", "1.00000000000000002e-100"]


def test_nan_and_none_cells_are_empty():
    table = ScanResultTable(["x", "y"])
    table.set_columns([math.nan, None], [1.0, np.float64(math.nan)])
    assert table.csv_text() == "x,y\n,1.00000000000000000e+00\n,\n"
    columns = ScanResultTable(["x"])
    columns.set_columns(np.array([math.nan, -math.nan, 2.0]))
    assert columns.csv_text() == "x\n\n\n2.00000000000000000e+00\n"


def test_mixed_column_matches_format_cell():
    cells = [0.1, 3, "x", None, math.nan, np.float64(2.5), np.int64(-7),
             True, -1e-300, "", "a\x00b"]
    table = ScanResultTable(["m", "f"])
    table.set_columns(cells, [0.25] * len(cells))
    want = "m,f\n" + "".join(f"{format_cell(v)},2.50000000000000000e-01\n"
                             for v in cells)
    assert table.csv_text() == want


def test_columns_write_the_bytes_of_their_rows():
    # enough float cells for the array kernel, in two columns
    rng = np.random.default_rng(3)
    n = 1000
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    x[::7] = np.nan
    y = np.round(rng.standard_normal(n), 3) * 1e6
    counts = rng.integers(-10**12, 10**12, n)
    labels = np.array(["", "0;37", "74"], dtype=object)[rng.integers(0, 3, n)]
    names = ["x", "n", "y", "families"]
    columns = ScanResultTable(names)
    columns.set_columns(x, counts, y, labels)
    rows = list(zip(x.tolist(), counts.tolist(), y.tolist(),
                    labels.tolist()))
    lists = ScanResultTable(names)
    lists.set_columns(*map(list, zip(*rows)))
    assert len(columns.rows) == n
    assert columns.rows[4] == lists.rows[4] == rows[4]
    want = ",".join(names) + "\n" + "".join(
        ",".join(map(format_cell, row)) + "\n" for row in rows)
    assert columns.csv_text() == lists.csv_text() == want
    assert ScanResultTable(names).csv_text() == ",".join(names) + "\n"
    with pytest.raises(ValueError):
        columns.set_columns(x, counts, y)
    with pytest.raises(ValueError):
        columns.set_columns(x, counts, y, labels[:-1])


def _count_lines(values) -> list:
    """The column's cells as the CSV writer writes them, one per line."""
    table = ScanResultTable(["n"])
    table.set_columns(np.asarray(values, np.int64))
    return table.csv_text().split("\n")[1:-1]


def _assert_counts_match_str(values):
    assert _count_lines(values) == list(map(str, values))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=50))
def test_count_column_matches_str_on_hypothesis_ints(values):
    _assert_counts_match_str(values)


def test_count_column_matches_str_at_powers_of_ten():
    powers = [10**k for k in range(19)]
    _assert_counts_match_str(sorted({0, 1, 2**63 - 1, *powers,
                                     *(p - 1 for p in powers),
                                     *(p + 1 for p in powers)}))
    # a column of zeros, and one with a negative value, which str writes
    _assert_counts_match_str([0])
    _assert_counts_match_str([5, -1, 2**63 - 1, -2**63])


_INDEXED_VALUES = st.one_of(
    st.lists(st.one_of(_FLOAT_CELLS, st.none()), min_size=1, max_size=8),
    st.lists(_FLOAT_CELLS, min_size=1, max_size=8).map(np.array),
    st.lists(st.integers(-2**63, 2**63 - 1), min_size=1,
             max_size=8).map(lambda v: np.array(v, np.int64)),
    st.lists(st.text(st.characters(blacklist_characters=",\n\r",
                                   blacklist_categories=("Cs",))),
             min_size=1, max_size=8))


def _expanded(values, index):
    """The cells of Indexed(values, index) as a plain column."""
    if isinstance(values, np.ndarray):
        return values[index]
    return [values[k] for k in index.tolist()]


@settings(max_examples=300, deadline=None)
@example(([0.5, math.nan, None, -0.0, math.inf, -math.inf],
          [5, 0, 1, 2, 3, 4]))
@example((np.array([1e-300, -0.0, math.nan]), [2, 2, 0, 1] * 200))
@example((np.array([0, 7, -3, 2**40], np.int64), [3, 2, 1, 0, 0]))
@example((["", "0;37", "74"], [1, 0, 2, 1]))
@given(_INDEXED_VALUES.flatmap(lambda values: st.tuples(
    st.just(values),
    st.lists(st.integers(0, len(values) - 1), max_size=600))))
def test_indexed_column_writes_its_expanded_column(values_index):
    values, index = values_index
    index = np.array(index, np.intp)
    other = np.linspace(0.0, 1.0, index.size)
    indexed, expanded = (ScanResultTable(["v", "w"]) for _ in range(2))
    indexed.set_columns(results.Indexed(values, index), other)
    expanded.set_columns(_expanded(values, index), other)
    assert indexed.csv_text() == expanded.csv_text()
    assert len(indexed.rows) == len(expanded.rows) == index.size
    # repr: the same cells, of the same types, NaN included
    assert repr(list(indexed.rows)) == repr(list(expanded.rows))


def test_indexed_columns_keep_rows_and_empty_tables():
    pump, cav = np.array([1e6, 2e6]), np.array([-3e7, -2e7, -1e7])
    at_pump, at_cav = np.divmod(np.arange(6), 3)
    labels = results.Indexed(["", "0;37"], [0, 1, 1, 0, 0, 1])
    table = ScanResultTable(["p", "c", "f"])
    table.set_columns(results.Indexed(pump, at_pump),
                      results.Indexed(cav, at_cav), labels)
    assert len(table.rows) == 6
    assert table.rows[4] == (2e6, -2e7, "")
    assert table.rows[-1] == (2e6, -1e7, "0;37")
    assert table.csv_text().splitlines()[2] == (
        "1.00000000000000000e+06,-2.00000000000000000e+07,0;37")
    empty = results.Indexed(["x"], np.array([], np.intp))
    table.set_columns(empty, results.Indexed(cav, at_cav[:0]), [])
    assert len(table.rows) == 0
    assert table.csv_text() == "p,c,f\n"


@pytest.mark.parametrize("index", [
    np.zeros((2, 3), np.intp), np.array([0.0, 1.0]), np.array([True, False]),
    [0, 1, 2], [-1, 0], [0.5]],
    ids=["2-D", "float", "bool", "past-the-end", "negative", "float-list"])
def test_bad_index_is_refused_at_set_columns(index):
    column = results.Indexed(["a", "b"], index)
    table = ScanResultTable(["s"])
    with pytest.raises(ValueError):
        table.set_columns(column)
