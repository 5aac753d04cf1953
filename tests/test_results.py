import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from motlaser.results import ScanResultTable, format_cell


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
@given(st.integers(0, 6).flatmap(
    lambda width: st.lists(st.lists(_CELLS, min_size=width,
                                    max_size=width).map(tuple),
                           max_size=12)))
def test_csv_text_equals_per_cell_formatting(rows):
    # the cached row templates must give the bytes of the per-cell oracle
    width = len(rows[0]) if rows else 3
    columns = [f"c{k}" for k in range(width)]
    table = ScanResultTable(columns)
    table.rows.extend(rows)
    want = ",".join(columns) + "\n" + "".join(
        ",".join(map(format_cell, row)) + "\n" for row in rows)
    assert table.csv_text() == want


def test_row_template_cached_per_cell_types():
    table = ScanResultTable(["x", "n", "s"])
    table.add_row(0.5, 3, "100%")
    table.add_row(np.float64(-0.0), np.int64(-7), "%s")
    table.add_row(math.nan, True, "x")
    table.add_row(None, None, None)
    assert table.csv_text() == (
        "x,n,s\n"
        "5.00000000000000000e-01,3,100%\n"
        "-0.00000000000000000e+00,-7,%s\n"
        ",True,x\n"
        ",,\n")


def test_tolist_cells_format_like_numpy_scalars():
    # g2 rows come from the columns' tolist(); the cells were numpy scalars
    lags = np.array([-2.6e-6, 0.0, 1.0 / 3.0, np.nan])
    counts = np.array([0, 5, 2**40, -1], dtype=np.int64)
    for x, y in zip(lags.tolist(), lags):
        assert format_cell(x) == format_cell(float(y))
    for x, y in zip(counts.tolist(), counts):
        assert format_cell(x) == format_cell(int(y))
