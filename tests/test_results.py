import math

import numpy as np

from motlaser.results import ScanResultTable, format_cell


def test_csv_text_equals_per_cell_formatting():
    rows = [(0.1, math.nan, None, 7, "a.clks"),
            (-1e-300, 2.5, 0, -3, ""),
            (None, math.inf, 1e17, 2**62, "x y")]
    table = ScanResultTable(["a", "b", "c", "d", "e"])
    for row in rows:
        table.add_row(*row)
    want = "a,b,c,d,e\n" + "".join(
        ",".join(format_cell(v) for v in row) + "\n" for row in rows)
    assert table.csv_text() == want


def test_tolist_cells_format_like_numpy_scalars():
    # g2 rows come from the columns' tolist(); the cells were numpy scalars
    lags = np.array([-2.6e-6, 0.0, 1.0 / 3.0, np.nan])
    counts = np.array([0, 5, 2**40, -1], dtype=np.int64)
    for x, y in zip(lags.tolist(), lags):
        assert format_cell(x) == format_cell(float(y))
    for x, y in zip(counts.tolist(), counts):
        assert format_cell(x) == format_cell(int(y))
