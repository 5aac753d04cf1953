"""Plot-ready tabular results: CSV plus a structured-text metadata sidecar.

The metadata embeds everything needed to reproduce the table bit-exactly:
the full config snapshot, the calibration constants, the command with its
normalized arguments, the seed and the code version.  Floats are written
in full-precision scientific notation; missing cells become empty fields,
never NaN strings.

A table holds one sequence per column (``set_columns``); a numpy array
stands for the cells of its ``tolist()``, and an ``Indexed(values, index)``
for the cells ``values[index]``.  Every cell gets the bytes of
``format_cell``, written column by column:

- a column whose cells are all floats or ``None`` goes through
  ``format_e17``, in one call for all such columns of the table;
- an int64 array of non-negative values is written with ``format_e17``'s
  three-digit words, its leading zeros padded;
- any other column is written cell by cell with ``format_cell``, or for
  an integer array with ``str`` of its ``tolist()`` ints;
- an ``Indexed`` column is written as its ``values`` would be, each value
  formatted once, and its rows of bytes are gathered by ``index``;
- the columns are laid side by side in one byte array padded with 0xFF, a
  byte that UTF-8 never produces, and one ``bytes.translate`` deletes the
  padding.

``format_e17`` gives ``'%.17e' % v`` exactly, with array arithmetic.  For
|v| in [1e-280, 1e280) it takes E = floor(log10 |v|) and forms
y = |v| * 10**(17 - E) as the rounded product p plus a remainder t:

- 10**k is a double-double, computed with integer arithmetic for the
  exponents present; each part is correctly rounded, so its relative
  error is below 2**-105;
- Dekker's split product (no FMA) gives the rounding error of p exactly,
  and y lies between 1e16 and 1e19, so p is an integer;
- so floor(y) = p + floor(t) and its fraction t - floor(t) come out with
  an absolute error below 2**-43.

The 18 digits are floor(y), plus one when the fraction is above one half.
A floor outside [1e17, 1e18) means that E was off by one: such values are
formed again at E -/+ 1, and a rounding up to 1e18 moves E up by one.
Python's ``'%.17e'``, which rounds half to even, formats the rest: zero,
subnormals, infinities, |v| outside that range, and each value whose
fraction lies within 2**-40 of one half, which takes in every exact tie.
It also formats every call of fewer than ``_SMALL`` values, where the
arrays' fixed cost exceeds its own.  NaN gives an empty cell.
"""

from __future__ import annotations

import contextlib
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

FLOAT_FORMAT = "{:.17e}"

_PAD = 0xFF              # an unused byte position; never part of UTF-8
_CELL = 36               # bytes of a formatted float: 9 words, see format_e17
_LIMIT = 1e280           # the split and both parts of 10**k stay normal
_TIE = 2.0 ** -40        # margin around one half, above the error 2**-43
# Fewer values than this are formatted by Python: the kernel's fixed cost,
# about 0.3 ms (0.7 ms on a process's first call), exceeds Python's cost of
# about 1 us per value.
_SMALL = 500
_LOW, _HIGH = 10**17, 10**18


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return FLOAT_FORMAT.format(value)
    return str(value)


def _pow10(ks) -> tuple:
    """10**k as a double-double (hi, lo) for each k of the int array ks."""
    hi, lo = np.empty(ks.size), np.empty(ks.size)
    for i, k in enumerate(ks.tolist()):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi[i] = h = num / den                # correctly rounded
        h_num, h_den = h.as_integer_ratio()
        lo[i] = (num * h_den - h_num * den) / (den * h_den)
    return hi, lo


def _exponent_words(es) -> list:
    """The bytes "e+dd" or "e-ddd", padded to eight, for each exponent."""
    pad = bytes([_PAD])
    text = b"".join((b"e%+03d" % e).ljust(8, pad) for e in es.tolist())
    return [np.frombuffer(text, "<u8")]


def _gather(keys, build) -> list:
    """build(ks), a sequence of 1-D arrays over the distinct ks of the int
    array keys, with each array taken at every key."""
    base = int(keys.min())
    present = np.zeros(int(keys.max()) - base + 1, bool)
    present[keys - base] = True
    at = np.flatnonzero(present)
    out = []
    for values in build(at + base):
        table = np.zeros(present.size, values.dtype)
        table[at] = values
        out.append(table[keys - base])
    return out


def _split(a):
    """Dekker's split: a = hi + lo exactly, each with at most 26 bits."""
    c = a * 134217729.0                      # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _scaled(a, e) -> tuple:
    """floor(y) as int64 (clipped at 2e18) and y - floor(y), for
    y = a * 10**(17 - e) and a in the covered range."""
    b, b_tail = _gather(17 - e, _pow10)
    p = a * b
    a1, a2 = _split(a)
    b1, b2 = _split(b)
    # p + t = a * b exactly (Dekker), then the tail's product
    t = (((a1 * b1 - p) + a2 * b1) + a1 * b2) + a2 * b2 + a * b_tail
    q = np.floor(t)
    return np.minimum(p, 2e18).astype(np.int64) + q.astype(np.int64), t - q


def _digit_words() -> np.ndarray:
    """Little-endian words for k in [0, 1000): "d.dd" at k, "ddd" and one
    pad byte at 1000 + k."""
    d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint32)
    h, t, o = d[:, None, None], d[None, :, None], d[None, None, :]
    first = h | ord(".") << 8 | t << 16 | o << 24
    other = h | t << 8 | o << 16 | _PAD << 24
    return np.concatenate([first.ravel(), other.ravel()])


def _printf(x) -> np.ndarray:
    """format_e17(x), formatted by Python one value at a time."""
    texts = tuple("" if v != v else "%.17e" % v for v in x.tolist())
    text = (f"%-{_CELL}s" * len(texts) % texts).encode()
    # no text holds a space: the padding's spaces become the pad byte
    text = text.translate(bytes.maketrans(b" ", bytes([_PAD])))
    return np.frombuffer(bytearray(text), np.uint8).reshape(-1, _CELL)


def format_e17(values) -> np.ndarray:
    """``'%.17e' % v`` for each float64 v, as an (n, 36) uint8 array of
    ASCII padded with 0xFF; NaN gives an empty cell."""
    x = np.asarray(values, np.float64).ravel()
    if x.size < _SMALL:
        return _printf(x)
    a = np.abs(x)
    fast = (a >= 1 / _LIMIT) & (a < _LIMIT)
    a = np.where(fast, a, 1.0)          # a stand-in; Python formats these
    e = np.floor(np.log10(a)).astype(np.int64)
    floor, frac = _scaled(a, e)
    off = (floor >= _HIGH).astype(np.int64) - (floor < _LOW)
    redo = np.flatnonzero(off)
    if redo.size:
        e[redo] += off[redo]
        floor[redo], frac[redo] = _scaled(a[redo], e[redo])
    digits = floor + (frac > 0.5)
    carry = digits == _HIGH
    digits[carry] = _LOW
    e += carry

    # words: sign, six groups of three digits (the first as "d.dd"), and
    # the exponent
    halves = np.stack(np.divmod(digits, 10**9), axis=1).astype(np.int32)
    high, rest = np.divmod(halves, 10**6)
    groups = np.stack([high, *np.divmod(rest, 1000)], axis=2).reshape(-1, 6)
    groups[:, 1:] += 1000
    words = np.empty((x.size, _CELL // 4), np.uint32)
    words[:, 0] = np.where(np.signbit(x), ord("-") | 0xFFFFFF00, 0xFFFFFFFF)
    words[:, 1:7] = _digit_words()[groups]
    words[:, 7:] = _gather(e, _exponent_words)[0].view(np.uint32).reshape(-1, 2)
    out = words.view(np.uint8)

    slow = np.flatnonzero(~fast | (np.abs(frac - 0.5) <= _TIE)
                          | (floor < _LOW) | (floor >= _HIGH))
    out[slow] = _printf(x[slow])
    return out


def _float_cells(column):
    """The column as a float64 array when each cell is a float or None,
    as itself when it is an integer array, else as a list of its cells."""
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64 or column.dtype.kind in "iu":
            return column.ravel()
        column = column.tolist()
    if all(v is None or isinstance(v, float) for v in column):
        return np.array(column, np.float64)
    return list(column)


def _count_block(v) -> np.ndarray:
    """str of each value of the non-negative int64 array v, as rows of
    ASCII padded with 0xFF: "ddd" words of its base-1000 digits, the
    leading zeros but the last digit turned into padding."""
    groups, rest = [], v
    while True:
        rest, low = np.divmod(rest, 1000)
        groups.append(low)
        if not rest.any():
            break
    words = _digit_words()[1000 + np.stack(groups[::-1], axis=1)]
    block = words.view(np.uint8).reshape(v.size, -1)
    lead = np.logical_and.accumulate((block == ord("0")) | (block == _PAD),
                                     axis=1)
    lead[:, -2] = False                 # the last digit, before its pad
    block[lead] = _PAD
    return block


def _text_block(cells) -> np.ndarray:
    """format_cell of each cell as rows of UTF-8, padded with 0xFF; the
    cells of an integer array are their str."""
    if isinstance(cells, np.ndarray):
        if cells.dtype == np.int64 and cells.min() >= 0:
            return _count_block(cells)
        texts = map(str, cells.tolist())
    else:
        texts = map(format_cell, cells)
    encoded = list(map(str.encode, texts))
    lengths = np.fromiter(map(len, encoded), np.int64, len(encoded))
    width = max(int(lengths.max()), 1)
    block = np.array(encoded, f"S{width}").view(np.uint8).reshape(-1, width)
    block[np.arange(width) >= lengths[:, None]] = _PAD
    return block


class Indexed(Sequence):
    """A column whose cells are ``values[index]``: a few distinct values
    repeated over many rows, written with each value formatted once."""

    def __init__(self, values, index):
        self.values, self.index = values, np.asarray(index)

    def __len__(self):
        return len(self.index)

    def __getitem__(self, k):
        return self.values[self.index[k]]

    def check(self):
        """Raise ValueError unless index is 1-D integers into values."""
        index = self.index
        if index.ndim != 1 or index.dtype.kind not in "iu":
            raise ValueError("an index must be a 1-D integer array")
        if index.size and (index.min() < 0
                           or index.max() >= len(self.values)):
            raise ValueError("an index falls outside its values")


def _is_float(cells) -> bool:
    return isinstance(cells, np.ndarray) and cells.dtype == np.float64


class _Columns(Sequence):
    """The rows of a table held as one sequence per column."""

    def __init__(self, data):
        self.data = data

    def __len__(self):
        return len(self.data[0]) if self.data else 0

    def __getitem__(self, k):
        return tuple(column[k] for column in self.data)


@dataclass
class ScanResultTable:
    columns: list
    rows: _Columns = field(default=_Columns(()), init=False)  # read-only
    metadata: dict = field(default_factory=dict)  # section -> {key: value}

    def set_columns(self, *data):
        """Hold the table as one sequence per column."""
        if len(data) != len(self.columns) or len(set(map(len, data))) > 1:
            raise ValueError("columns do not match the column schema")
        for column in data:
            if isinstance(column, Indexed):
                column.check()
        self.rows = _Columns(data)

    def _csv_bytes(self) -> bytes:
        """The header line, then each row's format_cell texts, as UTF-8."""
        header = (",".join(self.columns) + "\n").encode()
        n = len(self.rows)
        if not n:
            return header
        columns = self.rows.data
        cells = [_float_cells(c.values if isinstance(c, Indexed) else c)
                 for c in columns]
        floats = [c for c in cells if _is_float(c)]
        if floats:
            formatted = format_e17(np.concatenate(floats))
        blocks, k = [], 0
        for c in cells:
            if _is_float(c):
                blocks.append(formatted[k:k + c.size])
                k += c.size
            else:
                blocks.append(_text_block(c))
        # each block, then its comma; the last comma becomes the newline
        out = np.empty((n, sum(b.shape[1] + 1 for b in blocks)), np.uint8)
        at = 0
        for column, block in zip(columns, blocks):
            width = block.shape[1]
            out[:, at:at + width] = (block[column.index]
                                     if isinstance(column, Indexed) else block)
            out[:, at + width] = ord(",")
            at += width + 1
        out[:, -1] = ord("\n")
        return header + out.tobytes().translate(None, bytes([_PAD]))

    def csv_text(self) -> str:
        return self._csv_bytes().decode()

    def write(self, csv_path, metadata_path) -> None:
        """Write the table and its sidecar as a pair (see write_files)."""
        write_files((csv_path, self._csv_bytes()),
                    (metadata_path, sections_text(self.metadata).encode()))


def sections_text(sections: dict) -> str:
    """The sidecar text of section -> {key: value}; floats as their repr."""
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        for key, value in entries.items():
            if isinstance(value, float):
                value = repr(float(value))  # plain repr even for np scalars
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def write_files(*contents) -> None:
    """Write each (path, bytes) pair of ``contents`` as one set.

    Each goes to a temporary name beside its target; they are renamed only
    after every write succeeds.  On any failure the temporaries and the
    targets already renamed are removed; the others keep their content.
    """
    temporaries = [f"{path}.{os.getpid()}.tmp" for path, _ in contents]
    placed = []
    try:
        for (target, data), tmp in zip(contents, temporaries):
            with open(tmp, "wb") as fh:
                fh.write(data)
        for (target, _), tmp in zip(contents, temporaries):
            os.replace(tmp, target)
            placed.append(target)
    except BaseException as exc:
        for path in temporaries + placed:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        if isinstance(exc, OSError):
            # name the file that failed, not its temporary
            exc.filename, exc.filename2 = target, None
        raise


def parse_metadata(text: str) -> dict:
    """Inverse of sections_text: section -> {key: raw string value}."""
    out = {}
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            out[section] = {}
            continue
        if section is None or "=" not in line:
            raise ValueError(f"malformed metadata line {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[section][key] = value
    return out
