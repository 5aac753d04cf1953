"""Plot-ready tabular results: CSV plus a structured-text metadata sidecar.

The metadata embeds everything needed to reproduce the table bit-exactly:
the full config snapshot, the calibration constants, the command with its
normalized arguments, the seed and the code version.  Floats are written
in full-precision scientific notation; missing cells become empty fields,
never NaN strings.

``csv_text`` formats a whole row with one ``%`` template, cached per tuple
of cell types: ``%.17e`` for floats (the same conversion as
``FLOAT_FORMAT``) and ``%s`` (``str``) for anything else.  A row holding
``None`` or a formatted ``nan`` goes through ``format_cell`` instead, so
the template only saves time and never changes a byte.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field

FLOAT_FORMAT = "{:.17e}"


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return FLOAT_FORMAT.format(value)
    return str(value)


def _row_template(types):
    """The row's ``%`` template, or None when a cell may be missing."""
    if type(None) in types:
        return None
    return ",".join("%.17e" if issubclass(t, float) else "%s" for t in types)


@dataclass
class ScanResultTable:
    columns: list
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)  # section -> {key: value}

    def add_row(self, *values):
        if len(values) != len(self.columns):
            raise ValueError("row width does not match the column schema")
        self.rows.append(tuple(values))

    def csv_text(self) -> str:
        lines = [",".join(self.columns)]
        templates = {}
        for row in self.rows:
            row = tuple(row)
            types = tuple(map(type, row))
            try:
                template = templates[types]
            except KeyError:
                template = templates[types] = _row_template(types)
            if template is None or "nan" in (line := template % row):
                line = ",".join(map(format_cell, row))
            lines.append(line)
        return "\n".join(lines) + "\n"

    def metadata_text(self) -> str:
        lines = []
        for section, entries in self.metadata.items():
            lines.append(f"[{section}]")
            for key, value in entries.items():
                if isinstance(value, float):
                    value = repr(float(value))  # plain repr even for np scalars
                lines.append(f"{key} = {value}")
            lines.append("")
        return "\n".join(lines)

    def write(self, csv_path, metadata_path) -> None:
        """Write the table and its sidecar as a pair.

        Both go to temporary names beside their targets and are renamed
        only after both writes succeed.  On any failure neither file of
        the pair stays: the temporaries and a target already renamed into
        place are removed.
        """
        paths = (csv_path, metadata_path)
        temporaries = [f"{path}.{os.getpid()}.tmp" for path in paths]
        placed = []
        try:
            for target, tmp, text in zip(
                    paths, temporaries,
                    (self.csv_text(), self.metadata_text())):
                with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
            for target, tmp in zip(paths, temporaries):
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
    """Inverse of metadata_text: section -> {key: raw string value}."""
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
