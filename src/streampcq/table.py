"""The format of every table the toolkit reads or writes: CSV in UTF-8
whatever the locale, a header row and '.' decimals.

A column's kind parses its cells: `str`, `int`, `finite_float` or `rating`.
A missing column, bytes that are not UTF-8 or a cell its kind refuses is an
InvalidInput that names the file, line and column.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from typing import NamedTuple

from .errors import InvalidInput

__all__ = ["Row", "finite_float", "rating", "read_table", "write_table"]


def finite_float(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(cell)
    return value


def rating(cell: str) -> float:
    """NaN for a blank cell (a missing rating), else a finite float."""
    return math.nan if cell == "" else finite_float(cell)


_WHAT = {int: "a finite int", finite_float: "a finite float", rating: "blank or a finite float"}


class Row(NamedTuple):
    """A data row: its `texts` under the `header` columns ('' past the end of
    a short row), and `parsed`, the list of the cells read, each parsed by its
    column's kind, or the InvalidInput of the first cell refused."""

    header: list
    texts: list
    parsed: list | InvalidInput

    @property
    def values(self) -> list:
        """`parsed`, or its InvalidInput raised."""
        if isinstance(self.parsed, InvalidInput):
            raise self.parsed
        return self.parsed


def _not_utf8(path, exc: UnicodeDecodeError) -> InvalidInput:
    data, at = exc.object, exc.start
    line = data.count(b"\n", 0, at) + 1
    # the rows up to the byte, which "x" stands in for
    *rows, last = csv.reader(io.StringIO(data[:at].decode() + "x", newline=""))
    column = rows[0][len(last) - 1] if rows and len(last) <= len(rows[0]) else len(last)
    return InvalidInput(f"{path}: line {line}: column {column!r}: "
                        f"byte {data[at]:#04x} is not UTF-8")


def read_table(path, kinds) -> list:
    """The data rows (`Row`) of the CSV file at `path`.  `kinds` maps each
    column to read to its kind, or is a function from the header to that map.
    A column of `kinds` that the header lacks or repeats, or bytes that are not
    UTF-8, raise InvalidInput; a cell its kind refuses fails only its row."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            reader = csv.reader(io.StringIO(fh.read(), newline=""))
        except UnicodeDecodeError as exc:  # read() decodes the whole file at once
            raise _not_utf8(path, exc) from None
    try:
        header = next(reader, [])
        kinds = kinds(header) if callable(kinds) else kinds
        for name in kinds:
            if header.count(name) != 1:
                raise InvalidInput(f"{path}: line 1: " + (f"column {name!r} repeats"
                                                          if name in header
                                                          else f"no column {name!r}"))
        columns = [(name, header.index(name), kind) for name, kind in kinds.items()]
        rows = []
        for texts in reader:
            if not texts:  # a blank line
                continue
            texts += [""] * (len(header) - len(texts))
            parsed = []
            try:
                for name, i, kind in columns:
                    parsed.append(kind(texts[i]))
            except ValueError:  # the loop stopped at the column refused
                parsed = InvalidInput(f"{path}: line {reader.line_num}: column {name!r}: "
                                      f"{texts[i]!r} is not {_WHAT[kind]}")
            rows.append(Row(header, texts, parsed))
    except csv.Error as exc:
        raise InvalidInput(f"{path}: line {reader.line_num}: {exc}") from None
    return rows


def write_table(out, header, rows, as_json=False):
    """Write `header` and `rows` to the file `out` in UTF-8, or to stdout if
    `out` is None: as CSV, or with `as_json` as a JSON list of one object per
    row.  A command-line path that is not text in the locale's encoding (its
    surrogate escapes) is written as the bytes it came from."""
    fh = (open(out, "w", encoding="utf-8", errors="surrogateescape", newline="") if out
          else sys.stdout)
    try:
        if as_json:
            json.dump([dict(zip(header, r)) for r in rows], fh, indent=2)
            fh.write("\n")
        else:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
    finally:
        if out:
            fh.close()
