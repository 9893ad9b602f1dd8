"""Plot-ready tabular datasets shared by the compare harness and the CLI.

CSV uses '.' decimals, comma delimiters and '#'-prefixed metadata lines;
floats are serialized with 17 significant digits so either format
round-trips bit-exactly.  Missing values (annihilation points in scans)
serialize as empty CSV cells / JSON nulls.

A table is held as row blocks.  A row block is a tuple with one cell per
column; each cell is either a scalar, constant over the block, or a 1-D int
or float NumPy array holding that column's values, all arrays of one block
having the same length.  A tuple of scalars is an ordinary row.  The
renderers format a block's scalars once into a row template with one slot per
array column and fill the whole block with one ``%``, so large distribution
tables never become per-cell Python tuples; ``Dataset.rows`` expands the
blocks into tuples of Python scalars only when read.
"""
from __future__ import annotations

import itertools
import json
from collections.abc import Sequence

import numpy as np

_COMPACT = (",", ":")


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _block_length(block) -> int | None:
    """Rows in a row block, or None for an ordinary row."""
    lengths = {cell.shape for cell in block if isinstance(cell, np.ndarray)}
    if not lengths:
        return None
    if len(lengths) > 1 or len(next(iter(lengths))) != 1:
        raise ValueError(f"row block arrays must be 1-D and of one length, got {lengths}")
    return next(iter(lengths))[0]


def _expand(block):
    """The rows of a row block as tuples of Python scalars."""
    n = _block_length(block)
    if n is None:
        return (block,)
    return zip(*(cell.tolist() if isinstance(cell, np.ndarray) else itertools.repeat(cell, n)
                 for cell in block))


def _fill(block, n: int, scalar, float_slot: str, sep: str) -> str:
    """The n rows of a block: scalars formatted once by ``scalar`` into a row
    template with "%d" per int and ``float_slot`` per float array column, the
    rows joined by ``sep``, and every array value put in by one ``%``."""
    parts, arrays = [], []
    for cell in block:
        if not isinstance(cell, np.ndarray):
            parts.append(scalar(cell).replace("%", "%%"))
            continue
        if cell.dtype.kind in "iu":
            parts.append("%d")
        elif cell.dtype.kind == "f":
            parts.append(float_slot)
        else:
            raise TypeError(f"row block arrays must be int or float, got {cell.dtype}")
        arrays.append(cell)
    values = np.empty((n, len(arrays)), dtype=object)
    for j, a in enumerate(arrays):
        values[:, j] = a
    return sep.join([",".join(parts)] * n) % tuple(values.ravel().tolist())


def _json_rows(rows) -> str:
    return json.dumps(list(rows), separators=_COMPACT)[1:-1]


class Rows(Sequence):
    """A table's rows as tuples of Python scalars, expanded from its row
    blocks when read; its length costs no expansion."""

    def __init__(self, blocks: list):
        self._blocks = blocks

    def __len__(self) -> int:
        return sum(1 if n is None else n for n in map(_block_length, self._blocks))

    def __iter__(self):
        for block in self._blocks:
            yield from _expand(block)

    def __getitem__(self, index):  # expands the whole table: iterate over large ones
        return list(self)[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, Rows):
            other = list(other)
        return list(self) == other

    def __repr__(self) -> str:
        return repr(list(self))


class Dataset:
    def __init__(self, meta: dict | None = None, columns: list | None = None,
                 rows: list | None = None):
        self.meta = {} if meta is None else meta
        self.columns = [] if columns is None else columns
        self.blocks = [] if rows is None else rows

    @property
    def rows(self) -> Rows:
        return Rows(self.blocks)

    def to_csv(self) -> str:
        parts = [f"# {k} = {_format_value(v)}\n" for k, v in self.meta.items()]
        parts.append(",".join(self.columns) + "\n")
        for block in self.blocks:
            n = _block_length(block)
            if n is None:
                parts.append(",".join(_format_value(v) for v in block) + "\n")
            elif n:
                parts.append(_fill(block, n, _format_value, "%.17g", "\n") + "\n")
        return "".join(parts)

    def to_json(self) -> str:
        head = json.dumps({"meta": self.meta, "columns": self.columns}, separators=_COMPACT)
        parts = []
        for is_row, run in itertools.groupby(self.blocks, lambda b: _block_length(b) is None):
            if is_row:
                parts.append(_json_rows(run))
                continue
            for block in run:
                n = _block_length(block)
                if not n:
                    continue
                if all(np.isfinite(c).all() for c in block
                       if isinstance(c, np.ndarray) and c.dtype.kind == "f"):
                    parts.append("[" + _fill(block, n, json.dumps, "%r", "],[") + "]")
                else:  # json's NaN and Infinity: no %-slot renders them
                    parts.append(_json_rows(_expand(block)))
        return head[:-1] + ',"rows":[' + ",".join(parts) + "]}\n"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown format {fmt!r}")

    @staticmethod
    def from_json(text: str) -> "Dataset":
        payload = json.loads(text)
        return Dataset(payload["meta"], payload["columns"],
                       [tuple(r) for r in payload["rows"]])
