"""Deterministic text output.

Every float is written as %.16e (17 significant digits) so files round-trip
exactly and repeated runs are byte-identical.  Non-finite floats are refused
before anything is written: JSON has no spelling for them.

``write_csv`` fills one ``%`` template for the whole file, with one
conversion per column.  A column that repeats its values (a sweep grid of
40401 rows has 201 distinct angles) has each distinct value formatted once
beforehand and goes in as ``%s``; the others go in as floats under
``%.16e``.  Distinct values are found on the bit pattern, not compared as
floats: 0.0 == -0.0, yet the two print differently, and value columns of
the figure-1 sweep hold both.
"""
from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np


class NonFiniteError(ValueError):
    """A value to be written is NaN or infinite; names the field."""


_FMT = "%.16e"


def fmt17(x) -> str:
    return _FMT % float(x)


def _render(value, depth: int, path: str) -> str:
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: '
                 f'{_render(v, depth + 1, f"{path}.{k}" if path else str(k))}'
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = list(value)
        if not seq:
            return "[]"
        items = [f"{inner}{_render(v, depth + 1, f'{path}[{i}]')}"
                 for i, v in enumerate(seq)]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise NonFiniteError(f"{path}: non-finite value {float(value)}")
        return fmt17(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dump_json(path, obj: dict) -> None:
    Path(path).write_text(_render(obj, 0, "") + "\n")


def _column_spec(col: np.ndarray) -> tuple[str, list]:
    """The conversion spec of ``col`` in a row template and its arguments.

    A column with more distinct values than repeats stays float and is
    formatted by the file's one substitution; otherwise each distinct bit
    pattern is formatted once and its text repeated.
    """
    bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
    if 2 * len(bits) > len(col):
        return _FMT, col.tolist()
    distinct = bits.view(float).tolist()
    text = ((_FMT + "\n") * len(distinct) % tuple(distinct)).split("\n")
    return "%s", np.array(text[:-1], dtype=object)[inverse].tolist()


def write_csv(path, header: str, columns) -> None:
    """Write equal-length 1-D columns under a comma-separated header line.

    Raises ``ValueError`` when the header does not name one column each or
    a column is not 1-D or the lengths differ, and ``NonFiniteError`` naming
    the column and row of the first NaN or infinity; nothing is written
    then.
    """
    names = header.split(",")
    cols = [np.asarray(c, dtype=float) for c in columns]
    if len(names) != len(cols):
        raise ValueError(f"header names {len(names)} columns, "
                         f"got {len(cols)}")
    if any(c.ndim != 1 for c in cols):
        raise ValueError("columns must be 1-D")
    if any(len(c) != len(cols[0]) for c in cols):
        raise ValueError("columns differ in length")
    for name, c in zip(names, cols):
        bad = np.flatnonzero(~np.isfinite(c))
        if len(bad):
            raise NonFiniteError(f"{Path(path).name} column {name} row "
                                 f"{bad[0]}: non-finite value {c[bad[0]]}")
    specs, args = zip(*map(_column_spec, cols))
    row = ",".join(specs) + "\n"
    body = row * len(cols[0]) % tuple(chain.from_iterable(zip(*args)))
    Path(path).write_text(header + "\n" + body)
