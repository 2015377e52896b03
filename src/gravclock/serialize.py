"""Deterministic text output.

Every float is written as %.16e (17 significant digits) so files round-trip
exactly and repeated runs are byte-identical.  Non-finite floats are refused
before anything is written: JSON has no spelling for them.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


class NonFiniteError(ValueError):
    """A value to be written is NaN or infinite; names the field."""


def fmt17(x) -> str:
    return format(float(x), ".16e")


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


def write_csv(path, header: str, columns) -> None:
    """Write equal-length columns under a comma-separated header line."""
    cols = [np.asarray(c, dtype=float).ravel() for c in columns]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("columns differ in length")
    for name, c in zip(header.split(","), cols):
        bad = np.flatnonzero(~np.isfinite(c))
        if len(bad):
            raise NonFiniteError(f"{Path(path).name} column {name} row "
                                 f"{bad[0]}: non-finite value {c[bad[0]]}")
    lines = [header]
    lines.extend(",".join(fmt17(c[i]) for c in cols) for i in range(n))
    Path(path).write_text("\n".join(lines) + "\n")
