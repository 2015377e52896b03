"""Deterministic text output.

Every float is written as %.16e (17 significant digits) so files round-trip
exactly and repeated runs are byte-identical.  Non-finite floats are refused
before anything is written: JSON has no spelling for them.

``write_csv`` builds the bytes ``%`` would, in numpy, a block of rows at a
time.  A value's 17-digit mantissa is round(|x| * 10^(16-k)) with k the
decimal exponent, from Dekker's exact product with a double-double table of
powers of ten; k starts as floor(log10|x|), is re-estimated where the
mantissa leaves [1e16, 1e17), and a mantissa rounded up to 10^17 carries
into it.  Sign, digits, point, exponent and separator fill a 32-byte record
of four words, looked up in small tables (digits four at a time), whose
unused bytes are NUL; deleting the NULs leaves the text.  ``%`` itself formats
what the fast path cannot decide or reach: a product within 1e-6 of a
rounding tie, where round-half-even needs the exact value, and |x| outside
[1e-280, 1e300], where the table or the split would leave the doubles.

A grid table, whose rows are the Cartesian product of its axes, is written
from the axes: each axis value is formatted once and its record repeated on
the rows it appears on.  The bytes are those of the expanded table.
"""
from __future__ import annotations

import json
import logging
import math
from functools import cache
from pathlib import Path

import numpy as np

from .numerics import _split


class NonFiniteError(ValueError):
    """A value to be written is NaN or infinite; names the field."""


_FMT = "%.16e"
_E = 300                 # power and exponent tables span 10^-_E .. 10^_E
# |x| outside [_TINY, _HUGE] goes to %: 10^(16-k) must stay in the table,
# and Dekker's split overflows above ~1.3e300.
_TINY, _HUGE = 1e-280, 1e300
_TIE = 1e-6              # a product this close to a rounding tie goes to %
_CHUNK = 8192            # values per block: the temporaries stay in cache

_log = logging.getLogger(__name__)


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


@cache
def _pow10_table() -> np.ndarray:
    """Rows hi, lo, hi_hi, hi_lo of 10^e for e in [-_E, _E], column e + _E.

    hi is the double nearest 10^e and lo the double nearest 10^e - hi, so
    hi + lo holds 10^e to ~2^-106; hi_hi + hi_lo is hi split for Dekker's
    exact product.  Python's int division rounds correctly, so every entry
    is its exact value rounded once.
    """
    rows = []
    for e in range(-_E, _E + 1):
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        hi = num / den
        a, b = hi.as_integer_ratio()
        rows.append((hi, (num * b - a * den) / (den * b)))
    hi, lo = np.array(rows).T
    return np.array([hi, lo, *_split(hi)])


def _word(text: bytes) -> int:
    """Up to eight ASCII characters as one little-endian word: the first
    character in the lowest byte, the rest NUL."""
    return int.from_bytes(text, "little")


@cache
def _word_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Words for the pieces of a record: sign, first digit and point
    (index digit + 10 when negative); four digits (index 0-9999, in the
    low half of a word); 'e', sign and exponent digits (index k + _E)."""
    heads = [_word(b"\0" * 5 + sign + b"%d." % d)
             for sign in (b"\0", b"-") for d in range(10)]
    q = np.arange(10000)
    quads = (q // 1000 | q // 100 % 10 << 8 | q // 10 % 10 << 16
             | q % 10 << 24) + _word(b"0000")
    exps = [_word(b"e%+03d" % k) for k in range(-_E, _E + 1)]
    return (np.array(heads), quads.astype(np.int64), np.array(exps))


def _mantissa(a, k):
    """floor(a * 10^(16-k)) as int64 and the fraction left over.

    a * (hi + lo) is summed as p + err + a*lo with Dekker's exact err =
    a*hi - p; p >= 2^53 is an integer whenever k is right, and the fraction
    comes out within ~1e-14.
    """
    hi, lo, hh, hl = _pow10_table().take((_E + 16) - k, axis=1)
    p = a * hi
    ah, al = _split(a)
    r = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    f = np.floor(r)
    return p.astype(np.int64) + f.astype(np.int64), r - f


def _records(x: np.ndarray, seps: np.ndarray,
             lead: int = 0) -> tuple[np.ndarray, int]:
    """The records of the finite values ``x``, shaped (rows..., columns),
    each followed by its column's separator in ``seps``, and how many
    values took the exact ``%`` fallback.

    The records come shaped (rows..., lead + columns, 4): the first
    ``lead`` records of each row are left for the caller to fill.  Each
    value gets a record of four words: sign, first digit and point; digits
    2-9; digits 10-17; exponent and separator.  The words come from lookup
    tables (``_word_tables``), unused bytes are NUL, and deleting every NUL
    leaves the text.
    """
    shape = x.shape
    x = x.ravel()
    a = np.abs(x)
    fast = (a >= _TINY) & (a <= _HUGE)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    m, frac = _mantissa(a, k)
    # log10 may land one decade off; the mantissa then leaves [1e16, 1e17)
    off = (m < 10**16) | (m >= 10**17)
    if off.any():
        off = np.flatnonzero(off)
        step = np.where(m[off] < 10**16, -1, 1)
        k[off] += step
        m[off], frac[off] = _mantissa(a[off], k[off])
    m += frac > 0.5
    top = m == 10**17                        # rounded up to 10^(k+1)
    if top.any():
        m[top] = 10**16
        k[top] += 1
    m *= fast                                # zeros print as 0.000...e+00
    slow = (~fast & (x != 0.0)) | (np.abs(frac - 0.5) < _TIE)
    heads, quads, exps = _word_tables()
    first = m // 10**16
    rest = m - first * 10**16
    eight = rest // 10**8
    halves = np.stack([eight, rest - eight * 10**8], axis=1)
    fours = halves // 10000
    # allocated after the temporaries: allocated before them, it made the
    # heap grow and page-fault on every chunk (~10% on a 12002-row table)
    rec = np.empty((*shape[:-1], lead + shape[-1], 4), np.int64)
    out = rec[..., lead:, :]
    words = quads.take(halves - fours * 10000)
    words <<= 32
    words |= quads.take(fours)
    out[..., 1:3] = words.reshape(*shape, 2)
    first += np.signbit(x) * 10
    out[..., 0] = heads.take(first).reshape(shape)
    out[..., 3] = exps.take(k + _E).reshape(shape) | seps
    slow = slow.reshape(shape)
    n_slow = int(np.count_nonzero(slow))
    if n_slow:
        text = [_FMT % v for v in x.reshape(shape)[slow].tolist()]
        out[slow, :3] = np.array(text, "S24").view(np.int64).reshape(-1, 3)
        out[slow, 3] = np.broadcast_to(seps, shape)[slow]  # separator only
    return rec, n_slow


def write_csv(path, header: str, columns, *, axes=()) -> None:
    """Write 1-D columns under a comma-separated header line.

    Without ``axes`` every column holds one value per row.  With ``axes``
    the rows are the C-order Cartesian product of the 1-D ``axes``, which
    are written first, and each entry of ``columns`` holds one value per
    row of that product.  The header names the axes, then the columns.
    Each axis value is formatted once and its record repeated on every row
    it appears on; the bytes are those of the expanded table.

    Raises ``ValueError`` when the header does not name one column each, an
    axis or column is not 1-D or a column's length is not the row count,
    and ``NonFiniteError`` naming the column and first row of a NaN or
    infinity; nothing is written then.  Logs one DEBUG record: the file,
    its rows and columns, and the values formatted by the exact ``%``
    fallback, counted on every row they are written to.
    """
    path = Path(path)
    names = header.split(",")
    axes = [np.asarray(a, dtype=float) for a in axes]
    cols = [np.asarray(c, dtype=float) for c in columns]
    n_axes, n_cols = len(axes), len(axes) + len(cols)
    if len(names) != n_cols:
        raise ValueError(f"header names {len(names)} columns, got {n_cols}")
    if any(c.ndim != 1 for c in axes + cols):
        raise ValueError("axes and columns must be 1-D")
    shape = tuple(len(a) for a in axes)
    n_rows = math.prod(shape) if axes else len(cols[0])
    if any(len(c) != n_rows for c in cols):
        raise ValueError(f"columns differ in length from the {n_rows} rows")
    # an axis value first appears on row index * (rows per value)
    strides = [math.prod(shape[j + 1:]) for j in range(n_axes)]
    for name, c, stride in zip(names, axes + cols,
                               strides + [1] * len(cols)):
        bad = np.flatnonzero(~np.isfinite(c))
        if len(bad):
            raise NonFiniteError(f"{path.name} column {name} row "
                                 f"{bad[0] * stride}: non-finite value "
                                 f"{c[bad[0]]}")
    seps = np.full(n_cols, ord(",") << 56)
    seps[-1] = ord("\n") << 56
    pieces, slow = [(header + "\n").encode()], 0
    recs = []
    for a, sep in zip(axes, seps):
        rec, n_slow = _records(a[:, None], sep)
        recs.append(rec[:, 0])
        slow += n_slow * (n_rows // max(1, len(a)))
    table = np.column_stack(cols)
    # Rows go in chunks of whole blocks of the last axis (a plain table is
    # one block), or in slices of a block longer than a chunk: the last axis
    # repeats along the blocks, and every other axis has one value a block.
    width = max(1, shape[-1] if axes else n_rows)
    step = max(1, _CHUNK // n_cols)
    per, part = max(1, step // width), min(width, step)
    blocks = n_rows // width
    for b0 in range(0, blocks, per):
        nb = min(per, blocks - b0)
        block = b0 + np.arange(nb)
        for l0 in range(0, width, part):
            nl = min(part, width - l0)
            start = b0 * width + l0
            values = table[start:start + nb * nl]
            rec, n_slow = _records(values.reshape(nb, nl, len(cols)),
                                   seps[n_axes:], n_axes)
            slow += n_slow
            if axes:
                rec[:, :, n_axes - 1] = recs[-1][l0:l0 + nl]
            for j in range(n_axes - 1):
                at = block // (strides[j] // width) % shape[j]
                rec[:, :, j] = recs[j][at][:, None]
            pieces.append(rec.tobytes().translate(None, b"\0"))
    with path.open("wb") as f:
        f.writelines(pieces)
    _log.debug("%s: %d rows, %d columns, %d values formatted by %%",
               path.name, n_rows, n_cols, slow)
