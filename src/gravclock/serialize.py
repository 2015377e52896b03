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
of four words, looked up in small tables (digits four at a time): the text
runs from byte 5 (a minus sign) or 6 to the separator right after the
exponent, and the other bytes are NUL.  ``%`` itself formats what the fast
path cannot decide or reach, into a record of the same layout: a product
within 1e-6 of a rounding tie, where round-half-even needs the exact value,
and |x| outside [1e-280, 1e300], where the table or the split would leave
the doubles.

A chunk of rows becomes text in one of two ways.  Rows whose records share
one layout (each column's sign and exponent width) are copied column by
column into a (rows, row length) array: each record's text is one fixed
byte range.  Where that does not pay, in a chunk of few rows or one whose
layout changes often, the records are joined and their NULs deleted.

A grid table, whose rows are the Cartesian product of its axes, is written
from the axes: each axis value is formatted once and its text copied to the
rows it appears on.  The bytes are those of the expanded table.
"""
from __future__ import annotations

import logging
import math
import os
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
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
_CHUNK = 8192            # values formatted per chunk: its temporaries stay
                         # in cache
# a chunk deletes NULs where slicing would cost more: below _SLICE_ROWS
# rows, or with fewer than _RUN rows per run of one layout
_SLICE_ROWS = 2000
_RUN = 200

_log = logging.getLogger(__name__)


def fmt17(x) -> str:
    return _FMT % float(x)


def _render(value, depth: int, path: str) -> str:
    """The JSON text of ``value``, nested ``depth`` levels deep at ``path``
    (named in errors).  Strings are quoted by the C function ``json.dumps``
    itself uses; a float's text is its %.16e.  A finite float or a string,
    the usual values, is written in its container's loop, without a call."""
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for k, v in value.items():
            k = str(k)
            if type(v) is float and v - v == 0.0:
                text = _FMT % v
            elif type(v) is str:
                text = _quote(v)
            else:
                text = _render(v, depth + 1, f"{path}.{k}" if path else k)
            items.append(f"{inner}{_quote(k)}: {text}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = list(value)
        if not seq:
            return "[]"
        items = [inner + (_FMT % v if type(v) is float and v - v == 0.0
                          else _render(v, depth + 1, f"{path}[{i}]"))
                 for i, v in enumerate(seq)]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise NonFiniteError(f"{path}: non-finite value {float(value)}")
        return fmt17(value)
    if isinstance(value, str):
        return _quote(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dump_json(path, obj: dict) -> None:
    """Write ``obj`` as indented JSON.  Its text is built whole, so nothing
    is written when a value is refused, and written in one binary write."""
    data = memoryview((_render(obj, 0, "") + "\n").encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


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
    low half of a word); 'e', sign, exponent digits and a comma (index
    k + _E), or a newline (index k + 3 * _E + 1)."""
    heads = [_word(b"\0" * 5 + sign + b"%d." % d)
             for sign in (b"\0", b"-") for d in range(10)]
    q = np.arange(10000)
    quads = (q // 1000 | q // 100 % 10 << 8 | q // 10 % 10 << 16
             | q % 10 << 24) + _word(b"0000")
    exps = [_word(b"e%+03d" % k + sep)
            for sep in (b",", b"\n") for k in range(-_E, _E + 1)]
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


def _records(x: np.ndarray, seps) -> tuple[np.ndarray, np.ndarray]:
    """The records of the finite values ``x``, shaped (rows..., columns),
    and where the exact ``%`` fallback made them.

    Each value gets a record of four words, shaped (rows..., columns, 4):
    sign, first digit and point; digits 2-9; digits 10-17; exponent and
    separator.  ``seps`` picks each column's separator as its offset into
    the exponent words: _E for a comma, 3 * _E + 1 for a newline.  The
    words come from lookup tables (``_word_tables``).  The
    text runs from byte 5 (a minus sign) or 6 to the separator, at byte 28,
    or 29 after a 3-digit exponent; the other bytes are NUL.  A record the
    fallback made is laid out the same.
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
    rec = np.empty((*shape, 4), np.int64)
    words = quads.take(halves - fours * 10000)
    words <<= 32
    words |= quads.take(fours)
    rec[..., 1:3] = words.reshape(*shape, 2)
    first += np.signbit(x) * 10
    rec[..., 0] = heads.take(first).reshape(shape)
    rec[..., 3] = exps.take(k.reshape(shape) + seps)
    slow = slow.reshape(shape)
    if np.count_nonzero(slow):
        ends = np.broadcast_to(seps, shape)[slow] > _E
        text = [(_FMT % v).encode() for v in x.reshape(shape)[slow].tolist()]
        text = [b"\0" * (24 - t.index(b"e")) + t + (b"\n" if end else b",")
                for t, end in zip(text, ends.tolist())]
        rec[slow] = np.array(text, "S32").view(np.int64).reshape(-1, 4)
    return rec, slow


def _text(values: np.ndarray, heads: list[np.ndarray]) -> bytes | np.ndarray:
    """The text of a chunk of rows from the bytes of their records.

    ``values`` holds the records of the value columns, shaped (blocks, rows
    of a block, columns, 32); ``heads`` the records of the axis columns,
    each broadcastable to (blocks, rows of a block, 32).  A chunk of
    ``_SLICE_ROWS`` rows or more copies each run of rows that share one
    layout (each column's sign and exponent width) as fixed byte ranges.
    A smaller chunk, or one whose layout changes more often than every
    ``_RUN`` rows, deletes the NULs of its rows' records instead: it is the
    cheaper path there.
    """
    nb, nl, nv = values.shape[:3]
    if heads:
        heads = [np.broadcast_to(h, (nb, nl, 32)) for h in heads]
    if nb * nl >= _SLICE_ROWS:
        text = _sliced(heads + [values[:, :, v] for v in range(nv)])
        if text is not None:
            return text
    if heads:
        values = np.concatenate([h[:, :, None] for h in heads] + [values],
                                axis=2)
    return values.tobytes().translate(None, b"\0")


def _sliced(cols: list[np.ndarray]) -> np.ndarray | None:
    """The text of rows whose columns' record bytes are ``cols``, each
    shaped (blocks, rows of a block, 32), built by slicing; None when the
    layout changes more often than every ``_RUN`` rows.

    A record's sign (byte 5) and exponent width (byte 29, NUL after a
    2-digit exponent) give its layout: its text is bytes 5 or 6 through
    28 or 29.  A run of rows that share every column's layout is copied
    column by column into a (rows, row length) array, one fixed byte range
    each.
    """
    nb, nl = cols[0].shape[:2]
    n, rows = len(cols), nb * nl
    # a row's layout bytes, padded to 8-byte words and compared a word at
    # a time: np.any over a short last axis took ~35x as long
    key = np.zeros((nb, nl, -(-2 * n // 8) * 8), np.uint8)
    for c, col in enumerate(cols):
        key[:, :, 2 * c] = col[:, :, 5]
        key[:, :, 2 * c + 1] = col[:, :, 29]
    key = key.reshape(rows, -1)
    words = key.view(np.uint64)
    change = words[1:, 0] != words[:-1, 0]
    for w in range(1, words.shape[1]):
        change |= words[1:, w] != words[:-1, w]
    starts = np.flatnonzero(change) + 1
    if (len(starts) + 1) * _RUN > rows:
        return None
    starts = np.concatenate([[0], starts])
    ends = np.append(starts[1:], rows)
    layouts = key[starts, :2 * n] != 0
    width = 23 * n + np.count_nonzero(layouts, axis=1)
    text = np.empty(int(np.dot(ends - starts, width)), np.uint8)
    pos = 0
    for r0, r1, layout, row in zip(starts.tolist(), ends.tolist(),
                                   layouts.tolist(), width.tolist()):
        spans = [(6 - neg, 29 + wide)
                 for neg, wide in zip(layout[::2], layout[1::2])]
        (b0, i0), (b1, i1) = divmod(r0, nl), divmod(r1, nl)
        # the run as rectangles of (blocks, rows of a block): the rest of
        # its first block, whole blocks, the start of its last block
        if b0 == b1:
            rects = [(b0, b0 + 1, i0, i1)]
        else:
            rects = [(b0, b0 + 1, i0, nl)] if i0 else []
            b0 += i0 > 0
            rects += [(b0, b1, 0, nl)] if b1 > b0 else []
            rects += [(b1, b1 + 1, 0, i1)] if i1 else []
        for b0, b1, i0, i1 in rects:
            size = (b1 - b0) * (i1 - i0) * row
            out = text[pos:pos + size].reshape(b1 - b0, i1 - i0, row)
            pos += size
            at = 0
            for col, (lo, hi) in zip(cols, spans):
                span = f"V{hi - lo}"
                out[:, :, at:at + hi - lo].view(span)[...] = \
                    col[b0:b1, i0:i1, lo:hi].view(span)
                at += hi - lo
    return text


def write_csv(path, header: str, columns, *, axes=()) -> None:
    """Write 1-D columns under a comma-separated header line.

    Without ``axes`` every column holds one value per row.  With ``axes``
    the rows are the C-order Cartesian product of the 1-D ``axes``, which
    are written first, and each entry of ``columns`` holds one value per
    row of that product.  The header names the axes, then the columns.
    Each axis value is formatted once and its text copied to every row it
    appears on; the bytes are those of the expanded table.  The rows go in
    chunks of about ``_CHUNK`` values of ``columns``, and a chunk builds its
    text by slicing or by NUL deletion, whichever is cheaper for its size
    and content (``_text``).

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
    seps = np.full(n_cols, _E)              # comma, newline: see _records
    seps[-1] = 3 * _E + 1
    slow, heads = 0, []
    if axes:
        # every axis in one call, which has a fixed cost of ~25 numpy calls
        rec, fell = _records(np.concatenate(axes)[:, None], seps[:1])
        cuts = np.cumsum(shape)[:-1]
        heads = np.split(rec.view(np.uint8).reshape(-1, 32), cuts)
        slow += sum(int(np.count_nonzero(f)) * (n_rows // max(1, len(a)))
                    for f, a in zip(np.split(fell, cuts), axes))
    table = np.column_stack(cols)
    # Rows go in chunks of whole blocks of the last axis (a plain table is
    # one block), or in slices of a block longer than a chunk: the last axis
    # repeats along the blocks, and every other axis has one value a block.
    width = max(1, shape[-1] if axes else n_rows)
    step = max(1, _CHUNK // len(cols))
    per, part = max(1, step // width), min(width, step)
    blocks = n_rows // width
    with path.open("wb") as f:
        f.write((header + "\n").encode())
        for b0 in range(0, blocks, per):
            nb = min(per, blocks - b0)
            block = b0 + np.arange(nb)
            for l0 in range(0, width, part):
                nl = min(part, width - l0)
                start = b0 * width + l0
                values = table[start:start + nb * nl]
                rec, fell = _records(values.reshape(nb, nl, len(cols)),
                                     seps[n_axes:])
                slow += int(np.count_nonzero(fell))
                chunk = []
                if axes:
                    chunk = [h[block // (strides[j] // width) % shape[j],
                               None] for j, h in enumerate(heads[:-1])]
                    chunk.append(heads[-1][None, l0:l0 + nl])
                f.write(_text(rec.view(np.uint8), chunk))
    _log.debug("%s: %d rows, %d columns, %d values formatted by %%",
               path.name, n_rows, n_cols, slow)
