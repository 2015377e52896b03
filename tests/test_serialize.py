from __future__ import annotations

import json
import logging
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from gravclock import cli, serialize


def reference_write_csv(path, header: str, columns, *, axes=()) -> None:
    """The value-by-value writer that ``serialize.write_csv`` replaced; the
    ``axes`` are expanded into full columns first."""
    grid = np.meshgrid(*axes, indexing="ij")
    cols = [np.asarray(c, dtype=float).ravel() for c in [*grid, *columns]]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("columns differ in length")
    for name, c in zip(header.split(","), cols):
        bad = np.flatnonzero(~np.isfinite(c))
        if len(bad):
            raise serialize.NonFiniteError(
                f"{Path(path).name} column {name} row "
                f"{bad[0]}: non-finite value {c[bad[0]]}")
    lines = [header]
    lines.extend(",".join(serialize.fmt17(c[i]) for c in cols)
                 for i in range(n))
    Path(path).write_text("\n".join(lines) + "\n")


def test_fmt17_roundtrips_doubles():
    rng = np.random.default_rng(3)
    values = [0.0, 1.0, -1.0, 1e-300, -2.5e300, 0.1, 2.0 / 3.0,
              *np.exp(rng.uniform(-200, 200, 50)) * rng.choice([-1, 1], 50)]
    for x in values:
        assert float(serialize.fmt17(x)) == x


def test_dump_json_is_valid_and_deterministic(tmp_path):
    payload = {"a": 1.5, "b": [1, 2.25, "x"], "c": {"d": None, "e": True},
               "f": np.array([0.5, 0.25])}
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    serialize.dump_json(p1, payload)
    serialize.dump_json(p2, payload)
    assert p1.read_bytes() == p2.read_bytes()
    back = json.loads(p1.read_text())
    assert back["a"] == 1.5
    assert back["b"] == [1, 2.25, "x"]
    assert back["c"] == {"d": None, "e": True}
    assert back["f"] == [0.5, 0.25]


def test_dump_json_rejects_unknown_types(tmp_path):
    with pytest.raises(TypeError):
        serialize.dump_json(tmp_path / "bad.json", {"x": object()})


def test_write_csv_roundtrip(tmp_path):
    path = tmp_path / "table.csv"
    a = np.linspace(0.0, 1.0, 7)
    b = np.exp(a)
    serialize.write_csv(path, "s,p", [a, b])
    text = path.read_text().splitlines()
    assert text[0] == "s,p"
    assert len(text) == 8
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], a)
    assert np.array_equal(back[:, 1], b)


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        serialize.write_csv(tmp_path / "bad.csv", "a,b",
                            [np.zeros(3), np.zeros(4)])
    # on a grid, a column holds one value per row of the axes' product
    with pytest.raises(ValueError, match="6 rows"):
        serialize.write_csv(tmp_path / "bad.csv", "x,y,v", [np.zeros(5)],
                            axes=(np.zeros(2), np.zeros(3)))
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                 np.float64("-inf")])
def test_writers_refuse_non_finite_values(tmp_path, bad):
    with pytest.raises(serialize.NonFiniteError, match=r"b\.c\[1\]"):
        serialize.dump_json(tmp_path / "bad.json", {"a": 1.0,
                                                    "b": {"c": [0.0, bad]}})
    with pytest.raises(serialize.NonFiniteError, match="column p row 2"):
        serialize.write_csv(tmp_path / "bad.csv", "s,p",
                            [np.zeros(3), [0.0, 1.0, bad]])
    # an axis value first appears on row index * (length of the later axes)
    with pytest.raises(serialize.NonFiniteError, match="column y row 8"):
        serialize.write_csv(tmp_path / "bad.csv", "x,y,z,v", [np.zeros(24)],
                            axes=(np.zeros(2), [0.0, 1.0, bad], np.zeros(4)))
    assert not any(tmp_path.iterdir())


def test_write_csv_rejects_header_column_mismatch(tmp_path):
    # one header name for two columns: the NaN of the second column used
    # to go unchecked and unnamed into the file
    with pytest.raises(ValueError, match="header names 1 columns, got 2"):
        serialize.write_csv(tmp_path / "bad.csv", "a",
                            [[1.0, 2.0], [float("nan"), 1.0]])
    with pytest.raises(ValueError, match="header names 3 columns, got 2"):
        serialize.write_csv(tmp_path / "bad.csv", "a,b,c",
                            [np.zeros(2), np.zeros(2)])
    # the header names the axes, then the columns
    with pytest.raises(ValueError, match="header names 2 columns, got 3"):
        serialize.write_csv(tmp_path / "bad.csv", "x,v", [np.zeros(6)],
                            axes=(np.zeros(2), np.zeros(3)))
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("column", [np.zeros((2, 3)), 1.0])
def test_write_csv_rejects_columns_that_are_not_1d(tmp_path, column):
    with pytest.raises(ValueError, match="1-D"):
        serialize.write_csv(tmp_path / "bad.csv", "a,b",
                            [np.zeros(6), column])
    with pytest.raises(ValueError, match="1-D"):
        serialize.write_csv(tmp_path / "bad.csv", "a,b", [np.zeros(6)],
                            axes=(column,))
    assert not any(tmp_path.iterdir())


def test_write_csv_keeps_the_sign_of_zero(tmp_path):
    # 0.0 == -0.0 as floats; keyed on values they would print alike.  Three
    # distinct values in seven rows: each is formatted once and repeated.
    col = np.array([0.0, -0.0, 1.5, -0.0, 0.0, 0.0, -0.0])
    serialize.write_csv(tmp_path / "new.csv", "z,w", [col, -col])
    reference_write_csv(tmp_path / "ref.csv", "z,w", [col, -col])
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()
    lines = (tmp_path / "new.csv").read_text().splitlines()
    assert lines[1] == "0.0000000000000000e+00,-0.0000000000000000e+00"
    assert lines[2] == "-0.0000000000000000e+00,0.0000000000000000e+00"


_EDGE_BITS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                       1.7976931348623157e308, -1.7976931348623157e308,
                       1.0, -1.0, 0.1, 1e100, 1e-100]).view(np.int64)
_BITS = st.one_of(st.sampled_from(_EDGE_BITS.tolist()),
                  st.integers(-2**63, 2**63 - 1))


def _finite(bits: np.ndarray) -> np.ndarray:
    """Floats from raw bit patterns; NaN/inf patterns lose an exponent bit."""
    values = bits.view(float)
    return np.where(np.isfinite(values), values,
                    (bits ^ (1 << 52)).view(float))


@st.composite
def _csv_columns(draw):
    n = draw(st.integers(0, 300))
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        pool = draw(st.lists(_BITS, min_size=1, max_size=6))
        if draw(st.booleans()):
            pool += _EDGE_BITS[:2].tolist()     # 0.0 and -0.0 together
        repeated = draw(arrays(np.int64, n, elements=st.sampled_from(pool)))
        # an odd step makes the progression distinct modulo 2**64
        start, step = draw(_BITS), draw(_BITS) | 1
        distinct = start + step * np.arange(n, dtype=np.int64)
        # the first m rows distinct, the rest repeats, in a drawn order
        m = draw(st.integers(0, n))
        order = np.random.default_rng(draw(st.integers(0, 2**32))) \
            .permutation(n)
        bits = np.concatenate([distinct[:m], repeated[m:]])[order]
        cols.append(_finite(bits))
    return cols


@given(cols=_csv_columns())
def test_write_csv_matches_the_reference_writer(tmp_path_factory, cols):
    tmp = tmp_path_factory.mktemp("csv")
    header = ",".join(f"c{i}" for i in range(len(cols)))
    serialize.write_csv(tmp / "new.csv", header, cols)
    reference_write_csv(tmp / "ref.csv", header, cols)
    assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


def _cli_outputs(tmp_path, name) -> dict[str, bytes]:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oracle": {"r": 100.0, "s_max": 2.0},
                               "figures": {"n_grid": 21, "n_nu": 41}}))
    out = tmp_path / name
    files = {}
    for command in ("figures", "sweep", "oracle", "spectrum", "survival"):
        (out / command).mkdir(parents=True)
        assert cli.main([command, "--config", str(cfg),
                         "--out", str(out / command)]) == 0
        files.update({f"{command}/{p.name}": p.read_bytes()
                      for p in (out / command).iterdir()})
    return files


def test_cli_files_match_the_reference_writer(tmp_path, monkeypatch):
    new = _cli_outputs(tmp_path, "new")
    monkeypatch.setattr(serialize, "write_csv", reference_write_csv)
    ref = _cli_outputs(tmp_path, "ref")
    assert sorted(new) == sorted(ref)
    assert len(new) == 13
    for name in ref:
        assert new[name] == ref[name], name
    # the sweep holds both signed zeros, which must print apart
    assert b",-0.0000000000000000e+00\n" in new["sweep/sweep.csv"]
    assert b",0.0000000000000000e+00\n" in new["sweep/sweep.csv"]


# ---------------------------------------------------------------------------
# the numpy formatter against "%.16e"
# ---------------------------------------------------------------------------


def _written(tmp, values) -> list[str]:
    """The lines ``write_csv`` writes for one column of ``values``."""
    serialize.write_csv(tmp / "one.csv", "x", [values])
    return (tmp / "one.csv").read_text().splitlines()[1:]


_MAX = 1.7976931348623157e308
# powers of ten (subnormal ones too), exponents at +-99/+-100, both ends of
# the fast path (1e-280, 1e300), the smallest normal and subnormal, the
# largest double and zero; each drawn with up to 3 ulps on either side
_ANCHORS = sorted({float(f"1e{e}") for e in range(-323, 309)}
                  | {float(f"{m}e{e}") for e in (-101, -100, -99, 99, 100)
                     for m in (5, 9.999999999999999)}
                  | {2.2250738585072014e-308, 5e-324, _MAX, 0.0})
_FINITE_BITS = int(np.float64(_MAX).view(np.int64))


@st.composite
def _edge_doubles(draw):
    kind = draw(st.sampled_from(["anchor", "subnormal", "range", "bits"]))
    if kind == "anchor":
        bits = int(np.float64(draw(st.sampled_from(_ANCHORS)))
                   .view(np.int64)) + draw(st.integers(-3, 3))
        bits = min(max(bits, 0), _FINITE_BITS)
    elif kind == "subnormal":
        bits = draw(st.integers(1, 2**52 - 1))
    elif kind == "range":
        lo, hi = draw(st.sampled_from([(1e-101, 1e-98), (1e98, 1e101),
                                       (1e-281, 1e-279), (1e299, 1e301)]))
        return draw(st.floats(lo, hi)) * draw(st.sampled_from([1.0, -1.0]))
    else:
        bits = draw(st.integers(0, _FINITE_BITS))
    x = float(np.int64(bits).view(np.float64))
    return x if draw(st.booleans()) else -x


@pytest.mark.filterwarnings("error")
@given(values=st.lists(_edge_doubles(), min_size=1, max_size=40))
def test_write_csv_matches_percent_format_at_the_edges(tmp_path_factory,
                                                       values):
    tmp = tmp_path_factory.mktemp("edge")
    assert _written(tmp, values) == [serialize.fmt17(v) for v in values]


@st.composite
def _ties(draw):
    """Doubles on or next to a rounding tie of the 17th digit, built from
    18-digit decimal strings ending in 5.

    An exact tie is odd m / 2^j whose decimal m * 5^j has 18 digits;
    otherwise the string's digits and exponent are drawn and it parses to
    the double nearest the tie.
    """
    if draw(st.booleans()):
        j = draw(st.integers(3, 25))
        lo = -(-10**17 // 5**j) // 2
        hi = min((10**18 - 1) // 5**j, 2**53 - 1) // 2 - 1
        digits = str((2 * draw(st.integers(lo, hi)) + 1) * 5**j)
        exponent = len(digits) - 1 - j
        text = f"{digits[0]}.{digits[1:]}e{exponent}"
        assert Fraction(float(text)) == Fraction(text)
    else:
        digits = str(draw(st.integers(10**16, 10**17 - 1))) + "5"
        text = f"{digits[0]}.{digits[1:]}e{draw(st.integers(-300, 300))}"
    return float(text) * draw(st.sampled_from([1.0, -1.0]))


@pytest.mark.filterwarnings("error")
@given(values=st.lists(_ties(), min_size=1, max_size=40))
def test_write_csv_rounds_ties_like_percent_format(tmp_path_factory, values):
    tmp = tmp_path_factory.mktemp("tie")
    assert _written(tmp, values) == [serialize.fmt17(v) for v in values]


@pytest.mark.filterwarnings("error")
def test_exact_ties_take_the_percent_fallback(tmp_path, caplog):
    """2^-25 = 2.98023223876953125e-08 has 18 digits ending in 5: it lies
    exactly on a tie of the 17th, which %-formatting rounds to even, and so
    do the others below.  The numpy path hands each of them to %, as it
    does values outside [1e-280, 1e300].  Logged with the file: rows,
    columns and the values formatted by %; the bytes do not depend on the
    logging level."""
    ties = [2.0**-25, -3 * 2.0**-25, 5 * 2.0**-24, 13 * 2.0**-24]
    tiny_huge = [1e-300, -5e-324, 1e301, -_MAX]
    col = np.array(ties + tiny_huge + [0.0, -0.0, 0.1])
    serialize.write_csv(tmp_path / "quiet.csv", "x,y", [col, col[::-1]])
    with caplog.at_level(logging.DEBUG, logger="gravclock.serialize"):
        serialize.write_csv(tmp_path / "t.csv", "x,y", [col, col[::-1]])
    records = [r for r in caplog.records if r.name == "gravclock.serialize"]
    assert len(records) == 1
    assert records[0].args == ("t.csv", len(col), 2, 2 * (len(ties) + 4))
    assert (tmp_path / "t.csv").read_bytes() == \
        (tmp_path / "quiet.csv").read_bytes()
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[1].split(",")[0] == "2.9802322387695312e-08"
    assert lines[1:] == [f"{serialize.fmt17(a)},{serialize.fmt17(b)}"
                         for a, b in zip(col, col[::-1])]
    # as grid axes each value is formatted once, but the record counts it
    # on every row it is written to: col's 8 on 2 rows each, 2^-25 on 11
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="gravclock.serialize"):
        serialize.write_csv(tmp_path / "g.csv", "x,y,v", [np.ones(22)],
                            axes=(col, [1.0, 2.0**-25]))
    records = [r for r in caplog.records if r.name == "gravclock.serialize"]
    assert [r.args for r in records] == [("g.csv", 22, 3, 8 * 2 + 11)]


def _logged(path, header, columns, **kwargs) -> tuple:
    """The arguments of the one DEBUG record ``write_csv`` logs."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("gravclock.serialize")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        serialize.write_csv(path, header, columns, **kwargs)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    (record,) = records
    return record.args


# signed zeros, exact ties of the 17th digit and magnitudes outside
# [1e-280, 1e300]: the last two take the % fallback
_GRID_EDGES = [0.0, -0.0, 2.0**-25, -3 * 2.0**-25, 5 * 2.0**-24,
               13 * 2.0**-24, 1e-300, -5e-324, 1e301, -_MAX]


@st.composite
def _grids(draw):
    """1-3 axes of 1-7 values, 1-2 value columns and a chunk size; small
    chunks split the rows, and the last axis, into many blocks."""
    value = st.one_of(st.sampled_from(_GRID_EDGES), _edge_doubles(),
                      _ties())
    axes = [np.array(draw(st.lists(value, min_size=1, max_size=7)))
            for _ in range(draw(st.integers(1, 3)))]
    n = math.prod(len(a) for a in axes)
    cols = [np.array(draw(st.lists(value, min_size=n, max_size=n)))
            for _ in range(draw(st.integers(1, 2)))]
    return axes, cols, draw(st.sampled_from([1, 9, 40, serialize._CHUNK]))


# every chunk sliced, however short and however often its layout changes;
# every chunk by NUL deletion, after its layout was read or without it
_TEXT_PATHS = [{"_SLICE_ROWS": 1, "_RUN": 1},
               {"_SLICE_ROWS": 1, "_RUN": 2**62},
               {"_SLICE_ROWS": 2**62}]


@pytest.mark.filterwarnings("error")
@given(grid=_grids())
def test_grid_tables_write_their_expanded_columns(tmp_path_factory, grid):
    """A table written from its axes has the bytes of the value-by-value
    writer on the expanded columns, and its DEBUG record reads as the plain
    write's: a fallback axis value counts once per row it appears on.  Both
    hold whether the chunks build their text by slicing or by deleting
    NULs."""
    axes, cols, chunk = grid
    tmp = tmp_path_factory.mktemp("grid")
    (tmp / "grid").mkdir()
    (tmp / "plain").mkdir()
    header = ",".join([f"a{i}" for i in range(len(axes))]
                      + [f"c{i}" for i in range(len(cols))])
    expanded = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
    reference_write_csv(tmp / "ref.csv", header, cols, axes=axes)
    records = []
    for path in _TEXT_PATHS:
        with mock.patch.multiple(serialize, _CHUNK=chunk, **path):
            logged = _logged(tmp / "grid" / "t.csv", header, cols, axes=axes)
            assert logged == _logged(tmp / "plain" / "t.csv", header,
                                     expanded + cols)
        records.append(logged)
        for kind in ("grid", "plain"):
            assert (tmp / kind / "t.csv").read_bytes() == \
                (tmp / "ref.csv").read_bytes()
    assert len(set(records)) == 1


@pytest.mark.filterwarnings("error")
@given(cols=st.integers(1, 60).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.sampled_from(_GRID_EDGES), _edge_doubles(),
                       _ties()), min_size=n, max_size=n),
    min_size=1, max_size=4)),
    chunk=st.sampled_from([1, 9, 40, serialize._CHUNK]))
def test_plain_tables_take_either_text_path(tmp_path_factory, cols, chunk):
    """Columns mixing signs, signed zeros, 3-digit exponents and values the
    % fallback formats give the reference bytes and one DEBUG record,
    whether each chunk is sliced or has its NULs deleted."""
    tmp = tmp_path_factory.mktemp("plain")
    header = ",".join(f"c{i}" for i in range(len(cols)))
    reference_write_csv(tmp / "ref.csv", header, cols)
    records = []
    for path in _TEXT_PATHS:
        with mock.patch.multiple(serialize, _CHUNK=chunk, **path):
            records.append(_logged(tmp / "t.csv", header, cols))
        assert (tmp / "t.csv").read_bytes() == (tmp / "ref.csv").read_bytes()
    assert len(set(records)) == 1


@pytest.mark.filterwarnings("error")
def test_write_csv_carries_into_the_next_power_of_ten(tmp_path):
    """The doubles nearest these powers of ten lie just below them, close
    enough that 17 digits round up to 10^e: the mantissa reaches 10^17 and
    carries into the exponent."""
    exponents = [-305, -176, -79, -14, 98, 220]
    values = [float(f"1e{e}") for e in exponents]
    assert all(Fraction(v) < Fraction(10) ** e
               for v, e in zip(values, exponents))
    assert _written(tmp_path, values) == \
        [f"1.0000000000000000e{e:+03d}" for e in exponents]


def test_power_table_holds_the_exact_powers_of_ten():
    """Each row: the double nearest 10^e, the double nearest what it
    misses, and the first split in two 26-bit halves."""
    table = serialize._pow10_table()
    assert table.shape == (4, 2 * serialize._E + 1)
    for e, (hi, lo, hi_hi, hi_lo) in zip(range(-serialize._E,
                                               serialize._E + 1),
                                         table.T.tolist()):
        exact = Fraction(10) ** e
        assert hi == float(exact)
        assert lo == float(exact - Fraction(hi))
        assert hi_hi + hi_lo == hi
        assert math.frexp(hi_hi)[0] * 2**26 == int(math.frexp(hi_hi)[0]
                                                    * 2**26)
