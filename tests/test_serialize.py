from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from gravclock import cli, serialize


def reference_write_csv(path, header: str, columns) -> None:
    """The value-by-value writer that ``serialize.write_csv`` replaced."""
    cols = [np.asarray(c, dtype=float).ravel() for c in columns]
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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                 np.float64("-inf")])
def test_writers_refuse_non_finite_values(tmp_path, bad):
    with pytest.raises(serialize.NonFiniteError, match=r"b\.c\[1\]"):
        serialize.dump_json(tmp_path / "bad.json", {"a": 1.0,
                                                    "b": {"c": [0.0, bad]}})
    with pytest.raises(serialize.NonFiniteError, match="column p row 2"):
        serialize.write_csv(tmp_path / "bad.csv", "s,p",
                            [np.zeros(3), [0.0, 1.0, bad]])
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
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("column", [np.zeros((2, 3)), 1.0])
def test_write_csv_rejects_columns_that_are_not_1d(tmp_path, column):
    with pytest.raises(ValueError, match="1-D"):
        serialize.write_csv(tmp_path / "bad.csv", "a,b",
                            [np.zeros(6), column])
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
