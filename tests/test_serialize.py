from __future__ import annotations

import json

import numpy as np
import pytest

from gravclock import serialize


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
