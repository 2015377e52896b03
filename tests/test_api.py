"""The public surface: ``gravclock.__all__`` and the README's library sketch."""
from __future__ import annotations

import re
from pathlib import Path

import pytest

import gravclock as gc

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_are_unique_and_resolve():
    assert len(gc.__all__) == len(set(gc.__all__))
    for name in gc.__all__:
        assert hasattr(gc, name), name


def test_readme_library_sketch_runs():
    """The documented example runs on the public names and gives the
    values its comments state."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns: dict = {}
    exec(compile(code, str(README), "exec"), ns)
    assert ns["gc"].quantum_correction(ns["spec"], ns["scales"]) \
        == pytest.approx(1.4597e-3, rel=1e-4)
    assert ns["run"].fitted_rate == pytest.approx(1.25, rel=0.01)
    deviation, s_cap, truncated = ns["run"].single_pole_deviation(5.0)
    assert deviation == pytest.approx(0.014, abs=1e-3)
    assert (s_cap, truncated) == (5.0, False)
