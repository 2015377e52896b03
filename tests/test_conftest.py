"""What ``conftest.py`` sets up for the whole suite."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import gravclock as gc

CONFTEST = Path(__file__).resolve().with_name("conftest.py")

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_a_failing_property_test_reports_its_example(tmp_path):
    """A falsified ``@given`` test, run under this suite's conftest and its
    ``filterwarnings = ["error"]`` (pyproject.toml), fails with exit 1 and
    shows its falsifying example, not an internal error."""
    (tmp_path / "conftest.py").write_text(CONFTEST.read_text())
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings = error\n")
    (tmp_path / "test_fails.py").write_text(FAILING)
    src = str(Path(gc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "test_fails.py"], cwd=tmp_path, env=env, capture_output=True,
        text=True)
    report = result.stdout + result.stderr
    assert result.returncode == 1, report
    assert "Falsifying example: test_fails(" in report
    assert "INTERNALERROR" not in report
