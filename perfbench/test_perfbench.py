"""Tests of the benchmark itself: seeded inputs, the output checker, the
span tracer and the command's output contract."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gravclock
import checks
from spans import LAYERS, Tracer
from worker import Session, tail
from workloads import WORKLOADS, Runner, generate

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_follow_the_seed(workload):
    assert generate(workload, 7) == generate(workload, 7)
    assert generate(workload, 7) != generate(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_keep_their_size_classes(workload):
    def classes(ops):
        keys = ("kind", "n_grid", "sweep_n_grid", "form", "coupling")
        return sorted(tuple(str(op.get(k)) for k in keys) for op in ops)
    assert classes(generate(workload, 1)) == classes(generate(workload, 2))


SMALL_SET = {"kind": "figures_set", "n_grid": 21, "n_nu": 4001, "panel": "b",
             "sweep_n_grid": 21, "delta_zeta": 0.011}


@pytest.fixture(scope="module")
def figures_outcome(tmp_path_factory):
    runner = Runner(gravclock, tmp_path_factory.mktemp("bench"))
    outcome = runner.run(SMALL_SET)
    assert outcome.error is None
    return outcome


class _Replay:
    """Stands in for Runner: hands back a prepared outcome."""

    def __init__(self, outcome):
        self.outcome = outcome

    def run(self, op):
        return self.outcome


def _failed_count(outcome) -> int:
    session = Session(_Replay(outcome), [SMALL_SET], checks)
    session.run_pass()
    session.run_pass()
    return session.failed


def _edit(outcome, name, old: bytes, new: bytes):
    assert old in outcome.files[name]
    edited = type(outcome)(seconds=outcome.seconds, rc=outcome.rc,
                           stdout=outcome.stdout, files=dict(outcome.files))
    edited.files[name] = outcome.files[name].replace(old, new, 1)
    return edited


def test_checker_accepts_genuine_output(figures_outcome):
    assert _failed_count(figures_outcome) == 0


def test_checker_counts_corrupted_csv(figures_outcome):
    # drop the last field of the first data row
    data = figures_outcome.files["figure1_b.csv"]
    first_row = data.split(b"\n")[1]
    bad = _edit(figures_outcome, "figure1_b.csv", first_row,
                first_row.rsplit(b",", 1)[0])
    assert _failed_count(bad) == 2


def test_checker_counts_non_finite_value(figures_outcome):
    last_row = figures_outcome.files["sweep.csv"].split(b"\n")[-2]
    bad = _edit(figures_outcome, "sweep.csv", last_row,
                last_row.rsplit(b",", 1)[0] + b",nan")
    assert _failed_count(bad) == 2
    with pytest.raises(checks.CheckError):
        checks.parse_json(b'{"fitted_rate": NaN}')


def test_checker_counts_wrong_spot_value(figures_outcome):
    # theta = pi/8 is row 5 and dz = 2 widths column 8 of the 21-point grid
    rows = figures_outcome.files["figure1_b.csv"].split(b"\n")
    spot = rows[1 + 5 * 21 + 8]
    value = float(spot.rsplit(b",", 1)[1])
    assert value == pytest.approx(checks.SPOT_VALUE, rel=checks.SPOT_REL)
    wrong = spot.rsplit(b",", 1)[0] + b"," + \
        format(value * 1.001, ".16e").encode()
    assert _failed_count(_edit(figures_outcome, "figure1_b.csv", spot,
                               wrong)) == 2


def test_changed_output_between_passes_fails(figures_outcome):
    outcomes = iter([figures_outcome,
                     _edit(figures_outcome, "sweep.csv", b"\n0", b"\n-0")])
    runner = _Replay(None)
    runner.run = lambda op: next(outcomes)
    session = Session(runner, [SMALL_SET], checks)
    session.run_pass()
    session.run_pass()
    assert session.failed == 1


def test_layer_self_times_stay_within_wall(tmp_path):
    runner = Runner(gravclock, tmp_path)
    ops = [SMALL_SET] + generate("states", 3)[:16] + [
        {"kind": "line", "form": "mixture", "r": 1e3, "points": 5,
         "zeta1": 0.0, "zeta2": 0.002, "delta_zeta": 0.001,
         "theta_rad": 0.3, "phi_rad": 0.0}]
    session = Session(runner, ops, checks)
    originals = (gravclock.spectrum, gravclock.cli.main,
                 gravclock.experiments.spectrum,
                 gravclock.HeightDensity.__dict__["from_callable"])
    tracer = Tracer()
    tracer.install(gravclock)
    try:
        tracer.begin_pass(0)
        wall, _, _ = session.run_pass(tracer)
    finally:
        tracer.uninstall()
    assert session.failed == 0
    assert (gravclock.spectrum, gravclock.cli.main,
            gravclock.experiments.spectrum,
            gravclock.HeightDensity.__dict__["from_callable"]) == originals
    summary = tracer.summary(0, wall)
    selfs = {k: v for k, v in summary.items() if k.endswith(".self_s")}
    assert all(0.0 <= v <= wall for v in selfs.values())
    layer_total = sum(summary.get(f"layer.{m}.self_s", 0.0) for m in LAYERS)
    assert layer_total <= wall
    assert summary["trace.remainder_s"] == pytest.approx(wall - layer_total)
    # calls made through other modules' bindings are traced too
    assert summary["analytic.spectrum.calls"] >= 4 + 1   # figure2 + line
    assert summary["experiments.figure2_lines.calls"] == 4
    assert summary["cli.cmd_figures.calls"] == 1
    assert summary["serialize.write_csv.bytes"] > 0
    assert summary["model.density_build.busy_s"] > 0.0


def test_tail_is_highest_percentile_with_ten_beyond():
    assert tail([float(i) for i in range(200)]) == (189.0, 95.0, 10)
    assert tail([float(i) for i in range(20)]) == (17.0, 90.0, 2)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def _run_bench(cwd: Path, *args: str):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_command_prints_declared_metrics(trace, key):
    proc = _run_bench(HERE.parent, "--workload", "states", "--seed", "5",
                      "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH[key]}


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run_bench(tmp_path, "--workload", "oracle", "--seed", "1",
                      "--seconds", "20", "--trace", "0")
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
