"""In-process checks of the command-line front end."""
from __future__ import annotations

import argparse
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import gravclock as gc
from gravclock import cli

UNIT_PARAMS = {"g": 1.0, "c": 1.0, "omega_rad_s": 2.0, "gamma0_s": 1.0}
METER_STATE = {"z1_m": 0.0, "z2_m": 2.0, "delta_m": 1.0,
               "theta_rad": math.pi / 4, "phi_rad": 0.0}

# gammaQ_inv of the built-in default state under any parameter set:
# separation 0.02, packet width 0.01, theta = pi/8, phi = 0.
DEFAULT_RATE = 0.005 / (math.e + math.sin(math.pi / 4))


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rate_default_run(tmp_path, capsys):
    code, out, err = run(capsys, ["rate", "--out", str(tmp_path)])
    assert code == 0
    assert err == ""
    printed = out.strip()
    # twelve significant digits in scientific notation
    assert re.fullmatch(r"-?\d\.\d{11}e[+-]\d{2,3}", printed)
    assert float(printed) == pytest.approx(DEFAULT_RATE, rel=1e-9)
    payload = json.loads((tmp_path / "rate.json").read_text())
    assert set(payload) == {"gamma_sup", "gamma_cl", "gammaQ_inv", "method"}
    assert payload["method"] == "closed-form"
    assert payload["gammaQ_inv"] == pytest.approx(float(printed), rel=1e-10)
    assert payload["gamma_sup"] > payload["gamma_cl"] > 0.0


def test_rate_vanishes_at_balanced_weights(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"state": {"zeta1": 0.0, "zeta2": 0.02,
                                         "delta_zeta": 0.01,
                                         "theta_rad": math.pi / 4,
                                         "phi_rad": 0.0}})
    code, out, _ = run(capsys, ["rate", "--config", cfg,
                                "--out", str(tmp_path)])
    assert code == 0
    assert abs(float(out.strip())) < 1e-15


def test_rate_meter_and_zeta_forms_agree(tmp_path, capsys):
    # with g = c = 1 the meter and zeta coordinates coincide exactly,
    # so the two spellings must produce byte-identical output
    out_z = tmp_path / "z"
    out_m = tmp_path / "m"
    out_z.mkdir()
    out_m.mkdir()
    cfg_z = write_cfg(tmp_path, {
        "params": UNIT_PARAMS,
        "state": {"zeta1": 0.0, "zeta2": 0.02, "delta_zeta": 0.01,
                  "theta_rad": 0.3, "phi_rad": 0.7},
    }, name="zeta.json")
    cfg_m = write_cfg(tmp_path, {
        "params": UNIT_PARAMS,
        "state": {"z1_m": 0.0, "z2_m": 0.02, "delta_m": 0.01,
                  "theta_rad": 0.3, "phi_rad": 0.7},
    }, name="meter.json")
    assert run(capsys, ["rate", "--config", cfg_z, "--out", str(out_z)])[0] == 0
    assert run(capsys, ["rate", "--config", cfg_m, "--out", str(out_m)])[0] == 0
    assert (out_z / "rate.json").read_bytes() == \
        (out_m / "rate.json").read_bytes()


def test_rate_rejects_mixture_state(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"state": {"zeta1": 0.0, "zeta2": 0.02,
                                         "delta_zeta": 0.01,
                                         "theta_rad": 0.5,
                                         "kind": "mixture"}})
    code, _, err = run(capsys, ["rate", "--config", cfg,
                                "--out", str(tmp_path)])
    assert code == 2
    assert "state.kind" in err


BAD_CONFIGS = [
    ({"frobnicate": 1}, "frobnicate"),
    ({"rate": {"fft": True}}, "rate.fft"),
    ({"rate": {"method": "magic"}}, "rate.method"),
    ({"state": {"z1_m": 0.0, "zeta2": 0.02, "delta_zeta": 0.01}},
     "mixes meter and zeta"),
    ({"state": {"theta_rad": 0.5}}, "state"),
    ({"state": {"zeta1": 0.0, "zeta2": 0.02, "delta_zeta": 0.0}},
     "state.delta_zeta"),
    ({"state": {"zeta1": 0.0, "zeta2": 0.02, "delta_zeta": 0.01,
                "kind": "mixture", "phi_rad": 1.0}},
     "state.phi_rad"),
    ({"spectrum": {"nu_min": 2.0, "nu_max": 1.0}}, "spectrum.nu_max"),
    ({"spectrum": {"n_points": 4001.5}}, "spectrum.n_points"),
    ({"oracle": {"zeta": -1.5}}, "oracle.zeta"),
    ({"oracle": {"coupling": "quadratic"}}, "oracle.coupling"),
    ({"sweep": {"panel": "d"}}, "sweep.panel"),
    ({"seed": 7}, "seed"),
    ({"preset": "mars-caesium"}, "preset"),
    ({"params": {"g": 9.8}}, "params"),
    ({"params": {"omega_rad_s": 1e15, "gamma0_s": 1.0, "omega_hz": 1e15}},
     "params.omega_hz"),
    ({"params": {"gamma0_s": 1.0}}, "params.omega_rad_s"),
    ({"params": {"omega_rad_s": 1e15, "gamma0_s": 1.0, "g": True}},
     "params.g"),
    ({"params": {"omega_rad_s": 1e15, "gamma0_s": 1.0, "mass_kg": 5.0}},
     "params.mass_kg: unknown config key"),
    ({"state": {**METER_STATE, "z3_m": 1.0}}, "state.z3_m"),
    ({"state": {k: v for k, v in METER_STATE.items() if k != "delta_m"}},
     "state.delta_m"),
    ({"state": {**METER_STATE, "kind": "mixture"}},
     "mixture state takes no phi_rad"),
    ({"state": {**METER_STATE, "z1_m": "zero"}}, "state.z1_m"),
    ({"state": {k: v for k, v in METER_STATE.items() if k != "phi_rad"}},
     "state.phi_rad: is required"),
    ({"tcoh": {"alpha_w": 1.5}}, "tcoh.alpha_w"),
    # cross-key params rules, named by their config keys
    ({"params": {"omega_rad_s": 1e15}},
     "params: one of gamma0_s or dipole_Cm is required"),
    ({"params": {"omega_rad_s": 1e15, "gamma0_s": 1.0, "dipole_Cm": 1e-29}},
     "params: gamma0_s and dipole_Cm are mutually exclusive"),
    ({"params": {"omega_rad_s": 1.0, "gamma0_s": 2.0}},
     "params: omega_rad_s/gamma0_s = 0.5 < 1"),
    # an integer too large for a float
    ({"survival": {"n_points": 10**400}}, "survival.n_points"),
]


@pytest.mark.parametrize("cfg,needle", BAD_CONFIGS,
                         ids=[needle for _, needle in BAD_CONFIGS])
def test_invalid_config_exits_2_and_names_field(tmp_path, capsys, cfg,
                                                needle):
    path = write_cfg(tmp_path, cfg)
    code, out, err = run(capsys, ["rate", "--config", path,
                                  "--out", str(tmp_path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert needle in err


SECTION_ERRORS = [cfg for cfg, _ in BAD_CONFIGS
                  if set(cfg) <= {"params", "state"}] + [
    {"params": {"omega_rad_s": 1e15, "gamma0_s": None}},
    {"params": {"omega_rad_s": 1.0, "gamma0_s": 2.0}},
    # zero norm
    {"state": {"zeta1": 0.0, "zeta2": 0.0, "delta_zeta": 0.01,
               "theta_rad": math.pi / 4, "phi_rad": math.pi}},
]


def test_error_messages_name_their_section_once(tmp_path, capsys):
    """``params``/``state`` errors carry one path prefix, not the path
    followed by the section name again."""
    path = write_cfg(tmp_path, {})
    for cfg in SECTION_ERRORS:
        Path(path).write_text(json.dumps(cfg))
        code, _, err = run(capsys, ["rate", "--config", path,
                                    "--out", str(tmp_path)])
        assert code == 2
        where, _, detail = err.removeprefix("error: ").partition(": ")
        section = where.split(".")[0]
        assert section in cfg, err
        assert not detail.startswith(section), err
        assert f"{section}." not in detail, err


@pytest.mark.parametrize("command", ["sweep", "rate"])
def test_zeta_state_range_checked_on_every_command(tmp_path, capsys,
                                                   command):
    cfg = write_cfg(tmp_path, {"state": {"zeta1": 0.0, "zeta2": 0.02,
                                         "delta_zeta": 0.01,
                                         "theta_rad": 2.0}})
    code, out, err = run(capsys, [command, "--config", cfg,
                                  "--out", str(tmp_path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: state.theta_rad: ")
    assert not any(tmp_path.glob("*.csv"))


NEAR_HORIZON = {"zeta1": -0.9, "zeta2": 0.0, "delta_zeta": 0.01}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_state_reaching_the_horizon_exits_2_on_every_command(
        tmp_path, capsys, command):
    """A packet support at zeta <= -0.5 is refused by every command, with
    the state named, before any file is written."""
    cfg = write_cfg(tmp_path, {"state": NEAR_HORIZON})
    code, out, err = run(capsys, [command, "--config", cfg,
                                  "--out", str(tmp_path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: state: density support reaches zeta")
    assert not any(tmp_path.glob("*.csv")) and not any(
        tmp_path.glob("*_*.json"))


def test_meter_state_horizon_check_follows_the_params(tmp_path, capsys):
    """The same meter heights sit at zeta ~ -1e-16 under the default
    (Earth) parameters and at zeta = -0.9 with g = c = 1."""
    meter = {"z1_m": -0.9, "z2_m": 0.0, "delta_m": 0.01,
             "theta_rad": math.pi / 8, "phi_rad": 0.0}
    cfg = write_cfg(tmp_path, {"state": meter})
    assert run(capsys, ["tcoh", "--config", cfg,
                        "--out", str(tmp_path)])[0] == 0
    cfg = write_cfg(tmp_path, {"params": UNIT_PARAMS, "state": meter})
    code, _, err = run(capsys, ["tcoh", "--config", cfg,
                                "--out", str(tmp_path)])
    assert code == 2
    assert err.startswith("error: state: density support reaches zeta")


def test_config_file_missing(tmp_path, capsys):
    code, _, err = run(capsys, ["rate", "--config",
                                str(tmp_path / "nope.json"),
                                "--out", str(tmp_path)])
    assert code == 2
    assert "--config" in err and "not found" in err


def test_config_file_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["rate", "--config", str(path),
                                "--out", str(tmp_path)])
    assert code == 2
    assert "not valid JSON" in err


def test_missing_output_directory(tmp_path, capsys):
    code, _, err = run(capsys, ["rate", "--out", str(tmp_path / "absent")])
    assert code == 2
    assert "out: output directory" in err


def test_bad_global_flags(tmp_path, capsys):
    # no --quad-order: the Gauss-Hermite order of rate quadrature is fixed
    cfg = write_cfg(tmp_path, {"rate": {"method": "quadrature"}})
    with pytest.raises(SystemExit) as exc:
        cli.main(["rate", "--quad-order", "80", "--config", cfg,
                  "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--quad-order" in capsys.readouterr().err
    assert not (tmp_path / "rate.json").exists()


def test_parser_is_built_once(tmp_path, capsys):
    """main reuses one parser: parsing leaves it as it was."""
    parser = cli._build_parser()
    cfg = write_cfg(tmp_path, {})
    for _ in range(2):
        code, _, _ = run(capsys, ["rate", "--config", cfg,
                                  "--out", str(tmp_path)])
        assert code == 0
        assert cli._build_parser() is parser


def test_every_subcommand_takes_only_the_common_flags():
    """A flag that some command ignores cannot be added to them all."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(cli._COMMANDS)
    for name, command in sub.choices.items():
        flags = {flag for action in command._actions
                 for flag in action.option_strings}
        assert flags == {"--config", "--out", "-h", "--help"}, \
            name


def test_state_range_check_happens_in_meters_too(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"state": {"z1_m": 0.0, "z2_m": 1.0,
                                         "delta_m": 0.5,
                                         "theta_rad": 2.0,
                                         "phi_rad": 0.0}})
    code, _, err = run(capsys, ["rate", "--config", cfg,
                                "--out", str(tmp_path)])
    assert code == 2
    assert "state" in err and "theta" in err


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    def explode(env):
        raise gc.IntegrationError("ode blew up")

    monkeypatch.setitem(cli._COMMANDS, "rate", explode)
    code, _, err = run(capsys, ["rate", "--out", str(tmp_path)])
    assert code == 3
    assert err.strip() == "error: ode blew up"


def test_spectrum_writes_table(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"params": UNIT_PARAMS})
    code, out, err = run(capsys, ["spectrum", "--config", cfg,
                                  "--out", str(tmp_path)])
    assert code == 0
    assert err == ""
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "nu,p"
    data = np.loadtxt(lines[1:], delimiter=",")
    assert data.shape == (4001, 2)
    assert np.all(data[:, 1] >= 0.0)
    # with r = 2 the derived window spans ~20 linewidths either side
    assert np.trapezoid(data[:, 1], data[:, 0]) > 0.9


def test_spectrum_low_mass_warns_but_exits_0(tmp_path, capsys):
    # under the default parameters the line sits ~2e15 linewidths away from
    # nu = 0, so a +-5 window catches essentially none of the mass
    cfg = write_cfg(tmp_path, {"spectrum": {"nu_min": -5.0, "nu_max": 5.0}})
    code, _, err = run(capsys, ["spectrum", "--config", cfg,
                                "--out", str(tmp_path)])
    assert code == 0
    assert "widen nu_min/nu_max" in err
    assert (tmp_path / "spectrum.csv").is_file()


def test_spectrum_empty_config_window_holds_the_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {})
    code, _, err = run(capsys, ["spectrum", "--config", cfg,
                                "--out", str(tmp_path)])
    assert code == 0
    assert err == ""
    data = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1)
    assert np.trapezoid(data[:, 1], data[:, 0]) >= 0.9


def test_spectrum_quadrature_default_state_holds_the_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"spectrum": {"method": "quadrature"}})
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        code, _, err = run(capsys, ["spectrum", "--config", cfg,
                                    "--out", str(out)])
        assert code == 0
        assert err == ""
        blobs.append((out / "spectrum.csv").read_bytes())
    assert blobs[0] == blobs[1]
    data = np.loadtxt(tmp_path / "a" / "spectrum.csv", delimiter=",",
                      skiprows=1)
    assert np.trapezoid(data[:, 1], data[:, 0]) >= 0.999


def test_spectrum_derived_window_must_increase(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"spectrum": {"nu_min": 1e30}})
    code, _, err = run(capsys, ["spectrum", "--config", cfg,
                                "--out", str(tmp_path)])
    assert code == 2
    assert "spectrum.nu_max" in err
    assert not (tmp_path / "spectrum.csv").exists()


def test_survival_table_and_determinism(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_a.mkdir()
    out_b.mkdir()
    cfg = write_cfg(tmp_path, {"survival": {"s_max": 3.0, "n_points": 31}})
    assert run(capsys, ["survival", "--config", cfg,
                        "--out", str(out_a)])[0] == 0
    assert run(capsys, ["survival", "--config", cfg,
                        "--out", str(out_b)])[0] == 0
    blob = (out_a / "survival.csv").read_bytes()
    assert blob == (out_b / "survival.csv").read_bytes()
    lines = blob.decode().splitlines()
    assert lines[0] == "s,p"
    data = np.loadtxt(lines[1:], delimiter=",")
    assert data.shape == (31, 2)
    assert data[0, 1] == pytest.approx(1.0)
    assert np.all(np.diff(data[:, 1]) < 0.0)


def test_output_directory_from_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"out": str(tmp_path)})
    code, _, _ = run(capsys, ["survival", "--config", cfg])
    assert code == 0
    assert (tmp_path / "survival.csv").is_file()


def test_oracle_writes_run_and_summary(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"oracle": {
        "zeta": 0.3, "r": 100.0, "halfwidth_linewidths": 30.0,
        "dnu": 0.05, "s_max": 6.0, "compare_up_to": 4.0}})
    code, out, err = run(capsys, ["oracle", "--config", cfg,
                                  "--out", str(tmp_path)])
    assert code == 0
    assert err == ""
    assert out.startswith("fitted rate 1.3")
    assert "max deviation" in out and "up to s=4" in out
    traj = (tmp_path / "oracle_trajectory.csv").read_text().splitlines()
    assert traj[0] == "s,alpha_sq"
    modes = (tmp_path / "oracle_modes.csv").read_text().splitlines()
    assert modes[0] == "nu,beta_sq"
    summary = json.loads((tmp_path / "oracle_summary.json").read_text())
    assert set(summary) == {"zeta", "r", "fitted_rate", "fit_residual",
                            "max_deviation_single_pole"}
    assert summary["fitted_rate"] == pytest.approx(1.3, rel=0.02)
    assert summary["max_deviation_single_pole"] < 0.05


def test_oracle_too_short_to_fit_exits_3(tmp_path, capsys):
    """A run shorter than the fit window has no fitted rate: the command
    fails naming the field instead of writing NaN into the JSON."""
    cfg = write_cfg(tmp_path, {"oracle": {"zeta": 0, "r": 100,
                                          "s_max": 0.4}})
    code, out, err = run(capsys, ["oracle", "--config", cfg,
                                  "--out", str(tmp_path)])
    assert code == 3
    assert out == ""
    assert err.startswith("error: fitted_rate: non-finite")
    assert not (tmp_path / "oracle_summary.json").exists()


def test_oracle_rejects_removed_ode_tol(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"oracle": {"ode_tol": 1e-10}})
    code, _, err = run(capsys, ["oracle", "--config", cfg,
                                "--out", str(tmp_path)])
    assert code == 2
    assert "oracle.ode_tol: unknown config key" in err


def test_sweep_single_panel(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"sweep": {"panel": "a", "n_grid": 9}})
    code, _, _ = run(capsys, ["sweep", "--config", cfg,
                              "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "theta,phi,dz,gammaQ_inv"
    data = np.loadtxt(lines[1:], delimiter=",")
    assert data.shape == (81, 4)
    np.testing.assert_allclose(data[:, 0], math.pi / 8, rtol=1e-15)


def test_figures_complete_and_byte_identical(tmp_path, capsys):
    names = ["figure1_a.csv", "figure1_b.csv", "figure1_c.csv",
             "figure2_a.csv", "figure2_b.csv", "figure2_c.csv",
             "figure2_d.csv"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_a.mkdir()
    out_b.mkdir()
    cfg = write_cfg(tmp_path, {"figures": {"n_grid": 11, "n_nu": 61}})
    for out_dir in (out_a, out_b):
        code, _, err = run(capsys, ["figures", "--config", cfg,
                                    "--out", str(out_dir)])
        assert code == 0
        assert err == ""
    for name in names:
        blob = (out_a / name).read_bytes()
        assert blob == (out_b / name).read_bytes()
        header = blob.decode().splitlines()[0]
        expected = "theta,phi,dz,gammaQ_inv" if name.startswith("figure1") \
            else "nu,p_sup,p_cl"
        assert header == expected


def test_tcoh_report(tmp_path, capsys):
    code, out, _ = run(capsys, ["tcoh", "--out", str(tmp_path)])
    assert code == 0
    assert out.startswith("tcoh = ")
    payload = json.loads((tmp_path / "tcoh.json").read_text())
    assert set(payload) == {"term1", "term2", "term3", "n_factor",
                            "tcoh_s", "reduced_gammaQ",
                            "reference_magnitudes"}
    ref = payload["reference_magnitudes"]
    assert ref["term2"] == pytest.approx(1e-18, rel=1e-12)
    assert payload["n_factor"] > 0.0
    assert payload["tcoh_s"] > 0.0


def test_empty_config_means_defaults(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_a.mkdir()
    out_b.mkdir()
    cfg = write_cfg(tmp_path, {})
    assert run(capsys, ["rate", "--out", str(out_a)])[0] == 0
    assert run(capsys, ["rate", "--config", cfg,
                        "--out", str(out_b)])[0] == 0
    assert (out_a / "rate.json").read_bytes() == \
        (out_b / "rate.json").read_bytes()


def test_readme_config_block_is_the_defaults():
    """The README's config block validates and states every default."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"### Config file.*?```json\n(.*?)```", readme,
                      re.DOTALL).group(1)
    merged = cli.validate_config(json.loads(block))

    def same(got, want):
        # README rounds alpha_w and theta_rad to six digits
        if isinstance(want, float):
            return got == pytest.approx(want, rel=1e-6)
        return got == want

    for name, spec in cli.CONFIG_SCHEMA.items():
        if isinstance(spec, cli._Key):
            assert same(merged[name], spec.default), name
            continue
        for key, entry in spec.items():
            assert same(merged[name][key], entry.default), f"{name}.{key}"
    for key, want in cli._DEFAULT_STATE.items():
        assert same(merged["state"][key], want), f"state.{key}"
