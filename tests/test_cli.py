"""In-process checks of the command-line front end."""
from __future__ import annotations

import argparse
import collections
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gravclock as gc
from gravclock import analytic, cli, model

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


def test_zeta_state_angles_default_to_the_reference_state(tmp_path,
                                                          capsys):
    """A zeta-form state without angles takes the reference state's, theta
    = pi/8 and phi = 0: the reference packets alone are the default state."""
    cfg = write_cfg(tmp_path, {"state": {"zeta1": 0.0, "zeta2": 0.02,
                                         "delta_zeta": 0.01}})
    outs = []
    for name, argv in (("default", []), ("packets", ["--config", cfg])):
        out = tmp_path / name
        out.mkdir()
        code, _, err = run(capsys, ["rate", *argv, "--out", str(out)])
        assert (code, err) == (0, "")
        outs.append((out / "rate.json").read_bytes())
    assert outs[0] == outs[1]


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


@pytest.mark.parametrize("z1_m", [0.0, 1000.0])
def test_rate_quadrature_keeps_earth_scale_heights(tmp_path, capsys, z1_m):
    """Under the Earth default scales, 1 m apart is zeta ~ 1e-16, which
    rounds away against 1 + zeta; the quadrature method must still give
    the closed form's excess."""
    state = {"z1_m": z1_m, "z2_m": z1_m + 1.0, "delta_m": 0.5,
             "theta_rad": 0.3927, "phi_rad": 0.0}
    got = {}
    for method in ("closed-form", "quadrature"):
        out = tmp_path / method
        out.mkdir()
        cfg = write_cfg(tmp_path, {"state": state,
                                   "rate": {"method": method}})
        code, printed, err = run(capsys, ["rate", "--config", cfg,
                                          "--out", str(out)])
        assert (code, err) == (0, "")
        got[method] = (json.loads((out / "rate.json").read_text())
                       ["gammaQ_inv"], float(printed))
    closed = got["closed-form"]
    # abs=0: approx's default absolute floor, 1e-12, would pass anything here
    assert closed[0] == pytest.approx(7.96359681976e-18, rel=1e-11, abs=0.0)
    for value, want in zip(got["quadrature"], closed):
        assert value == pytest.approx(want, rel=1e-12, abs=0.0)


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
    # the Voigt path is what "auto" takes for every CLI density
    ({"spectrum": {"method": "voigt"}}, "spectrum.method"),
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
    ({"params": {"omega_rad_s": 1e15, "gamma0_s": 1.0, "g": 0.0}},
     "params.g: must be > 0"),
    ({"params": {"omega_rad_s": 1e15, "gamma0_s": 1.0, "c": 0.0}},
     "params.c: must be > 0"),
    ({"params": {"omega_rad_s": 0.0, "gamma0_s": 1.0}},
     "params.omega_rad_s: must be > 0"),
    # past float range: each row reaches a Python float ** or / that
    # raises where IEEE arithmetic would give inf or 0
    ({"params": {"omega_rad_s": 1e15, "dipole_Cm": 1e200}},
     "params: omega_rad_s/gamma0_s = 0 < 1"),
    ({"params": {"omega_rad_s": 1e15, "dipole_Cm": 1e-29, "c": 1e-300}},
     "omega_rad_s/gamma0_s = 0 < 1; the emitter must be underdamped"),
    ({"params": {"omega_rad_s": 1e15, "dipole_Cm": 1e-200}},
     "params.dipole_Cm: too small"),
    ({"params": {**UNIT_PARAMS, "c": 1e200}, "state": METER_STATE},
     "params: c = 1e+200 overflows when squared"),
    ({"params": {**UNIT_PARAMS, "c": 1e160}},
     "params: c = 1e+160 overflows when squared"),
    ({"state": {**METER_STATE, "z2_m": 1e200}},
     "state: packet separation 1e+200"),
    ({"state": {**METER_STATE, "z2_m": 0.0, "delta_m": 1e-200}},
     "state: packet separation 0.0"),
    # the spread in zeta, g * delta / c**2, underflows to 0, or only its
    # square does, which the closed form divides by; a height overflows
    ({"params": {"g": 1e-300, "c": 1e100, "omega_rad_s": 1e9,
                 "gamma0_s": 1e6},
      "state": {**METER_STATE, "z2_m": 1.0, "delta_m": 0.5}},
     "state.delta_m: the packet leaves float"),
    ({"params": {"g": 1.4e-8, "c": 5.0e150, "omega_rad_s": 1e9,
                 "gamma0_s": 1e6},
      "state": {"z1_m": 0.0, "z2_m": 1e103, "delta_m": 4.3e102,
                "theta_rad": 0.4, "phi_rad": 0.1}},
     "state.delta_m: the packet leaves float range in zeta units under "
     "these params: 4.3e+102 m is 2.408e-207 in zeta, squared 0.0"),
    ({"params": {**UNIT_PARAMS, "g": 1e300},
      "state": {**METER_STATE, "z2_m": 1e10}},
     "state.z2_m: the packet leaves float range in zeta units"),
    ({"tcoh": {"sigma_z_m": 1e-200, "mass_kg": 1e-200}},
     "tcoh: sigma_v must be finite"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cfg,needle", BAD_CONFIGS,
                         ids=[needle for _, needle in BAD_CONFIGS])
def test_invalid_config_exits_2_and_names_field(tmp_path, capsys, cfg,
                                                needle):
    path = write_cfg(tmp_path, cfg)
    command = "tcoh" if "tcoh" in cfg else "rate"
    code, out, err = run(capsys, [command, "--config", path,
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


@pytest.mark.parametrize("kind", ["not_utf8", "directory", "missing"])
def test_unreadable_config_exits_2_naming_the_flag(tmp_path, capsys, kind):
    """A config that is not a file of UTF-8 text is refused with exit 2 and
    a message naming --config, not a traceback."""
    path = tmp_path / "cfg.json"
    if kind == "not_utf8":
        path.write_bytes(b'\xff\xfe{"a": 1')
        want = ("error: --config: not UTF-8 text ('utf-8' codec can't "
                "decode byte 0xff in position 0: invalid start byte)\n")
    else:
        if kind == "directory":
            path.mkdir()
        want = f"error: --config: file {str(path)!r} not found\n"
    code, out, err = run(capsys, ["rate", "--config", str(path),
                                  "--out", str(tmp_path)])
    assert (code, out, err) == (2, "", want)
    assert not (tmp_path / "rate.json").exists()


@pytest.mark.parametrize("data", [
    b'{\r\n  "rate": {"method": "quadrature"},\r\n}',
    b'{"rate":\r{"method": 1',
    b'\xef\xbb\xbf{}',
    b'{"out": "caf\xc3\xa9"\n"x"}',
])
def test_bad_json_message_reads_as_text(tmp_path, capsys, data):
    """The config's bytes are decoded as UTF-8; where they are not valid
    JSON, the message gives the position a text-mode read of the file
    gives (newlines translated), as it always has."""
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(path.read_text(encoding="utf-8"))
    code, _, err = run(capsys, ["rate", "--config", str(path),
                                "--out", str(tmp_path)])
    assert (code, err) == (2, f"error: --config: not valid JSON "
                              f"({exc.value})\n")


def test_missing_output_directory(tmp_path, capsys):
    code, _, err = run(capsys, ["rate", "--out", str(tmp_path / "absent")])
    assert code == 2
    assert "out: output directory" in err


def test_bad_global_flags(tmp_path, capsys):
    # no --quad-order: rate quadrature has no order to set
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


ARGV_FLAGS = ["--config", "--out", "--conf", "--config=x", "-h", "--", "-x"]
ARGV_TOKENS = [*sorted(cli._COMMANDS), "nope", *ARGV_FLAGS, "", "cfg.json",
               "out", "-", "a b"]


@settings(max_examples=400)
@given(st.one_of(
    st.lists(st.sampled_from(ARGV_TOKENS), max_size=6),
    st.builds(lambda command, pairs: [command, *sum(pairs, ())],
              st.sampled_from(sorted(cli._COMMANDS)),
              st.lists(st.tuples(st.sampled_from(ARGV_FLAGS),
                                 st.sampled_from(ARGV_TOKENS)),
                       max_size=3))))
def test_direct_argv_reader_agrees_with_argparse(argv):
    """Whenever main reads an argv without argparse, argparse reads it to
    the same Namespace, without exiting."""
    args = cli._read_argv(argv)
    if args is not None:
        assert cli._build_parser().parse_args(argv) == args


@pytest.mark.parametrize("argv", [
    ["rate"],
    ["tcoh", "--out", "out", "--config", "cfg.json"],
    ["rate", "--config", "a.json", "--config", "b.json", "--out", "o"],
    ["spectrum", "--config", ""],
])
def test_plain_argv_is_read_directly(argv):
    args = cli._read_argv(argv)
    assert args is not None
    assert args == cli._build_parser().parse_args(argv)


@pytest.mark.parametrize("method", ["closed-form", "quadrature"])
def test_rate_request_builds_its_state_once(tmp_path, capsys, monkeypatch,
                                            method):
    """One rate request builds one density, the superposition's, and runs
    the interference kernel twice: the spec's norm check in meters and the
    density in zeta units, which the rate excess reuses.  The mixture's
    rate reads the same density's packets."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    kernel = counted("kernel", model._interference)
    monkeypatch.setattr(model, "_interference", kernel)
    monkeypatch.setattr(analytic, "_interference", kernel)
    monkeypatch.setattr(model.HeightDensity, "superposition", classmethod(
        counted("superposition",
                model.HeightDensity.superposition.__func__)))
    monkeypatch.setattr(model.HeightDensity, "__post_init__", counted(
        "density", model.HeightDensity.__post_init__))
    cfg = write_cfg(tmp_path, {"state": METER_STATE,
                               "rate": {"method": method}})
    code, _, err = run(capsys, ["rate", "--config", cfg,
                                "--out", str(tmp_path)])
    assert (code, err) == (0, "")
    assert calls == {"superposition": 1, "density": 1, "kernel": 2}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["closed-form", "quadrature"])
def test_rate_is_silent_for_packets_far_apart(tmp_path, capsys, method):
    """Packets ~1e300 widths apart: the interference term is 0, and no
    numpy overflow warning reaches the console."""
    cfg = write_cfg(tmp_path, {
        "params": UNIT_PARAMS,
        "state": {"z1_m": 0.0, "z2_m": 1e150, "delta_m": 1e-150,
                  "theta_rad": 0.5, "phi_rad": 0.0},
        "rate": {"method": method}})
    code, out, err = run(capsys, ["rate", "--config", cfg,
                                  "--out", str(tmp_path)])
    assert (code, out, err) == (0, "0.00000000000e+00\n", "")
    assert json.loads((tmp_path / "rate.json").read_text())[
        "gammaQ_inv"] == 0.0


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
        raise gc.AccuracyError("ode blew up")

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
    assert list(summary) == ["zeta", "r", "fitted_rate", "fit_residual",
                             "max_deviation_single_pole"]
    assert summary["fitted_rate"] == pytest.approx(1.3, rel=0.02)
    assert summary["max_deviation_single_pole"] < 0.05


def test_oracle_notes_truncation_at_the_recurrence(tmp_path, capsys):
    """A run longer than 0.8 of the comb's recurrence time is compared only
    up to there, and the command says so."""
    cfg = write_cfg(tmp_path, {"oracle": {
        "zeta": -0.9, "r": 100.0, "halfwidth_linewidths": 30.0,
        "dnu": 0.05, "s_max": 110.0, "compare_up_to": None}})
    code, out, err = run(capsys, ["oracle", "--config", cfg,
                                  "--out", str(tmp_path)])
    assert code == 0
    assert err == ""
    assert out.endswith(" up to s=100.531 (comparison truncated at the "
                        "comb recurrence)\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("oracle, field", [
    # exp(-(1+zeta)s) underflows to 0 inside the comparison
    ({"zeta": 4.0, "r": 100.0, "halfwidth_linewidths": 25.0, "dnu": 0.03,
      "s_max": 160.0, "compare_up_to": None}, "max_deviation_single_pole"),
], ids=["underflow"])
def test_oracle_too_short_to_fit_exits_3(tmp_path, capsys, oracle, field):
    """A summary field that comes out non-finite fails the command, naming
    the field, instead of writing NaN or inf into the JSON."""
    cfg = write_cfg(tmp_path, {"oracle": oracle})
    code, out, err = run(capsys, ["oracle", "--config", cfg,
                                  "--out", str(tmp_path)])
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {field}: non-finite")
    assert not (tmp_path / "oracle_summary.json").exists()


@pytest.mark.parametrize("oracle, key", [
    # r + nu_min = 100 - 200 < 0: some mode frequency is negative
    ({"coupling": "tilted", "r": 100, "zeta": 0,
      "halfwidth_linewidths": 200}, "oracle.coupling"),
    # a margin of 20 linewidths, under the 25 the window needs
    ({"r": 100, "zeta": 0, "halfwidth_linewidths": 20},
     "oracle.halfwidth_linewidths"),
    # shorter than the fit window [0.5, 5]: no fitted rate
    ({"zeta": 0, "r": 100, "s_max": 0.4}, "oracle.s_max"),
], ids=["coupling", "margin", "fit_window"])
def test_oracle_refusals_name_their_key(tmp_path, capsys, oracle, key):
    """A window or coupling the comb cannot carry, or a run too short for
    the decay-rate fit, exits 2 before the solve, with a message that names
    the config key at fault."""
    cfg = write_cfg(tmp_path, {"oracle": oracle})
    code, out, err = run(capsys, ["oracle", "--config", cfg,
                                  "--out", str(tmp_path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {key}: ")
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
    assert ref["term2"] == pytest.approx(1e-18, rel=1e-12, abs=0.0)
    assert payload["n_factor"] > 0.0
    assert payload["tcoh_s"] > 0.0


# (sigma_v/c)**2 overflows in the bracket, then in the reference magnitudes
NON_FINITE_TCOH = [
    ({"tcoh": {"sigma_v_m_s": 1e300}}, "term1"),
    ({"params": {"g": 1e30, "c": 1e-40, "omega_rad_s": 2.0, "gamma0_s": 1.0},
      "tcoh": {"sigma_v_m_s": 1.0}}, "reference_magnitudes.term1"),
]


@pytest.mark.parametrize("cfg,field", NON_FINITE_TCOH,
                         ids=[field for _, field in NON_FINITE_TCOH])
def test_tcoh_overflow_exits_3_naming_the_field(tmp_path, capsys, cfg,
                                                field):
    path = write_cfg(tmp_path, cfg)
    code, out, err = run(capsys, ["tcoh", "--config", path,
                                  "--out", str(tmp_path)])
    assert code == 3
    assert out == ""
    assert err == f"error: {field}: non-finite value inf\n"
    assert not (tmp_path / "tcoh.json").exists()


def test_dipole_config_matches_its_gamma0(tmp_path, capsys):
    """A ``dipole_Cm`` config and the same config with the derived
    ``gamma0_s`` in its place give byte-identical files."""
    omega, dipole, c = 1e6, 1e-21, 1e4
    outs = []
    for key, value in (("dipole_Cm", dipole),
                       ("gamma0_s", gc.gamma0_from_dipole(dipole, omega,
                                                          c=c))):
        out = tmp_path / key
        out.mkdir()
        cfg = write_cfg(tmp_path, {"params": {"omega_rad_s": omega,
                                              key: value, "c": c}})
        for command in ("rate", "tcoh"):
            assert run(capsys, [command, "--config", cfg,
                                "--out", str(out)])[0] == 0
        outs.append([(out / name).read_bytes()
                     for name in ("rate.json", "tcoh.json")])
    assert outs[0] == outs[1]


RATE_FIELDS = {"gamma_sup", "gamma_cl", "gammaQ_inv", "method"}
TCOH_FIELDS = {"term1", "term2", "term3", "n_factor", "tcoh_s",
               "reduced_gammaQ", "reference_magnitudes"}


def extreme_config(rng):
    """Params, a meter-form state and tcoh keys with magnitudes
    log-uniform in [1e-300, 1e300]; the state and each tcoh key are
    present or not at random."""
    def mag():
        return float(10.0 ** rng.uniform(-300.0, 300.0))

    def signed():
        return mag() * float(rng.choice((-1.0, 1.0)))

    params = {"g": mag(), "c": mag(), "omega_rad_s": mag(),
              str(rng.choice(("gamma0_s", "dipole_Cm"))): mag()}
    z1 = signed()
    state = {"z1_m": z1, "z2_m": z1 + signed(), "delta_m": mag(),
             "theta_rad": float(rng.uniform(0.0, math.pi / 2)),
             "phi_rad": float(rng.uniform(0.0, 2.0 * math.pi))}
    tcoh = {key: draw() for key, draw in (
        ("sigma_z_m", mag), ("sigma_v_m_s", mag), ("mass_kg", mag),
        ("t_s", mag), ("p_bar", signed), ("z1_m", signed),
        ("z2_m", signed)) if rng.random() < 0.5}
    cfg = {"params": params, "tcoh": tcoh}
    if rng.random() < 0.7:
        cfg["state"] = state
    return cfg


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_extreme_configs_exit_cleanly(tmp_path, capsys):
    """No config crashes: every run exits 0, 2 naming a config section,
    or 3 naming a field of the file it would have written."""
    rng = np.random.default_rng(20261019)
    path = tmp_path / "cfg.json"
    codes = set()
    for _ in range(200):
        path.write_text(json.dumps(extreme_config(rng)))
        for command, fields in (("rate", RATE_FIELDS),
                                ("tcoh", TCOH_FIELDS)):
            code, _, err = run(capsys, [command, "--config", str(path),
                                        "--out", str(tmp_path)])
            codes.add(code)
            if code == 0:
                continue
            assert err.startswith("error: ") and err.count("\n") == 1, err
            where = err.removeprefix("error: ").partition(": ")[0]
            names = {2: {"params", "state", "tcoh"}, 3: fields}[code]
            assert where.split(".")[0] in names, err
    assert codes == {0, 2, 3}


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
            return got == pytest.approx(want, rel=1e-6, abs=0.0)
        return got == want

    for name, spec in cli.CONFIG_SCHEMA.items():
        if isinstance(spec, cli._Key):
            assert same(merged[name], spec.default), name
            continue
        for key, entry in spec.items():
            assert same(merged[name][key], entry.default), f"{name}.{key}"
    for key, want in cli._DEFAULT_STATE.items():
        assert same(merged["state"][key], want), f"state.{key}"
