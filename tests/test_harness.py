"""Unit tests for the experiment harness and CLI."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ioncodesign import cli, default_instance
from ioncodesign.artifacts import write_csv, write_json
from ioncodesign.hamiltonian import SpinHamiltonian
from ioncodesign.cli import main
from ioncodesign.feedforward import ControlQuery, optimal_input_angle
from ioncodesign.harness import (
    ConfigError,
    ExperimentConfig,
    check_setting,
    exact_spectrum,
    perturbed_instance,
    run_depth_sweep,
    run_inference_demo,
    simulate_spectrum,
)
from ioncodesign.rules import RULES


def small_config(**overrides):
    base = dict(hamiltonian=default_instance(), c2=0.02, r_values=(2, 4, 8),
                r=4, n_runs=2, seed=0, t_max=2.0, n_times=7,
                omega_min=-12.0, omega_max=12.0, n_omega=121)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_default_instance_is_frozen():
    ham = default_instance()
    assert ham.n_spins == 4
    assert len(ham.coupled_pairs()) == 6
    again = default_instance()
    assert np.array_equal(ham.J, again.J) and np.array_equal(ham.h, again.h)


def test_config_validation_names_offending_field():
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict({"hamiltonian": default_instance().to_dict(),
                                    "c2": -1.0})
    assert exc.value.field == "c2"
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict({"hamiltonian": default_instance().to_dict(),
                                    "bogus": 1})
    assert exc.value.field == "bogus"
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict({})
    assert exc.value.field == "hamiltonian"
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict({"hamiltonian": "missing.json"})
    assert exc.value.field == "hamiltonian"


BAD_FIELDS = [("r", 2.7), ("n_times", 2.5), ("n_omega", 301.0), ("n_runs", 2.0),
              ("n_runs", True), ("seed", -1), ("seed", 1.5), ("seed", False),
              ("feedforward", "no"), ("feedforward", 1), ("correlated", "yes"),
              ("c2", "0.1"), ("r_values", 5), ("r_values", "abc"), ("r_values", [3, "x"]),
              ("r_values", [3, None]), ("r_values", [3, True]), ("r_values", []),
              ("omega_max", -20.0), ("r_values", [3.0]), ("omega_max", 1e308)]


@pytest.mark.parametrize("name,value", BAD_FIELDS)
def test_config_field_types_are_enforced(name, value, tmp_path, capsys):
    data = {"hamiltonian": default_instance().to_dict(), name: value}
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(data)
    assert exc.value.field == name
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = main(["simulate-spectrum", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert not (tmp_path / "o").exists()
    assert repr(name) in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(RULES))
def test_setting_rule_bounds_types_and_finiteness(name):
    kind, low, allowed = RULES[name]

    def rejected_as(value):
        try:
            check_setting(name, value)
        except ConfigError as exc:
            return exc.field
        return None

    assert rejected_as(low) == (None if allowed else name)
    if math.isfinite(low):
        below = low - 1 if kind is int else math.nextafter(low, -math.inf)
        assert rejected_as(below) == name
    if kind is float:
        assert [rejected_as(v) for v in (math.nan, math.inf, -math.inf)] == [name] * 3
    else:  # an integer takes no fraction
        assert rejected_as(float(low + 1)) == name
    assert rejected_as(True) == rejected_as("1") == name


def test_configs_compare_without_raising():
    config = small_config()
    assert config == dataclasses.replace(config)
    assert config != small_config(hamiltonian=dataclasses.replace(config.hamiltonian))


NUMBER_FIELDS = ["c2", "t_g", "gamma", "t_max", "omega_min", "omega_max"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", NUMBER_FIELDS)
def test_config_rejects_non_finite_numbers(name, value, tmp_path, capsys):
    data = {"hamiltonian": default_instance().to_dict(), name: value}
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(data)
    assert exc.value.field == name
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))  # NaN / Infinity, which json.load accepts
    code = main(["simulate-spectrum", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert repr(name) in capsys.readouterr().err


def test_cli_non_finite_flag_exits_2(tmp_path, capsys):
    code = main(["noise-stats", "--c2", "nan", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "'c2'" in capsys.readouterr().err


@pytest.mark.parametrize("command,name", [("depth-sweep", "c2"), ("calibrate", "shots")])
def test_cli_config_error_names_its_field_once(command, name, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"hamiltonian": default_instance().to_dict(), "c2": -1}))
    argv = ["--config", str(path)] if name == "c2" else ["--shots", "0"]
    assert main([command, *argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count(name) == 1, err
    assert not (tmp_path / "o").exists()


def test_cli_negative_seed_exits_2(tmp_path, capsys):
    code = main(["noise-stats", "--seed", "-1", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "'seed'" in capsys.readouterr().err


def test_config_json_with_hamiltonian_file(tmp_path):
    ham_path = tmp_path / "ham.json"
    ham_path.write_text(json.dumps(default_instance().to_dict()))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"hamiltonian": "ham.json", "c2": 0.01,
                                    "r_values": [2, 4]}))
    config = ExperimentConfig.from_json(cfg_path)
    assert config.c2 == 0.01
    assert config.r_values == (2, 4)
    assert config.hamiltonian.n_spins == 4


def test_depth_sweep_degenerate_single_r():
    result = run_depth_sweep(small_config(r_values=(4,)))
    assert result.r_opt_by_fint == 4
    assert result.r_opt_by_dh == 4
    assert len(result.records) == 1


def test_depth_sweep_noiseless_is_monotone():
    result = run_depth_sweep(small_config(c2=0.0))
    fints = [rec["f_int"] for rec in result.records]
    assert all(b >= a for a, b in zip(fints, fints[1:]))
    assert result.r_opt_by_fint == 8
    rs = [rec["r"] for rec in result.records]
    assert result.r_opt_by_dh in rs


def test_inference_zero_iterations():
    config = small_config()
    target = exact_spectrum(config)
    log = run_inference_demo(target, config.hamiltonian, 0, config)
    assert len(log) == 1
    assert log[0]["iteration"] == 0


def test_inference_fixed_point_noiseless():
    config = small_config(c2=0.0)
    # target simulated from the guess itself: distance stays at its floor
    _, target = simulate_spectrum(config)
    log = run_inference_demo(target, config.hamiltonian, 3, config)
    assert all(rec["d_h"] == pytest.approx(0.0, abs=1e-12) for rec in log)


def test_inference_distance_is_non_increasing():
    config = small_config(seed=5)
    target = exact_spectrum(config)
    rng = np.random.default_rng(0)
    guess = perturbed_instance(config.hamiltonian, 0.3, rng)
    log = run_inference_demo(target, guess, 6, config)
    ds = [rec["d_h"] for rec in log]
    assert all(b <= a + 1e-15 for a, b in zip(ds, ds[1:]))


def test_cli_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_cli_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"hamiltonian": default_instance().to_dict(),
                               "c2": -5.0}))
    code = main(["noise-stats", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "c2" in capsys.readouterr().err


def test_cli_noise_stats_matches_analytic(tmp_path, capsys):
    out = tmp_path / "ns"
    code = main(["noise-stats", "--c2", "0.02", "--tau", "10", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "noise_stats.json").read_text())
    lam = 0.2
    assert report["lambda"] == pytest.approx(lam)
    phi_in = report["phi_in"]
    assert report["mean_angle"] == pytest.approx(phi_in / (1 + lam))
    assert report["beta"] == pytest.approx(lam**2 / (1 + 2 * lam))
    assert (out / "manifest.json").exists()


def test_cli_calibrate_round_trip(tmp_path):
    out = tmp_path / "cal"
    code = main(["calibrate", "--c2", "0.02", "--shots", "4000",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "calibration_fit.json").read_text())
    assert report["c2_hat"] == pytest.approx(0.02, rel=0.1)
    assert report["residual"] < report["phase_damping_residual"]


def test_cli_seed_env_override(tmp_path, monkeypatch):
    """The retired IONCODESIGN_SEED variable overrides nothing: --seed alone sets the seed."""
    out1, out2 = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("IONCODESIGN_SEED", "123")
    main(["calibrate", "--c2", "0.02", "--shots", "500",
          "--seed", "0", "--out", str(out1)])
    monkeypatch.delenv("IONCODESIGN_SEED")
    main(["calibrate", "--c2", "0.02", "--shots", "500",
          "--seed", "0", "--out", str(out2)])
    assert (out1 / "calibration.csv").read_bytes() == \
        (out2 / "calibration.csv").read_bytes()


def test_cli_feedforward_table(tmp_path):
    out = tmp_path / "ff"
    code = main(["feedforward-table", "--n-phi", "3", "--n-lam", "2",
                 "--lam-max", "0.5", "--out", str(out)])
    assert code == 0
    lines = (out / "feedforward_table.csv").read_text().splitlines()
    assert lines[0] == "phi_p,lambda,phi_in_star,fidelity_star"
    assert len(lines) == 1 + 3 * 2


def test_cli_feedforward_table_rows_are_phi_major_direct_solves(tmp_path):
    # the command shares its dense scans across rows; no row may change
    out = tmp_path / "ff"
    assert main(["feedforward-table", "--n-phi", "3", "--n-lam", "2",
                 "--lam-max", "0.5", "--out", str(out)]) == 0
    lines = (out / "feedforward_table.csv").read_text().splitlines()
    table = [[float(v) for v in line.split(",")] for line in lines[1:]]
    phis = np.linspace(4 * math.pi / 3, 4 * math.pi, 3)
    assert [row[:2] for row in table] == [[p, lam] for p in phis for lam in (0.0, 0.5)]
    for phi_p, lam, star, fid in table:
        res = optimal_input_angle(ControlQuery(phi_p, lam))
        assert [star, fid] == [res["phi_in_star"], res["fidelity_star"]]


TINY_CLI_CONFIG = {"hamiltonian": {"n": 2, "J": [[0, 0.5], [0.5, 0]], "h": [1.0, -2.0]},
                   "c2": 0.02, "seed": 3, "n_runs": 1, "r": 2, "r_values": [1, 2],
                   "t_max": 1.0, "n_times": 3, "n_omega": 21}
SUBCOMMAND_FILES = [
    ("simulate-spectrum", [], {"response.csv", "spectrum.csv", "exact_spectrum.csv"}),
    ("depth-sweep", [], {"sweep.csv", "sweep_result.json"}),
    ("calibrate", ["--shots", "50"], {"calibration.csv", "calibration_fit.json"}),
    ("feedforward-table", ["--n-phi", "2", "--n-lam", "2"], {"feedforward_table.csv"}),
    ("noise-stats", [], {"noise_stats.json"}),
    ("infer", ["--iterations", "1"], {"inference_log.csv"}),
]


@pytest.mark.parametrize("command,extra,files", SUBCOMMAND_FILES,
                         ids=[c for c, _, _ in SUBCOMMAND_FILES])
def test_cli_subcommand_writes_results_manifest_and_summary(command, extra, files,
                                                            tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_CLI_CONFIG))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), *extra, "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == files | {"manifest.json"}
    assert json.loads((out / "manifest.json").read_text())["command"] == command
    stdout = capsys.readouterr().out
    if command == "noise-stats":
        # Its summary is the report itself, printed as one indented JSON block.
        assert stdout == (out / "noise_stats.json").read_text()
    else:
        assert stdout.endswith("\n") and stdout.count("\n") == 1


@pytest.mark.parametrize("argv", [["calibrate", "--shots", "0"],
                                  ["infer", "--iterations", "-1"]])
def test_cli_failed_subcommand_writes_no_manifest(argv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_CLI_CONFIG))
    out = tmp_path / "out"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    assert not (out / "manifest.json").exists()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [["calibrate", "--shots", "0"],
                                  ["infer", "--iterations", "-1"],
                                  ["noise-stats", "--tau", "0"],
                                  ["noise-stats", "--r", "0"],
                                  ["feedforward-table", "--n-phi", "0"],
                                  ["noise-stats", "--tau", "nan"],
                                  ["noise-stats", "--tau", "inf"],
                                  ["noise-stats", "--phi-in", "nan"],
                                  ["noise-stats", "--phi-in=-1"],
                                  ["feedforward-table", "--phi-cap", "nan"],
                                  ["feedforward-table", "--phi-cap", "0"],
                                  ["feedforward-table", "--lam-max", "nan"],
                                  ["infer", "--perturb", "nan"],
                                  ["noise-stats", "--c2", "1e300", "--tau", "1e10"],
                                  ["noise-stats", "--tau", "1e308", "--c2", "10"],
                                  ["noise-stats", "--phi-in", "1e160"],
                                  ["noise-stats", "--phi-in", "1e200"],
                                  ["noise-stats", "--tau", "1e160", "--c2", "1e160"]])
def test_cli_bad_option_exits_2_without_creating_out(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "config error" in err
    assert repr(argv[1].lstrip("-").split("=")[0].replace("-", "_")) in err


def _overflow_at_runtime(monkeypatch):
    """Make noise-stats fail after its options pass, as an overflow would."""
    from ioncodesign import cli

    def overflow(dist):
        raise OverflowError(34, "Numerical result out of range")

    monkeypatch.setattr(cli, "angle_moments", overflow)


def test_cli_overflow_is_an_error_without_manifest(tmp_path, capsys, monkeypatch):
    _overflow_at_runtime(monkeypatch)
    out = tmp_path / "out"
    assert main(["noise-stats", "--out", str(out)]) == 1
    assert not (out / "manifest.json").exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_runtime_failure_removes_only_the_out_it_created(tmp_path, capsys, monkeypatch):
    _overflow_at_runtime(monkeypatch)
    out = tmp_path / "out"
    assert main(["noise-stats", "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: noise-stats: ")
    out.mkdir()
    (out / "kept.txt").write_text("kept")
    assert main(["noise-stats", "--out", str(out)]) == 1
    assert [p.name for p in out.iterdir()] == ["kept.txt"]
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["noise-stats", "--out", str(empty)]) == 1
    assert empty.is_dir()


@pytest.mark.parametrize("field,value", [("h", [math.inf, 0.0]),
                                         ("J", [[0.0, math.nan], [0.5, 0.0]]),
                                         ("n", 2.5), ("n", True), ("n", 0),
                                         ("J", [["0", "0.5"], ["0.5", "0"]]),
                                         ("h", [True, 0]), ("n", 2.0)])
def test_cli_bad_hamiltonian_exits_2_without_creating_out(field, value, tmp_path, capsys):
    data = dict(TINY_CLI_CONFIG, hamiltonian=dict(TINY_CLI_CONFIG["hamiltonian"],
                                                  **{field: value}))
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(data)
    assert exc.value.field == "hamiltonian"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["depth-sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert "config field 'hamiltonian'" in capsys.readouterr().err


def test_cli_manifest_records_subcommand_options(tmp_path):
    out = tmp_path / "out"
    manifests = []
    for tau in ("10", "5", "10"):
        assert main(["noise-stats", "--c2", "0.02", "--tau", tau, "--out", str(out)]) == 0
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] != manifests[1]
    assert manifests[0] == manifests[2]
    options = json.loads(manifests[1])["options"]
    assert options == {"phi_in": math.pi / 2.0, "r": 100, "tau": 5.0}
    out = tmp_path / "table"
    assert main(["feedforward-table", "--n-phi", "2", "--n-lam", "3", "--out", str(out)]) == 0
    options = json.loads((out / "manifest.json").read_text())["options"]
    assert options == {"lam_max": 5.0, "n_lam": 3, "n_phi": 2, "phi_cap": 4.0 * math.pi}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_CLI_CONFIG))
    recorded = {}
    for command, extra, _ in SUBCOMMAND_FILES:
        out = tmp_path / command
        assert main([command, "--config", str(cfg), *extra, "--out", str(out)]) == 0
        recorded[command] = json.loads((out / "manifest.json").read_text())["options"]
        assert set(recorded[command]) == set(cli._SUBCOMMANDS[command][2])
    assert {command: set(options) for command, options in recorded.items()} == {
        "simulate-spectrum": {"r"}, "depth-sweep": set(), "calibrate": {"shots"},
        "feedforward-table": {"phi_cap", "n_phi", "n_lam", "lam_max"},
        "noise-stats": {"tau", "phi_in", "r"}, "infer": {"iterations", "perturb"}}
    assert recorded["simulate-spectrum"] == {"r": None}


def test_every_cli_number_option_is_typed_by_its_setting_rule():
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    assert list(sub.choices) == list(cli._SUBCOMMANDS)
    for command, (_, _, options) in cli._SUBCOMMANDS.items():
        assert set(options) <= set(RULES)
        fields = dict(c2="c2", seed="seed", runs="n_runs", **{name: name for name in options})
        typed = {a.dest: a.type for a in sub.choices[command]._actions if a.type is not None}
        assert typed == {dest: RULES[field][0] for dest, field in fields.items()}


def test_every_subcommand_option_has_a_help_string():
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    for command, (_, _, options) in cli._SUBCOMMANDS.items():
        helps = {a.dest: a.help for a in sub.choices[command]._actions}
        for name in options:
            assert isinstance(helps[name], str) and helps[name].strip(), (command, name)


def test_an_option_without_a_setting_rule_fails_when_the_parser_is_built(monkeypatch):
    about, handler, options = cli._SUBCOMMANDS["infer"]
    options = {**options, "bogus": (1, None)}
    monkeypatch.setitem(cli._SUBCOMMANDS, "infer", (about, handler, options))
    with pytest.raises(KeyError, match="bogus"):
        cli._build_parser()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("overrides", [{"c2": 1e308, "t_g": 2.0},
                                       {"c2": 1e307, "t_g": 1.0, "correlated": False}],
                         ids=["correlated", "uncorrelated"])
@pytest.mark.parametrize("argv", [["simulate-spectrum"], ["depth-sweep"],
                                  ["infer", "--iterations", "0"]], ids=lambda argv: argv[0])
def test_cli_overflow_inside_a_simulation_is_one_error_line(argv, overrides, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(TINY_CLI_CONFIG, **overrides)))
    out = tmp_path / "out"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[0]}: overflow encountered in ") and err.count("\n") == 1


def test_config_bounds_the_largest_spectral_phase():
    # max(|omega_min|, |omega_max|) * t_max must be finite, also for integers
    ham = SpinHamiltonian(2, [[0.0, 0.5], [0.5, 0.0]], [1.0, -2.0])
    ExperimentConfig(hamiltonian=ham, omega_max=1e308, t_max=1.0)
    for bad in ({"omega_max": 1e308}, {"omega_min": -1e308}, {"omega_max": 10**308}):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(hamiltonian=ham, t_max=2, **bad)
        assert exc.value.field == "omega_max"


finite = st.floats(-1e6, 1e6, allow_nan=False)
positive = st.floats(1e-6, 1e6)


@st.composite
def configs(draw):
    n = draw(st.integers(1, 4))
    J = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            J[i, j] = J[j, i] = draw(finite)
    h = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    omega_min = draw(finite)
    return ExperimentConfig(
        hamiltonian=SpinHamiltonian(n, J, h), c2=draw(st.floats(0.0, 1e3)), t_g=draw(positive),
        r_values=tuple(draw(st.lists(st.integers(1, 10**4), min_size=1, max_size=8))),
        r=draw(st.integers(1, 10**4)), n_runs=draw(st.none() | st.integers(1, 10**4)),
        seed=draw(st.integers(0, 2**63)), feedforward=draw(st.booleans()),
        correlated=draw(st.booleans()), gamma=draw(positive), t_max=draw(positive),
        n_times=draw(st.integers(2, 10**4)), omega_min=omega_min,
        omega_max=omega_min + draw(st.floats(1e-3, 1e6)), n_omega=draw(st.integers(2, 10**4)))


@settings(max_examples=60, deadline=None)
@given(configs())
def test_config_dict_round_trip(config):
    data = config.to_dict()
    assert ExperimentConfig.from_dict(json.loads(json.dumps(data))).to_dict() == data


def test_config_rejects_a_hamiltonian_whose_scale_overflows(tmp_path, capsys):
    J = [[0.0, 1e308], [1e308, 0.0]]
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(hamiltonian=SpinHamiltonian(2, J, [1e308, 0.0]))
    assert err.value.field == "hamiltonian"
    # a finite bound at this t_max passes; a longer t_max overflows it
    ham = SpinHamiltonian(2, [[0.0, 1e300], [1e300, 0.0]], [1e300, 0.0])
    ExperimentConfig(hamiltonian=ham, t_max=6.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(hamiltonian=ham, t_max=1e10)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(TINY_CLI_CONFIG, hamiltonian={"n": 2, "J": J,
                                                                 "h": [1e308, 0.0]})))
    out = tmp_path / "out"
    assert main(["depth-sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert "config field 'hamiltonian'" in capsys.readouterr().err


def test_run_depth_sweep_diagonalizes_once(monkeypatch):
    from ioncodesign import hamiltonian

    built = []
    original = hamiltonian.ExactEvolver.__init__

    def counting(self, ham):
        built.append(ham)
        original(self, ham)

    monkeypatch.setattr(hamiltonian.ExactEvolver, "__init__", counting)
    config = small_config(r_values=(1, 2, 3), n_times=3, n_runs=1)
    run_depth_sweep(config)
    assert len(built) == 1


def test_one_eigendecomposition_serves_every_exact_evolution(monkeypatch):
    from ioncodesign import hamiltonian
    from ioncodesign.spectroscopy import exact_response, fidelity_trace
    from ioncodesign.trotter import trotter_error

    built = []
    original = hamiltonian.ExactEvolver.__init__

    def counting(self, ham):
        built.append(ham)
        original(self, ham)

    monkeypatch.setattr(hamiltonian.ExactEvolver, "__init__", counting)
    ham = SpinHamiltonian.from_dict(default_instance().to_dict())
    config = small_config(hamiltonian=ham, r_values=(1, 2), n_times=3, n_runs=1)
    run_depth_sweep(config)
    ham.exact.unitary(0.5)
    ham.exact.evolve(np.eye(16, dtype=complex)[:, 3], 0.5)
    trotter_error(ham, 0.5, 2)
    exact_response(ham, config.times())
    fidelity_trace(ham, config.times(), 2)
    assert len(built) == 1 and built[0] is ham


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _standard_json(path):
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def _finite_csv(path):
    """Every cell below the header is a finite number or a JSON list of them."""
    with open(path, newline="") as fh:
        for row in list(csv.reader(fh))[1:]:
            for cell in row:
                # Python's nan and inf are no JSON; NaN and Infinity are rejected
                json.loads(cell, parse_constant=_reject_constant)


def test_writers_reject_non_finite_floats_naming_file_and_key(tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(ValueError, match=r"r\.json: key 'a\.b\[1\]' is not finite \(nan\)"):
        write_json(path, {"a": {"b": [1.0, math.nan]}, "c": 2})
    assert not path.exists()
    path = tmp_path / "r.csv"
    with pytest.raises(ValueError, match=r"r\.csv: column 'y' is not finite \(-inf\)"):
        write_csv(path, ["x", "y"], iter([(1.0, 2.0), (3.0, -math.inf)]))
    assert not path.exists()
    write_csv(path, ["x", "y"], iter([(1.0, 2.0), ("nan", 4)]))
    assert path.read_bytes() == b"x,y\r\n1.0,2.0\r\nnan,4\r\n"


def test_cli_noise_stats_at_c2_zero_writes_standard_json(tmp_path):
    out = tmp_path / "out"
    assert main(["noise-stats", "--c2", "0", "--tau", "1e308", "--out", str(out)]) == 0
    report = _standard_json(out / "noise_stats.json")
    assert all(math.isfinite(v) for v in report["correlations"].values())
    assert report["correlations"]["inf"] == 0.0
    _standard_json(out / "manifest.json")


def test_cli_non_finite_result_exits_1_naming_the_key(tmp_path, capsys, monkeypatch):
    # no finite option makes a noise statistic infinite now, so one is made so here
    from ioncodesign import cli

    monkeypatch.setattr(cli, "angle_moments",
                        lambda dist: {"mean": 1.0, "typical": 1.0, "variance": math.inf})
    out = tmp_path / "out"
    assert main(["noise-stats", "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: noise-stats: ") and err.count("\n") == 1
    assert "noise_stats.json" in err and "'variance'" in err


def test_cli_noise_stats_variance_stays_finite_where_phi_in_squared_is(tmp_path):
    # phi_in**2 * lam**2 used to overflow here and the run exited 1 on 'variance'
    out = tmp_path / "out"
    assert main(["noise-stats", "--phi-in", "1e150", "--tau", "1e10", "--out", str(out)]) == 0
    report = _standard_json(out / "noise_stats.json")
    assert math.isclose(report["variance"], 1e300 / (2.0 * report["lambda"]), rel_tol=1e-7)


@pytest.mark.parametrize("argv", [["--tau", "1e160"], ["--tau", "1e200"], ["--c2", "1e200"]])
def test_cli_noise_stats_at_a_huge_finite_lambda_writes_standard_json(argv, tmp_path):
    # lambda**2 overflows here, but no formula squares lambda; these runs used to exit 2
    out = tmp_path / "out"
    assert main(["noise-stats", *argv, "--out", str(out)]) == 0
    report = _standard_json(out / "noise_stats.json")
    assert math.isclose(report["beta"], report["lambda"] / 2.0, rel_tol=1e-12)
    _standard_json(out / "manifest.json")


@pytest.mark.parametrize("tau", ["1e307", "1e308"])
def test_cli_noise_stats_correlations_stay_finite_at_a_huge_lambda(tau, tmp_path):
    # angle_correlation's 1 + 2 (a + d) used to overflow here and the run exited 1, and
    # the 1 + 2 lambda of beta and the variance made both read 0 at 1e308
    out = tmp_path / "out"
    assert main(["noise-stats", "--c2", "1", "--tau", tau, "--out", str(out)]) == 0
    report = _standard_json(out / "noise_stats.json")
    assert report["lambda"] == float(tau)
    assert math.isclose(report["beta"], report["lambda"] / 2.0, rel_tol=1e-12)
    assert math.isclose(report["variance"], report["phi_in"] ** 2 / 2.0 / report["lambda"],
                        rel_tol=1e-12)
    assert all(0.0 <= v <= 1.0 for v in report["correlations"].values())
    _standard_json(out / "manifest.json")


def test_cli_config_naming_out_dir_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(TINY_CLI_CONFIG, out_dir=str(tmp_path / "fromcfg"))))
    out = tmp_path / "out"
    assert main(["noise-stats", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists() and not (tmp_path / "fromcfg").exists()
    err = capsys.readouterr().err
    assert "'out_dir'" in err and err.count("\n") == 1


def test_cli_manifest_does_not_depend_on_out(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_CLI_CONFIG))
    manifests = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["depth-sweep", "--config", str(cfg), "--out", str(out)]) == 0
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]


def test_cli_unallocatable_result_exits_1_without_out(tmp_path, capsys):
    # NumPy refuses the scan grid of this cap outright, allocating nothing
    out = tmp_path / "out"
    argv = ["feedforward-table", "--phi-cap", "1e14", "--n-phi", "1", "--n-lam", "2",
            "--out", str(out)]
    assert main(argv) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: feedforward-table: ") and err.count("\n") == 1


@settings(max_examples=150, deadline=None)
@given(c2=st.floats(), tau=st.floats(), phi_in=st.floats(), r=st.integers())
@example(c2=1e-300, tau=1e308, phi_in=1.0, r=100)
@example(c2=0.02, tau=10.0, phi_in=1.0, r=10**400)  # eta's r overflows a float
@example(c2=-math.inf, tau=10.0, phi_in=1.0, r=100)
def test_cli_noise_stats_never_raises_and_writes_only_standard_json(c2, tau, phi_in, r):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["noise-stats", f"--c2={c2!r}", f"--tau={tau!r}",
                         f"--phi-in={phi_in!r}", f"--r={r}", "--out", out])
        if code == 0:
            _standard_json(os.path.join(out, "noise_stats.json"))
            _standard_json(os.path.join(out, "manifest.json"))
        else:
            assert code in (1, 2)
            assert err.getvalue().count("\n") == 1
            assert not os.path.exists(out)


# Any JSON value; strings hold no path separator, so a Hamiltonian given
# as a path names an entry of the tests directory at most.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**1100, 2**1100) | st.floats()
    | st.text(st.characters(blacklist_characters="/\\"), max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=4),
    max_leaves=12)


@st.composite
def config_dicts(draw):
    """A valid config dict with any of its fields, or its Hamiltonian's, replaced."""
    ham = {"n": 2, "J": [[0.0, 0.5], [0.5, 0.0]], "h": [1.0, -2.0]}
    ham.update(draw(st.dictionaries(st.sampled_from(["n", "J", "h"]), json_values)))
    data = {"hamiltonian": ham}
    fields = sorted(ExperimentConfig.__dataclass_fields__) + ["out_dir"]
    data.update(draw(st.dictionaries(st.sampled_from(fields), json_values)))
    return data


@settings(max_examples=300, deadline=None)
@given(config_dicts() | json_values)
@example({"hamiltonian": ""})  # the base directory itself
@example({"hamiltonian": {"n": 1, "J": [[0]], "h": [10**400]}})
@example(dict(TINY_CLI_CONFIG, t_max=10**400))
@example([{"c2": 1}])
def test_config_from_dict_raises_only_config_errors(data):
    try:
        ExperimentConfig.from_dict(data, base_dir=os.path.dirname(__file__))
    except ConfigError:
        pass


sizes = st.integers(-2, 4) | st.booleans() | st.floats()


@st.composite
def simulating_runs(draw):
    """A simulating subcommand on TINY_CLI_CONFIG with up to three of its numbers
    replaced; the size fields stay small because a run's cost grows with them."""
    data = dict(TINY_CLI_CONFIG)
    size_fields = ["n_runs", "n_times", "n_omega", "r", "r_values"]
    for name in sorted(draw(st.sets(st.sampled_from(NUMBER_FIELDS + size_fields),
                                    max_size=3))):
        data[name] = draw(st.floats() if name in NUMBER_FIELDS
                          else st.lists(sizes, min_size=1, max_size=3) if name == "r_values"
                          else sizes)
    command = draw(st.sampled_from(["simulate-spectrum", "depth-sweep", "infer"]))
    if command == "infer":
        # one token, so that argparse takes a negative value such as -1e+307 as the value
        return data, [command, "--iterations", str(draw(st.integers(0, 2))),
                      f"--perturb={draw(st.floats())!r}"]
    return data, [command]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(simulating_runs())
@example((dict(TINY_CLI_CONFIG, c2=1e308, t_g=2.0), ["simulate-spectrum"]))  # NaN paths
@example((dict(TINY_CLI_CONFIG, seed=0),
          ["infer", "--iterations", "0", "--perturb", "1e307"]))  # guess out of range
def test_cli_simulations_write_finite_files_or_one_error_line(run):
    data, argv = run
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(cfg, "w") as fh:
            json.dump(data, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--config", cfg, "--out", out])
        if code == 0:
            for name in os.listdir(out):
                check = _standard_json if name.endswith(".json") else _finite_csv
                check(os.path.join(out, name))
        else:
            assert code in (1, 2)
            assert not os.path.exists(out)
            lines = err.getvalue().splitlines()
            assert lines[-1].startswith("config error: " if code == 2 else "error: ")
            assert "Traceback" not in err.getvalue()
