"""Command-line interface for the simulation and co-design workflows.

Subcommands: simulate-spectrum, depth-sweep, calibrate, feedforward-table,
noise-stats, infer. `main` checks the subcommand's options before it
creates the output directory; each subcommand writes its CSV or JSON
results there, and `main` then writes `manifest.json` (including those
options), only on success. A config error exits 2 with an error naming
the field. A runtime failure, a non-finite result, one too large to
allocate or a floating-point overflow or invalid operation included,
exits 1 with an error naming the subcommand. Either way `main` removes an
output directory it created, with whatever the subcommand had written
there. Identical config and seed give byte-identical files at a fixed BLAS
thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import sys

import numpy as np

from . import default_instance
from .artifacts import write_csv, write_json
from .calibration import fit_c2, fit_phase_damping, simulate_calibration
from .feedforward import PHI_CAP, ControlQuery, optimal_input_angle
from .harness import (
    SETTING_RULES,
    ConfigError,
    ExperimentConfig,
    check_setting,
    exact_spectrum,
    perturbed_instance,
    run_depth_sweep,
    run_inference_demo,
    simulate_spectrum,
    write_manifest,
)
from .motional_noise import (
    AngleDistribution,
    angle_correlation,
    angle_moments,
    markovian_noise_to_signal,
)
from .spectroscopy import hellinger


# Flags every subcommand takes, each overriding a config field when given:
# flag -> (field, help). --config comes before them and --out after.
_CONFIG_FLAGS = {"c2": ("c2", "heating rate, 1/ms"), "seed": ("seed", "master seed"),
                 "runs": ("n_runs", "noise runs to average"),
                 "feedforward": ("feedforward", "enable feedforward angle correction")}


def _build_parser() -> argparse.ArgumentParser:
    """A subparser per `_SUBCOMMANDS` entry. Every number option takes its
    type from SETTING_RULES, so an option without a rule fails here."""
    parser = argparse.ArgumentParser(
        prog="ioncodesign",
        description="Trapped-ion circuit simulation with motional noise and feedforward")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (about, _, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=about)
        p.add_argument("--config", help="JSON experiment config")
        for flag, (name, text) in _CONFIG_FLAGS.items():
            kind = ({"action": "store_true"} if name == "feedforward"
                    else {"type": SETTING_RULES[name][0]})
            p.add_argument(f"--{flag}", default=None, help=text, **kind)
        p.add_argument("--out", default="results", help="output directory")
        for name, (default, text) in options.items():
            p.add_argument(f"--{name.replace('_', '-')}", type=SETTING_RULES[name][0],
                           default=default, help=text)
    return parser


def _load_config(args) -> ExperimentConfig:
    if args.config:
        try:
            config = ExperimentConfig.from_json(args.config)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError("config", str(exc)) from exc
    else:
        config = ExperimentConfig(hamiltonian=default_instance())
    given = [(name, getattr(args, flag)) for flag, (name, _) in _CONFIG_FLAGS.items()]
    if args.command == "simulate-spectrum":
        given.append(("r", args.r))
    return dataclasses.replace(config, **{name: value for name, value in given
                                          if value is not None})


def _check_options(args, config: ExperimentConfig) -> None:
    """Reject bad subcommand options before anything is written to --out."""
    for name, value in _subcommand_options(args).items():
        if value is not None:  # simulate-spectrum's --r, when not given
            check_setting(name, value)
    if args.command == "noise-stats":
        # angle_moments squares phi_in times lam / (1 + lam) <= 1; no formula squares
        # lambda = c2 * tau, which must be finite, naming its larger factor if not
        for name, value in (("phi_in", args.phi_in * args.phi_in),
                            ("tau" if args.tau >= config.c2 else "c2", config.c2 * args.tau)):
            if not math.isfinite(value):
                raise ConfigError(name, "too large: noise-stats would overflow")


def _subcommand_options(args) -> dict:
    """The parsed options of the subcommand itself, for the manifest."""
    return {name: getattr(args, name) for name in _SUBCOMMANDS[args.command][2]}


def _cmd_simulate_spectrum(args, config) -> str:
    series, spec = simulate_spectrum(config)
    target = exact_spectrum(config)
    d_h = hellinger(spec, target)
    write_csv(os.path.join(args.out, "response.csv"), ["t_ms", "s"],
              zip(series.times.tolist(), series.values.tolist()))
    for name, s in (("spectrum.csv", spec), ("exact_spectrum.csv", target)):
        write_csv(os.path.join(args.out, name), ["omega_rad_per_ms", "a_raw", "a_norm"],
                  zip(s.omega.tolist(), s.a_raw.tolist(), s.a_norm.tolist()))
    return (f"r={config.r} c2={config.c2} feedforward={config.feedforward} "
            f"hellinger_vs_exact={d_h:.6f}")


def _cmd_depth_sweep(args, config) -> str:
    result = run_depth_sweep(config)
    header = ["r", "gates_total", "gates_two_qubit", "f_int", "d_h"]
    write_csv(os.path.join(args.out, "sweep.csv"), header,
              ([rec[k] for k in header] for rec in result.records))
    write_json(os.path.join(args.out, "sweep_result.json"), result.to_dict())
    return f"r_opt_by_fint={result.r_opt_by_fint} r_opt_by_dh={result.r_opt_by_dh}"


def _cmd_calibrate(args, config) -> str:
    phi_grid = np.linspace(0.5, 2.0 * np.pi, 8)
    tau_grid = np.linspace(0.0, 60.0, 13)
    curve = simulate_calibration(phi_grid, tau_grid, config.c2, args.shots,
                                 seed=config.seed)
    curve.to_csv(os.path.join(args.out, "calibration.csv"))
    fit = fit_c2(curve)
    alt = fit_phase_damping(curve)
    write_json(os.path.join(args.out, "calibration_fit.json"),
               {"c2_true": config.c2, "shots": args.shots,
                "c2_hat": fit["c2_hat"], "residual": fit["residual"],
                "phase_damping_residual": alt["residual"]})
    return (f"c2_hat={fit['c2_hat']:.6g} (true {config.c2}) "
            f"residual={fit['residual']:.4g} phase_damping={alt['residual']:.4g}")


def _cmd_feedforward_table(args, config) -> str:
    phis = np.linspace(args.phi_cap / args.n_phi, args.phi_cap, args.n_phi).tolist()
    lams = np.linspace(0.0, args.lam_max, args.n_lam).tolist()
    path = os.path.join(args.out, "feedforward_table.csv")
    # solved lambda by lambda, so that each lambda's dense scan is built
    # once however many lambdas there are; written phi by phi
    scan_rows = {}
    solved = {(phi_p, lam): optimal_input_angle(ControlQuery(phi_p, lam, args.phi_cap), scan_rows)
              for lam in lams for phi_p in phis}
    rows = ([phi_p, lam, float(solved[phi_p, lam]["phi_in_star"]),
             float(solved[phi_p, lam]["fidelity_star"])] for phi_p in phis for lam in lams)
    write_csv(path, ["phi_p", "lambda", "phi_in_star", "fidelity_star"], rows)
    return f"wrote {args.n_phi * args.n_lam} rows to {path}"


def _cmd_noise_stats(args, config) -> str:
    lam = config.c2 * args.tau
    moments = angle_moments(AngleDistribution(args.phi_in, lam))
    nts = markovian_noise_to_signal(args.r, lam)
    deltas = [0.1 * args.tau, args.tau, 10.0 * args.tau]
    report = {
        "c2": config.c2, "tau_ms": args.tau, "lambda": lam, "phi_in": args.phi_in,
        "mean_angle": float(moments["mean"]),
        "typical_angle": float(moments["typical"]),
        "variance": float(moments["variance"]),
        "beta": float(nts["beta"]), "r": args.r, "eta": float(nts["eta"]),
        "correlations": {repr(float(d)): float(angle_correlation(args.tau, d, config.c2))
                         for d in deltas},
    }
    write_json(os.path.join(args.out, "noise_stats.json"), report)
    return json.dumps(report, indent=2, sort_keys=True)


def _cmd_infer(args, config) -> str:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed,
                                                       spawn_key=(123456789,)))
    try:
        guess = perturbed_instance(config.hamiltonian, args.perturb, rng)
        dataclasses.replace(config, hamiltonian=guess)  # the checks every evaluation runs
    except (ValueError, ArithmeticError):
        raise ConfigError("perturb", "too large: the jittered initial guess is not a "
                          "valid Hamiltonian for this config") from None
    target = exact_spectrum(config)
    log = run_inference_demo(target, guess, args.iterations, config)
    write_csv(os.path.join(args.out, "inference_log.csv"),
              ["iteration", "d_h", "accepted", "params"],
              ([rec["iteration"], rec["d_h"], int(rec["accepted"]), json.dumps(rec["params"])]
               for rec in log))
    return (f"initial d_h={log[0]['d_h']:.6f} final d_h={log[-1]['d_h']:.6f} "
            f"({args.iterations} iterations, feedforward={config.feedforward})")


# Each subcommand once: its help, its handler and its own options,
# {name: (default, help)}. simulate-spectrum's --r overrides the config's r.
_SUBCOMMANDS = {
    "simulate-spectrum": ("noisy Trotter spectrum vs exact", _cmd_simulate_spectrum,
                          {"r": (None, "Trotter steps")}),
    "depth-sweep": ("F_int and Hellinger distance vs depth", _cmd_depth_sweep, {}),
    "calibrate": ("synthetic calibration and c2 fit", _cmd_calibrate,
                  {"shots": (10000, "measurement shots per (phi_in, tau) point")}),
    "feedforward-table": ("optimal input angle table", _cmd_feedforward_table,
                          {"phi_cap": (PHI_CAP, "laser-power cap on the input angle, rad"),
                           "n_phi": (25, "desired angles, evenly spaced in (0, phi_cap]"),
                           "n_lam": (11, "lambdas, evenly spaced in [0, lam_max]"),
                           "lam_max": (5.0, "largest lambda = c2 * tau")}),
    "noise-stats": ("analytic angle statistics", _cmd_noise_stats,
                    {"tau": (10.0, "gate time, ms"),
                     "phi_in": (math.pi / 2.0, "requested input angle, rad"),
                     "r": (100, "steps for noise-to-signal")}),
    "infer": ("local-search Hamiltonian inference demo", _cmd_infer,
              {"iterations": (30, "local-search iterations"),
               "perturb": (0.3, "initial-guess jitter scale")}),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    created = False
    try:
        config = _load_config(args)
        _check_options(args, config)
        created = not os.path.exists(args.out)
        os.makedirs(args.out, exist_ok=True)
        with np.errstate(over="raise", invalid="raise"):
            summary = _SUBCOMMANDS[args.command][1](args, config)
        write_manifest(os.path.join(args.out, "manifest.json"), args.command, config,
                       _subcommand_options(args))
        print(summary)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = 2
    except (OSError, ValueError, RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        code = 1
    if created and os.path.isdir(args.out):
        shutil.rmtree(args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
