"""Command-line interface for the simulation and co-design workflows.

Subcommands: simulate-spectrum, depth-sweep, calibrate, feedforward-table,
noise-stats, infer. `main` checks the subcommand's options before it
creates the output directory; each subcommand writes its CSV or JSON
results there, and `main` then writes `manifest.json` (including those
options), only on success. A runtime failure, a non-finite result or one
too large to allocate included, exits 1 with an error naming the
subcommand and removes an output directory `main` created, with whatever
the subcommand had written there. Identical config and seed give
byte-identical files.
The environment variable IONCODESIGN_SEED overrides the seed (CI hook).
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
from .feedforward import ControlQuery, optimal_input_angle
from .harness import (
    ConfigError,
    ExperimentConfig,
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


# Parsed names that are not a subcommand's own options; the manifest
# records them as its command and config fields.
_COMMON_OPTIONS = ("command", "config", "c2", "seed", "runs", "feedforward", "out")
# Float options of the subcommands: lower bound, and whether it is allowed.
_FLOAT_OPTIONS = {"tau": (0.0, False), "phi_in": (0.0, True), "phi_cap": (0.0, False),
                  "lam_max": (0.0, True), "perturb": (-math.inf, True)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ioncodesign",
        description="Trapped-ion circuit simulation with motional noise and feedforward")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--c2", type=float, help="heating rate, 1/ms")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--runs", type=int, help="noise runs to average")
        p.add_argument("--feedforward", action="store_true", default=None,
                       help="enable feedforward angle correction")
        p.add_argument("--out", default="results", help="output directory")

    p = sub.add_parser("simulate-spectrum", help="noisy Trotter spectrum vs exact")
    common(p)
    p.add_argument("--r", type=int, help="Trotter steps")

    p = sub.add_parser("depth-sweep", help="F_int and Hellinger distance vs depth")
    common(p)

    p = sub.add_parser("calibrate", help="synthetic calibration and c2 fit")
    common(p)
    p.add_argument("--shots", type=int, default=10000)

    p = sub.add_parser("feedforward-table", help="optimal input angle table")
    common(p)
    p.add_argument("--phi-cap", type=float, default=4.0 * math.pi)
    p.add_argument("--n-phi", type=int, default=25)
    p.add_argument("--n-lam", type=int, default=11)
    p.add_argument("--lam-max", type=float, default=5.0)

    p = sub.add_parser("noise-stats", help="analytic angle statistics")
    common(p)
    p.add_argument("--tau", type=float, default=10.0, help="gate time, ms")
    p.add_argument("--phi-in", type=float, default=math.pi / 2.0)
    p.add_argument("--r", type=int, default=100, help="steps for noise-to-signal")

    p = sub.add_parser("infer", help="local-search Hamiltonian inference demo")
    common(p)
    p.add_argument("--iterations", type=int, default=30)
    p.add_argument("--perturb", type=float, default=0.3,
                   help="initial-guess jitter scale")
    return parser


def _load_config(args) -> ExperimentConfig:
    if args.config:
        try:
            config = ExperimentConfig.from_json(args.config)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError("config", str(exc)) from exc
    else:
        config = ExperimentConfig(hamiltonian=default_instance())
    overrides = {}
    for name, value in (("c2", args.c2), ("seed", args.seed), ("n_runs", args.runs),
                        ("feedforward", args.feedforward)):
        if value is not None:
            overrides[name] = value
    if "IONCODESIGN_SEED" in os.environ:
        text = os.environ["IONCODESIGN_SEED"]
        try:
            overrides["seed"] = int(text)
        except ValueError:
            raise ConfigError("seed", f"IONCODESIGN_SEED={text!r} is not an integer") from None
    if args.command == "simulate-spectrum" and args.r is not None:
        overrides["r"] = args.r
    return dataclasses.replace(config, **overrides)


def _check_options(args, config: ExperimentConfig) -> None:
    """Reject bad subcommand options before anything is written to --out."""
    for name, (low, closed) in _FLOAT_OPTIONS.items():
        value = vars(args).get(name)
        if value is not None and not math.isfinite(value):
            raise ConfigError(name, "must be finite")
        if value is not None and (value < low or value == low and not closed):
            raise ConfigError(name, f"must be {'>=' if closed else '>'} {low:g}")
    command = args.command
    if command == "calibrate" and args.shots < 1:
        raise ConfigError("shots", "must be a positive integer")
    if command == "feedforward-table" and (args.n_phi < 1 or args.n_lam < 1):
        raise ConfigError("n_phi" if args.n_phi < 1 else "n_lam", "must be a positive integer")
    if command == "noise-stats" and args.r < 1:
        raise ConfigError("r", "must be a positive integer")
    if command == "noise-stats":
        # angle_moments squares phi_in, and both it and markovian_noise_to_signal
        # square lambda = c2 * tau; an overflowing lambda names its larger factor
        lam = config.c2 * args.tau
        for name, value in (("phi_in", args.phi_in),
                            ("tau" if args.tau >= config.c2 else "c2", lam)):
            if not math.isfinite(value * value):
                raise ConfigError(name, "too large: noise-stats would overflow")
    if command == "infer" and args.iterations < 0:
        raise ConfigError("iterations", "must be non-negative")


def _subcommand_options(args) -> dict:
    """The parsed options of the subcommand itself, for the manifest."""
    return {name: value for name, value in vars(args).items() if name not in _COMMON_OPTIONS}


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
    target = exact_spectrum(config)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed,
                                                       spawn_key=(123456789,)))
    guess = perturbed_instance(config.hamiltonian, args.perturb, rng)
    log = run_inference_demo(target, guess, args.iterations, config)
    write_csv(os.path.join(args.out, "inference_log.csv"),
              ["iteration", "d_h", "accepted", "params"],
              ([rec["iteration"], rec["d_h"], int(rec["accepted"]), json.dumps(rec["params"])]
               for rec in log))
    return (f"initial d_h={log[0]['d_h']:.6f} final d_h={log[-1]['d_h']:.6f} "
            f"({args.iterations} iterations, feedforward={config.feedforward})")


_COMMANDS = {
    "simulate-spectrum": _cmd_simulate_spectrum,
    "depth-sweep": _cmd_depth_sweep,
    "calibrate": _cmd_calibrate,
    "feedforward-table": _cmd_feedforward_table,
    "noise-stats": _cmd_noise_stats,
    "infer": _cmd_infer,
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
        summary = _COMMANDS[args.command](args, config)
        write_manifest(os.path.join(args.out, "manifest.json"), args.command, config,
                       _subcommand_options(args))
        print(summary)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        if created and os.path.isdir(args.out):
            shutil.rmtree(args.out)
        return 1


if __name__ == "__main__":
    sys.exit(main())
