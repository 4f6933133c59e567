"""Experiment orchestration: configs, depth sweeps, inference, artifacts.

Everything here is plumbing around the physics modules: a validated JSON
config, the depth sweep that locates the optimal gate count, a small
derivative-free inference demo, and the run manifest. Result files go
through the deterministic writers of `artifacts`, so identical config
and seed reproduce byte-identical output files at a fixed BLAS thread count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .artifacts import write_json
from .feedforward import FeedforwardTable
from .hamiltonian import SpinHamiltonian
from .motional_noise import NoiseParams
from .rules import RULES, check
from .spectroscopy import (
    ResponseSeries,
    Spectrum,
    exact_response,
    fidelity_trace,
    hellinger,
    noisy_response,
    spectrum,
)
from .trotter import GateTiming, build_trotter_circuit, gate_counts

DEFAULT_R_VALUES = (3, 6, 10, 16, 24, 34, 45, 55)
SPECTRUM_RUNS_DEFAULT = 40
SWEEP_RUNS_DEFAULT = 10


class ConfigError(ValueError):
    """Invalid experiment config; `field` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field {field_name!r}: {message}")


def check_setting(name: str, value) -> None:
    """`rules.check` at the config boundary: its ValueError becomes a ConfigError,
    whose message names the field once."""
    try:
        check(name, value)
    except ValueError as exc:
        raise ConfigError(name, str(exc).removeprefix(f"{name} ")) from None


@dataclass
class ExperimentConfig:
    hamiltonian: SpinHamiltonian
    c2: float = 0.02  # 1/ms
    t_g: float = 0.01  # ms
    r_values: tuple[int, ...] = DEFAULT_R_VALUES
    r: int = 8  # single-depth commands (spectra, inference)
    n_runs: int | None = None  # None -> per-command default
    seed: int = 0
    feedforward: bool = False
    correlated: bool = True
    gamma: float = 0.25  # rad/ms spectral broadening
    t_max: float = 6.0  # ms
    n_times: int = 21
    omega_min: float = -15.0  # rad/ms
    omega_max: float = 15.0
    n_omega: int = 301

    def __post_init__(self):
        for name in ("feedforward", "correlated"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(name, "must be true or false")
        if not isinstance(self.r_values, (list, tuple)) or not self.r_values:
            raise ConfigError("r_values", "must be a non-empty list of depths")
        for name in self.__dataclass_fields__:
            if name in RULES and not (name == "n_runs" and self.n_runs is None):
                for value in self.r_values if name == "r_values" else [getattr(self, name)]:
                    check_setting(name, value)
        self.r_values = tuple(int(r) for r in self.r_values)
        with np.errstate(over="ignore"):
            scale = (np.abs(self.hamiltonian.J).sum() + np.abs(self.hamiltonian.h).sum()) \
                * self.t_max
        if not np.isfinite(scale):
            raise ConfigError("hamiltonian", "too large: (sum |J_ij| + sum |h_i|) * t_max "
                              "overflows")
        if self.omega_max <= self.omega_min:
            raise ConfigError("omega_max", "must exceed omega_min")
        if not math.isfinite(max(abs(self.omega_min), abs(self.omega_max)) * float(self.t_max)):
            raise ConfigError("omega_max", "too large: max(|omega_min|, |omega_max|) * t_max "
                              "overflows")

    @classmethod
    def from_dict(cls, data: dict, base_dir: str = ".") -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("<config>", "must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        for key in data:
            if key not in known:
                raise ConfigError(key, "unknown config field")
        if "hamiltonian" not in data:
            raise ConfigError("hamiltonian", "required (inline {n, J, h} or a file path)")
        ham_spec = data["hamiltonian"]
        try:
            if isinstance(ham_spec, str):
                path = os.path.join(base_dir, ham_spec)
                if not os.path.exists(path):
                    raise ConfigError("hamiltonian", f"file not found: {path}")
                ham = SpinHamiltonian.from_json(path)
            elif isinstance(ham_spec, dict):
                ham = SpinHamiltonian.from_dict(ham_spec)
            else:
                raise ConfigError("hamiltonian", "must be a dict or a file path")
        except (KeyError, ValueError, TypeError, ArithmeticError, OSError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError("hamiltonian", str(exc)) from exc
        kwargs = {k: v for k, v in data.items() if k != "hamiltonian"}
        try:
            return cls(hamiltonian=ham, **kwargs)
        except TypeError as exc:
            raise ConfigError("<config>", str(exc)) from exc

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            data = json.load(fh)
        return cls.from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))

    def to_dict(self) -> dict:
        out = {k: getattr(self, k) for k in self.__dataclass_fields__}
        out["hamiltonian"] = self.hamiltonian.to_dict()
        out["r_values"] = list(self.r_values)
        return out

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_times)

    def omega_grid(self) -> np.ndarray:
        return np.linspace(self.omega_min, self.omega_max, self.n_omega)

    def timing(self) -> GateTiming:
        return GateTiming(t_g=self.t_g)

    def noise(self) -> NoiseParams | None:
        if self.c2 == 0:
            return None
        return NoiseParams(c2=self.c2, seed=self.seed, correlated=self.correlated)

    def runs(self, default: int) -> int:
        return default if self.n_runs is None else self.n_runs


@dataclass
class SweepResult:
    records: list[dict] = field(default_factory=list)
    r_opt_by_fint: int = 0
    r_opt_by_dh: int = 0

    def to_dict(self) -> dict:
        return {"records": self.records,
                "r_opt_by_fint": self.r_opt_by_fint,
                "r_opt_by_dh": self.r_opt_by_dh}


def simulate_spectrum(config: ExperimentConfig, r: int | None = None,
                      n_runs: int | None = None,
                      table: FeedforwardTable | None = None) -> tuple[ResponseSeries, Spectrum]:
    """Trotterized (noisy if c2 > 0) response and its normalized spectrum."""
    r = config.r if r is None else r
    runs = config.runs(SPECTRUM_RUNS_DEFAULT) if n_runs is None else n_runs
    series = noisy_response(config.hamiltonian, config.times(), r, config.noise(),
                            config.timing(), feedforward=config.feedforward, n_runs=runs,
                            table=table)
    return series, spectrum(series, config.gamma, config.omega_grid())


def exact_spectrum(config: ExperimentConfig) -> Spectrum:
    """Spectrum of the exact response."""
    series = exact_response(config.hamiltonian, config.times())
    return spectrum(series, config.gamma, config.omega_grid())


def run_depth_sweep(config: ExperimentConfig) -> SweepResult:
    """F_int and Hellinger distance to the exact spectrum at every depth.

    Both optima are reported because the depth that best reproduces the
    spectrum can exceed the depth that maximizes integrated fidelity.
    """
    ham = config.hamiltonian
    times = config.times()
    timing = config.timing()
    noise = config.noise()
    runs = config.runs(SWEEP_RUNS_DEFAULT)
    target = exact_spectrum(config)
    table = FeedforwardTable()
    result = SweepResult()
    for r in config.r_values:
        trace = fidelity_trace(ham, times, r, timing, noise, feedforward=config.feedforward,
                               n_runs=runs, table=table)
        _, spec = simulate_spectrum(config, r=r, n_runs=runs, table=table)
        counts = gate_counts(build_trotter_circuit(ham, config.t_max, r, timing))
        result.records.append({
            "r": int(r),
            "gates_total": counts["total"],
            "gates_two_qubit": counts["two_qubit"],
            "f_int": float(trace.f_int),
            "d_h": float(hellinger(spec, target)),
        })
    result.r_opt_by_fint = max(result.records, key=lambda rec: rec["f_int"])["r"]
    result.r_opt_by_dh = min(result.records, key=lambda rec: rec["d_h"])["r"]
    return result


def perturbed_instance(ham: SpinHamiltonian, scale: float,
                       rng: np.random.Generator) -> SpinHamiltonian:
    """Random starting point for inference: jitter nonzero J and all h."""
    J = ham.J.copy()
    for i, j in ham.coupled_pairs():
        J[i, j] = J[j, i] = J[i, j] + scale * rng.standard_normal()
    h = ham.h + 5.0 * scale * rng.standard_normal(ham.n_spins)
    return SpinHamiltonian(ham.n_spins, J, h)


def run_inference_demo(target_spectrum: Spectrum, initial_guess: SpinHamiltonian,
                       iterations: int, config: ExperimentConfig) -> list[dict]:
    """Coordinate-wise random local search on (J_ij, h_i).

    Each iteration perturbs one randomly chosen parameter and keeps the
    move only if the Hellinger distance of the noisy simulated spectrum
    to the target decreases; the accepted distance is non-increasing.
    This is deliberately simple plumbing, not a faithful Bayesian loop.
    """
    check("iterations", iterations)
    pairs = initial_guess.coupled_pairs()
    n = initial_guess.n_spins
    params = [float(initial_guess.J[i, j]) for i, j in pairs] \
        + [float(hv) for hv in initial_guess.h]
    scales = [0.2] * len(pairs) + [1.0] * n
    table = FeedforwardTable()
    runs = config.runs(SWEEP_RUNS_DEFAULT)

    def build(vec) -> SpinHamiltonian:
        J = np.zeros((n, n))
        for k, (i, j) in enumerate(pairs):
            J[i, j] = J[j, i] = vec[k]
        return SpinHamiltonian(n, J, np.array(vec[len(pairs):]))

    def evaluate(vec) -> float:
        cfg = dataclasses.replace(config, hamiltonian=build(vec))
        _, spec = simulate_spectrum(cfg, n_runs=runs, table=table)
        return hellinger(spec, target_spectrum)

    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed,
                                                       spawn_key=(987654321,)))
    d_h = evaluate(params)
    log = [{"iteration": 0, "params": list(params), "d_h": float(d_h), "accepted": True}]
    for it in range(1, iterations + 1):
        k = int(rng.integers(len(params)))
        proposal = list(params)
        proposal[k] += scales[k] * rng.standard_normal()
        d_new = evaluate(proposal)
        accepted = d_new < d_h
        if accepted:
            params, d_h = proposal, d_new
        log.append({"iteration": it, "params": list(params),
                    "d_h": float(d_h), "accepted": bool(accepted)})
    return log


def write_manifest(path, command: str, config: ExperimentConfig, options: dict) -> None:
    """Provenance of one run: command, its own options, config and its hash."""
    from . import __version__

    cfg = config.to_dict()
    blob = json.dumps(cfg, sort_keys=True).encode()
    manifest = {
        "command": command,
        "options": options,
        "config": cfg,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "seed": config.seed,
        "package_version": __version__,
    }
    write_json(path, manifest)
