"""The benchmark's workloads: inputs built from a seed, and one round of work.

Every round calls the package through module attributes
(`harness.run_depth_sweep`, `calibration.fit_c2`, ...) so that the
tracer's patches are seen. A round is deterministic: the same inputs give
bit-identical outputs, which the runner checks across rounds.

Sizes are chosen so that one round takes a few seconds at most on a
2-core machine and a run holds several rounds; `TINY` sizes are for the
benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ioncodesign import calibration, default_instance, harness
from ioncodesign.hamiltonian import SpinHamiltonian

SWEEP = {"r_values": (3, 6), "n_times": 5, "t_max": 6.0}
TINY_SWEEP = {"r_values": (1, 2), "n_times": 3, "t_max": 2.0}
FULL = {
    "sweep-noisy": dict(SWEEP, n_runs=8),
    "sweep-feedforward": dict(SWEEP, n_runs=1),
    "sweep-large": dict(SWEEP, n_runs=2, n_spins=7),
    "infer-feedforward": {"n_times": 6, "t_max": 0.3, "n_runs": 2, "iterations": 2},
    "calibrate": {"n_phi": 8, "n_tau": 13, "shots": 10000},
}
TINY = {
    "sweep-noisy": dict(TINY_SWEEP, n_runs=2),
    "sweep-feedforward": dict(TINY_SWEEP, n_runs=1),
    "sweep-large": dict(TINY_SWEEP, r_values=(1,), n_runs=1, n_spins=7),
    "infer-feedforward": {"n_times": 3, "t_max": 2.0, "n_runs": 1, "iterations": 2},
    "calibrate": {"n_phi": 8, "n_tau": 13, "shots": 10000},
}
C2 = 0.02  # 1/ms, the heating rate every workload simulates or calibrates
# Inference starts near the target and samples times densely, so that the
# first evaluation's table corners cover nearly all later lookups. Over
# [0, 0.3] ms the largest gate angle stays inside one table cell for
# nearly every guess, so the work barely varies with the seed.
GUESS_SCALE = 0.05


@dataclass
class InferInputs:
    config: harness.ExperimentConfig
    guess: SpinHamiltonian
    iterations: int


@dataclass
class CalibrationInputs:
    phi_grid: np.ndarray
    tau_grid: np.ndarray
    c2_true: float
    shots: int
    seed: int


def random_instance(n_spins: int, seed: int) -> SpinHamiltonian:
    """All-pair couplings U[-1, 1] and fields U[-5, 5] rad/ms."""
    rng = np.random.default_rng(seed)
    J = np.zeros((n_spins, n_spins))
    for i in range(n_spins):
        for j in range(i + 1, n_spins):
            J[i, j] = J[j, i] = rng.uniform(-1.0, 1.0)
    return SpinHamiltonian(n_spins, J, rng.uniform(-5.0, 5.0, n_spins))


def _sweep_config(size: dict, seed: int, feedforward: bool) -> harness.ExperimentConfig:
    n_spins = size.get("n_spins")
    ham = default_instance() if n_spins is None else random_instance(n_spins, seed)
    return harness.ExperimentConfig(hamiltonian=ham, c2=C2, r_values=size["r_values"],
                                    n_times=size["n_times"], t_max=size["t_max"],
                                    n_runs=size["n_runs"], seed=seed,
                                    feedforward=feedforward)


def _run_sweep(config):
    return harness.run_depth_sweep(config)


def _same_sweep(a, b) -> bool:
    return a.to_dict() == b.to_dict()


def _build_infer(size: dict, seed: int) -> InferInputs:
    config = harness.ExperimentConfig(hamiltonian=default_instance(), c2=C2, t_g=0.04, r=8,
                                      n_runs=size["n_runs"], n_times=size["n_times"],
                                      t_max=size["t_max"], seed=seed, feedforward=True)
    guess = harness.perturbed_instance(config.hamiltonian, GUESS_SCALE,
                                       np.random.default_rng(100 + seed))
    return InferInputs(config, guess, size["iterations"])


def _run_infer(inputs: InferInputs):
    target = harness.exact_spectrum(inputs.config)
    log = harness.run_inference_demo(target, inputs.guess, inputs.iterations, inputs.config)
    return target, log


def _same_infer(a, b) -> bool:
    return np.array_equal(a[0].a_norm, b[0].a_norm) and a[1] == b[1]


def _build_calibration(size: dict, seed: int) -> CalibrationInputs:
    return CalibrationInputs(np.linspace(0.5, 2.0 * np.pi, size["n_phi"]),
                             np.linspace(0.0, 60.0, size["n_tau"]), C2, size["shots"], seed)


def _run_calibration(inputs: CalibrationInputs):
    curve = calibration.simulate_calibration(inputs.phi_grid, inputs.tau_grid,
                                             c2_true=inputs.c2_true, shots=inputs.shots,
                                             seed=inputs.seed)
    return curve, calibration.fit_c2(curve), calibration.fit_phase_damping(curve)


def _same_calibration(a, b) -> bool:
    return np.array_equal(a[0].p_return, b[0].p_return) and a[1:] == b[1:]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep", "infer" or "calibrate": selects the correctness checks
    ops_per_round: int  # calls into the package's entry points per round
    build: object  # (size, seed) -> inputs
    run: object  # inputs -> result
    same: object  # (result, result) -> bool

    def inputs(self, seed: int, tiny: bool = False):
        return self.build((TINY if tiny else FULL)[self.name], seed)


WORKLOADS = {w.name: w for w in (
    Workload("sweep-noisy", "sweep", 1,
             lambda size, seed: _sweep_config(size, seed, False), _run_sweep, _same_sweep),
    Workload("sweep-feedforward", "sweep", 1,
             lambda size, seed: _sweep_config(size, seed, True), _run_sweep, _same_sweep),
    Workload("sweep-large", "sweep", 1,
             lambda size, seed: _sweep_config(size, seed, False), _run_sweep, _same_sweep),
    Workload("infer-feedforward", "infer", 2, _build_infer, _run_infer, _same_infer),
    Workload("calibrate", "calibrate", 3, _build_calibration, _run_calibration,
             _same_calibration),
)}
