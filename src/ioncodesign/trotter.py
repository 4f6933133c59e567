"""First-order Trotter circuit for the Heisenberg model with gate timing.

Each Trotter step applies, in order: an XX layer, then an XX layer
conjugated by R^z(+-pi) to realize the YY interactions, then an XX layer
plus field rotations conjugated by R^y(+-pi) to realize ZZ and the
transverse field. Note the fixed conjugation rotations must be +-pi
under the convention R^a(phi) = exp(-i S^a phi / 2) for the axis change
x -> y (or x -> z) to come out right.

Gates are scheduled serially: gate m starts at m * t_g. Only the XX
gates are noisy: heating of the ions' shared motion damps only them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import SpinHamiltonian
from .spinsim import GateSpec, circuit_unitary


@dataclass(frozen=True)
class GateTiming:
    """Serial gate schedule: every gate occupies its own t_g slot."""

    t_g: float = 0.01  # ms per gate

    def __post_init__(self):
        if not 0 < self.t_g < np.inf:
            raise ValueError("t_g must be positive and finite")


@dataclass(frozen=True)
class TimedGate:
    spec: GateSpec
    start_time: float  # ms

    @property
    def noisy(self) -> bool:
        """Whether heating damps the angle: true of the XX gates only."""
        return self.spec.kind == "XX"


@dataclass
class TimedCircuit:
    n_qubits: int
    gates: tuple[TimedGate, ...]

    def gate_times(self) -> np.ndarray:
        return np.array([g.start_time for g in self.gates])


def trotter_step_layers(ham: SpinHamiltonian, dt: float) -> list[GateSpec]:
    """Gate list of one first-order step, in application order."""
    n = ham.n_spins
    pairs = ham.coupled_pairs()
    # The Hamiltonian sums couplings over unique pairs, so one step needs
    # exp(-i J_ij S_i^a S_j^a dt) per pair and axis: XX angle is J_ij * dt.
    xx_layer = [GateSpec("XX", (i, j), ham.J[i, j] * dt) for i, j in pairs]
    gates: list[GateSpec] = []
    gates += xx_layer
    gates += [GateSpec("RZ", (i,), np.pi) for i in range(n)]
    gates += xx_layer
    gates += [GateSpec("RZ", (i,), -np.pi) for i in range(n)]
    gates += [GateSpec("RY", (i,), np.pi) for i in range(n)]
    gates += xx_layer
    gates += [GateSpec("RZ", (i,), -2.0 * ham.h[i] * dt) for i in range(n)]
    gates += [GateSpec("RY", (i,), -np.pi) for i in range(n)]
    return gates


def build_trotter_circuit(ham: SpinHamiltonian, t: float, r: int,
                          timing: GateTiming = GateTiming()) -> TimedCircuit:
    """r repetitions of the first-order step approximating exp(-iHt)."""
    if r < 1:
        raise ValueError("r must be at least 1")
    if t < 0:
        raise ValueError("t must be non-negative")
    specs = trotter_step_layers(ham, t / r) * r
    return TimedCircuit(ham.n_spins, tuple(TimedGate(spec, m * timing.t_g)
                                           for m, spec in enumerate(specs)))


def trotter_error(ham: SpinHamiltonian, t: float, r: int,
                  timing: GateTiming = GateTiming()) -> float:
    """Spectral norm of (noiseless circuit unitary - exact unitary)."""
    approx = circuit_unitary(build_trotter_circuit(ham, t, r, timing))
    return float(np.linalg.norm(approx - ham.exact.unitary(t), ord=2))


def gate_counts(circuit: TimedCircuit) -> dict:
    """Total, two-qubit, and single-qubit gate counts."""
    two = sum(1 for g in circuit.gates if g.spec.kind == "XX")
    total = len(circuit.gates)
    return {"total": total, "two_qubit": two, "single_qubit": total - two}
