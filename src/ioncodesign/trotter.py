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
from .rules import check
from .spinsim import GateSpec, check_gate, circuit_unitary


@dataclass(frozen=True)
class GateTiming:
    """Serial gate schedule: every gate occupies its own t_g slot."""

    t_g: float = 0.01  # ms per gate

    def __post_init__(self):
        check("t_g", self.t_g)


@dataclass(frozen=True)
class TimedGate:
    spec: GateSpec
    start_time: float  # ms

    @property
    def noisy(self) -> bool:
        """Whether heating damps the angle: true of the XX gates only."""
        return self.spec.kind == "XX"


@dataclass(frozen=True)
class TimedCircuit:
    """A timed circuit held as arrays: `kinds` and `sites` tuples, the `noisy`
    mask and read-only `angles` and `start_times`, one entry per gate. A
    circuit made from `gates` derives them; `from_arrays` builds `gates` lazily.
    """

    n_qubits: int
    gates: tuple[TimedGate, ...]

    def __post_init__(self):
        vars(self).update(vars(self.from_arrays(
            self.n_qubits, tuple(g.spec.kind for g in self.gates),
            tuple(g.spec.sites for g in self.gates), [g.spec.angle for g in self.gates],
            [g.start_time for g in self.gates])))

    @classmethod
    def from_arrays(cls, n_qubits: int, kinds, sites, angles, start_times) -> "TimedCircuit":
        """The circuit of these gates; it keeps read-only views of the two float arrays."""
        check("n_qubits", n_qubits)
        circuit = object.__new__(cls)
        kinds, sites = tuple(kinds), tuple(sites)
        angles, start_times = (np.asarray(v, dtype=float).view() for v in (angles, start_times))
        if not (len(kinds),) == (len(sites),) == angles.shape == start_times.shape:
            raise ValueError("kinds, sites, angles and start_times need one entry per gate")
        for kind, gate_sites in set(zip(kinds, sites)):  # once per distinct gate, not per gate
            check_gate(kind, gate_sites, n_qubits)
        noisy = np.array(kinds, dtype=str) == "XX"  # `TimedGate.noisy` as a mask
        for array in (angles, start_times, noisy):
            array.flags.writeable = False
        vars(circuit).update(n_qubits=n_qubits, kinds=kinds, sites=sites, noisy=noisy,
                             angles=angles, start_times=start_times)
        return circuit

    def __getattr__(self, name):
        if name != "gates":
            raise AttributeError(f"'TimedCircuit' object has no attribute {name!r}")
        gates = vars(self)["gates"] = tuple(
            TimedGate(GateSpec(*gate[:3]), gate[3]) for gate in zip(
                self.kinds, self.sites, self.angles.tolist(), self.start_times.tolist()))
        return gates


def _step(ham: SpinHamiltonian, dt: float) -> list[tuple]:
    """(kind, sites, angle) of each gate of one first-order step, in application order."""
    n = ham.n_spins

    def rotations(kind, angles):
        return [(kind, (i,), angle) for i, angle in enumerate(angles)]

    # The Hamiltonian sums couplings over unique pairs, so one step needs
    # exp(-i J_ij S_i^a S_j^a dt) per pair and axis: XX angle is J_ij * dt.
    xx_layer = [("XX", (i, j), ham.J[i, j] * dt) for i, j in ham.coupled_pairs()]
    return (xx_layer + rotations("RZ", [np.pi] * n) + xx_layer + rotations("RZ", [-np.pi] * n)
            + rotations("RY", [np.pi] * n) + xx_layer + rotations("RZ", -2.0 * ham.h * dt)
            + rotations("RY", [-np.pi] * n))


def build_trotter_circuit(ham: SpinHamiltonian, t: float, r: int,
                          timing: GateTiming = GateTiming()) -> TimedCircuit:
    """r repetitions of the first-order step approximating exp(-iHt); gate m starts at m * t_g."""
    check("r", r)
    check("t", t)
    kinds, sites, angles = zip(*_step(ham, t / r))
    return TimedCircuit.from_arrays(ham.n_spins, kinds * r, sites * r,
                                    np.tile(np.array(angles, dtype=float), r),
                                    np.arange(len(kinds) * r) * timing.t_g)


def trotter_error(ham: SpinHamiltonian, t: float, r: int,
                  timing: GateTiming = GateTiming()) -> float:
    """Spectral norm of (noiseless circuit unitary - exact unitary)."""
    approx = circuit_unitary(build_trotter_circuit(ham, t, r, timing))
    return float(np.linalg.norm(approx - ham.exact.unitary(t), ord=2))


def gate_counts(circuit: TimedCircuit) -> dict:
    """Total, two-qubit, and single-qubit gate counts."""
    two = circuit.kinds.count("XX")
    total = len(circuit.kinds)
    return {"total": total, "two_qubit": two, "single_qubit": total - two}
