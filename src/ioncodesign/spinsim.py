"""Dense statevector engine for small spin-1/2 registers.

`CompiledCircuit` runs a circuit on statevector columns under one or a batch
of angle realizations; `circuit_unitary` and `gate_matrix` return ndarrays.

Conventions used throughout the package:

* Site 0 is the most significant bit of the computational basis index.
* Bit 1 means spin-up (+1/2 eigenvalue of S^z), bit 0 means spin-down,
  so basis index 0 is the all-down state.
* Spin operators are S^a = sigma^a / 2, rotations are R^a(phi) =
  exp(-i S^a phi / 2) and the entangling gate is
  XX(phi) = exp(-i S^x_i S^x_j phi).

Global phase is not an observable here; comparisons against exact
evolution go through |Tr| or density matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Pauli matrices in the (down, up) local basis ordering fixed above.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
_SIGMA = {"X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}

# Largest working set, in complex entries (128 KiB), that one pass of the
# batched gate loop touches; bigger batches are split into chunks.
BATCH_ENTRIES = 2**13

ROTATION_KINDS = ("RX", "RY", "RZ")
GATE_KINDS = ROTATION_KINDS + ("XX",)


@dataclass(frozen=True)
class GateSpec:
    """One gate: a single-qubit rotation or the two-qubit XX gate."""

    kind: str
    sites: tuple[int, ...]
    angle: float

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "sites", tuple(self.sites))
        n_sites = 2 if self.kind == "XX" else 1
        if len(self.sites) != n_sites:
            raise ValueError(f"{self.kind} takes {n_sites} site(s), got {self.sites}")
        if self.kind == "XX" and self.sites[0] == self.sites[1]:
            raise ValueError("XX sites must be distinct")
        if any(s < 0 for s in self.sites):
            raise ValueError("site indices must be non-negative")


@dataclass
class StateVector:
    """Normalized pure state of n_qubits spins."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (2**self.n_qubits,):
            raise ValueError("amplitude length must be 2**n_qubits")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def basis_state(n_qubits: int, bits) -> StateVector:
    """Computational basis state with the given bit pattern (site 0 = MSB)."""
    bits = list(bits)
    if len(bits) != n_qubits:
        raise ValueError(f"expected {n_qubits} bits, got {len(bits)}")
    index = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        index = (index << 1) | b
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(n_qubits, amps)


def gate_kernel(gate: GateSpec) -> np.ndarray:
    """2x2 or 4x4 matrix of the gate on its own sites.

    Every generator G in the gate set squares to the identity, so the
    kernel is cos(phi/4) I - i sin(phi/4) G with G a Pauli (rotations)
    or sigma^x (x) sigma^x (the XX gate).
    """
    theta = gate.angle / 4.0
    if gate.kind == "XX":
        gen = np.kron(SIGMA_X, SIGMA_X)
    else:
        gen = _SIGMA[gate.kind[1]]
    eye = np.eye(gen.shape[0], dtype=complex)
    return np.cos(theta) * eye - 1j * np.sin(theta) * gen


def apply_kernel(array: np.ndarray, kernel: np.ndarray, sites, n_qubits: int) -> np.ndarray:
    """Apply a local kernel to the leading 2**n index of `array`.

    `array` may carry arbitrary trailing axes (columns of a unitary,
    a batch of statevectors); they are untouched.
    """
    sites = list(sites)
    k = len(sites)
    tail = array.shape[1:]
    tensor = array.reshape((2,) * n_qubits + tail)
    tensor = np.moveaxis(tensor, sites, range(k))
    moved_shape = tensor.shape
    tensor = kernel @ tensor.reshape(2**k, -1)
    tensor = np.moveaxis(tensor.reshape(moved_shape), range(k), sites)
    return tensor.reshape((2**n_qubits,) + tail)


def apply_gate(state: StateVector, gate: GateSpec) -> StateVector:
    """Return the state with the gate applied on its target sites."""
    if any(s >= state.n_qubits for s in gate.sites):
        raise ValueError("gate site index out of range")
    amps = apply_kernel(state.amplitudes, gate_kernel(gate), gate.sites, state.n_qubits)
    return StateVector(state.n_qubits, amps)


def sz_tot_diagonal(n_qubits: int) -> np.ndarray:
    """Diagonal of S^z_tot in the computational basis."""
    idx = np.arange(2**n_qubits)
    popcount = np.zeros(2**n_qubits, dtype=float)
    for s in range(n_qubits):
        popcount += (idx >> s) & 1
    return popcount - n_qubits / 2.0


def expect_sz_tot(state: StateVector) -> float:
    """Expectation value of the total S^z operator."""
    diag = sz_tot_diagonal(state.n_qubits)
    return float(np.real(np.sum(diag * np.abs(state.amplitudes) ** 2)))


def gate_matrix(gate: GateSpec, n_qubits: int) -> np.ndarray:
    """Full 2**n x 2**n embedding of the gate."""
    if any(s >= n_qubits for s in gate.sites):
        raise ValueError("gate site index out of range")
    return apply_kernel(np.eye(2**n_qubits, dtype=complex), gate_kernel(gate), gate.sites,
                        n_qubits)


class CompiledCircuit:
    """Per-gate application plan reusable across angle realizations.

    Every gate in the set is cos(phi/4) I - i sin(phi/4) G, where the
    generator G is a Pauli string (X, Y or Z on one site, or X (x) X on a
    pair). Each row x of G has a single nonzero entry, so
    (-i G a)[x] = phase[x] * a[source[x]]. The (source, phase) pair is
    precomputed once per distinct (kind, sites), and applying a gate is
    one gather: c * a + (s * phase) * a[source].

    `apply` also runs a batch of B angle realizations in one gate loop:
    with (gates, B) angles the array is (2**n, B or 1, k) and realization
    b evolves column b (a width-1 batch axis is shared by all of them).
    B is split into chunks whose working set 2**n * B * k stays within
    BATCH_ENTRIES complex entries (a chunk holds at least one
    realization), so small registers batch every realization while large
    ones run one at a time.
    """

    def __init__(self, circuit):
        self.n_qubits = circuit.n_qubits
        self.dim = 2**circuit.n_qubits
        self._plan = []
        cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        for gate in circuit.gates:
            key = (gate.spec.kind, gate.spec.sites)
            if key not in cache:
                cache[key] = self._gather(*key)
            self._plan.append(cache[key])

    def _gather(self, kind: str, sites) -> tuple[np.ndarray, np.ndarray]:
        """(source, phase) of -i G for one generator, phase shaped (2**n, 1, 1)."""
        index = np.arange(self.dim)
        masks = [1 << (self.n_qubits - 1 - s) for s in sites]
        up = (index & masks[0]) != 0
        if kind == "RZ":
            source, phase = index, np.where(up, -1j, 1j)
        elif kind == "RY":
            source, phase = index ^ masks[0], np.where(up, -1.0 + 0j, 1.0 + 0j)
        else:  # RX and XX flip their sites with a constant -i
            source, phase = index ^ sum(masks), np.full(self.dim, -1j)
        return source, phase[:, None, None]

    def apply(self, array: np.ndarray, angles) -> np.ndarray:
        """Apply the gates with the given angles to the leading 2**n axis.

        1-D angles act on an array of any (2**n, ...) shape. 2-D angles
        (gates, B) act on a (2**n, B or 1, k) array and return
        (2**n, B, k), realization b on column b.
        """
        out = np.asarray(array, dtype=complex)
        theta = np.asarray(angles, dtype=float) / 4.0
        if theta.ndim == 1:
            theta = theta[:, None]
            return self._gate_loop(out.reshape(self.dim, 1, -1), np.cos(theta),
                                   np.sin(theta)).reshape(out.shape)
        batch = theta.shape[1]
        if out.ndim != 3 or out.shape[0] != self.dim or out.shape[1] not in (1, batch):
            raise ValueError(f"need a (2**n, 1 or {batch}, k) array for {batch} realizations, "
                             f"got {out.shape}")
        cos, sin = np.cos(theta), np.sin(theta)
        chunk = max(1, BATCH_ENTRIES // (self.dim * out.shape[2]))
        if batch <= chunk:
            return self._gate_loop(out, cos, sin)
        return np.concatenate([
            self._gate_loop(out if out.shape[1] == 1 else out[:, b:b + chunk],
                            cos[:, b:b + chunk], sin[:, b:b + chunk])
            for b in range(0, batch, chunk)], axis=1)

    def _gate_loop(self, out: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
        """All gates on a (2**n, B or 1, k) block, with (gates, B) cos and sin of angle/4."""
        for (source, phase), c, s in zip(self._plan, cos, sin):
            out = c[:, None] * out + (s[:, None] * phase) * out[source]
        return out


def circuit_unitary(circuit, angles=None) -> np.ndarray:
    """Ordered product of the circuit's gates (gates[0] acts first) at the
    realized `angles`, one per gate, or else at the nominal angles."""
    if angles is None:
        angles = [g.spec.angle for g in circuit.gates]
    elif len(angles) != len(circuit.gates):
        raise ValueError(f"need {len(circuit.gates)} realized angles, got {len(angles)}")
    return CompiledCircuit(circuit).apply(np.eye(2**circuit.n_qubits, dtype=complex), angles)
