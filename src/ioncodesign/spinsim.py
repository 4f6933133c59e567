"""Dense statevector engine for small spin-1/2 registers.

`CompiledCircuit` runs a circuit, fused into X-basis phase layers and
Kronecker site layers, on statevector columns under one or a batch of
angle realizations; `circuit_unitary` and `gate_matrix` return ndarrays.
The per-gate `gate_kernel`, `apply_kernel` and `gate_matrix` are its oracle.

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

import functools
import itertools
from dataclasses import dataclass

import numpy as np

# Pauli matrices in the (down, up) local basis ordering fixed above.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
_SIGMA = {"X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}

# Largest working set, in complex entries (128 KiB), that one pass of the
# batched layer loop touches; bigger batches are split into chunks.
BATCH_ENTRIES = 2**13

# The identity and the Hadamard H, which maps sigma^x to diag(1, -1). In the X eigenbasis
# R^y and R^z with Pauli generator G have kernel cos(phi/4) I + sin(phi/4) (-i H G H).
_EYE_AND_H = np.array([np.eye(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)], dtype=complex)
_FRAME_GENERATORS = {"RY": np.array([[0, -1], [1, 0]]), "RZ": np.array([[0, 1j], [1j, 0]])}

GATE_KINDS = ("RX", "RY", "RZ", "XX")


@dataclass(frozen=True)
class GateSpec:
    """One gate: a single-qubit rotation or the two-qubit XX gate."""

    kind: str
    sites: tuple[int, ...]
    angle: float

    def __post_init__(self):
        object.__setattr__(self, "sites", check_gate(self.kind, self.sites))


def check_gate(kind: str, sites, n_qubits: int | None = None) -> tuple[int, ...]:
    """sites as a tuple, if they and kind make a gate: a known kind, its number of
    sites, distinct XX sites, and 0 <= site < n_qubits (any site >= 0 without n_qubits)."""
    if kind not in GATE_KINDS:
        raise ValueError(f"unknown gate kind {kind!r}")
    sites = tuple(sites)
    n_sites = 2 if kind == "XX" else 1
    if len(sites) != n_sites:
        raise ValueError(f"{kind} takes {n_sites} site(s), got {sites}")
    if kind == "XX" and sites[0] == sites[1]:
        raise ValueError("XX sites must be distinct")
    if min(sites) < 0:
        raise ValueError("site indices must be non-negative")
    if n_qubits is not None and max(sites) >= n_qubits:
        raise ValueError("gate site index out of range")
    return sites


def basis_state(n_qubits: int, bits) -> np.ndarray:
    """Amplitudes of the computational basis state with the given bit pattern (site 0 = MSB)."""
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
    return amps


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


def sz_tot_diagonal(n_qubits: int) -> np.ndarray:
    """Diagonal of S^z_tot in the computational basis."""
    return np.bitwise_count(np.arange(2**n_qubits)) - n_qubits / 2.0


def gate_matrix(gate: GateSpec, n_qubits: int) -> np.ndarray:
    """Full 2**n x 2**n embedding of the gate."""
    check_gate(gate.kind, gate.sites, n_qubits)
    return apply_kernel(np.eye(2**n_qubits, dtype=complex), gate_kernel(gate), gate.sites,
                        n_qubits)


class CompiledCircuit:
    """Layer-fused plan of a circuit, reusable across angle realizations.

    The plan reads only the circuit's `kinds` and `sites`, never its
    angles, so one plan serves every circuit of the same structure: a
    `TrotterEvolver` builds one and applies it to each sample time's
    angles.

    The state is kept in the X eigenbasis (H on every site on entry and
    exit; bit 0 of a site means sigma^x = +1). Each run of XX/RX gates is
    one phase layer, exp(-i sum_g phi_g s_g(x) / 4) with s_g(x) = +-1;
    each run of RY/RZ gates is one site layer, the Kronecker product of
    each site's H-conjugated kernels: one dense factor up to 4 sites, else
    A (x) B over the first ceil(n/2) sites and the rest, two BLAS products.

    (gates, B) angles run B realizations on one shared (2**n, ...) input
    and return them realization-major, (B,) + input.shape with
    realization b at index b, each a C-contiguous block. Only XX gates
    are noisy (`TimedGate.noisy`), so realizations differ only in their
    XX/RX angles: the RY/RZ site layers are shared by all of them, and
    `apply` builds their factors once. The phase layers are formed per
    chunk of B * input.size <= BATCH_ENTRIES complex entries, with a phase
    product of at most 32 times as many floats (or one realization). Phases
    sum in gate order and a factor is one matmul per realization, so no
    realization's arithmetic depends on the chunk width.
    """

    def __init__(self, circuit):
        n = self.n_qubits = circuit.n_qubits
        self.dim, self.n_gates = 2**n, len(circuit.kinds)
        # Kernel rows: the gates', the identity, then H, which every site gets first and last.
        edge = [(self.n_gates + 1, "H", (site,)) for site in range(n)]
        gates = list(zip(range(self.n_gates), circuit.kinds, circuit.sites))
        # Site and phase layers alternate, site layers first and last. Phase gates are (gate,
        # mask of its sites), starts index each phase layer's first; slots are per layer, site.
        phase, starts, slots = [], [], []
        for is_phase, run in itertools.groupby(edge + gates + edge, lambda g: g[1] in ("XX", "RX")):
            run = list(run)
            if is_phase:
                starts.append(len(phase))
                phase += [(row, sum(1 << (n - 1 - s) for s in sites)) for row, _, sites in run]
            else:
                slots += [[row for row, _, sites in run if sites == (site,)] for site in range(n)]
        index = np.arange(self.dim)
        self._phase_gates, masks = np.array(phase, dtype=int).reshape(-1, 2).T
        self._signs = (1.0 - 2.0 * (np.bitwise_count(index & masks[:, None]) & 1))[:, None]
        self._starts = np.array(starts, dtype=int)
        self._generators = np.array([_FRAME_GENERATORS.get(kind, np.zeros((2, 2)))
                                     for kind in circuit.kinds]).reshape(-1, 2, 2)
        depth = max(len(rows) for rows in slots)
        self._kernel_rows = np.array([rows + [self.n_gates] * (depth - len(rows))
                                      for rows in slots]).T
        # (first, end site) per factor, in apply order; two half-size ones win from 5 sites on.
        self._factors = [(0, n)] if n <= 4 else [((n + 1) // 2, n), (0, (n + 1) // 2)]

    def apply(self, array: np.ndarray, angles) -> np.ndarray:
        """Apply the gates with the given angles to the leading 2**n axis.

        1-D angles return an array of the input's (2**n, ...) shape; 2-D
        angles (gates, B), B >= 1, return (B,) + input.shape, realization b at b.
        Every realization must have the same RY/RZ angles.
        """
        out = np.asarray(array, dtype=complex)
        theta = np.asarray(angles, dtype=float) / 4.0
        if theta.ndim not in (1, 2) or theta.shape[0] != self.n_gates or 0 in theta.shape[1:]:
            raise ValueError(f"need {self.n_gates} angles per realization and at least one "
                             f"realization, got {theta.shape}")
        if out.shape[:1] != (self.dim,):
            raise ValueError(f"need a (2**n, ...) array with 2**n = {self.dim}, got {out.shape}")
        columns, batch = out.reshape(self.dim, -1), theta.reshape(self.n_gates, -1)
        site = batch[self._generators.any(axis=(1, 2))]  # the RY/RZ rows
        if np.any(site[:, 1:] != site[:, :1]):
            raise ValueError("RY/RZ angles must be the same in every realization")
        # Per site layer, its one or two Kronecker factors: (site layers, 2**k, 2**k) each.
        t = batch[:, 0, None, None]
        kernels = np.concatenate([np.cos(t) * _EYE_AND_H[0] + np.sin(t) * self._generators,
                                  _EYE_AND_H])
        matrices = functools.reduce(lambda m, f: f @ m, kernels[self._kernel_rows]).reshape(
            -1, self.n_qubits, 2, 2)
        factors = [_kron(matrices[:, lo:hi]) for lo, hi in self._factors]
        chunk = max(1, min(BATCH_ENTRIES // max(out.size, 1),
                           32 * BATCH_ENTRIES // max(self._phase_gates.size * self.dim, 1)))
        chunks = [self._apply_chunk(columns, batch[:, b:b + chunk], factors)
                  for b in range(0, batch.shape[1], chunk)]
        x = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        return x.reshape(theta.shape[1:] + out.shape)

    def _apply_chunk(self, out: np.ndarray, theta: np.ndarray, factors) -> np.ndarray:
        """All layers on a shared (2**n, k) block, with (gates, B) angles / 4: (B, 2**n, k)."""
        batch = theta.shape[1]
        phases = np.exp(-1j * np.add.reduceat(self._signs * theta[self._phase_gates][..., None],
                                              self._starts, axis=0))[..., None]
        # Realization-major: (B, 2**n, k), one contiguous block per realization.
        x = np.broadcast_to(out, (batch,) + out.shape).copy()
        for layer, layer_factors in enumerate(zip(*factors)):
            for factor, (lo, hi) in zip(layer_factors, self._factors):
                x = (factor @ x.reshape(batch, 2**lo, 2**(hi - lo), -1)).reshape(x.shape)
            if layer < len(phases):
                x *= phases[layer]
        return x


def _kron(matrices: np.ndarray) -> np.ndarray:
    """Kronecker product of (..., sites, 2, 2) matrices over the site axis, first site first."""
    out = matrices[..., 0, :, :]
    for site in range(1, matrices.shape[-3]):
        out = (out[..., :, None, :, None] * matrices[..., site, None, :, None, :]).reshape(
            *out.shape[:-2], 2 * out.shape[-2], 2 * out.shape[-1])
    return out


def circuit_unitary(circuit) -> np.ndarray:
    """Ordered product of the circuit's gates (gates[0] acts first) at their nominal angles."""
    return CompiledCircuit(circuit).apply(np.eye(2**circuit.n_qubits, dtype=complex),
                                          circuit.angles)
