"""Per-gate reference for the statevector engine.

`gate_kernel` is one gate's matrix on its own sites, `apply_kernel`
applies such a kernel to the leading 2**n axis of an array by tensor
reshapes, and `gate_matrix` embeds one gate in the full register. The
tests hold `spinsim.CompiledCircuit`, the package's one engine, to
products of these, gate by gate.
"""

import numpy as np

from ioncodesign.spinsim import SIGMA_X, SIGMA_Y, SIGMA_Z, GateSpec, check_gate

_SIGMA = {"X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}


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


def gate_matrix(gate: GateSpec, n_qubits: int) -> np.ndarray:
    """Full 2**n x 2**n embedding of the gate."""
    check_gate(gate.kind, gate.sites, n_qubits)
    return apply_kernel(np.eye(2**n_qubits, dtype=complex), gate_kernel(gate), gate.sites,
                        n_qubits)
