"""Heisenberg Hamiltonian construction and exact time evolution.

Units: hbar = 1, couplings J and fields h in rad/ms, time in ms.
One Hermitian eigendecomposition per immutable Hamiltonian (`ham.exact`,
built on first use) is the oracle for every Trotter and noise comparison.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spinsim import SIGMA_X, SIGMA_Y, SIGMA_Z


@dataclass(frozen=True, eq=False)
class SpinHamiltonian:
    """H = sum_{i<j} J_ij S_i . S_j + sum_i h_i S_i^x; frozen, with J and h
    read-only copies of the caller's arrays, so `exact` never goes stale.
    Equality and hash go by identity."""

    n_spins: int
    J: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        n = self.n_spins
        if isinstance(n, bool) or not isinstance(n, numbers.Real) or not (n >= 1 and n % 1 == 0):
            raise ValueError("n must be a positive integer")
        for name, values in (("J", self.J), ("h", self.h)):
            # entry by entry: a list mixing true with numbers makes an integer array
            if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                       for v in np.array(values, dtype=object).flat):
                raise ValueError(f"{name} entries must be numbers")
        n, J, h = int(n), np.array(self.J, dtype=float), np.array(self.h, dtype=float)
        if J.shape != (n, n):
            raise ValueError("J must be n x n")
        if h.shape != (n,):
            raise ValueError("h must have length n")
        for name, values in (("J", J), ("h", h)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        if not np.allclose(J, J.T):
            raise ValueError("J must be symmetric")
        if np.any(np.diag(J) != 0.0):
            raise ValueError("J must have zero diagonal")
        J.flags.writeable = h.flags.writeable = False
        for name, value in (("n_spins", n), ("J", J), ("h", h)):
            object.__setattr__(self, name, value)

    @cached_property
    def exact(self) -> ExactEvolver:
        """The eigendecomposition behind every exact evolution, built on first use."""
        return ExactEvolver(self)

    def coupled_pairs(self) -> list[tuple[int, int]]:
        """Unique pairs (i < j) with J_ij != 0."""
        n = self.n_spins
        return [(i, j) for i in range(n) for j in range(i + 1, n) if self.J[i, j] != 0.0]

    def to_dict(self) -> dict:
        return {"n": self.n_spins, "J": self.J.tolist(), "h": self.h.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "SpinHamiltonian":
        return cls(data["n"], data["J"], data["h"])

    @classmethod
    def from_json(cls, path) -> "SpinHamiltonian":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _spin_term(sigmas, sites, n: int) -> np.ndarray:
    """Product of sigma / 2 over the sites: one entry per row, in the column
    with the bits of the off-diagonal (X, Y) sites flipped."""
    index = np.arange(2**n)
    source, value = index, np.ones(2**n, dtype=complex)
    for sigma, site in zip(sigmas, sites):
        bit = (index >> (n - 1 - site)) & 1
        flip = int(sigma[0, 0] == 0.0)
        value = value * (sigma / 2.0)[bit, bit ^ flip]
        source = source ^ (flip << (n - 1 - site))
    term = np.zeros((2**n, 2**n), dtype=complex)
    term[index, source] = value
    return term


def hamiltonian_matrix(ham: SpinHamiltonian) -> np.ndarray:
    """Dense 2**n x 2**n Hermitian matrix of the Hamiltonian."""
    n = ham.n_spins
    matrix = np.zeros((2**n, 2**n), dtype=complex)
    for i, j in ham.coupled_pairs():
        xx, yy, zz = (_spin_term((s, s), (i, j), n) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))
        matrix += ham.J[i, j] * (xx + yy + zz)
    for i in range(n):
        if ham.h[i] != 0.0:
            matrix += ham.h[i] * _spin_term((SIGMA_X,), (i,), n)
    return matrix


class ExactEvolver:
    """The eigendecomposition, so exp(-iHt) is cheap per time; read it as `ham.exact`."""

    def __init__(self, ham: SpinHamiltonian):
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(hamiltonian_matrix(ham))
        self.eigenvalues.flags.writeable = self.eigenvectors.flags.writeable = False

    def unitary(self, t: float) -> np.ndarray:
        phases = np.exp(-1j * self.eigenvalues * t)
        return (self.eigenvectors * phases) @ self.eigenvectors.conj().T

    def evolve(self, amplitudes: np.ndarray, t: float) -> np.ndarray:
        coeff = self.eigenvectors.conj().T @ amplitudes
        phases = np.exp(-1j * self.eigenvalues * t)
        return self.eigenvectors @ (phases.reshape((-1,) + (1,) * (coeff.ndim - 1)) * coeff)
