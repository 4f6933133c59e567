"""Unit tests for the Heisenberg Hamiltonian and its exact evolver."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from ioncodesign.hamiltonian import (
    ExactEvolver,
    SpinHamiltonian,
    hamiltonian_matrix,
)
from ioncodesign.spinsim import SIGMA_X, SIGMA_Y, SIGMA_Z
from oracle import apply_kernel


def two_spin(J, h=(0.0, 0.0)):
    return SpinHamiltonian(2, np.array([[0.0, J], [J, 0.0]]), np.array(h))


def test_two_spin_spectrum_singlet_triplet():
    # J S1.S2 has eigenvalues J/4 (triplet, x3) and -3J/4 (singlet)
    J = 0.8
    vals = np.sort(np.linalg.eigvalsh(hamiltonian_matrix(two_spin(J))))
    assert np.allclose(vals, [-3 * J / 4, J / 4, J / 4, J / 4], atol=1e-12)


def test_matrix_is_hermitian():
    rng = np.random.default_rng(0)
    J = rng.uniform(-1, 1, (3, 3))
    J = (J + J.T) / 2
    np.fill_diagonal(J, 0.0)
    ham = SpinHamiltonian(3, J, rng.uniform(-5, 5, 3))
    m = hamiltonian_matrix(ham)
    assert np.allclose(m, m.conj().T)


def _matmul_hamiltonian_matrix(ham):
    """The Hamiltonian from dense embedded site operators and their products."""
    n, dim = ham.n_spins, 2**ham.n_spins

    def site(sigma, i):
        return apply_kernel(np.eye(dim, dtype=complex), sigma / 2.0, [i], n)

    sx, sy, sz = ([site(s, i) for i in range(n)] for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))
    matrix = np.zeros((dim, dim), dtype=complex)
    for i, j in ham.coupled_pairs():
        matrix += ham.J[i, j] * (sx[i] @ sx[j] + sy[i] @ sy[j] + sz[i] @ sz[j])
    for i in range(n):
        if ham.h[i] != 0.0:
            matrix += ham.h[i] * sx[i]
    return matrix


@pytest.mark.parametrize("n", range(1, 8))
def test_matrix_is_bit_identical_to_dense_operator_products(n):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        J = np.triu(rng.uniform(-1, 1, (n, n)), 1)
        if n > 2:
            J[0, -1] = 0.0  # one uncoupled pair
        h = rng.uniform(-5, 5, n)
        h[-1] = 0.0  # and one site without a field
        ham = SpinHamiltonian(n, J + J.T, h)
        assert np.array_equal(hamiltonian_matrix(ham), _matmul_hamiltonian_matrix(ham))


def test_exact_unitary_matches_expm():
    rng = np.random.default_rng(1)
    J = rng.uniform(-1, 1, (3, 3))
    J = (J + J.T) / 2
    np.fill_diagonal(J, 0.0)
    ham = SpinHamiltonian(3, J, rng.uniform(-5, 5, 3))
    t = 0.9
    u = ham.exact.unitary(t)
    assert np.allclose(u, expm(-1j * hamiltonian_matrix(ham) * t), atol=1e-10)


def test_evolver_group_property_and_norm():
    ham = two_spin(0.6, (1.0, -2.0))
    ev = ExactEvolver(ham)
    u1, u2 = ev.unitary(0.4), ev.unitary(1.1)
    assert np.allclose(u1 @ u2, ev.unitary(1.5), atol=1e-12)
    out = ham.exact.evolve(np.eye(4, dtype=complex)[:, 1], 2.7)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_single_spin_larmor_precession():
    # H = h S^x rotates |down> so that <S^z(t)> = -cos(h t)/2
    h0 = 3.0
    ham = SpinHamiltonian(1, np.zeros((1, 1)), np.array([h0]))
    ev = ExactEvolver(ham)
    for t in [0.0, 0.3, 1.0, 2.2]:
        amps = ev.evolve(np.eye(2, dtype=complex)[:, 0], t)
        sz = -0.5 * abs(amps[0]) ** 2 + 0.5 * abs(amps[1]) ** 2
        assert sz == pytest.approx(-np.cos(h0 * t) / 2, abs=1e-12)


def test_batched_evolution_matches_columnwise():
    ham = two_spin(-0.4, (0.7, 0.2))
    ev = ExactEvolver(ham)
    cols = np.eye(4, dtype=complex)[:, :3]
    batch = ev.evolve(cols, 0.8)
    for k in range(3):
        assert np.allclose(batch[:, k], ev.evolve(cols[:, k], 0.8))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_exact_evolution_rejects_a_non_finite_time(t):
    # unitary(nan) used to return NaNs, and an infinite t warned in exp
    exact = two_spin(0.7, (0.3, -0.2)).exact
    with pytest.raises(ValueError, match="t must be finite"):
        exact.unitary(t)
    with pytest.raises(ValueError, match="t must be finite"):
        exact.evolve(np.eye(4), t)
    assert np.allclose(exact.unitary(-1.5) @ exact.unitary(1.5), np.eye(4))


def test_dict_json_round_trip(tmp_path):
    ham = two_spin(0.25, (1.5, -0.5))
    data = ham.to_dict()
    again = SpinHamiltonian.from_dict(data)
    assert np.allclose(again.J, ham.J) and np.allclose(again.h, ham.h)
    path = tmp_path / "ham.json"
    path.write_text(json.dumps(data))
    loaded = SpinHamiltonian.from_json(path)
    assert np.allclose(loaded.J, ham.J) and np.allclose(loaded.h, ham.h)


def test_coupled_pairs_skips_zeros():
    J = np.zeros((3, 3))
    J[0, 2] = J[2, 0] = 0.5
    ham = SpinHamiltonian(3, J, np.zeros(3))
    assert ham.coupled_pairs() == [(0, 2)]


def test_validation_errors():
    with pytest.raises(ValueError):
        SpinHamiltonian(2, np.array([[0.0, 1.0], [0.5, 0.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        SpinHamiltonian(2, np.array([[0.1, 1.0], [1.0, 0.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        SpinHamiltonian(2, np.zeros((2, 2)), np.zeros(3))


@pytest.mark.parametrize("n,J,h,message", [
    (2, [[0.0, 0.5], [0.5, 0.0]], [np.inf, 0.0], "h must be finite"),
    (2, [[0.0, np.nan], [0.5, 0.0]], [1.0, 0.0], "J must be finite"),
    (2.5, [[0.0, 0.5], [0.5, 0.0]], [1.0, 0.0], "n must be a positive integer"),
    (True, [[0.0]], [1.0], "n must be a positive integer"),
    (0, np.zeros((0, 0)), [], "n must be a positive integer"),
])
def test_rejects_non_finite_couplings_and_non_integral_sizes(n, J, h, message):
    with pytest.raises(ValueError, match=message):
        SpinHamiltonian(n, J, h)
    with pytest.raises(ValueError, match=message):
        SpinHamiltonian.from_dict({"n": n, "J": J, "h": h})


def test_integral_float_size_is_an_int():
    ham = SpinHamiltonian.from_dict({"n": 2.0, "J": [[0.0, 0.5], [0.5, 0.0]], "h": [1.0, 0.0]})
    assert ham.n_spins == 2 and isinstance(ham.n_spins, int)


def test_hamiltonian_is_immutable_and_copies_the_callers_arrays():
    J, h = np.array([[0.0, 0.5], [0.5, 0.0]]), np.array([1.0, -2.0])
    ham = SpinHamiltonian(2, J, h)
    with pytest.raises(ValueError):
        ham.J[0, 1] = 1.0
    with pytest.raises(ValueError):
        ham.h[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        ham.J = np.zeros((2, 2))
    J[0, 1] = h[0] = 7.0
    assert ham.J[0, 1] == 0.5 and ham.h[0] == 1.0


def test_hamiltonian_equality_and_hash_go_by_identity():
    ham = two_spin(0.7, (1.0, -2.0))
    twin = dataclasses.replace(ham)
    assert ham == ham and ham != twin
    assert {ham: 1, twin: 2}[ham] == 1


def test_exact_evolver_is_built_on_first_use_and_kept():
    ham = two_spin(0.7, (1.0, -2.0))
    assert "exact" not in vars(ham)
    exact = ham.exact
    assert ham.exact is exact
    fresh = ExactEvolver(ham)
    assert exact.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
    assert exact.eigenvectors.tobytes() == fresh.eigenvectors.tobytes()
    assert ham.exact.unitary(0.3).tobytes() == fresh.unitary(0.3).tobytes()
    with pytest.raises(ValueError):
        exact.eigenvalues[0] = 0.0
    # a new Hamiltonian, even an equal one, diagonalizes afresh
    assert dataclasses.replace(ham).exact is not exact
