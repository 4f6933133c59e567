"""Unit tests for the dense statevector engine."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ioncodesign import default_instance, spinsim
from ioncodesign.spinsim import (
    BATCH_ENTRIES,
    CompiledCircuit,
    GateSpec,
    circuit_unitary,
    sz_tot_diagonal,
)
from ioncodesign.hamiltonian import SpinHamiltonian
from ioncodesign.trotter import TimedCircuit, TimedGate, build_trotter_circuit
from oracle import apply_kernel, gate_kernel, gate_matrix


def random_instance(n, seed=0):
    rng = np.random.default_rng(seed)
    J = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            J[i, j] = J[j, i] = rng.uniform(-1, 1)
    return SpinHamiltonian(n, J, rng.uniform(-5, 5, n))


def test_basis_state_site0_is_msb():
    # RX(2 pi) = -i sigma^x flips its site: from the all-down index 0, a flip
    # of site 0 lands on index 4 of 3 spins, and one of site 2 on index 1.
    for site, index in ((0, 4), (2, 1)):
        circuit = TimedCircuit.from_arrays(3, ("RX",), ((site,),), [2 * np.pi], [0.0])
        out = CompiledCircuit(circuit).apply(np.eye(8, dtype=complex)[:, 0], circuit.angles)
        assert np.argmax(np.abs(out)) == index
        assert abs(out[index]) == pytest.approx(1.0)


def test_sz_tot_diagonal_counts_ups():
    diag = sz_tot_diagonal(2)
    # index 0 = all down, index 3 = all up
    assert np.allclose(diag, [-1.0, 0.0, 0.0, 1.0])
    down, up = np.eye(4, dtype=complex)[:, [0, 3]].T
    assert diag @ np.abs(up) ** 2 == pytest.approx(1.0)
    assert diag @ np.abs(down) ** 2 == pytest.approx(-1.0)


def test_gate_kernels_are_unitary_and_special():
    for spec in [GateSpec("RX", (0,), 0.7), GateSpec("RY", (0,), -2.3),
                 GateSpec("RZ", (0,), np.pi), GateSpec("XX", (0, 1), 1.9)]:
        k = gate_kernel(spec)
        assert np.allclose(k @ k.conj().T, np.eye(k.shape[0]), atol=1e-14)


def test_rotation_convention_rz():
    # R^z(phi) = exp(-i S^z phi / 2): a full phi = 2pi rotation gives
    # phases exp(-+ i pi / 2) on the up/down components.
    k = gate_kernel(GateSpec("RZ", (0,), 2 * np.pi))
    # basis order (down, up); S^z = diag(-1/2, +1/2)
    assert np.allclose(k, np.diag([np.exp(1j * np.pi / 2), np.exp(-1j * np.pi / 2)]))


def test_xx_gate_on_all_down():
    # XX(phi)|00> = cos(phi/4)|00> - i sin(phi/4)|11>
    phi = 1.3
    state = gate_matrix(GateSpec("XX", (0, 1), phi), 2) @ np.eye(4, dtype=complex)[:, 0]
    expected = np.zeros(4, dtype=complex)
    expected[0] = np.cos(phi / 4)
    expected[3] = -1j * np.sin(phi / 4)
    assert np.allclose(state, expected)


def test_apply_kernel_matches_kron_embedding():
    rng = np.random.default_rng(1)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    spec = GateSpec("RY", (1,), 0.9)
    k = gate_kernel(spec)
    full = np.kron(np.kron(np.eye(2), k), np.eye(2))
    out = apply_kernel(psi, k, (1,), 3)
    assert np.allclose(out, full @ psi)


def test_apply_kernel_two_site_nonadjacent():
    rng = np.random.default_rng(2)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    spec = GateSpec("XX", (0, 2), 0.8)
    full = gate_matrix(spec, 3)
    assert np.allclose(apply_kernel(psi, gate_kernel(spec), (0, 2), 3), full @ psi)


def test_gate_matrix_site_order_matters_not_for_xx():
    a = gate_matrix(GateSpec("XX", (0, 2), 0.8), 3)
    b = gate_matrix(GateSpec("XX", (2, 0), 0.8), 3)
    assert np.allclose(a, b)


def test_circuit_unitary_matches_explicit_product():
    ham = random_instance(3, seed=5)
    circuit = build_trotter_circuit(ham, 0.7, 2)
    u = circuit_unitary(circuit)
    ref = np.eye(8, dtype=complex)
    for g in circuit.gates:
        ref = gate_matrix(g.spec, 3) @ ref
    assert np.allclose(u, ref, atol=1e-12)
    assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-12)


def test_compiled_circuit_matches_naive_with_realized_angles():
    ham = random_instance(4, seed=7)
    circuit = build_trotter_circuit(ham, 1.1, 3)
    rng = np.random.default_rng(3)
    angles = [g.spec.angle * rng.uniform(0.9, 1.0) for g in circuit.gates]
    ref = np.eye(16, dtype=complex)
    for g, a in zip(circuit.gates, angles):
        spec = GateSpec(g.spec.kind, g.spec.sites, a)
        ref = gate_matrix(spec, 4) @ ref
    compiled = CompiledCircuit(circuit)
    out = compiled.apply(np.eye(16, dtype=complex), angles)
    assert np.allclose(out, ref, atol=1e-12)
    assert np.allclose(compiled.apply(np.eye(16), angles), ref, atol=1e-12)


def test_realized_angles_wrong_length():
    ham = random_instance(2, seed=9)
    circuit = build_trotter_circuit(ham, 0.5, 1)
    with pytest.raises(ValueError):
        CompiledCircuit(circuit).apply(np.eye(4, dtype=complex), [0.0])
    with pytest.raises(ValueError):
        CompiledCircuit(circuit).apply(np.eye(4), np.zeros((len(circuit.gates) + 1, 2)))


def test_angles_other_than_1d_or_2d_are_rejected():
    circuit = build_trotter_circuit(default_instance(), 0.5, 1)
    nominal = np.array([g.spec.angle for g in circuit.gates])
    with pytest.raises(ValueError, match="angles per realization"):
        CompiledCircuit(circuit).apply(np.eye(16, dtype=complex), 0.5)
    with pytest.raises(ValueError, match="angles per realization"):
        CompiledCircuit(circuit).apply(np.eye(16, dtype=complex),
                                       np.broadcast_to(nominal[:, None, None],
                                                       (nominal.size, 2, 3)))
    with pytest.raises(ValueError, match="at least one realization"):
        CompiledCircuit(circuit).apply(np.eye(16), np.zeros((nominal.size, 0)))


@pytest.mark.parametrize("kind,sites", [("XX", (0, 2)), ("RX", (2,)), ("RY", (3,))])
def test_compiled_circuit_rejects_sites_outside_the_register(kind, sites):
    # TimedCircuit refuses them, so no plan is ever built for them
    with pytest.raises(ValueError, match="gate site index out of range"):
        CompiledCircuit(TimedCircuit(2, (TimedGate(GateSpec(kind, sites, 0.3), 0.0),)))


def test_gate_spec_validation():
    with pytest.raises(ValueError):
        GateSpec("RQ", (0,), 1.0)
    with pytest.raises(ValueError):
        GateSpec("XX", (1, 1), 1.0)
    with pytest.raises(ValueError):
        GateSpec("RX", (0, 1), 1.0)
    with pytest.raises(ValueError):
        GateSpec("XX", (-1, 0), 1.0)


def test_compiled_circuit_applies_to_a_single_statevector():
    ham = random_instance(4, seed=11)
    circuit = build_trotter_circuit(ham, 0.9, 2)
    rng = np.random.default_rng(4)
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    angles = [g.spec.angle * rng.uniform(0.9, 1.0) for g in circuit.gates]
    compiled = CompiledCircuit(circuit)
    out = compiled.apply(psi, angles)
    assert out.shape == (16,)
    assert np.array_equal(out, compiled.apply(psi[:, None], angles)[:, 0])


@st.composite
def random_circuits(draw):
    n = draw(st.integers(1, 8))
    site = st.integers(0, n - 1)
    angle = st.floats(-20.0, 20.0, allow_nan=False)
    kinds = ["RX", "RY", "RZ"] + (["XX"] if n > 1 else [])
    gates = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(kinds))
        if kind == "XX":
            sites = tuple(draw(st.lists(site, min_size=2, max_size=2, unique=True)))
        else:
            sites = (draw(site),)
        gates.append(TimedGate(GateSpec(kind, sites, draw(angle)), 0.0))
    return TimedCircuit(n, tuple(gates))


@settings(max_examples=60, deadline=None)
@given(random_circuits())
def test_compiled_circuit_matches_gate_matrix_product(circuit):
    # n = 1..8 covers one dense factor (up to 4 sites) and two factors,
    # up to two 16 x 16 ones at 8 sites; up to 40 gates give long XX/RX
    # phase layers and several RY/RZ gates on one site within a site layer.
    dim = 2**circuit.n_qubits
    ref = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        ref = gate_matrix(g.spec, circuit.n_qubits) @ ref
    out = CompiledCircuit(circuit).apply(np.eye(dim, dtype=complex),
                                         [g.spec.angle for g in circuit.gates])
    assert np.max(np.abs(out - ref)) < 1e-12


def _batch_inputs(n, batch, width, seed=0):
    """A random r = 2 circuit, (2**n, width) columns and (gates, batch) angles that vary on
    the XX gates only, as noise and feedforward leave them."""
    circuit = build_trotter_circuit(random_instance(n, seed=seed), 0.7, 2)
    rng = np.random.default_rng(seed)
    nominal = np.array([g.spec.angle for g in circuit.gates])
    noisy = np.array([g.noisy for g in circuit.gates])
    angles = nominal[:, None] * np.where(noisy[:, None],
                                         rng.uniform(0.5, 1.0, (nominal.size, batch)), 1.0)
    shape = (2**n, width)
    array = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return CompiledCircuit(circuit), array, angles


@pytest.mark.parametrize("n,width,batch,seed", [
    pytest.param(4, 16, 5, 9, id="4-16-5"),  # below the chunk of 2**13 // (16 * 16) = 32
    pytest.param(4, 16, 32, 36, id="4-16-32"),  # exactly one chunk
    pytest.param(4, 16, 70, 74, id="4-16-70"),  # three chunks, the last one partial
    pytest.param(4, 5, 103, 107, id="4-5-103"),  # wide chunk (102) for the S(t) column count
    pytest.param(7, 128, 3, 10, id="7-128-3"),  # one realization per chunk
    # 4-16-70 on another draw; two factors on chunks of 2 + 1 and of 4 + 1 realizations.
    pytest.param(4, 16, 70, 1, id="4-16-70-xx"),
    pytest.param(6, 64, 3, 9, id="6-64-3-xx"),
    pytest.param(7, 16, 5, 12, id="7-16-5-xx"),
    # Two factors past the one-factor registers, several realizations per chunk:
    # uneven and even halves.
    pytest.param(5, 32, 9, 14, id="5-32-9"),
    pytest.param(6, 8, 20, 26, id="6-8-20"),
    pytest.param(7, 8, 10, 17, id="7-8-10"),
])
@pytest.mark.parametrize("unit_axis", [False, True])
def test_batched_apply_equals_separate_runs_bitwise(n, width, batch, seed, unit_axis):
    # All realizations share one input, (2**n, width) or with a unit axis (2**n, 1, width);
    # the result is realization-major, (batch,) + input.shape.
    compiled, array, angles = _batch_inputs(n, batch, width, seed=seed)
    array = array[:, None] if unit_axis else array
    out = compiled.apply(array, angles)
    assert out.shape == (batch,) + array.shape
    for b in range(batch):
        assert out[b].flags.c_contiguous
        assert np.array_equal(out[b], compiled.apply(array, angles[:, b]))


@pytest.mark.parametrize("n,width,batch,chunks", [(4, 16, 10, [10]), (4, 16, 70, [32, 32, 6]),
                                                  (7, 64, 2, [1, 1]), (7, 128, 3, [1, 1, 1])])
def test_batched_apply_chunks_stay_within_the_working_set(n, width, batch, chunks,
                                                          monkeypatch):
    compiled, array, angles = _batch_inputs(n, batch, width)
    seen = []
    original = CompiledCircuit._apply_chunk

    def record(self, out, theta, factors):
        seen.append(theta.shape[1])
        return original(self, out, theta, factors)

    monkeypatch.setattr(CompiledCircuit, "_apply_chunk", record)
    compiled.apply(array, angles)
    assert seen == chunks
    assert all(2**n * b * width <= BATCH_ENTRIES or b == 1 for b in seen)


def test_batched_apply_rejects_mismatched_batch():
    # One input serves every realization: a per-realization stack, in the (B, 2**n, k)
    # layout apply returns, or angles for another gate count are rejected.
    compiled, array, angles = _batch_inputs(3, 4, 2)
    with pytest.raises(ValueError):
        compiled.apply(np.stack([array] * 4), angles)
    with pytest.raises(ValueError):
        compiled.apply(array, angles[:-1])


@pytest.mark.parametrize("batch", [None, 3])
def test_apply_rejects_a_leading_axis_other_than_2_to_the_n(batch):
    # The bundled 4-spin instance: an (8, 2) array has a multiple of 16 entries, but its
    # leading axis is not 2**4, for 1-D angles and for (gates, batch) angles alike.
    circuit = build_trotter_circuit(default_instance(), 0.5, 1)
    compiled = CompiledCircuit(circuit)
    nominal = np.array([g.spec.angle for g in circuit.gates])
    angles = nominal if batch is None else np.repeat(nominal[:, None], batch, axis=1)
    for shape in [(8, 2), (32,), (2, 16), (8, 1, 2)]:
        with pytest.raises(ValueError, match=r"2\*\*n = 16"):
            compiled.apply(np.ones(shape, dtype=complex), angles)


def test_site_factors_are_built_once_per_apply(monkeypatch):
    # Seven spins, 128 columns: one realization per chunk, so three chunks, and two factors.
    compiled, array, angles = _batch_inputs(7, 3, 128)
    calls = []
    original = spinsim._kron

    def counting(matrices):
        calls.append(matrices.shape)
        return original(matrices)

    monkeypatch.setattr(spinsim, "_kron", counting)
    compiled.apply(array, angles)
    assert len(calls) == 2


def _one_column_batch(n, batch):
    """An r = 6 circuit's plan, one column and (gates, batch) angles that vary on the XX
    gates only, and the jitter that made them."""
    circuit = build_trotter_circuit(random_instance(n), 0.7, 6)
    rng = np.random.default_rng(0)
    jitter = rng.uniform(0.5, 1.0, (circuit.angles.size, batch))
    angles = circuit.angles[:, None] * np.where(circuit.noisy[:, None], jitter, 1.0)
    array = rng.standard_normal((2**n, 1)) + 0j
    return CompiledCircuit(circuit), array, angles, circuit.angles[:, None] * jitter


def _traced_peak(compiled, array, angles):
    tracemalloc.start()
    try:
        out = compiled.apply(array, angles)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n,batch", [(6, 128), (4, 512)])
def test_per_realization_site_angles_build_factors_one_layer_at_a_time(n, batch):
    # One column under many realizations of an r = 6 circuit, in chunks as wide as the
    # phase product allows (9 chunks of up to 15 at 6 spins, 4 of up to 151 at 4). Their
    # XX angles vary, so every phase layer is per realization; the RY/RZ factors are shared.
    # Built per realization for all 19 site layers, the 4-spin dense factors alone would
    # take 38 MiB. Realizations whose RY/RZ angles differ are rejected.
    compiled, array, angles, unshared = _one_column_batch(n, batch)
    out, peak = _traced_peak(compiled, array, angles)
    assert out.shape == (batch, 2**n, 1)
    assert peak <= 40 * 2**20
    assert np.array_equal(out[5], compiled.apply(array, angles[:, 5]))
    with pytest.raises(ValueError, match="RY/RZ"):
        compiled.apply(array, unshared)


def test_phase_product_of_a_chunk_is_bounded(monkeypatch):
    # 6 spins, r = 6 (270 XX gates), B = 128: the (phase gates, B, 2**n) float64 product
    # took 17.7 MiB in one chunk. Chunks now hold it to 32 * BATCH_ENTRIES entries (2 MiB).
    compiled, array, angles, _ = _one_column_batch(6, 128)
    out, peak = _traced_peak(compiled, array, angles)
    assert peak <= 4 * 2**20
    widths = []
    original = CompiledCircuit._apply_chunk

    def record(self, out, theta, factors):
        widths.append(theta.shape[1])
        return original(self, out, theta, factors)

    monkeypatch.setattr(CompiledCircuit, "_apply_chunk", record)
    assert np.array_equal(compiled.apply(array, angles), out)
    assert max(widths) * 270 * 2**6 <= 32 * BATCH_ENTRIES < (max(widths) + 1) * 270 * 2**6
