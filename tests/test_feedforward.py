"""Unit tests for feedforward angle correction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ioncodesign import default_instance

from ioncodesign.feedforward import (
    ControlQuery,
    FeedforwardTable,
    avg_gate_fidelity,
    correct_circuit,
    gate_fidelity,
    optimal_input_angle,
)
from ioncodesign.hamiltonian import SpinHamiltonian
from ioncodesign.trotter import GateTiming, build_trotter_circuit


def test_avg_fidelity_noiseless_limit():
    phi = np.linspace(0.0, 4 * np.pi, 17)
    assert np.allclose(avg_gate_fidelity(phi, 1.3, 0.0), gate_fidelity(phi, 1.3))


def test_avg_fidelity_against_quadrature():
    for lam in (0.1, 1.0, 4.0):
        for phi_in, phi_p in [(0.8, 0.8), (3.0, 1.0), (-2.0, 1.5), (6.0, -4.0)]:
            numeric, _ = quad(
                lambda u: np.cos((phi_in * np.exp(-u) - phi_p) / 4.0) ** 2
                * np.exp(-u / lam) / lam, 0.0, np.inf)
            assert avg_gate_fidelity(phi_in, phi_p, lam) == pytest.approx(
                numeric, abs=1e-9)


def test_optimum_tracks_requested_angle_at_low_noise():
    res = optimal_input_angle(ControlQuery(phi_p=2.0, lam=1e-6))
    assert res["phi_in_star"] == pytest.approx(2.0, abs=1e-2)
    assert res["fidelity_star"] == pytest.approx(1.0, abs=1e-4)


def test_optimum_beats_trivial_inputs():
    for lam in (0.2, 1.0, 3.0):
        for phi_p in (0.5, 2.0, 5.0, 9.0):
            res = optimal_input_angle(ControlQuery(phi_p, lam))
            assert res["fidelity_star"] >= avg_gate_fidelity(phi_p, phi_p, lam) - 1e-9
            assert res["fidelity_star"] >= avg_gate_fidelity(0.0, phi_p, lam) - 1e-9


def test_do_nothing_regime_at_strong_noise_large_angle():
    # for noisy enough gates and large requested angles the best move is
    # not driving at all, where the fidelity settles near 1/2 + baseline
    res = optimal_input_angle(ControlQuery(phi_p=11.0, lam=4.0, phi_cap=2 * math.pi))
    assert res["phi_in_star"] == pytest.approx(0.0, abs=1e-6)


def test_negative_angle_symmetry():
    res_pos = optimal_input_angle(ControlQuery(1.7, 0.5))
    res_neg = optimal_input_angle(ControlQuery(-1.7, 0.5))
    assert res_neg["phi_in_star"] == pytest.approx(-res_pos["phi_in_star"])
    assert res_neg["fidelity_star"] == pytest.approx(res_pos["fidelity_star"])


def test_optimum_respects_cap():
    res = optimal_input_angle(ControlQuery(phi_p=5.0, lam=2.0, phi_cap=2 * math.pi))
    assert 0.0 <= res["phi_in_star"] <= 2 * math.pi + 1e-12


def test_table_lookup_matches_direct_solve():
    table = FeedforwardTable()
    rng = np.random.default_rng(0)
    for _ in range(12):
        phi_p = rng.uniform(0.05, 6.0)
        lam = rng.uniform(0.01, 2.0)
        direct = optimal_input_angle(ControlQuery(phi_p, lam))
        memo = table.lookup(phi_p, lam)
        assert memo["fidelity_star"] == pytest.approx(
            direct["fidelity_star"], abs=1e-5)


def test_table_lookup_zero_noise_and_negative():
    table = FeedforwardTable()
    res = table.lookup(1.1, 0.0)
    assert res["phi_in_star"] == pytest.approx(1.1)
    res = table.lookup(-2.0, 0.3)
    assert res["phi_in_star"] < 0


def _oracle_lookup(table, phi_p, lam):
    """Per-gate table lookup as it was before lookups were batched."""
    if phi_p < 0:
        res = _oracle_lookup(table, -phi_p, lam)
        return {"phi_in_star": -res["phi_in_star"], "fidelity_star": res["fidelity_star"]}
    if lam == 0:
        return {"phi_in_star": min(phi_p, table.phi_cap),
                "fidelity_star": float(gate_fidelity(min(phi_p, table.phi_cap), phi_p))}
    i0, fx = divmod(phi_p / 1e-2, 1.0)
    j0, fy = divmod(lam / 1e-2, 1.0)
    i0, j0 = int(i0), int(j0)
    corners = [table._corner(i, j) for i in (i0, i0 + 1) for j in (j0, j0 + 1)]
    interp = ((1 - fx) * (1 - fy) * corners[0][0]
              + (1 - fx) * fy * corners[1][0]
              + fx * (1 - fy) * corners[2][0]
              + fx * fy * corners[3][0])
    candidates = np.array([interp] + [c[0] for c in corners]
                          + [min(phi_p, table.phi_cap), 0.0, table.phi_cap])
    candidates = np.clip(candidates, 0.0, table.phi_cap)
    fids = avg_gate_fidelity(candidates, phi_p, lam)
    best = int(np.argmax(fids))
    return {"phi_in_star": float(candidates[best]), "fidelity_star": float(fids[best])}


@pytest.mark.parametrize("r,t_g", [(3, 0.01), (6, 0.01), (55, 0.01),
                                   (3, 0.04), (6, 0.04), (55, 0.04)])
def test_batched_lookup_is_bit_identical_to_per_gate_oracle(r, t_g):
    c2 = 0.02
    table = FeedforwardTable()
    for t in (0.0, 1.3, 6.0):
        circuit = build_trotter_circuit(default_instance(), t, r, GateTiming(t_g=t_g))
        noisy = [g for g in circuit.gates if g.noisy]
        phi_p = np.array([g.spec.angle for g in noisy])
        lam = c2 * np.array([g.start_time for g in noisy])
        batched = table.lookup(phi_p, lam)
        want = [_oracle_lookup(table, float(p), float(l)) for p, l in zip(phi_p, lam)]
        assert batched["phi_in_star"].tolist() == [w["phi_in_star"] for w in want]
        assert batched["fidelity_star"].tolist() == [w["fidelity_star"] for w in want]
        corrected = correct_circuit(circuit, c2, table)
        assert [g.spec.angle for g in corrected.gates if g.noisy] == \
            [w["phi_in_star"] for w in want]


def test_lookup_scalar_and_array_shapes():
    table = FeedforwardTable()
    scalar = table.lookup(2.5, 0.5)
    assert isinstance(scalar["phi_in_star"], float)
    assert isinstance(scalar["fidelity_star"], float)
    grid = table.lookup(np.array([[2.5, -2.5, 0.0]]), np.array([[0.5], [0.0]]))
    assert grid["phi_in_star"].shape == grid["fidelity_star"].shape == (2, 3)
    assert grid["phi_in_star"][0, 0] == scalar["phi_in_star"]
    assert grid["phi_in_star"][0, 1] == -scalar["phi_in_star"]
    assert grid["phi_in_star"][1].tolist() == [2.5, -2.5, 0.0]
    empty = table.lookup(np.array([]), np.array([]))
    assert empty["phi_in_star"].shape == (0,)
    with pytest.raises(ValueError):
        table.lookup(np.array([1.0, 1.0]), np.array([0.1, -0.1]))


def test_corner_solves_share_the_dense_scan_per_lambda(monkeypatch):
    from ioncodesign import feedforward

    parts_calls = []
    original = feedforward._fidelity_parts

    def counting(phi_in, lam):
        parts_calls.append(np.size(phi_in))
        return original(phi_in, lam)

    monkeypatch.setattr(feedforward, "_fidelity_parts", counting)
    feedforward._scan_cache.clear()
    table = FeedforwardTable()
    phi_p = np.array([0.503, 1.207, 2.911, 0.503])
    table.lookup(phi_p, np.full(4, 0.315))
    scans = [n for n in parts_calls if n > 100]
    assert len(table._corners) == 12  # 3 distinct phi cells x 2 corners x 2 lambda rows
    assert len(scans) == 2  # one dense scan per lambda row
    assert len(feedforward._scan_cache) <= 2


@settings(max_examples=80, deadline=None)
@given(phi_in=st.floats(-4 * math.pi, 4 * math.pi), phi_p=st.floats(-4 * math.pi, 4 * math.pi),
       lam=st.floats(0.0, 20.0))
def test_avg_fidelity_is_between_zero_and_one(phi_in, phi_p, lam):
    # near a zero of the fidelity the closed form cancels to rounding level
    assert -1e-12 <= avg_gate_fidelity(phi_in, phi_p, lam) <= 1.0 + 1e-12


_SHARED_TABLE = FeedforwardTable()


@settings(max_examples=25, deadline=None)
@given(phi_p=st.floats(-4 * math.pi, 4 * math.pi), lam=st.floats(0.0, 3.0))
def test_lookup_is_at_least_as_good_as_trivial_inputs(phi_p, lam):
    res = _SHARED_TABLE.lookup(phi_p, lam)
    cap = _SHARED_TABLE.phi_cap
    sign = -1.0 if phi_p < 0 else 1.0
    for trivial in (min(abs(phi_p), cap), 0.0, cap):
        assert res["fidelity_star"] >= avg_gate_fidelity(sign * trivial, phi_p, lam) - 1e-12
    assert res["fidelity_star"] == pytest.approx(
        avg_gate_fidelity(res["phi_in_star"], phi_p, lam), abs=1e-12)


def test_correct_circuit_only_touches_noisy_gates():
    rng = np.random.default_rng(1)
    J = np.zeros((3, 3))
    for i in range(3):
        for j in range(i + 1, 3):
            J[i, j] = J[j, i] = rng.uniform(-1, 1)
    ham = SpinHamiltonian(3, J, rng.uniform(-5, 5, 3))
    circuit = build_trotter_circuit(ham, 2.0, 4)
    corrected = correct_circuit(circuit, c2=0.02)
    assert len(corrected.gates) == len(circuit.gates)
    for before, after in zip(circuit.gates, corrected.gates):
        assert after.start_time == before.start_time
        if before.spec.kind == "XX":
            # corrected magnitude should not shrink: the noise only damps
            assert abs(after.spec.angle) >= abs(before.spec.angle) - 1e-9
        else:
            assert after.spec.angle == before.spec.angle


def test_correct_circuit_zero_noise_is_identity():
    ham = SpinHamiltonian(2, np.array([[0.0, 0.5], [0.5, 0.0]]), np.zeros(2))
    circuit = build_trotter_circuit(ham, 1.0, 2)
    assert correct_circuit(circuit, 0.0) is circuit
    with pytest.raises(ValueError):
        correct_circuit(circuit, -0.1)


def test_query_validation():
    with pytest.raises(ValueError):
        ControlQuery(1.0, -0.1)
    with pytest.raises(ValueError):
        ControlQuery(1.0, 0.1, phi_cap=0.0)
