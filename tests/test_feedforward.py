"""Unit tests for feedforward angle correction."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from ioncodesign import calibration, default_instance, feedforward

from ioncodesign.feedforward import (
    ControlQuery,
    FeedforwardTable,
    avg_gate_fidelity,
    correct_circuit,
    gate_fidelity,
    optimal_input_angle,
)
from ioncodesign.hamiltonian import SpinHamiltonian
from ioncodesign.motional_noise import hyp1f2, hyp1f2_float, series_lambda
from ioncodesign.trotter import GateTiming, TimedCircuit, build_trotter_circuit


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
    if lam == 0 and phi_p > table.phi_cap:
        return optimal_input_angle(ControlQuery(phi_p, 0.0, table.phi_cap))
    if lam == 0:
        return {"phi_in_star": min(phi_p, table.phi_cap),
                "fidelity_star": float(gate_fidelity(min(phi_p, table.phi_cap), phi_p))}
    i0, fx = divmod(phi_p / 1e-2, 1.0)
    j0, fy = divmod(lam / 1e-2, 1.0)
    i0, j0 = int(i0), int(j0)
    corners = [table._corner(i, j) for i in (i0, i0 + 1) for j in (j0, j0 + 1)]
    interp = ((1 - fx) * (1 - fy) * corners[0]
              + (1 - fx) * fy * corners[1]
              + fx * (1 - fy) * corners[2]
              + fx * fy * corners[3])
    candidates = np.array([interp] + corners
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


def test_lookup_at_zero_lambda_past_the_cap_takes_the_solvers_answer():
    # A circuit's first XX gate starts at tau = 0. Past the cap, lam = 0 used to return
    # the cap itself (fidelity 0.5 at 5 pi) while lam = 1e-9 found the 4 pi period.
    table = FeedforwardTable()
    phi_p = np.array([5 * math.pi, -5 * math.pi, 13.0, 30.0, 12.6, 1.1])
    at_zero, near_zero = table.lookup(phi_p, 0.0), table.lookup(phi_p, 1e-9)
    assert np.allclose(at_zero["phi_in_star"], near_zero["phi_in_star"], rtol=0, atol=1e-5)
    assert np.allclose(at_zero["fidelity_star"], near_zero["fidelity_star"], rtol=0, atol=1e-8)
    assert table.lookup(5 * math.pi, 0.0) == optimal_input_angle(ControlQuery(5 * math.pi, 0.0))
    assert at_zero["fidelity_star"][0] == pytest.approx(1.0)
    want = [_oracle_lookup(table, float(p), 0.0) for p in phi_p]
    assert at_zero["phi_in_star"].tolist() == [w["phi_in_star"] for w in want]
    assert at_zero["fidelity_star"].tolist() == [w["fidelity_star"] for w in want]


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

    # A scan row sums its two 1F2 series on the 1-d grid, with a = 1 + 0.5/lam
    # first; lookups weigh their candidates on 2-d arrays and the refine
    # sums on floats, so the 1-d calls count the rows.
    calls = []
    original = feedforward.hyp1f2

    def counting(a, b1, b2, z):
        if np.ndim(z) == 1:
            calls.append(a)
        return original(a, b1, b2, z)

    def scanned():
        return calls[::2]

    monkeypatch.setattr(feedforward, "hyp1f2", counting)
    table = FeedforwardTable()
    phi_p = np.array([0.503, 1.207, 2.911, 0.503])
    table.lookup(phi_p, np.full(4, 0.315))
    rows = table._rows[table.phi_cap].rows
    assert len(table._corners) == 12  # 3 distinct phi cells x 2 corners x 2 lambda rows
    assert len(scanned()) == 2  # one dense scan per lambda row
    assert [1.0 + 0.5 / lam for lam in rows] == scanned()
    # new corners on lambda rows the table already holds scan nothing
    table.lookup(np.array([5.5, 9.01]), np.array([0.315, 0.311]))
    assert len(table._corners) == 20
    assert len(scanned()) == 2
    # a new table starts cold
    FeedforwardTable().lookup(phi_p, np.full(4, 0.315))
    assert len(scanned()) == 4
    # a table keeps at most SCAN_ROWS_MAX rows, evicting the oldest first
    monkeypatch.setattr(feedforward, "SCAN_ROWS_MAX", 3)
    table.lookup(np.full(5, 0.503), np.array([0.405, 0.505, 0.605, 0.705, 0.805]))
    assert len(scanned()) == 14  # 5 lambda cells x 2 rows
    assert list(rows) == [j * feedforward.MEMO_PITCH_LAM for j in (71, 80, 81)]


@pytest.mark.parametrize("lam", [0.01, 0.315, 4.0])
def test_scan_values_are_avg_gate_fidelity_bit_for_bit(lam):
    from ioncodesign.feedforward import _Scan

    scan = _Scan(4.0 * math.pi)
    for phi_p in (0.0, 0.503, 2.911, 9.01):
        want = avg_gate_fidelity(scan.grid, phi_p, lam)
        assert scan.values(phi_p, lam).tobytes() == want.tobytes()


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c2", [math.nan, math.inf, -1.0])
def test_correct_circuit_rejects_a_bad_heating_rate(c2):
    circuit = build_trotter_circuit(default_instance(), 0.5, 1)
    with pytest.raises(ValueError, match="c2 must be a finite number >= 0"):
        correct_circuit(circuit, c2)


def test_query_validation():
    with pytest.raises(ValueError):
        ControlQuery(1.0, -0.1)
    with pytest.raises(ValueError):
        ControlQuery(1.0, 0.1, phi_cap=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True])
@pytest.mark.parametrize("field", ["phi_p", "lam", "phi_cap"])
def test_query_rejects_non_finite_inputs(field, bad):
    args = dict(phi_p=1.0, lam=0.1, phi_cap=4 * math.pi)
    args[field] = bad
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        ControlQuery(**args)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_lookup_rejects_non_finite_inputs(bad):
    table = FeedforwardTable()
    with pytest.raises(ValueError, match="phi_p must be finite"):
        table.lookup(bad, 0.1)
    with pytest.raises(ValueError, match="lam must be finite"):
        table.lookup(1.0, bad)
    with pytest.raises(ValueError, match="phi_p must be finite"):
        table.lookup(np.array([1.0, bad]), np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match="phi_cap must be a finite number"):
        FeedforwardTable(phi_cap=bad)
    assert not table._corners


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("phi_p,lam,name", [(1e17, 0.5, "phi_p"), (-1e17, 0.5, "phi_p"),
                                            (1.0, 1e17, "lam")])
def test_lookup_rejects_inputs_whose_corner_index_overflows(phi_p, lam, name):
    table = FeedforwardTable()
    with pytest.raises(ValueError, match=f"{name} too large"):
        table.lookup(phi_p, lam)
    assert not table._corners
    # the largest upper corner index that fits still answers
    assert math.isfinite(table.lookup(np.nextafter(2.0**63, 0) * 0.01, 0.5)["phi_in_star"])


@pytest.mark.parametrize("tiny", [1e-310, 5e-324])
def test_lookup_past_the_series_bound_is_the_noiseless_lookup(tiny):
    # 0.5 / tiny overflows, so series_lambda, avg_gate_fidelity and optimal_input_angle
    # take the noiseless branch there; lookup tested lam > 0, solved 1,900 noisy
    # corners for these 804 angles and moved 283 of them by up to 2.2e-15 rad
    phi_p = np.linspace(-20.0, 20.0, 804)
    table = FeedforwardTable()
    got = table.lookup(phi_p, np.full(phi_p.shape, tiny))
    want = FeedforwardTable().lookup(phi_p, np.zeros(phi_p.shape))
    for key in ("phi_in_star", "fidelity_star"):
        assert got[key].tobytes() == want[key].tobytes()
    assert table.lookup(3.0, tiny) == FeedforwardTable().lookup(3.0, 0.0)
    assert not table._corners


def _old_interpolate(self, phi_p, lam):
    """FeedforwardTable._interpolate as it was, with its corners found by np.unique(axis=0)."""
    cap = self.phi_cap
    x, y = phi_p / feedforward.MEMO_PITCH_PHI, lam / feedforward.MEMO_PITCH_LAM
    for name, scaled in (("phi_p", x), ("lam", y)):
        if not scaled.max() < 2.0**63:
            raise ValueError(f"{name} too large: its table corner index overflows int64")
    i0, fx = np.divmod(x, 1.0)
    j0, fy = np.divmod(y, 1.0)
    ci = i0.astype(np.int64)[:, None] + [0, 0, 1, 1]
    cj = j0.astype(np.int64)[:, None] + [0, 1, 0, 1]
    keys, inverse = np.unique(np.stack([cj.ravel(), ci.ravel()], axis=1),
                              axis=0, return_inverse=True)
    solved = np.array([self._corner(int(i), int(j)) for j, i in keys])
    c = solved[inverse.reshape(ci.shape)]
    interp = ((1 - fx) * (1 - fy) * c[:, 0] + (1 - fx) * fy * c[:, 1]
              + fx * (1 - fy) * c[:, 2] + fx * fy * c[:, 3])
    n = phi_p.size
    candidates = np.clip(np.column_stack([interp, c, np.minimum(phi_p, cap),
                                          np.zeros(n), np.full(n, cap)]), 0.0, cap)
    fids = avg_gate_fidelity(candidates, phi_p[:, None], lam[:, None])
    best = np.argmax(fids, axis=1)
    return candidates[np.arange(n), best], fids[np.arange(n), best]


@pytest.mark.parametrize("seed", range(4))
def test_corner_dedupe_matches_the_unique_oracle(seed, monkeypatch):
    # Random lookups, some entries repeated and some at the largest corner index that
    # fits int64: the same angles, and the corners solved in the same (lambda-major) order.
    rng = np.random.default_rng(seed)
    phi_p = rng.uniform(-4 * math.pi, 4 * math.pi, 24)
    lam = rng.choice([0.0, 0.013, 0.2, 0.71, 1.5], 24) + rng.uniform(0.0, 0.03, 24)
    phi_p[:4], lam[:4] = phi_p[4:8], lam[4:8]
    phi_p[8] = np.nextafter(2.0**63, 0) * 0.01 * (-1) ** seed
    table, oracle = FeedforwardTable(), FeedforwardTable()
    got = table.lookup(phi_p, lam)
    monkeypatch.setattr(FeedforwardTable, "_interpolate", _old_interpolate)
    want = oracle.lookup(phi_p, lam)
    assert got["phi_in_star"].tobytes() == want["phi_in_star"].tobytes()
    assert got["fidelity_star"].tobytes() == want["fidelity_star"].tobytes()
    assert list(table._corners) == list(oracle._corners)


def test_correct_circuit_is_the_same_for_array_and_gate_built_circuits():
    circuit = build_trotter_circuit(default_instance(), 2.0, 3, GateTiming(t_g=0.04))
    from_gates = TimedCircuit(circuit.n_qubits, circuit.gates)
    table = FeedforwardTable()
    corrected = correct_circuit(circuit, 0.02, table)
    assert corrected.angles.tobytes() == correct_circuit(from_gates, 0.02, table).angles.tobytes()
    assert corrected.angles[~circuit.noisy].tobytes() == circuit.angles[~circuit.noisy].tobytes()
    # the corrected circuit shares the structure and start times; the input is untouched
    assert corrected.kinds is circuit.kinds and corrected.sites is circuit.sites
    assert np.array_equal(corrected.noisy, circuit.noisy)
    assert np.shares_memory(corrected.start_times, circuit.start_times)
    assert circuit.angles.tobytes() == from_gates.angles.tobytes()


def _old_hyp1f2(a, b1, b2, z):
    """hyp1f2 as it was before the array series tested a witness entry first."""
    if all(np.ndim(v) == 0 for v in (a, b1, b2, z)):
        return hyp1f2(a, b1, b2, z)  # the scalar path is unchanged
    a, b1, b2, z = (np.asarray(v, dtype=float) for v in (a, b1, b2, z))
    assert not np.any(np.abs(z) > 150.0)
    shape = np.broadcast_shapes(a.shape, b1.shape, b2.shape, z.shape)
    term = np.ones(shape)
    total = np.ones(shape)
    for k in range(500):
        term = term * ((a + k) / ((b1 + k) * (b2 + k))) * z / (k + 1.0)
        total = total + term
        if np.all(np.abs(term) < 1e-16 * np.maximum(np.abs(total), 1e-300)):
            return total
    raise RuntimeError("1F2 series did not converge")


def _old_fidelity_parts(phi_in, lam):
    phi_in = np.asarray(phi_in, dtype=float)
    lam, noisy, half = series_lambda(lam)
    if not noisy.any():
        return phi_in, noisy, None
    z = -(phi_in**2) / 16.0
    return phi_in, noisy, (0.5 * np.cos(phi_in / 2.0),
                           phi_in**2 * lam / (8.0 + 16.0 * lam),
                           _old_hyp1f2(1.0 + half, 1.5, 2.0 + half, z),
                           phi_in / (4.0 + 4.0 * lam),
                           _old_hyp1f2(0.5 + half, 1.5, 1.5 + half, z))


def _old_combine(parts, phi_p):
    phi_in, noisy, factors = parts
    if factors is None:
        out = gate_fidelity(phi_in, phi_p) + np.zeros(noisy.shape)
    else:
        hc, k1, h1, k2, h2 = factors
        cp, sp = np.cos(phi_p / 2.0), np.sin(phi_p / 2.0)
        out = 0.5 + hc * cp + k1 * cp * h1 + k2 * sp * h2
        if not noisy.all():
            out = np.where(noisy, out, gate_fidelity(phi_in, phi_p))
    return out if out.ndim else float(out)


def _old_avg_gate_fidelity(phi_in, phi_p, lam):
    return _old_combine(_old_fidelity_parts(phi_in, lam), phi_p)


def _scipy_optimal_input_angle(query, scans):
    """optimal_input_angle as it was before its refinement ran on floats.

    scans caches the dense scan by (lambda, cap), which the old code's
    module-level cache did for the last two lambdas.
    """
    if query.phi_p < 0:
        flipped = _scipy_optimal_input_angle(ControlQuery(-query.phi_p, query.lam,
                                                        query.phi_cap), scans)
        return {"phi_in_star": -flipped["phi_in_star"],
                "fidelity_star": flipped["fidelity_star"]}
    phi_p, lam, cap = query.phi_p, query.lam, query.phi_cap
    if (lam, cap) not in scans:
        grid = np.arange(0.0, cap + 1e-3, 1e-3)
        grid[-1] = cap
        scans[lam, cap] = grid, _old_fidelity_parts(grid, lam)
    grid, parts = scans[lam, cap]
    values = _old_combine(parts, phi_p)
    best = int(np.argmax(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    candidates = []
    if hi > lo:
        res = minimize_scalar(lambda x: -_old_avg_gate_fidelity(x, phi_p, lam),
                              bounds=(lo, hi), method="bounded", options={"xatol": 1e-6})
        candidates.append((float(res.x), -float(res.fun)))
    candidates.append((float(grid[best]), float(values[best])))
    phi_star, fid_star = max(candidates, key=lambda c: (c[1], -c[0]))
    return {"phi_in_star": phi_star, "fidelity_star": fid_star}


def _half(lam):
    """A noisy lam's 0.5/lam from series_lambda, as a float scan row keeps it."""
    _, noisy, half = series_lambda(lam)
    assert noisy
    return float(half)


PINNED_X = 5.9039809275911965  # x * x and Python's x**2 differ in the last bit here


@settings(max_examples=300, deadline=None)
@given(x=st.floats(0.0, 4 * math.pi), phi_p=st.floats(0.0, 4 * math.pi),
       lam=st.one_of(st.floats(1e-300, 20.0), st.sampled_from([1e-300, 1e-6, 0.315])))
def test_refine_objective_is_bit_identical_to_avg_fidelity(x, phi_p, lam):
    from ioncodesign.feedforward import _refine_objective

    objective = _refine_objective(phi_p, lam, _half(lam))
    for point in (x, PINNED_X, np.float64(x)):
        want = -_old_avg_gate_fidelity(point, phi_p, lam)
        assert objective(point) == want == -avg_gate_fidelity(point, phi_p, lam)


def test_refine_objective_at_the_pinned_point():
    from ioncodesign.feedforward import _refine_objective

    for phi_p in (0.0, 1.0, PINNED_X, 4 * math.pi):
        for lam in (0.01, 0.315, 3.0):
            assert _refine_objective(phi_p, lam, _half(lam))(PINNED_X) == \
                -_old_avg_gate_fidelity(PINNED_X, phi_p, lam)


def _feedforward_config(**size):
    from ioncodesign.harness import ExperimentConfig

    return ExperimentConfig(hamiltonian=default_instance(), c2=0.02, seed=0,
                            feedforward=True, **size)


@pytest.mark.parametrize("workload", ["sweep", "infer"])
def test_cold_table_corners_are_bit_identical_to_the_old_solver(workload, monkeypatch):
    # the small sweep-feedforward and infer-feedforward benchmark sizes
    from ioncodesign import feedforward, harness

    solved = []
    original = feedforward.optimal_input_angle

    def recording(query, rows=None):
        result = original(query, rows)
        solved.append((query, result))
        return result

    monkeypatch.setattr(feedforward, "optimal_input_angle", recording)
    if workload == "sweep":
        harness.run_depth_sweep(_feedforward_config(r_values=(1, 2), n_times=3, t_max=2.0,
                                                    n_runs=1))
    else:
        config = _feedforward_config(t_g=0.04, r=8, n_times=3, t_max=2.0, n_runs=1)
        guess = harness.perturbed_instance(config.hamiltonian, 0.05,
                                           np.random.default_rng(100))
        harness.run_inference_demo(harness.exact_spectrum(config), guess, 2, config)
    assert len(solved) > 20
    assert any(query.lam == 0 for query, _ in solved)
    scans = {}
    for query, result in solved:
        want = _scipy_optimal_input_angle(query, scans)
        _assert_old_or_closed_form(query, result, want)
        if query.lam == 0:  # a corner's phi_p lies on the scan grid
            assert abs(result["phi_in_star"] - want["phi_in_star"]) <= 1e-15


def _noiseless_closed_form(query):
    """phi_p's smallest 4 pi image if it is within the cap, else the better end of
    [0, cap] (0 on a tie), with the sign of phi_p."""
    sign, phi_p, cap = -1.0 if query.phi_p < 0 else 1.0, abs(query.phi_p), query.phi_cap
    star = math.fmod(phi_p, 4 * math.pi)
    if star > cap:
        star = cap if gate_fidelity(cap, phi_p) > gate_fidelity(0.0, phi_p) else 0.0
    return {"phi_in_star": sign * star, "fidelity_star": float(gate_fidelity(star, phi_p))}


def _assert_old_or_closed_form(query, got, old):
    """A noisy answer is the old solver's bit for bit; a noiseless one is the closed
    form's, and the old solver's fidelity lies within 1e-15 of it."""
    if series_lambda(query.lam)[1]:
        assert got == old
    else:
        assert got == _noiseless_closed_form(query)
        assert abs(got["fidelity_star"] - old["fidelity_star"]) <= 1e-15


@settings(max_examples=200, deadline=None)
@given(phi_p=st.floats(0.0, 40.0),
       cap=st.sampled_from([1e-9, 0.5, 2 * math.pi, 4 * math.pi, 20.0]))
@example(phi_p=4 * math.pi, cap=4 * math.pi)  # its smallest 4 pi image is 0, not 4 pi
@example(phi_p=5 * math.pi, cap=4 * math.pi)
@example(phi_p=0.0, cap=1e-9)
def test_noiseless_answer_is_the_best_angle_within_the_cap(phi_p, cap):
    res = optimal_input_angle(ControlQuery(phi_p, 0.0, cap))
    assert 0.0 <= res["phi_in_star"] <= cap
    assert res["fidelity_star"] == gate_fidelity(res["phi_in_star"], phi_p)
    assert res["fidelity_star"] >= gate_fidelity(np.linspace(0.0, cap, 100_001), phi_p).max()
    assert FeedforwardTable(cap).lookup(phi_p, 0.0) == res
    assert FeedforwardTable(cap).lookup(-phi_p, 0.0) == optimal_input_angle(
        ControlQuery(-phi_p, 0.0, cap))


def _old_noisy_fidelity(phi, square, half_cos, lam, cp, sp, h1, h2):
    return (0.5 + half_cos * cp + square * lam / (8.0 + 16.0 * lam) * cp * h1
            + phi / (4.0 + 4.0 * lam) * sp * h2)


class _OldScan:
    """feedforward._Scan before the hot row: 11 full passes a corner, rows
    holding only the `_hyp_pair`, evicted at feedforward.SCAN_ROWS_MAX."""

    def __init__(self, cap):
        grid = np.arange(0.0, cap + feedforward.SCAN_STEP, feedforward.SCAN_STEP)
        grid[-1] = cap
        self.grid, self.square = grid, grid**2
        self.z = -self.square / 16.0
        self.half_cos = 0.5 * np.cos(grid / 2.0)
        self.rows = {}

    def values(self, phi_p, lam):
        if lam not in self.rows:
            if len(self.rows) >= feedforward.SCAN_ROWS_MAX:
                del self.rows[next(iter(self.rows))]
            _, noisy, half = series_lambda(lam)
            self.rows[lam] = feedforward._hyp_pair(hyp1f2, half, self.z) if noisy else ()
        row = self.rows[lam]
        if not row:
            return gate_fidelity(self.grid, phi_p)
        return _old_noisy_fidelity(self.grid, self.square, self.half_cos, lam,
                                   np.cos(phi_p / 2.0), np.sin(phi_p / 2.0), *row)


def _old_refine_objective(phi_p, lam):
    """feedforward._refine_objective before it took (noisy, half) from the scan row."""
    _, noisy, half = series_lambda(lam)
    if not noisy:
        return lambda x: -(float(np.cos((float(x) - phi_p) / 4.0)) ** 2)
    half = float(half)
    cp, sp = float(np.cos(phi_p / 2.0)), float(np.sin(phi_p / 2.0))

    def objective(x):
        x = float(x)
        square = x * x
        return -_old_noisy_fidelity(x, square, 0.5 * float(np.cos(x / 2.0)), lam, cp, sp,
                                    *feedforward._hyp_pair(hyp1f2_float, half,
                                                           -square / 16.0))

    return objective


def _old_optimal_input_angle(query, rows=None):
    """optimal_input_angle before the hot row and the per-row (noisy, half)."""
    if query.phi_p < 0:
        flipped = _old_optimal_input_angle(ControlQuery(-query.phi_p, query.lam,
                                                        query.phi_cap), rows)
        return {"phi_in_star": -flipped["phi_in_star"],
                "fidelity_star": flipped["fidelity_star"]}
    phi_p, lam, cap = query.phi_p, query.lam, query.phi_cap
    if rows is None:
        rows = {}
    if cap not in rows:
        rows[cap] = _OldScan(cap)
    scan = rows[cap]
    grid = scan.grid
    values = scan.values(phi_p, lam)
    best = int(np.argmax(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    if hi > lo:
        res = calibration.minimize_scalar(_old_refine_objective(phi_p, lam), (lo, hi),
                                          feedforward.REFINE_TOL)
        candidates = [(res.x, -res.fun)]
    else:
        candidates = []
    candidates.append((float(grid[best]), float(values[best])))
    phi_star, fid_star = max(candidates, key=lambda c: (c[1], -c[0]))
    return {"phi_in_star": phi_star, "fidelity_star": fid_star}


@settings(max_examples=60, deadline=None)
@given(lams=st.lists(st.one_of(st.sampled_from([0.0, 1e-310]), st.floats(0.0, 3.0)),
                     min_size=1, max_size=3),
       queries=st.lists(st.tuples(st.floats(-4 * math.pi, 4 * math.pi), st.integers(0, 2)),
                        min_size=1, max_size=6),
       cap=st.sampled_from([4 * math.pi, 0.5, 1e-9]), shared=st.booleans(),
       rows_max=st.sampled_from([2, 64]))
def test_corners_are_the_old_solvers_bit_for_bit(lams, queries, cap, shared, rows_max):
    # queries interleave up to three lambdas, so the hot row switches back and
    # forth, and with SCAN_ROWS_MAX = 2 rows are evicted and rebuilt
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(feedforward, "SCAN_ROWS_MAX", rows_max)
        new_rows, old_rows = {}, {}
        for phi_p, k in queries:
            query = ControlQuery(phi_p, lams[k % len(lams)], cap)
            got = optimal_input_angle(query, new_rows if shared else None)
            want = _old_optimal_input_angle(query, old_rows if shared else None)
            _assert_old_or_closed_form(query, got, want)
        if shared:
            assert list(new_rows[cap].rows) == list(old_rows[cap].rows)
