"""Tests of the benchmark itself: every check can fail, every workload runs.

Run from the repository root with

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ioncodesign import harness, spectroscopy  # noqa: E402


@pytest.fixture(scope="module")
def outputs():
    """Inputs and first-round result of every workload at its tiny size."""
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.inputs(seed=3, tiny=True)
        out[name] = (workload, inputs, workload.run(inputs))
    return out


def _check(outputs, name, result=None):
    workload, inputs, reference = outputs[name]
    return checks.CHECKS[workload.kind](inputs, reference if result is None else result, 3)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_every_check(outputs, name):
    workload, inputs, result = outputs[name]
    assert _check(outputs, name) == []
    assert workload.same(result, workload.run(inputs))


def _sweep_with(result, **changes):
    records = [dict(rec) for rec in result.records]
    records[0].update(changes)
    return dataclasses.replace(result, records=records)


@pytest.mark.parametrize("field", ["f_int", "d_h"])
def test_sweep_check_catches_perturbed_record(outputs, field):
    result = outputs["sweep-noisy"][2]
    bad = _sweep_with(result, **{field: result.records[0][field] + 1e-7})
    assert any(field in message for message in _check(outputs, "sweep-noisy", bad))


def test_sweep_check_catches_out_of_range_distance(outputs):
    bad = _sweep_with(outputs["sweep-noisy"][2], d_h=1.5)
    assert any("outside [0, 1]" in m for m in _check(outputs, "sweep-noisy", bad))


def test_target_check_catches_perturbed_spectrum(outputs):
    config = outputs["sweep-noisy"][1]
    target = harness.exact_spectrum(config)
    target.a_norm = target.a_norm * (1.0 + 1e-6)
    fails, _, _ = checks.check_target(target, config)
    assert any("exact target" in m for m in fails)
    assert any("unit mass" in m for m in fails)


def test_realization_check_catches_wrong_evolution(outputs, monkeypatch):
    original = spectroscopy.TrotterEvolver.evolve
    monkeypatch.setattr(spectroscopy.TrotterEvolver, "evolve",
                        lambda self, cols, run, t: 1.0000001 * original(self, cols, run, t))
    assert any("realization" in m for m in _check(outputs, "sweep-large"))


def test_realization_check_catches_swapped_angles(outputs, monkeypatch):
    # An engine that applies two gates' angles in swapped order.
    from ioncodesign.spinsim import CompiledCircuit

    original = CompiledCircuit.apply

    def swapped(self, array, angles):
        angles = list(angles)
        angles[0], angles[1] = angles[1], angles[0]
        return original(self, array, angles)

    monkeypatch.setattr(CompiledCircuit, "apply", swapped)
    fails = _check(outputs, "sweep-noisy")
    assert any("realization" in m for m in fails)


def test_response_and_fidelity_checks_catch_perturbation():
    assert checks.check_response_origin([1.0 + 1e-9, 0.5], 4)
    assert checks.check_fidelities([1.0 - 1e-9, 0.9])
    assert checks.check_fidelities([1.0, 1.0 + 1e-9])
    assert checks.check_fidelities([1.0, -1e-9])
    omega = np.linspace(-1.0, 1.0, 5)
    assert checks.check_unit_mass("s", np.full(5, 2 * np.pi / 2.0), omega)  # mass 2.5
    assert checks.check_non_increasing([0.3, 0.2, 0.2 + 1e-15])
    assert checks.check_hellinger_range([0.1, -1e-12])


def test_feedforward_check_catches_swapped_angle():
    table = spectroscopy.FeedforwardTable()
    phi_p, lam = 2.5, 0.5
    good = table.lookup(phi_p, lam)["phi_in_star"]
    assert checks.check_feedforward_angles([(good, phi_p, lam)]) == []
    # the corrected angle of another gate, and a sign-swapped one
    other = table.lookup(0.3, lam)["phi_in_star"]
    assert checks.check_feedforward_angles([(other, phi_p, lam)])
    assert checks.check_feedforward_angles([(-good, phi_p, lam)])


def test_feedforward_check_in_workload_catches_uncorrected_circuit(outputs, monkeypatch):
    # Feedforward that moves every angle the wrong way must be caught.
    original = spectroscopy.correct_circuit

    def worse(circuit, c2, table=None):
        corrected = original(circuit, c2, table)
        gates = tuple(dataclasses.replace(
            g, spec=dataclasses.replace(g.spec, angle=0.5 * g.spec.angle)) if g.noisy else g
            for g in corrected.gates)
        return dataclasses.replace(corrected, gates=gates)

    monkeypatch.setattr(spectroscopy, "correct_circuit", worse)
    workload, inputs, result = outputs["sweep-feedforward"]
    fails = checks.check_sweep(inputs, result, 3)
    assert any("corrected angle" in m for m in fails)


def test_calibration_checks_catch_wrong_fit(outputs):
    workload, inputs, (curve, fit, damping) = outputs["calibrate"]
    wrong = dict(fit, c2_hat=fit["c2_hat"] * 1.06)
    fails = _check(outputs, "calibrate", (curve, wrong, damping))
    assert any("c2_hat" in m for m in fails)
    assert any("residual vs quadrature" in m for m in fails)
    swapped = dict(fit, residual=damping["residual"])
    assert any("phase damping" in m
               for m in _check(outputs, "calibrate", (curve, swapped, damping)))


def test_return_probability_check_catches_perturbation():
    phi, lam = [0.5, 3.0], [0.0, 0.4]
    good = [[checks.return_probability_quad(p, l) for l in lam] for p in phi]
    assert checks.check_return_probability(phi, lam, good) == []
    bad = np.array(good)
    bad[1, 1] += 2e-8
    assert checks.check_return_probability(phi, lam, bad)


def test_infer_checks_catch_increase_and_wrong_distance(outputs):
    target, log = outputs["infer-feedforward"][2]
    raised = [dict(rec) for rec in log]
    raised[-1]["d_h"] = raised[0]["d_h"] + 1e-3
    fails = _check(outputs, "infer-feedforward", (target, raised))
    assert any("increased" in m for m in fails)
    assert any("final d_h" in m for m in fails)


def test_independent_hamiltonian_matches_package():
    from ioncodesign.hamiltonian import hamiltonian_matrix

    ham = workloads.random_instance(3, 5)
    assert np.allclose(checks.heisenberg_matrix(ham.J, ham.h), hamiltonian_matrix(ham),
                       atol=1e-13)


@pytest.mark.parametrize("kind, sites", [("XX", (0, 2)), ("XX", (2, 1)), ("RY", (1,))])
def test_embedded_gate_matches_full_generator(kind, sites):
    from scipy.linalg import expm

    n, angle = 3, 0.7
    ops = [checks.site_operator(checks.SX if kind == "XX" else checks.SY, s, n) for s in sites]
    gen = ops[0] @ ops[1] if kind == "XX" else 0.5 * ops[0]
    assert np.allclose(checks.gate_unitary(kind, sites, angle, n), expm(-1j * angle * gen),
                       atol=1e-13)


def test_tracer_reports_layers_and_restores_originals(outputs):
    workload, inputs, _ = outputs["sweep-feedforward"]
    before = spectroscopy.FeedforwardTable.lookup, harness.simulate_spectrum
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.run(inputs)
    finally:
        tracer.uninstall()
    assert (spectroscopy.FeedforwardTable.lookup, harness.simulate_spectrum) == before
    metrics = tracing.layer_metrics(tracer, 1, 1.0, 0.0)
    assert [m for m, _ in tracing.per_layer_names()] == list(metrics)
    config = inputs
    depths, times = len(config.r_values), config.n_times
    assert metrics["harness.simulate_spectrum.calls"]["value"] == depths
    assert metrics["trotter.build_trotter_circuit.calls"]["value"] == 2 * depths * times + depths
    assert metrics["feedforward.lookup.calls"]["value"] > 0
    assert 0 < metrics["feedforward.corner_hit_ratio"]["value"] < 1
    summary = tracer.summary()
    assert sum(summary["self_s"].values()) == pytest.approx(summary["top_level_s"])


def test_tracer_sees_no_feedforward_on_noisy_sweep(outputs):
    workload, inputs, _ = outputs["sweep-noisy"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.run(inputs)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, 1, 1.0, 0.0)
    assert metrics["feedforward.lookup.calls"]["value"] == 0
    assert metrics["feedforward.lookup.self_s"]["value"] == 0
    assert metrics["spinsim.apply.calls"]["value"] > 0


def test_runner_prints_result_line():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "calibrate",
                           "--seed", "1", "--seconds", "0.1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=BENCH.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == {"setup_s", "wall_s", "peak_rss_mib"}


def test_runner_fails_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"),
                           "--workload", "calibrate", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True, timeout=170,
                          cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
