"""Trapped-ion quantum simulation co-design toolkit.

Dense statevector simulation of timed Trotter circuits for Heisenberg
models, a correlated motional-heating noise model with analytic angle
statistics, heating-rate calibration, optimal feedforward control, and
spectroscopy metrics for scoring circuit designs.
"""

from importlib.resources import files as _files

__version__ = "0.1.0"

from .calibration import (
    CalibrationCurve,
    fit_c2,
    fit_phase_damping,
    simulate_calibration,
)
from .feedforward import (
    ControlQuery,
    FeedforwardTable,
    avg_gate_fidelity,
    correct_circuit,
    gate_fidelity,
    optimal_input_angle,
)
from .hamiltonian import (
    ExactEvolver,
    SpinHamiltonian,
    hamiltonian_matrix,
)
from .motional_noise import (
    AngleDistribution,
    NoiseParams,
    angle_correlation,
    angle_moments,
    angle_pdf,
    hyp1f2,
    markovian_noise_to_signal,
    noisy_angle,
    return_probability,
    sample_trajectory,
)
from .spinsim import (
    CompiledCircuit,
    GateSpec,
    circuit_unitary,
)
from .spectroscopy import (
    FidelityTrace,
    ResponseSeries,
    Spectrum,
    TrotterEvolver,
    exact_response,
    fidelity_trace,
    hellinger,
    noisy_response,
    spectrum,
)
from .trotter import (
    GateTiming,
    TimedCircuit,
    TimedGate,
    build_trotter_circuit,
    gate_counts,
    trotter_error,
)


def default_instance() -> SpinHamiltonian:
    """The checked-in 4-spin benchmark instance (frozen seeded draw)."""
    path = _files("ioncodesign").joinpath("data/default_instance.json")
    import json

    return SpinHamiltonian.from_dict(json.loads(path.read_text()))
