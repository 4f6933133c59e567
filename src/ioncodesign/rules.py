"""The bounds of every number the package checks, each written once.

An entry names a number that a config file, a CLI option or a library call
supplies: integer or real, its lowest value, and whether that value itself
is allowed. A real is finite, and takes any finite value where its lowest is
-inf. An integer takes no fraction (not 2.0), and no number takes a bool.
The module imports nothing from the package, so every module can read it.
"""

import math
import numbers
import sys

RULES = {
    # the config file; each entry of r_values obeys the rule of r_values
    "c2": (float, 0.0, True), "t_g": (float, 0.0, False), "gamma": (float, 0.0, False),
    "t_max": (float, 0.0, False), "omega_min": (float, -math.inf, False),
    "omega_max": (float, -math.inf, False), "r": (int, 1, True), "r_values": (int, 1, True),
    "n_times": (int, 2, True), "n_omega": (int, 2, True), "n_runs": (int, 1, True),
    "seed": (int, 0, True),
    # subcommand options
    "tau": (float, 0.0, False), "phi_in": (float, 0.0, True), "phi_cap": (float, 0.0, False),
    "lam_max": (float, 0.0, True), "perturb": (float, -math.inf, False),
    "shots": (int, 1, True), "n_phi": (int, 1, True), "n_lam": (int, 1, True),
    "iterations": (int, 0, True),
    # library calls only: Hamiltonian and register sizes, a circuit's duration t, an
    # exact evolution's signed time, a desired gate angle, lambda = c2 * tau and the
    # heating rate of synthetic calibration data
    "n": (int, 1, True), "n_qubits": (int, 1, True), "t": (float, 0.0, True),
    "time": (float, -math.inf, False), "phi_p": (float, -math.inf, False),
    "lam": (float, 0.0, True), "c2_true": (float, 0.0, True),
}


def check(name: str, value) -> None:
    """Raise a ValueError naming `name` unless value obeys RULES[name]."""
    kind, low, allowed = RULES[name]
    # the concrete type first: the ABC test alone costs more than the rest of the check
    number = not isinstance(value, bool) and (isinstance(value, kind) or isinstance(
        value, numbers.Integral if kind is int else numbers.Real))
    if (not number or kind is float and not abs(value) <= sys.float_info.max
            or value < low or value == low and not allowed):
        bound = "" if low == -math.inf else f" {'>=' if allowed else '>'} {low:g}"
        what = f"an integer{bound}" if kind is int else f"a finite number{bound}"
        raise ValueError(f"{name} must be {what}, not a bool; got {value!r}")
