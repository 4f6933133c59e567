"""Golden outputs: every result of the benchmark workloads and the CLI.

Run from the repository root to rewrite `tests/data/golden.json`:

    OMP_NUM_THREADS=1 PYTHONPATH=src python3 tests/make_golden.py

One BLAS thread, as the benchmark runs: with two, the 7-spin sweep's
F_int moves by an ulp.

The file holds every output of the five workloads of `bench/workloads.py`
at full size and seeds 0 and 9001, and every file that the six CLI
subcommands write on a tiny config (`depth-sweep` both with and without
`--feedforward`). Each section is flattened to named fields: floats as
`float.hex` strings, everything else as it is. `test_golden.py`
recomputes each section and compares it with the file. Wall-clock values
are never stored.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden.json"
SEEDS = (0, 9001)
TINY_CONFIG = {"hamiltonian": {"n": 3, "J": [[0, 0.7, -0.4], [0.7, 0, 0.9], [-0.4, 0.9, 0]],
                               "h": [1.5, -2.0, 0.5]},
               "c2": 0.02, "seed": 5, "n_runs": 2, "r": 3, "r_values": [1, 3],
               "t_max": 1.5, "n_times": 5, "n_omega": 31}
CLI_RUNS = {
    "simulate-spectrum": ["simulate-spectrum"],
    "depth-sweep": ["depth-sweep"],
    "depth-sweep-feedforward": ["depth-sweep", "--feedforward"],
    "calibrate": ["calibrate", "--shots", "200"],
    "feedforward-table": ["feedforward-table", "--n-phi", "3", "--n-lam", "3"],
    "noise-stats": ["noise-stats"],
    "infer": ["infer", "--iterations", "3"],
}


def _workloads():
    """bench/workloads.py, imported read-only from the checkout."""
    for path in (ROOT / "src", ROOT / "bench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workloads

    return workloads


def _spectrum(spec) -> dict:
    return {"omega": spec.omega, "a_raw": spec.a_raw, "a_norm": spec.a_norm}


def _workload_result(name: str, seed: int):
    workloads = _workloads()
    workload = workloads.WORKLOADS[name]
    result = workload.run(workload.inputs(seed))
    if workload.kind == "sweep":
        return result.to_dict()
    if workload.kind == "infer":
        target, log = result
        return {"target": _spectrum(target), "log": log}
    curve, fit, damping = result
    return {"curve": {"phi_in": curve.phi_in, "tau": curve.tau, "p_return": curve.p_return,
                      "shots": curve.shots},
            "fit_c2": fit, "fit_phase_damping": damping}


def _cli_result(argv: list[str]) -> dict:
    """Every file one CLI run writes: CSVs by column, JSON files as parsed."""
    from ioncodesign.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps(TINY_CONFIG))
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--config", str(config), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"ioncodesign {' '.join(argv)} exited {code}")
        files = {}
        for path in sorted(out.iterdir()):
            if path.suffix == ".csv":
                with open(path, newline="") as fh:
                    rows = list(csv.reader(fh))
                files[path.name] = {column: [json.loads(row[k]) for row in rows[1:]]
                                    for k, column in enumerate(rows[0])}
            else:
                files[path.name] = json.loads(path.read_text())
        return files


def _leaves(obj, key: str):
    """(field, value) pairs: arrays and float lists as 1-D float64, other leaves as is."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _leaves(obj[k], f"{key}.{k}")
    elif isinstance(obj, np.ndarray):
        yield key, obj.ravel().astype(float)
        yield f"{key}.shape", list(obj.shape)
    elif isinstance(obj, (list, tuple)):
        if obj and all(type(v) is float for v in obj):
            yield key, np.array(obj, dtype=float)
        elif all(type(v) in (int, bool, str) for v in obj):
            yield key, list(obj)
        else:
            for i, v in enumerate(obj):
                yield from _leaves(v, f"{key}[{i}]")
    else:
        yield key, obj


def sections() -> dict:
    """Section name -> function computing its {field: value} leaves."""
    out = {}
    for seed in SEEDS:
        for name in ("sweep-noisy", "sweep-feedforward", "sweep-large", "infer-feedforward",
                     "calibrate"):
            out[f"{name}/seed{seed}"] = (
                lambda name=name, seed=seed: _workload_result(name, seed))
    for name, argv in CLI_RUNS.items():
        out[f"cli/{name}"] = lambda argv=argv: _cli_result(argv)
    return out


def compute(section: str) -> dict:
    return dict(_leaves(sections()[section](), section))


def encode(leaves: dict) -> dict:
    """{"floats": {field: hex or [hex, ...]}, "discrete": {field: value}}."""
    floats, discrete = {}, {}
    for field, value in leaves.items():
        if isinstance(value, np.ndarray):
            floats[field] = [float(v).hex() for v in value]
        elif isinstance(value, float):
            floats[field] = value.hex()
        else:
            discrete[field] = value
    return {"floats": floats, "discrete": discrete}


def decode_floats(encoded) -> np.ndarray:
    """A stored float field as a 1-D float64 array."""
    values = [encoded] if isinstance(encoded, str) else encoded
    return np.array([float.fromhex(v) for v in values], dtype=float)


def main() -> int:
    golden = {name: encode(compute(name)) for name in sections()}
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(len(s['floats']) + len(s['discrete']) for s in golden.values())} "
          f"fields in {len(golden)} sections to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
