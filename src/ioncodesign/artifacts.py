"""Deterministic CSV and JSON writers for result files.

Identical inputs give byte-identical files: floats are written as their
repr() and JSON keys are sorted. Both writers reject a non-finite float
with a ValueError naming the file and its key or column, before the file
is opened, so a result file never holds NaN or infinity.
"""

from __future__ import annotations

import csv
import json
import math


def _non_finite_key(obj, key: str = ""):
    """(key path, value) of the first non-finite float in obj, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (key, obj)
    if isinstance(obj, dict):
        items = ((f"{key}.{k}" if key else str(k), v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        items = ((f"{key}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    return next(filter(None, (_non_finite_key(v, k) for k, v in items)), None)


def write_json(path, obj) -> None:
    """Indented JSON with sorted keys and a trailing newline."""
    bad = _non_finite_key(obj)
    if bad is not None:
        raise ValueError(f"{path}: key {bad[0]!r} is not finite ({bad[1]!r})")
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def write_csv(path, header, rows) -> None:
    """Header row, then one row per item. Pass Python floats (not NumPy
    scalars): csv writes them as str(), which is their exact repr()."""
    rows = [list(row) for row in rows]
    for row in rows:
        for name, value in zip(header, row):
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{path}: column {name!r} is not finite ({value!r})")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
