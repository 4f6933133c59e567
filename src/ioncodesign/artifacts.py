"""Deterministic CSV and JSON writers for result files.

Identical inputs give byte-identical files: floats are written as their
repr() and JSON keys are sorted.
"""

from __future__ import annotations

import csv
import json


def write_json(path, obj) -> None:
    """Indented JSON with sorted keys and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """Header row, then one row per item. Pass Python floats (not NumPy
    scalars): csv writes them as str(), which is their exact repr()."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
