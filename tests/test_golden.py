"""Every workload and CLI output against the checked-in golden file.

`tests/data/golden.json` is written by `tests/make_golden.py`. Discrete
fields must be equal. A float field (a scalar or a flattened array) must
agree entry by entry within 1e-12 of the field's largest stored
magnitude; a field whose stored entries are all zero must be zero. A
change that moves a field past that bound regenerates the file and lists
every moved field, with its size, in CHANGES.md.
"""

import json

import numpy as np
import pytest

from make_golden import GOLDEN, compute, decode_floats, encode, sections

RTOL = 1e-12
STORED = json.loads(GOLDEN.read_text())


def test_golden_file_has_every_section():
    assert sorted(STORED) == sorted(sections())


@pytest.mark.parametrize("section", sorted(sections()))
def test_outputs_match_golden(section):
    got, want = encode(compute(section)), STORED[section]
    assert sorted(got["discrete"]) == sorted(want["discrete"])
    assert sorted(got["floats"]) == sorted(want["floats"])
    for field, value in want["discrete"].items():
        assert got["discrete"][field] == value, f"{field}: {got['discrete'][field]!r} != {value!r}"
    worst = (0.0, None)
    for field, encoded in want["floats"].items():
        ref, new = decode_floats(encoded), decode_floats(got["floats"][field])
        assert new.shape == ref.shape, f"{field}: {new.size} entries, stored {ref.size}"
        scale = np.abs(ref).max(initial=0.0)
        diff = np.abs(new - ref).max(initial=0.0)
        relative = diff / scale if scale > 0 else diff
        if not relative <= worst[0]:
            worst = (relative, field)
    assert worst[0] <= RTOL, (f"{worst[1]}: largest difference {worst[0]:.3g} "
                              f"relative to the field's largest stored magnitude")
