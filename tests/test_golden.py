"""The grid solver, the flip channel and the ensemble reproduce their golden outputs.

Deterministic cases match each stored array to 1e-12 relative to that
array's largest entry; Monte-Carlo cases match bit for bit.  See
``golden_cases.py`` for the cases and how to regenerate them.
"""

import numpy as np
import pytest

from golden_cases import CASES, GOLDEN_DIR

RTOL = 1e-12


@pytest.mark.parametrize("name", list(CASES))
def test_matches_golden(name):
    build, exact = CASES[name]
    with np.load(GOLDEN_DIR / f"{name}.npz") as stored:
        ref = {key: stored[key] for key in stored.files}
    out = build()
    assert set(out) == set(ref)
    for key, want in ref.items():
        got = out[key]
        assert got.shape == want.shape, key
        if exact:
            np.testing.assert_array_equal(got, want, err_msg=key)
        else:
            scale = float(np.abs(want).max()) if want.size else 0.0
            np.testing.assert_allclose(got, want, rtol=0, atol=RTOL * scale,
                                       err_msg=key)
