"""The walk, the grid solver, the flip channel, the ensemble and the moment evolution
reproduce their golden outputs.

Deterministic cases match each stored array to 1e-12 relative to that
array's largest finite entry; Monte-Carlo cases and the two odd-grid runs match
bit for bit.  See
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
            # NaN entries (eta at t = 0) must match as NaN and set no scale
            scale = float(np.nanmax(np.abs(want))) if want.size else 0.0
            np.testing.assert_allclose(got, want, rtol=0, atol=RTOL * scale,
                                       err_msg=key)
