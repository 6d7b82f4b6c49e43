"""Adversarial config values through ``dlqw run``: an exit code, never a traceback.

Each example starts from a tiny valid config of one scenario and replaces one
key (or adds ``seed``) with a value chosen to break it: negative, zero, huge,
tiny, non-finite, non-integer, empty or not a number.  ``cli.main`` must
return 0 (every gate passed), 1 (a gate failed) or 2 (bad input, with a
message); an exception escaping it is a traceback at the command line.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlqw.cli import main

TINY = {
    "walk": "scenario = walk\ntheta = 0.7\nn_steps = 8\nn = 24\n",
    "channel": "scenario = channel\neps = 0.25\nt_final = 0.5\nhalf_width = 4\n"
               "pi2_rate = 0.5\nm = 0.5\ninit = delta\n",
    "trajectories": "scenario = trajectories\neps = 0.25\nt_final = 0.5\nhalf_width = 4\n"
                    "noise_delta = 0.5\nn_traj = 4\nseed = 3\ninit = delta\n",
    "lindblad-full": "scenario = lindblad\nfast = full\nm = 0.5\ngamma2 = 0.5\ndx = 0.25\n"
                     "half_width = 4\nt_final = 0.5\nn_snapshots = 3\np0 = 1\nsigma = 0.5\n",
    "lindblad-diagonal": "scenario = lindblad\nfast = diagonal\nm = 0\ngamma2 = 0.5\n"
                         "dx = 0.25\nhalf_width = 4\nt_final = 0.5\np0 = 1\nsigma = 0.5\n",
    "lindblad-spectral": "scenario = lindblad\nfast = spectral\nm = 0.5\ngamma2 = 0.5\n"
                         "dx = 0.25\nhalf_width = 4\nt_final = 1\nn_snapshots = 3\np0 = 1\n"
                         "sigma = 0.5\n",
    "telegraph": "scenario = telegraph\ngamma2 = 0.5\ndx = 0.1\nhalf_width = 4\n"
                 "t_final = 0.5\nm = 0\n",
    "fourier": "scenario = fourier\ngamma2 = 0.5\ndx = 0.05\nhalf_width = 4\nt_final = 0.5\n"
               "m = 0\n",
    "dirac-free": "scenario = dirac-free\nm = 0.5\ndx = 0.1\nhalf_width = 4\nt_final = 0.5\n",
    "kernel-lindblad": "scenario = kernel-lindblad\nkernel_channel = identity\nkernel_rate = 1\n"
                       "kernel_ell = 0.2\ndx = 0.1\nhalf_width = 2\nt_final = 0.5\n"
                       "init = gaussian\ninit_width = 0.2\n",
    "compare": "scenario = compare\nm = 0.5\ngamma2 = 0.5\np0 = 1\nsigma = 0.5\n"
               "eps_list = 0.5, 0.25\nt_final = 1\ndx = 0.25\nhalf_width = 4\n",
    "sweep": "scenario = sweep\neps_list = 0.5, 0.25\nt_final = 1\nhalf_width = 4\n"
             "pi2_rate = 0.5\nm = 0.5\ninit = delta\n",
}

ADVERSARIAL = ["-1", "0", "-0.5", "1e300", "1e-300", "1e-20", "1e-7", "1000000000000", "nan",
               "inf", "2.5", "", "abc", "4294967296"]


def _keys(text: str) -> list[str]:
    keys = [line.split("=")[0].strip() for line in text.splitlines()]
    return [k for k in keys if k != "scenario"] + (["seed"] if "seed" not in keys else [])


@st.composite
def adversarial_configs(draw):
    text = TINY[draw(st.sampled_from(sorted(TINY)))]
    key = draw(st.sampled_from(_keys(text)))
    value = draw(st.sampled_from(ADVERSARIAL))
    lines = [line for line in text.splitlines() if line.split("=")[0].strip() != key]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


# huge values overflow inside the numerics; the exit code is what is graded
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(text=adversarial_configs())
def test_adversarial_value_exits_with_a_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/fuzz.cfg"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert main(["run", path, "--out", f"{tmp}/out"]) in (0, 1, 2)


def test_every_tiny_config_passes():
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in TINY.items():
            path = f"{tmp}/{name}.cfg"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            assert main(["run", path, "--out", f"{tmp}/{name}"]) == 0, name
