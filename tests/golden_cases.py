"""Small-grid golden cases for the grid solver, the flip channel and the ensemble.

Each case returns a dict of arrays: a moment series (``times``, ``mean_x``,
``second_moment``, ``trace``) and the final diagonals.  ``tests/golden/*.npz``
holds the arrays as an earlier version of the program computed them;
``test_golden.py`` requires the current program to reproduce them, to 1e-12
relative on the deterministic cases and bit for bit on the Monte-Carlo ones.

Regenerate the files only when a change is meant to alter these outputs::

    PYTHONPATH=src python tests/golden_cases.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from dlqw import analytic, config, noise, pde, runner
from dlqw.observables import moments
from dlqw.walk import AngleField, LatticeGrid, WaveState

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _evolve_arrays(res: pde.EvolveResult) -> dict[str, np.ndarray]:
    s = res.series
    return dict(times=s.times, mean_x=s.mean_x, second_moment=s.second_moment,
                trace=s.trace, continuity_residual=s.continuity_residual,
                snapshot_diagonals=np.stack([d.R for d in res.diagonals]),
                final_diagonal=np.stack([np.diagonal(r) for r in res.final.r]))


def evolve_massive_noisy() -> dict[str, np.ndarray]:
    """130 Strang steps on n = 64 with m, gamma1, gamma2 > 0 and uneven snapshots.

    The run crosses the blow-up checks at steps 64 and 128 between snapshots,
    and records snapshots one step apart as well as far apart.
    """
    grid = LatticeGrid(n_sites=64, spacing=0.1, time_step=0.1)
    state = analytic.build_packet(2.0, 1.0, 0.8, grid).state(0.0)
    params = pde.GeneratorParams(m=0.8, gamma1=0.3, gamma2=0.5)
    res = pde.evolve(pde.pauli_from_wave_state(state), params, 13.0,
                     snapshot_steps=[0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 100, 129, 130])
    return _evolve_arrays(res)


def evolve_kernel() -> dict[str, np.ndarray]:
    """Correlated identity and phase-flip kernels, m > 0, on n = 48 for 70 steps."""
    grid = LatticeGrid(n_sites=48, spacing=0.05, time_step=0.05)
    kernels = pde.KernelSet(
        identity=pde.KernelChannel(1.2, lambda d: np.exp(-(d**2) / 0.08)),
        phase_flip=pde.KernelChannel(0.4, lambda d: np.exp(-np.abs(d) / 0.3)),
    )
    params = pde.GeneratorParams(m=0.6, gamma1=0.0, gamma2=0.3)
    state = WaveState.gaussian(grid, width=0.3, p0=1.5)
    res = pde.evolve(pde.pauli_from_wave_state(state), params, 3.5, kernels=kernels,
                     n_snapshots=8, keep_fields=True, keep_antidiagonals=True)
    out = _evolve_arrays(res)
    out["antidiagonal_last"] = res.antidiagonals[-1].T
    out["field_last_row"] = res.fields[-1].r[:, grid.center_index, :]
    return out


def _channel_arrays(rho0: noise.DensityGrid, field: AngleField, rates: noise.ChannelRates,
                    n_steps: int) -> dict[str, np.ndarray]:
    grid = rho0.grid
    eps = grid.time_step
    rho = rho0
    times, means, seconds, traces = [], [], [], []

    def record(step):
        p = rho.site_probabilities()
        mean, second = moments(p / eps, grid.positions, eps, check_normalization=False)
        times.append(step * eps)
        means.append(mean)
        seconds.append(second)
        traces.append(rho.trace())

    record(0)
    for step in range(1, n_steps + 1):
        rho = noise.channel_step(rho, field, rates, t=(step - 1) * eps)
        record(step)
    return dict(times=np.array(times), mean_x=np.array(means),
                second_moment=np.array(seconds), trace=np.array(traces),
                final_diagonal=np.stack([np.diagonal(rho.blocks[u, v])
                                         for u in range(2) for v in range(2)]),
                final_center_row=rho.blocks[:, :, grid.center_index, :].reshape(4, -1))


def channel_constant_coin() -> dict[str, np.ndarray]:
    """10 flip-channel steps with p1, p2 > 0 and a constant massive coin, n = 64."""
    grid = LatticeGrid(n_sites=64, spacing=0.1, time_step=0.1)
    rho = noise.DensityGrid.from_wave_state(WaveState.gaussian(grid, width=0.4, p0=1.0))
    field = AngleField(theta_bar=-0.9, xi0_bar=0.3, xi1_bar=0.2, chi_bar=-0.4)
    return _channel_arrays(rho, field, noise.ChannelRates(0.7, 1.1), 10)


def channel_site_coin() -> dict[str, np.ndarray]:
    """10 flip-channel steps with p1, p2 > 0 and coin angles that vary in x and t."""
    grid = LatticeGrid(n_sites=48, spacing=0.1, time_step=0.1)
    rho = noise.DensityGrid.from_wave_state(WaveState.gaussian(grid, width=0.4, p0=-0.5))
    field = AngleField(theta_bar=lambda t, x: -0.8 + 0.3 * np.sin(x + t),
                       xi1_bar=0.25, chi_bar=lambda t, x: 0.1 * x)
    return _channel_arrays(rho, field, noise.ChannelRates(0.5, 0.9), 10)


def runner_channel() -> dict[str, np.ndarray]:
    """``moments.csv`` of a channel run, whose snapshots read R3 from the blocks."""
    cfg = config.parse_config(
        "scenario = channel\neps = 0.1\nt_final = 2.0\nhalf_width = 3.2\nm = 0.5\n"
        "p0 = 1.0\nsigma = 0.6\ninit = gaussian\npi1_rate = 0.4\npi2_rate = 0.3\n"
        "n_snapshots = 7\ntol_edge = 1\n")
    with tempfile.TemporaryDirectory() as out:
        runner.run(cfg, out)
        data = np.loadtxt(Path(out) / "moments.csv", delimiter=",", skiprows=1)
    return dict(times=data[:, 0], mean_x=data[:, 1], second_moment=data[:, 2],
                trace=data[:, 4], continuity_residual=data[:, 5])


def _ensemble_arrays(field: AngleField, spec: noise.NoiseSpec, init: WaveState,
                     checkpoints: list[int], n_traj: int, seed: int) -> dict[str, np.ndarray]:
    grid = init.grid
    eps = grid.time_step
    means, seconds, traces, prob2 = [], [], [], []
    for n_steps in checkpoints:
        ens = noise.run_ensemble(field, spec, init, n_steps, n_traj, seed)
        p = ens.probability_mean()
        mean, second = moments(p / eps, grid.positions, eps, check_normalization=False)
        means.append(mean)
        seconds.append(second)
        traces.append(ens.density().trace())
        prob2.append(ens.sum_prob2)
    return dict(times=eps * np.array(checkpoints, dtype=float), mean_x=np.array(means),
                second_moment=np.array(seconds), trace=np.array(traces),
                final_probability=ens.probability_mean(), sum_prob2=np.stack(prob2),
                final_diagonal=np.stack([np.diagonal(ens.sum_blocks[u, v])
                                         for u in range(2) for v in range(2)]))


def ensemble_single_angle() -> dict[str, np.ndarray]:
    """Gaussian theta noise, 40 trajectories on n = 32, seed 11."""
    grid = LatticeGrid(n_sites=32, spacing=0.1, time_step=0.1)
    init = WaveState.gaussian(grid, width=0.3, p0=0.7)
    spec = noise.NoiseSpec.single("theta", "gaussian", 0.6)
    return _ensemble_arrays(AngleField(theta_bar=-0.7, xi1_bar=0.2), spec, init,
                            [4, 9, 15], 40, seed=11)


def ensemble_two_point_pair() -> dict[str, np.ndarray]:
    """Two-point noise on xi1 and chi (one kind), 30 trajectories, seed 5."""
    grid = LatticeGrid(n_sites=32, spacing=0.1, time_step=0.1)
    init = WaveState.gaussian(grid, width=0.3)
    spec = noise.NoiseSpec(xi1=noise.ParamNoise("two-point", 0.5),
                           chi=noise.ParamNoise("two-point", 0.8))
    return _ensemble_arrays(AngleField(theta_bar=-1.1), spec, init, [6, 12], 30, seed=5)


def ensemble_mixed_kinds() -> dict[str, np.ndarray]:
    """Uniform theta and Gaussian xi0 noise (two kinds), 30 trajectories, seed 3."""
    grid = LatticeGrid(n_sites=32, spacing=0.1, time_step=0.1)
    init = WaveState.gaussian(grid, width=0.3)
    spec = noise.NoiseSpec(xi0=noise.ParamNoise("gaussian", 0.4),
                           theta=noise.ParamNoise("uniform", 0.5))
    return _ensemble_arrays(AngleField(theta_bar=-0.6), spec, init, [5, 11], 30, seed=3)


# name -> (builder, exact): exact cases must match bit for bit
CASES = {
    "evolve_massive_noisy": (evolve_massive_noisy, False),
    "evolve_kernel": (evolve_kernel, False),
    "channel_constant_coin": (channel_constant_coin, False),
    "channel_site_coin": (channel_site_coin, False),
    "runner_channel": (runner_channel, False),
    "ensemble_single_angle": (ensemble_single_angle, True),
    "ensemble_two_point_pair": (ensemble_two_point_pair, True),
    "ensemble_mixed_kinds": (ensemble_mixed_kinds, True),
}


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (build, _) in CASES.items():
        np.savez(GOLDEN_DIR / f"{name}.npz", **build())
        print(f"wrote {GOLDEN_DIR / name}.npz")


if __name__ == "__main__":
    main()
