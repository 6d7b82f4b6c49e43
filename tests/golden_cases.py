"""Golden cases for the walk, the grid solver, the flip channel, the ensemble and the moment evolution.

Each case returns a dict of arrays: a moment series (``times``, ``mean_x``,
``second_moment``, ``trace``) and, where there is a lattice, the final
diagonals.  ``tests/golden/*.npz`` holds the arrays as an earlier version of
the program computed them;
``test_golden.py`` requires the current program to reproduce them, to 1e-12
relative on the deterministic cases and bit for bit on the Monte-Carlo ones
and on the odd-grid runs ``evolve_grid_odd`` and ``evolve_kernel_odd``.

Regenerate the files only when a change is meant to alter these outputs::

    PYTHONPATH=src python tests/golden_cases.py            # every case
    PYTHONPATH=src python tests/golden_cases.py NAME ...   # only the named cases
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from dlqw import analytic, config, noise, pde, runner
from dlqw.observables import moments
from dlqw.walk import AngleField, LatticeGrid, WaveState, walk_step

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
    grid = LatticeGrid(n_sites=64, spacing=0.1)
    state = analytic.build_packet(2.0, 1.0, 0.8, grid).state(0.0)
    params = pde.GeneratorParams(m=0.8, gamma1=0.3, gamma2=0.5)
    res = pde.evolve(pde.pauli_from_wave_state(state), params, 13.0,
                     snapshot_steps=[0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 100, 129, 130])
    return _evolve_arrays(res)


def evolve_grid_odd() -> dict[str, np.ndarray]:
    """The homogeneous grid, m, gamma1, gamma2 > 0, odd n = 31, 70 steps; the whole final field.

    The field crosses the periodic wrap twice in 3.5 time units.  The
    snapshots fall unevenly on both sides of the blow-up check at step 64.
    """
    grid = LatticeGrid(n_sites=31, spacing=0.05)
    state = WaveState.gaussian(grid, width=0.2, coin=(0.6, 1.0 - 0.3j), p0=1.3)
    params = pde.GeneratorParams(m=0.9, gamma1=0.4, gamma2=0.6)
    res = pde.evolve(pde.pauli_from_wave_state(state), params, 3.5,
                     snapshot_steps=[0, 1, 3, 4, 11, 30, 63, 64, 65, 69, 70])
    out = _evolve_arrays(res)
    out["final_field"] = res.final.r
    return out


def evolve_kernel() -> dict[str, np.ndarray]:
    """Correlated identity and phase-flip kernels, m > 0, on n = 48 for 70 steps."""
    grid = LatticeGrid(n_sites=48, spacing=0.05)
    kernels = pde.KernelSet(
        identity=pde.KernelChannel(1.2, lambda d: np.exp(-(d**2) / 0.08)),
        phase_flip=pde.KernelChannel(0.4, lambda d: np.exp(-np.abs(d) / 0.3)),
    )
    params = pde.GeneratorParams(m=0.6, gamma1=0.0, gamma2=0.3)
    state = WaveState.gaussian(grid, width=0.3, p0=1.5)
    res = pde.evolve(pde.pauli_from_wave_state(state), params, 3.5, kernels=kernels,
                     snapshot_steps=[0, 10, 20, 30, 40, 50, 60, 70])
    out = _evolve_arrays(res)
    out["antidiagonal_last"] = res.final.antidiagonal().T
    out["field_last_row"] = res.final.r[:, grid.center_index, :]
    return out


def evolve_kernel_odd() -> dict[str, np.ndarray]:
    """All three correlated channels, m > 0, on odd n = 31 for 70 steps; the whole final field.

    An odd grid has no self-paired distance class n/2.  The snapshots fall
    on both sides of the blow-up check at step 64.
    """
    grid = LatticeGrid(n_sites=31, spacing=0.05)
    kernels = pde.KernelSet(
        identity=pde.KernelChannel(0.9, lambda d: np.exp(-(d**2) / 0.05)),
        phase_flip=pde.KernelChannel(0.5, lambda d: 1.0 / (1.0 + (d / 0.4) ** 2)),
        coin_flip=pde.KernelChannel(0.7, lambda d: np.exp(-np.abs(d) / 0.25)),
    )
    params = pde.GeneratorParams(m=0.7)
    state = WaveState.gaussian(grid, width=0.25, coin=(1.0, 0.5j), p0=-1.1)
    res = pde.evolve(pde.pauli_from_wave_state(state), params, 3.5, kernels=kernels,
                     snapshot_steps=[0, 1, 2, 5, 13, 34, 63, 64, 65, 70])
    out = _evolve_arrays(res)
    out["final_field"] = res.final.r
    return out


def diagonal_evolve_log() -> dict[str, np.ndarray]:
    """The massless (R0, R3) path with gamma2 > 0 over 120 steps on log-like snapshots.

    The last snapshot is the last step, so its diagonals are the final R0 and R3.
    """
    grid = LatticeGrid(n_sites=96, spacing=0.05)
    d0 = pde.pauli_from_wave_state(
        WaveState.gaussian(grid, width=0.4, coin=(1.0, 0.6j), p0=1.2)).diagonal()
    res = pde.diagonal_evolve(d0.R[0], d0.R[3], grid, pde.GeneratorParams(gamma2=0.7), 6.0,
                              snapshot_steps=[0, 1, 2, 3, 5, 9, 16, 29, 52, 93, 120])
    s = res.series
    return dict(times=s.times, mean_x=s.mean_x, second_moment=s.second_moment,
                trace=s.trace, continuity_residual=s.continuity_residual,
                snapshot_r0_r3=np.stack([d.R[[0, 3]] for d in res.diagonals]),
                final_r0_r3=res.diagonals[-1].R[[0, 3]])


def diagonal_evolve_alpha() -> dict[str, np.ndarray]:
    """The massless (R0, R3) path with alpha = 0.25 and gamma1, gamma2 > 0 on uneven snapshots.

    alpha enters the implicit source step; gamma1 must not enter at all.
    """
    grid = LatticeGrid(n_sites=160, spacing=0.05)
    d0 = pde.pauli_from_wave_state(
        WaveState.gaussian(grid, width=0.3, coin=(1.0, 0.4 - 0.5j), p0=-0.8)).diagonal()
    res = pde.diagonal_evolve(d0.R[0], d0.R[3], grid,
                              pde.GeneratorParams(gamma1=0.4, gamma2=0.6), 3.0,
                              alpha=0.25, snapshot_steps=[0, 1, 4, 5, 17, 40, 41, 59, 60])
    s = res.series
    return dict(times=s.times, mean_x=s.mean_x, second_moment=s.second_moment,
                trace=s.trace, continuity_residual=s.continuity_residual,
                snapshot_r0_r3=np.stack([d.R[[0, 3]] for d in res.diagonals]))


def _channel_arrays(rho0: noise.DensityGrid, field: AngleField, rates: noise.ChannelRates,
                    n_steps: int) -> dict[str, np.ndarray]:
    grid = rho0.grid
    eps = grid.spacing
    rho = rho0
    times, means, seconds, traces = [], [], [], []

    def record(step):
        p = (np.diagonal(rho.blocks[0, 0]) + np.diagonal(rho.blocks[1, 1])).real
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
    grid = LatticeGrid(n_sites=64, spacing=0.1)
    rho = noise.DensityGrid.from_wave_state(WaveState.gaussian(grid, width=0.4, p0=1.0))
    field = AngleField(theta_bar=-0.9, xi0_bar=0.3, xi1_bar=0.2, chi_bar=-0.4)
    return _channel_arrays(rho, field, noise.ChannelRates(0.7, 1.1), 10)


def channel_site_coin() -> dict[str, np.ndarray]:
    """10 flip-channel steps with p1, p2 > 0 and coin angles that vary in x and t."""
    grid = LatticeGrid(n_sites=48, spacing=0.1)
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


def runner_compare() -> dict[str, np.ndarray]:
    """``convergence.csv``, each ``channel_eps*.csv`` and ``pde_diag.csv`` of a compare run."""
    cfg = config.parse_config(
        "scenario = compare\nm = 0.5\ngamma1 = 0.2\ngamma2 = 0.5\np0 = 1\nsigma = 0.5\n"
        "eps_list = 0.1, 0.05\nt_final = 1\ndx = 0.05\nhalf_width = 4\n")
    return _run_columns(cfg, ("convergence", "channel_eps0.1", "channel_eps0.05", "pde_diag"))


def _run_columns(cfg: config.ScenarioConfig, names: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Every column of the named CSV files of one run, keyed ``<file>.<column>``."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        runner.run(cfg, tmp)
        for name in names:
            path = Path(tmp) / f"{name}.csv"
            header = path.read_text().split("\n", 1)[0].split("  #")[0].split(",")
            data = np.loadtxt(path, delimiter=",", skiprows=1)
            # one array per column, so each is held to its own largest entry
            for k, column in enumerate(header):
                out[f"{name}.{column}"] = data[:, k]
    return out


def runner_lindblad_full() -> dict[str, np.ndarray]:
    """``final_diag.csv`` and ``moments.csv`` of a ``lindblad`` run with ``fast = full``.

    m, gamma1, gamma2 > 0 on n = 120 for 90 steps: the run crosses the
    blow-up check at step 64 between its ten snapshots.
    """
    cfg = config.parse_config(
        "scenario = lindblad\nfast = full\nm = 0.6\ngamma1 = 0.3\ngamma2 = 0.4\np0 = 1.5\n"
        "sigma = 1\ndx = 0.05\nhalf_width = 3\nt_final = 4.5\nn_snapshots = 10\n")
    return _run_columns(cfg, ("final_diag", "moments"))


def fourier_run() -> dict[str, np.ndarray]:
    """Both R0 columns of ``fourier_compare.csv``: the Strang run and the exact propagator."""
    cfg = config.parse_config(
        "scenario = fourier\ndx = 0.05\nhalf_width = 4\nt_final = 2\ngamma2 = 0.5\n"
        "init_width = 0.35\n")
    with tempfile.TemporaryDirectory() as out:
        runner.run(cfg, out)
        data = np.loadtxt(Path(out) / "fourier_compare.csv", delimiter=",", skiprows=1)
    return dict(R0_strang=data[:, 1], R0_propagator=data[:, 2])


def telegraph_run() -> dict[str, np.ndarray]:
    """Both R0 columns of ``telegraph_compare.csv``: the Strang run and the closed form."""
    cfg = config.parse_config(
        "scenario = telegraph\ndx = 0.05\nhalf_width = 3\nt_final = 1.5\ngamma2 = 0.7\n"
        "init_width = 0.3\n")
    with tempfile.TemporaryDirectory() as out:
        runner.run(cfg, out)
        data = np.loadtxt(Path(out) / "telegraph_compare.csv", delimiter=",", skiprows=1)
    return dict(R0_numeric=data[:, 1], R0_closed_form=data[:, 2])


def walk_run() -> dict[str, np.ndarray]:
    """Every column of ``distribution.csv`` of a walk run: 120 steps on 304 sites."""
    cfg = config.parse_config("scenario = walk\ntheta = 0.8\nn_steps = 120\ntol = 0.05\n")
    with tempfile.TemporaryDirectory() as out:
        runner.run(cfg, out)
        path = Path(out) / "distribution.csv"
        header = path.read_text().split("\n", 1)[0].split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    return {column: data[:, k] for k, column in enumerate(header)}


def walk_site_coin() -> dict[str, np.ndarray]:
    """40 ``walk_step`` calls on n = 48 with a coin angle that varies in x and t.

    The packet crosses the periodic boundary, so the wrap of both components
    is part of the result.
    """
    grid = LatticeGrid(n_sites=48, spacing=0.1)
    field = AngleField(theta_bar=lambda t, x: -0.9 + 0.4 * np.sin(2.0 * x - t),
                       xi0_bar=0.2, chi_bar=0.3)
    state = WaveState.gaussian(grid, width=0.3, p0=0.6)
    for k in range(40):
        state = walk_step(state, field, t=0.1 * k)
    return dict(amplitudes=state.amplitudes, probabilities=state.probabilities())


def _ensemble_arrays(field: AngleField, spec: noise.NoiseSpec, init: WaveState,
                     checkpoints: list[int], n_traj: int, seed: int) -> dict[str, np.ndarray]:
    grid = init.grid
    eps = grid.spacing
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
    grid = LatticeGrid(n_sites=32, spacing=0.1)
    init = WaveState.gaussian(grid, width=0.3, p0=0.7)
    spec = noise.NoiseSpec.single("theta", "gaussian", 0.6)
    return _ensemble_arrays(AngleField(theta_bar=-0.7, xi1_bar=0.2), spec, init,
                            [4, 9, 15], 40, seed=11)


def ensemble_two_point_pair() -> dict[str, np.ndarray]:
    """Two-point noise on xi1 and chi (one kind), 30 trajectories, seed 5."""
    grid = LatticeGrid(n_sites=32, spacing=0.1)
    init = WaveState.gaussian(grid, width=0.3)
    spec = noise.NoiseSpec(xi1=noise.ParamNoise("two-point", 0.5),
                           chi=noise.ParamNoise("two-point", 0.8))
    return _ensemble_arrays(AngleField(theta_bar=-1.1), spec, init, [6, 12], 30, seed=5)


def ensemble_mixed_kinds() -> dict[str, np.ndarray]:
    """Uniform theta and Gaussian xi0 noise (two kinds), 30 trajectories, seed 3."""
    grid = LatticeGrid(n_sites=32, spacing=0.1)
    init = WaveState.gaussian(grid, width=0.3)
    spec = noise.NoiseSpec(xi0=noise.ParamNoise("gaussian", 0.4),
                           theta=noise.ParamNoise("uniform", 0.5))
    return _ensemble_arrays(AngleField(theta_bar=-0.6), spec, init, [5, 11], 30, seed=3)


def ensemble_site_coin() -> dict[str, np.ndarray]:
    """Gaussian theta noise on a coin that varies in x and t: the per-trajectory loop.

    12 trajectories on n = 32, seed 7.
    """
    grid = LatticeGrid(n_sites=32, spacing=0.1)
    init = WaveState.gaussian(grid, width=0.3, p0=0.4)
    spec = noise.NoiseSpec.single("theta", "gaussian", 0.5)
    field = AngleField(theta_bar=lambda t, x: -0.8 + 0.2 * np.cos(x - t), xi1_bar=0.15)
    return _ensemble_arrays(field, spec, init, [3, 8], 12, seed=7)


def _series_arrays(series) -> dict[str, np.ndarray]:
    return dict(times=series.times, mean_x=series.mean_x,
                second_moment=series.second_moment, trace=series.trace)


_LOG_TIMES = np.concatenate([[0.0], np.geomspace(0.4, 400.0, 16)])


def spectral_massive_noisy() -> dict[str, np.ndarray]:
    """Exact moments with m, gamma1, gamma2 > 0 on 17 log-spaced times to t = 400."""
    wp = analytic.DiracWavepacket(p0=0.5, sigma=0.05, m=0.5)
    params = pde.GeneratorParams(m=0.5, gamma1=0.15, gamma2=0.5)
    return _series_arrays(analytic.spectral_moments(wp, params, _LOG_TIMES))


def spectral_free_log() -> dict[str, np.ndarray]:
    """Exact moments with gamma = 0 on log times: eigenvalue 0 is twofold at every p."""
    wp = analytic.DiracWavepacket(p0=0.5, sigma=0.05, m=0.5)
    params = pde.GeneratorParams(m=0.5)
    return _series_arrays(analytic.spectral_moments(wp, params, _LOG_TIMES))


def spectral_uniform() -> dict[str, np.ndarray]:
    """Exact moments on 121 uniform times, so one time step serves the whole run."""
    wp = analytic.DiracWavepacket(p0=5.0, sigma=0.5, m=0.5)
    params = pde.GeneratorParams(m=0.5, gamma2=0.5)
    return _series_arrays(analytic.spectral_moments(wp, params, np.linspace(0.0, 60.0, 121)))


def spectral_group_velocity() -> dict[str, np.ndarray]:
    """The runner's three-point early-time velocity and the series it reads."""
    cfg = config.parse_config(
        "scenario = lindblad\nfast = spectral\nm = 3\ngamma2 = 0.05\np0 = 1\n"
        "sigma = 0.1\ndx = 0.05\nhalf_width = 40\nt_final = 10\nvg_target = 0.316\n")
    wp = analytic.DiracWavepacket(cfg.p0, cfg.sigma, cfg.m)
    params = pde.GeneratorParams(m=cfg.m, gamma2=cfg.gamma2)
    out = _series_arrays(analytic.spectral_moments(wp, params, np.array([0.0, 0.02, 0.04])))
    out["vg_measured"] = np.array([runner._measured_group_velocity(cfg)])
    return out


# name -> (builder, exact): exact cases must match bit for bit
CASES = {
    "evolve_massive_noisy": (evolve_massive_noisy, False),
    "evolve_grid_odd": (evolve_grid_odd, True),
    "evolve_kernel": (evolve_kernel, False),
    "evolve_kernel_odd": (evolve_kernel_odd, True),
    "channel_constant_coin": (channel_constant_coin, False),
    "channel_site_coin": (channel_site_coin, False),
    "runner_channel": (runner_channel, False),
    "diagonal_evolve_log": (diagonal_evolve_log, False),
    "diagonal_evolve_alpha": (diagonal_evolve_alpha, False),
    "runner_compare": (runner_compare, False),
    "runner_lindblad_full": (runner_lindblad_full, False),
    "fourier_run": (fourier_run, False),
    "telegraph_run": (telegraph_run, False),
    "walk_run": (walk_run, False),
    "walk_site_coin": (walk_site_coin, False),
    "ensemble_single_angle": (ensemble_single_angle, True),
    "ensemble_two_point_pair": (ensemble_two_point_pair, True),
    "ensemble_mixed_kinds": (ensemble_mixed_kinds, True),
    "ensemble_site_coin": (ensemble_site_coin, True),
    "spectral_massive_noisy": (spectral_massive_noisy, False),
    "spectral_free_log": (spectral_free_log, False),
    "spectral_uniform": (spectral_uniform, False),
    "spectral_group_velocity": (spectral_group_velocity, False),
}


def main(names: list[str]) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names or list(CASES):
        build, _ = CASES[name]
        np.savez(GOLDEN_DIR / f"{name}.npz", **build())
        print(f"wrote {GOLDEN_DIR / name}.npz")


if __name__ == "__main__":
    main(sys.argv[1:])
