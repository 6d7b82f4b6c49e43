"""Scenario execution: runs a ScenarioConfig, writes CSVs, and grades tolerances.

Every run produces, in its output directory, a machine-readable ``report.kv``
(key = value lines), a human ``report.txt``, and the CSV files the metrics are
derived from, so each summary number can be recomputed from the emitted data.
The process exit status encodes whether all declared tolerance checks passed.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import analytic, noise, observables, pde
from .config import ConfigError, ScenarioConfig, default_output_root
from .walk import AngleField, ConfigurationError, LatticeGrid, WaveState, walk_step
from .walk import asymptotic_spread, step_count


@dataclass
class Check:
    """One graded tolerance: |value - target| <= tol (abs) or relative, or a flag."""

    name: str
    value: float
    target: float
    tol: float
    kind: str = "abs"  # abs | rel | le | bool

    @property
    def passed(self) -> bool:
        if self.kind == "bool":
            return bool(self.value)
        if self.kind == "le":
            return self.value <= self.tol
        if self.kind == "rel":
            return abs(self.value - self.target) <= self.tol * abs(self.target)
        return abs(self.value - self.target) <= self.tol


@dataclass
class RunReport:
    scenario: str
    label: str
    output_dir: str
    config: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    files: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add_file(self, name: str) -> str:
        self.files.append(name)
        return os.path.join(self.output_dir, name)

    def write(self) -> None:
        kv_path = os.path.join(self.output_dir, "report.kv")
        with open(kv_path, "w", encoding="utf-8") as fh:
            fh.write(f"scenario = {self.scenario}\n")
            if self.label:
                fh.write(f"label = {self.label}\n")
            for key, val in sorted(self.config.items()):
                fh.write(f"config.{key} = {_fmt(val)}\n")
            for key, val in sorted(self.metrics.items()):
                fh.write(f"metric.{key} = {_fmt(val)}\n")
            for c in self.checks:
                fh.write(
                    f"check.{c.name} = {'PASS' if c.passed else 'FAIL'} "
                    f"(value={_fmt(c.value)} target={_fmt(c.target)} "
                    f"tol={_fmt(c.tol)} kind={c.kind})\n"
                )
            for name in self.files:
                fh.write(f"file = {name}\n")
            fh.write(f"passed = {self.passed}\n")
        txt_path = os.path.join(self.output_dir, "report.txt")
        with open(txt_path, "w", encoding="utf-8") as fh:
            fh.write(self.human_summary())

    def human_summary(self) -> str:
        lines = [f"scenario: {self.scenario}" + (f" ({self.label})" if self.label else "")]
        lines.append(f"output:   {self.output_dir}")
        if self.metrics:
            lines.append("metrics:")
            for key, val in sorted(self.metrics.items()):
                lines.append(f"  {key:24s} {_fmt(val)}")
        if self.checks:
            lines.append("checks:")
            for c in self.checks:
                status = "PASS" if c.passed else "FAIL"
                lines.append(
                    f"  [{status}] {c.name}: value {_fmt(c.value)} vs target "
                    f"{_fmt(c.target)} (tol {_fmt(c.tol)}, {c.kind})"
                )
        if self.files:
            lines.append("files: " + ", ".join(self.files))
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _fmt(val) -> str:
    if isinstance(val, float):
        return format(val, ".17g")
    if isinstance(val, (tuple, list)):
        return ",".join(_fmt(v) for v in val)
    return str(val)


def _write_moments_csv(path: str, series: observables.MomentSeries) -> None:
    eta = series.eta if series.eta is not None else np.full_like(series.times, np.nan)
    data = np.column_stack(
        [series.times, series.mean_x, series.second_moment, eta,
         series.trace, series.continuity_residual]
    )
    np.savetxt(path, data, delimiter=",", comments="", fmt="%.17g",
               header="t,mean_x,second_moment,eta,trace,continuity_residual")


def _write_density_csv(path: str, x: np.ndarray, density: np.ndarray,
                       se: np.ndarray | None = None) -> None:
    if se is None:
        np.savetxt(path, np.column_stack([x, density]), delimiter=",", comments="",
                   fmt="%.17g", header="x,R0")
    else:
        np.savetxt(path, np.column_stack([x, density, se]), delimiter=",",
                   comments="", fmt="%.17g", header="x,R0,se_R0")


def _lattice_grid(cfg: ScenarioConfig) -> LatticeGrid:
    if cfg.n:
        return LatticeGrid(n_sites=cfg.n, spacing=cfg.eps)
    if cfg.half_width:
        n = int(round(2 * cfg.half_width / cfg.eps))
        return LatticeGrid(n_sites=n, spacing=cfg.eps)
    return LatticeGrid.for_duration(cfg.t_final, cfg.eps, pad=4.0)


def _pde_grid(cfg: ScenarioConfig) -> LatticeGrid:
    n = int(round(2 * cfg.half_width / cfg.dx))
    return LatticeGrid(n_sites=n, spacing=cfg.dx)


def _lattice_init(cfg: ScenarioConfig, grid: LatticeGrid) -> WaveState:
    if cfg.init == "delta":
        return WaveState.delta(grid)
    if cfg.init == "gaussian":
        width = cfg.init_width or 1.0 / (2 * cfg.sigma)
        return WaveState.gaussian(grid, width=width, p0=cfg.p0)
    return analytic.build_packet(cfg.p0, cfg.sigma, cfg.m, grid).state(0.0)


def _snapshot_steps(cfg: ScenarioConfig, n_steps: int) -> list[int]:
    """Up to ``n_snapshots`` steps of a run, both ends included: spread evenly,
    or, with log spacing, step 0 and log-spaced steps from 1 on."""
    count = min(cfg.n_snapshots, n_steps + 1)
    if cfg.snapshot_spacing == "log" and n_steps > 4:
        marks = np.geomspace(1, n_steps, count - 1).round().astype(int)
        return sorted(set([0] + marks.tolist()))
    return np.unique(np.linspace(0, n_steps, count).round().astype(int)).tolist()


def _walk_size(cfg: ScenarioConfig) -> tuple[int, int]:
    """(sites, steps) of a walk run."""
    n_steps = cfg.n_steps or 500
    return cfg.n or (2 * n_steps + 64), n_steps


def run_walk(cfg: ScenarioConfig, report: RunReport) -> None:
    n, n_steps = _walk_size(cfg)
    grid = LatticeGrid(n_sites=n)
    state = WaveState.delta(grid)
    field_ = AngleField(theta_bar=cfg.theta)  # eps = 1: angles applied as given
    for k in range(n_steps):
        state = walk_step(state, field_, t=float(k))
    x = grid.positions
    p = state.probabilities()
    mean = float(np.sum(x * p))
    sigma_t = float(np.sqrt(np.sum(x**2 * p) - mean**2) / n_steps)
    target = asymptotic_spread(cfg.theta)
    _write_density_csv(report.add_file("distribution.csv"), x, p)
    report.metrics.update(
        sigma_over_t=sigma_t, spread_target=target, mean_x=mean,
        norm_error=abs(state.norm() - 1.0), edge_mass=state.edge_mass(),
    )
    report.checks.append(Check("spread_law", sigma_t, target, cfg.tol or 0.02, "rel"))
    report.checks.append(Check("edge_mass", state.edge_mass(), 0.0, 1e-12, "le"))


def run_channel(cfg: ScenarioConfig, report: RunReport) -> None:
    grid = _lattice_grid(cfg)
    rates = noise.ChannelRates(cfg.pi1_rate, cfg.pi2_rate)
    n_steps = step_count(cfg.t_final, cfg.eps)
    marks = _snapshot_steps(cfg, n_steps)
    result = noise.channel_run(_lattice_init(cfg, grid), AngleField.massive(cfg.m), rates, marks)
    # the band path builds the final blocks here, and they go once the defect is read
    hermiticity = result.build_final().hermiticity_defect()

    series = result.series
    r0 = result.diagonals[-1].R[0]
    edge_mass = float((r0[0] + r0[-1]) * grid.spacing)
    _write_moments_csv(report.add_file("moments.csv"), series)
    _write_density_csv(report.add_file("density.csv"), grid.positions, r0)
    report.metrics.update(
        trace_drift=series.max_trace_drift(),
        hermiticity=hermiticity,
        edge_mass=edge_mass,
        n_steps=n_steps,
    )
    report.checks.append(Check("trace", series.max_trace_drift(), 0.0, cfg.tol_trace, "le"))
    report.checks.append(Check("hermiticity", hermiticity, 0.0, 1e-10, "le"))
    # positive-energy packets carry exponential tails on the Compton scale,
    # so the edge gate for packet starts is looser than for delta starts
    report.checks.append(Check("edge_mass", edge_mass, 0.0, cfg.tol_edge, "le"))


def run_trajectories(cfg: ScenarioConfig, report: RunReport) -> None:
    grid = _lattice_grid(cfg)
    init = _lattice_init(cfg, grid)
    spec = noise.NoiseSpec.single(cfg.noise_param, cfg.noise_kind, cfg.noise_delta)
    field_ = AngleField.massive(cfg.m)
    n_steps = step_count(cfg.t_final, cfg.eps)
    ens = noise.run_ensemble(field_, spec, init, n_steps, cfg.n_traj, cfg.seed,
                             accumulate_blocks=False)
    p = ens.probability_mean()
    se = ens.probability_se()
    _write_density_csv(report.add_file("density.csv"), grid.positions,
                       p / grid.spacing, se / grid.spacing)
    report.metrics.update(
        total_probability=float(p.sum()),
        se_l1=float(se.sum()),
        edge_mass=float(p[0] + p[-1]),
        n_steps=n_steps,
    )
    report.checks.append(
        Check("total_probability", float(p.sum()), 1.0, 3.0 / np.sqrt(cfg.n_traj), "abs")
    )
    report.checks.append(Check("edge_mass", float(p[0] + p[-1]), 0.0, cfg.tol_edge, "le"))


def _measured_group_velocity(cfg: ScenarioConfig) -> float:
    """Early-time d<x>/dt from the exact moment evolution (quadratic fit at 0)."""
    h = 0.02
    wp = analytic.DiracWavepacket(cfg.p0, cfg.sigma, cfg.m)
    params = pde.GeneratorParams(m=cfg.m, gamma1=cfg.gamma1, gamma2=cfg.gamma2)
    s = analytic.spectral_moments(wp, params, np.array([0.0, h, 2 * h]))
    x0, x1, x2 = s.mean_x
    return float((-3 * x0 + 4 * x1 - x2) / (2 * h))


def run_lindblad(cfg: ScenarioConfig, report: RunReport) -> None:
    params = pde.GeneratorParams(m=cfg.m, gamma1=cfg.gamma1, gamma2=cfg.gamma2)
    if cfg.fast == "spectral":
        wp = analytic.DiracWavepacket(cfg.p0, cfg.sigma, cfg.m)
        if cfg.snapshot_spacing == "log":
            times = np.concatenate([[0.0], np.geomspace(cfg.t_final * 1e-3, cfg.t_final,
                                                        cfg.n_snapshots - 1)])
        else:
            times = np.linspace(0.0, cfg.t_final, cfg.n_snapshots)
        series = analytic.spectral_moments(wp, params, times)
    else:
        grid = _pde_grid(cfg)
        pk = analytic.build_packet(cfg.p0, cfg.sigma, cfg.m, grid)
        marks = _snapshot_steps(cfg, step_count(cfg.t_final, cfg.dx))
        if cfg.fast == "diagonal":
            # R0 and R3 of the pure start, (|psi_L|^2 +- |psi_R|^2) / dx, with no (x, x') field
            left, right = np.abs(pk.state(0.0).amplitudes) ** 2 / grid.spacing
            res = pde.diagonal_evolve(left + right, left - right, grid, params,
                                      cfg.t_final, alpha=cfg.alpha, snapshot_steps=marks)
        else:
            res = pde.band_evolve(pk, params, cfg.t_final, alpha=cfg.alpha,
                                  snapshot_steps=marks)
        series = res.series
        pde.write_diagonal_csv(report.add_file("final_diag.csv"), res.diagonals[-1],
                               t=cfg.t_final)
        # a handful of intermediate density slices for multi-time panels
        picks = np.unique(np.linspace(0, len(res.diagonals) - 1,
                                      min(5, len(res.diagonals))).astype(int))
        for k in picks:
            t_k = series.times[k]
            pde.write_diagonal_csv(report.add_file(f"diag_t{t_k:g}.csv"),
                                   res.diagonals[k], t=t_k)
        if "binary" in cfg.formats and cfg.fast == "full":
            pde.write_field_binary(report.add_file("final_field.dlqw"), res.final,
                                   cfg.t_final)
        report.metrics["edge_mass"] = float(
            (res.diagonals[-1].R[0][0] + res.diagonals[-1].R[0][-1]) * grid.spacing
        )

    try:
        observables.exponent_series(series, window=cfg.window)
    except observables.DiagnosticError:
        pass
    _write_moments_csv(report.add_file("moments.csv"), series)

    report.metrics["trace_drift"] = series.max_trace_drift()
    report.checks.append(Check("trace", series.max_trace_drift(), 0.0, cfg.tol_trace, "le"))

    v_g = analytic.group_velocity(cfg.p0, cfg.m) if (cfg.p0 or cfg.m) else 0.0
    report.metrics["vg_formula"] = v_g
    if cfg.gamma2 > 0 and v_g > 0:
        report.metrics["x_lim"] = analytic.limit_position(v_g, cfg.gamma2)

    if cfg.vg_target:
        measured = _measured_group_velocity(cfg)
        report.metrics["vg_measured"] = measured
        report.checks.append(Check("group_velocity", measured, cfg.vg_target,
                                   cfg.tol_vg, "rel"))

    x_plateau = eta_final = slope = np.nan
    if series.times.size >= 8:
        reg = observables.regime_times(series, v_g=v_g)
        x_plateau = report.metrics["x_plateau"] = reg.x_plateau
        for name, val in (("t1", reg.t1), ("t2", reg.t2), ("t_mid", reg.t_mid)):
            if val is not None:
                report.metrics[name] = val
        if series.eta is not None and np.isfinite(series.eta[-3:]).any():
            eta_final = report.metrics["eta_final"] = float(np.nanmean(series.eta[-3:]))
        t_start = reg.t2 if reg.t2 is not None else 0.5 * cfg.t_final
        try:
            fit = observables.diffusion_fit(series, t_start=t_start)
            report.metrics["d_est"] = fit.d_est
            slope = report.metrics["variance_slope"] = fit.slope
        except observables.DiagnosticError:
            pass
    # a declared target is always graded: a value the run cannot compute is nan and fails
    if cfg.plateau_target:
        report.checks.append(Check("x_plateau", x_plateau, cfg.plateau_target,
                                   cfg.tol_plateau, "rel"))
    if cfg.eta_target:
        report.checks.append(Check("eta_final", eta_final, cfg.eta_target, cfg.tol_eta, "abs"))
    if cfg.slope_target:
        report.checks.append(Check("variance_slope", slope, cfg.slope_target,
                                   cfg.tol_slope, "rel"))


def run_kernel_lindblad(cfg: ScenarioConfig, report: RunReport) -> None:
    grid = _pde_grid(cfg)
    # as a numpy float, a huge ell squares to inf (a flat kernel), not an OverflowError
    ell = np.float64(cfg.kernel_ell)
    channel = pde.KernelChannel(cfg.kernel_rate,
                                lambda d: np.exp(-(d**2) / (2 * ell**2)))
    kernels = pde.KernelSet(**{cfg.kernel_channel.replace("-", "_"): channel})
    params = pde.GeneratorParams(m=cfg.m, gamma1=cfg.gamma1, gamma2=cfg.gamma2)
    if cfg.init == "gaussian":
        # pure-L envelope: only separation-preserving characteristics are
        # populated, which keeps the coherence-decay diagnostic clean
        width = cfg.init_width or 1.0 / (2 * cfg.sigma)
        state = WaveState.gaussian(grid, width=width, coin=(1.0, 0.0))
    else:
        state = analytic.build_packet(cfg.p0, cfg.sigma, cfg.m, grid).state(0.0)
    field0 = pde.pauli_from_wave_state(state)
    marks = _snapshot_steps(cfg, step_count(cfg.t_final, cfg.dx))
    res = pde.evolve(field0, params, cfg.t_final, kernels=kernels, alpha=cfg.alpha,
                     snapshot_steps=marks)
    series = res.series
    _write_moments_csv(report.add_file("moments.csv"), series)
    pde.write_diagonal_csv(report.add_file("final_diag.csv"), res.diagonals[-1],
                           t=cfg.t_final)
    start, end = field0.r[0], res.final.r[0]
    k = max(1, int(round(min(2 * ell / grid.spacing, grid.n_sites))))
    with np.errstate(invalid="ignore", divide="ignore"):
        off = np.abs(np.diagonal(end, offset=k)) / np.abs(np.diagonal(start, offset=k))
        diag = np.abs(np.diagonal(end)) / np.abs(np.diagonal(start))
    mask_off = np.abs(np.diagonal(start, offset=k)) > 1e-9
    mask_d = np.abs(np.diagonal(start)) > 1e-9
    report.metrics.update(
        trace_drift=series.max_trace_drift(),
        offdiag_survival=float(np.nanmax(off[mask_off])) if mask_off.any() else np.nan,
        diag_survival=float(np.nanmax(diag[mask_d])) if mask_d.any() else np.nan,
    )
    report.checks.append(Check("trace", series.max_trace_drift(), 0.0, cfg.tol_trace, "le"))
    if cfg.kernel_rate > 0 and mask_off.any() and mask_d.any():
        report.checks.append(
            Check("coherence_decays_faster_off_diagonal",
                  float(report.metrics["offdiag_survival"]
                        < report.metrics["diag_survival"]), 1.0, 0.0, "bool")
        )


def run_telegraph(cfg: ScenarioConfig, report: RunReport) -> None:
    grid = _pde_grid(cfg)
    x = grid.positions
    width = np.float64(cfg.init_width or 0.35)  # as in WaveState.gaussian
    prof = np.exp(-(x**2) / (2 * width**2))
    prof /= prof.sum() * grid.spacing
    params = pde.GeneratorParams(m=0.0, gamma1=cfg.gamma1, gamma2=cfg.gamma2)
    marks = _snapshot_steps(cfg, step_count(cfg.t_final, cfg.dx))
    res = pde.diagonal_evolve(prof, np.zeros_like(prof), grid, params, cfg.t_final,
                              alpha=cfg.alpha, snapshot_steps=marks)
    _write_moments_csv(report.add_file("moments.csv"), res.series)

    def f(y):
        return np.interp(y, x, prof, left=0.0, right=0.0)

    oracle = analytic.telegraph_solution(
        analytic.TelegraphParams(0.0, cfg.gamma2),
        analytic.InitialData1D(f=f, g=lambda y: np.zeros_like(np.asarray(y))),
        cfg.t_final, x,
    )
    numeric = res.diagonals[-1].R[0]
    np.savetxt(report.add_file("telegraph_compare.csv"),
               np.column_stack([x, numeric, oracle]), delimiter=",", comments="",
               fmt="%.17g", header="x,R0_numeric,R0_closed_form")
    err = float(np.abs(numeric - oracle).max())
    report.metrics.update(max_abs_error=err, dalembert_case=float(cfg.gamma2 == 0.0))
    report.checks.append(Check("closed_form_match", err, 0.0, cfg.tol or 1e-3, "le"))


def run_fourier(cfg: ScenarioConfig, report: RunReport) -> None:
    grid = _pde_grid(cfg)
    width = cfg.init_width or 0.35
    left, right = np.abs(WaveState.gaussian(grid, width=width).amplitudes) ** 2 / grid.spacing
    r0, r3 = left + right, left - right
    params = pde.GeneratorParams(m=0.0, gamma1=cfg.gamma1, gamma2=cfg.gamma2)
    res = pde.diagonal_evolve(r0, r3, grid, params, cfg.t_final, alpha=cfg.alpha)
    numeric = res.diagonals[-1].R[0]
    reference = analytic.fourier_propagate(r0, r3, grid, params, cfg.t_final)[0]
    np.savetxt(report.add_file("fourier_compare.csv"),
               np.column_stack([grid.positions, numeric, reference]), delimiter=",",
               comments="", fmt="%.17g", header="x,R0_strang,R0_propagator")
    err = float(np.abs(numeric - reference).max())
    report.metrics["max_abs_error"] = err
    report.checks.append(Check("propagator_match", err, 0.0, cfg.tol or 1e-3, "le"))


def run_dirac_free(cfg: ScenarioConfig, report: RunReport) -> None:
    grid = _pde_grid(cfg)
    pk = analytic.build_packet(cfg.p0, cfg.sigma, cfg.m, grid)
    x = grid.positions
    times = np.linspace(0.0, cfg.t_final, max(cfg.n_snapshots, 3))
    # |psi_L|^2 / dx and |psi_R|^2 / dx, each as a (snapshots, n) stack
    amps = np.stack([pk.state(t).amplitudes for t in times], axis=1)
    left, right = np.abs(amps) ** 2 / grid.spacing
    r0 = left + right
    series = observables.moment_series(times, x, grid.spacing, r0, left - right)
    _write_moments_csv(report.add_file("moments.csv"), series)
    _write_density_csv(report.add_file("density.csv"), x, r0[-1])
    v_packet = pk.mean_velocity()
    v_measured = float((series.mean_x[-1] - series.mean_x[0]) / (times[-1] - times[0]))
    report.metrics.update(
        vg_formula=analytic.group_velocity(cfg.p0, cfg.m), vg_packet=v_packet,
        vg_measured=v_measured, negative_energy=pk.negative_energy_fraction(),
    )
    report.checks.append(Check("group_velocity", v_measured,
                               cfg.vg_target or v_packet, cfg.tol_vg, "rel"))
    report.checks.append(Check("negative_energy", pk.negative_energy_fraction(),
                               0.0, 1e-10, "le"))


def run_compare(cfg: ScenarioConfig, report: RunReport) -> None:
    """Channel model at each eps against one Lindblad PDE reference at fixed T."""
    params = pde.GeneratorParams(m=cfg.m, gamma1=cfg.gamma1, gamma2=cfg.gamma2)
    grid_pde = _pde_grid(cfg)
    pk = analytic.build_packet(cfg.p0, cfg.sigma, cfg.m, grid_pde)
    res = pde.band_evolve(pk, params, cfg.t_final, alpha=cfg.alpha)
    ref_x = grid_pde.positions
    ref_density = res.diagonals[-1].R[0]
    pde.write_diagonal_csv(report.add_file("pde_diag.csv"), res.diagonals[-1],
                           t=cfg.t_final)

    rates = noise.ChannelRates(0.5 * cfg.gamma1, 0.5 * cfg.gamma2)
    field_ = AngleField.massive(cfg.m)
    rows = []
    for eps in cfg.eps_list:
        n = int(round(2 * cfg.half_width / eps))
        grid = LatticeGrid(n_sites=n, spacing=eps)
        state = analytic.build_packet(cfg.p0, cfg.sigma, cfg.m, grid).state(0.0)
        n_steps = step_count(cfg.t_final, eps)
        dens = noise.channel_run(state, field_, rates, [n_steps]).diagonals[-1].R[0]
        interp_ref = np.interp(grid.positions, ref_x, ref_density)
        l1 = observables.l1_density_distance(dens, interp_ref, eps)
        rows.append((eps, n_steps, l1))
        _write_density_csv(report.add_file(f"channel_eps{eps:g}.csv"),
                           grid.positions, dens)
    np.savetxt(report.add_file("convergence.csv"), np.array(rows), delimiter=",",
               comments="", fmt="%.17g", header="eps,n_steps,l1_distance")
    l1s = [r[2] for r in rows]
    monotone = all(a > b for a, b in zip(l1s, l1s[1:]))
    for (eps, _, l1) in rows:
        report.metrics[f"l1_eps_{eps:g}"] = l1
    report.metrics["monotone_decreasing"] = float(monotone)
    report.checks.append(Check("lattice_continuum_convergence", float(monotone),
                               1.0, 0.0, "bool"))


def run_sweep(cfg: ScenarioConfig, report: RunReport) -> None:
    base = ScenarioConfig(**{**cfg.metadata(), "scenario": "channel", "eps_list": ()})
    rows = []
    for eps in cfg.eps_list:
        base.eps = eps
        sub = run(base, os.path.join(report.output_dir, f"eps-{eps:g}"))
        rows.append((eps, sub.metrics.get("trace_drift", np.nan),
                     sub.metrics.get("edge_mass", np.nan)))
        report.checks.extend(sub.checks)
    np.savetxt(report.add_file("sweep_summary.csv"), np.array(rows), delimiter=",",
               comments="", fmt="%.17g", header="eps,trace_drift,edge_mass")
    report.metrics["n_runs"] = len(rows)


_RUNNERS = {
    "walk": run_walk,
    "channel": run_channel,
    "trajectories": run_trajectories,
    "lindblad": run_lindblad,
    "kernel-lindblad": run_kernel_lindblad,
    "telegraph": run_telegraph,
    "fourier": run_fourier,
    "dirac-free": run_dirac_free,
    "compare": run_compare,
    "sweep": run_sweep,
}


def _fresh_output_dir(base: str) -> str:
    """Create and return ``base``, or ``base-2``, ``base-3``, ... if it exists.

    Two runs started in the same second get distinct directories: creation
    is atomic, so a name another run has taken is skipped.
    """
    os.makedirs(os.path.dirname(base) or ".", exist_ok=True)
    for k in itertools.count(1):
        path = base if k == 1 else f"{base}-{k}"
        try:
            os.mkdir(path)
        except FileExistsError:
            continue
        return path


# Limits checked before a run allocates or steps anything (README, "Resource limits")
MAX_FIELD_BYTES = 2**30  # one (x, x') field: n <= 4096 sites; also each set of buffers
MAX_CELL_STEPS = 10**10  # lattice cells advanced, summed over every step of a run
MAX_SPECTRAL_POINTS = 10**7  # snapshot times x momenta of fast = spectral


def field_bytes(n: int) -> int:
    """Bytes of one (x, x') field of four complex components on n sites: 4·n²·16."""
    return 4 * n * n * 16


def walk_bytes(walks: int, n: int, n_steps: int = 0) -> int:
    """Bytes of the 1-D buffers of ``walks`` walks stepped together on n sites.

    Two ghost-padded (walks, 2, n + 2) complex amplitude buffers, plus, for
    an ensemble batch, the four angle offsets of each walk's ``n_steps`` steps.
    """
    return 2 * walks * 2 * (n + 2) * 16 + walks * n_steps * 4 * 8


def _demands(cfg: ScenarioConfig) -> tuple[list[int], list[tuple[str, int]], int, int]:
    """Site counts of the run's (x, x') fields, its other buffers as
    (name, bytes), its cell-steps and its spectral points.

    A cell is one lattice site of one walk (or trajectory), or one (x, x')
    pair of a field; each step advances every cell once.  Every Strang grid
    is estimated as its (x, x') field, though a homogeneous one (``lindblad``
    with ``fast = full``, the ``compare`` reference) steps in a band of
    Fourier modes (:func:`pde.band_evolve`) and builds that field only for
    the binary dump.  So is every flip channel, though one with a band that
    leaves modes out (:func:`noise.band_channel`) builds its (x, x') blocks
    once, at the end, for the hermiticity gate.  Only ``lindblad`` reads
    ``fast``.
    A ``t_final`` that is not a multiple of the step (:func:`step_count`)
    raises ConfigurationError; ``dirac-free`` and ``fast = spectral`` take no steps.
    """
    s = cfg.scenario
    if s == "walk":
        n, n_steps = _walk_size(cfg)
        return [], [("the walk buffers", walk_bytes(1, n))], n * n_steps, 0
    if s == "sweep":
        parts = [_demands(replace(cfg, scenario="channel", eps=eps)) for eps in cfg.eps_list]
        return [n for f, _, _, _ in parts for n in f], [], sum(p[2] for p in parts), 0
    if s in ("channel", "trajectories"):
        n = _lattice_grid(cfg).n_sites
        n_steps = step_count(cfg.t_final, cfg.eps)
        if s == "channel":
            return [n], [], n * n * n_steps, 0
        # the run sums probabilities only, one batch of trajectories at a time;
        # each trajectory is set up and summed even when it takes no step
        batch = min(cfg.n_traj, noise.ENSEMBLE_BATCH)
        return ([], [("the walk buffers", walk_bytes(batch, n, n_steps))],
                cfg.n_traj * n * max(n_steps, 1), 0)
    if s == "lindblad" and cfg.fast == "spectral":
        # the run's snapshots, and the three times of the group-velocity fit
        return [], [], 0, (cfg.n_snapshots + 3) * analytic.N_MOMENTA
    n = _pde_grid(cfg).n_sites
    if s == "dirac-free":
        return [], [], n * max(cfg.n_snapshots, 3), 0
    n_steps = step_count(cfg.t_final, cfg.dx)
    if s in ("telegraph", "fourier") or (s == "lindblad" and cfg.fast == "diagonal"):
        return [], [], n * n_steps, 0
    if s == "compare":
        sizes = [int(round(2 * cfg.half_width / eps)) for eps in cfg.eps_list]
        work = sum(m * m * step_count(cfg.t_final, eps) for m, eps in zip(sizes, cfg.eps_list))
        return [n] + sizes, [], n * n * n_steps + work, 0
    return [n], [], n * n * n_steps, 0


def _count(value: int) -> float:
    """A count as a float for a message: inf past the float range, where an
    absurd config (say ``half_width = 1e300``) puts its estimates."""
    return float(value) if value < 2**1023 else float("inf")


def _bytes_text(size: int) -> str:
    size = _count(size)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if size < 1024 or unit == "TiB":
            return f"{size:.3g} {unit}"
        size /= 1024


def _over_memory_limit(what: str, size: int) -> str:
    need, limit = _bytes_text(size), _bytes_text(MAX_FIELD_BYTES)
    if need == limit:  # just over the limit: rounding would hide the excess
        need, limit = f"{size} B", f"{MAX_FIELD_BYTES} B"
    return f"{what} {need}, above the limit of {limit}"


def check_resources(cfg: ScenarioConfig) -> None:
    """Reject a run whose memory or work exceeds the stated limits, before it starts.

    Raises ConfigError listing every limit the run would exceed, or
    ConfigurationError when ``t_final`` is not a multiple of the run's step.
    """
    fields, buffers, cell_steps, spectral_points = _demands(cfg)
    needs = [(f"a {n}-site (x, x') field needs", field_bytes(n)) for n in fields]
    needs += [(f"{name} need", size) for name, size in buffers]
    errors = [_over_memory_limit(what, size) for what, size in needs if size > MAX_FIELD_BYTES]
    if cell_steps > MAX_CELL_STEPS:
        errors.append(f"the run needs {_count(cell_steps):.3g} cell-steps, above the limit of "
                      f"{MAX_CELL_STEPS:.0e}")
    if spectral_points > MAX_SPECTRAL_POINTS:
        errors.append(f"the run needs {_count(spectral_points):.3g} snapshot-momenta, above the "
                      f"limit of {MAX_SPECTRAL_POINTS:.0e}")
    if errors:
        raise ConfigError(errors)


def run(cfg: ScenarioConfig, output_dir: str | None = None) -> RunReport:
    """Execute a scenario, write its outputs and report, and return the report.

    The run is rejected by :func:`check_resources` before anything is
    created when it would exceed a memory or work limit, or when its
    ``t_final`` is not a multiple of its time step.
    """
    check_resources(cfg)
    out = output_dir or cfg.output_dir
    if out:
        os.makedirs(out, exist_ok=True)
    else:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        out = _fresh_output_dir(os.path.join(default_output_root(), f"{cfg.scenario}-{stamp}"))
    report = RunReport(scenario=cfg.scenario, label=cfg.label, output_dir=out,
                       config=cfg.metadata())
    _RUNNERS[cfg.scenario](cfg, report)
    report.write()
    return report


def verify_report(run_dir: str) -> tuple[bool, list[str]]:
    """Recompute summary metrics from the emitted CSVs and diff against report.kv.

    Covers the metrics that are pure functions of moments.csv (d_est and
    x_plateau); returns (ok, messages).
    """
    kv_path = os.path.join(run_dir, "report.kv")
    if not os.path.exists(kv_path):
        return False, [f"{run_dir}: no report.kv"]
    metrics = {}
    with open(kv_path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("metric."):
                key, val = line[len("metric."):].split("=", 1)
                try:
                    metrics[key.strip()] = float(val)
                except ValueError:
                    pass
    messages = []
    ok = True
    moments_path = os.path.join(run_dir, "moments.csv")
    if os.path.exists(moments_path) and ("d_est" in metrics or "x_plateau" in metrics):
        data = np.loadtxt(moments_path, delimiter=",", skiprows=1)
        series = observables.MomentSeries(
            times=data[:, 0], mean_x=data[:, 1], second_moment=data[:, 2],
            trace=data[:, 4], continuity_residual=data[:, 5],
        )
        if "x_plateau" in metrics:
            reg = observables.regime_times(series, v_g=metrics.get("vg_formula", 1.0))
            if abs(reg.x_plateau - metrics["x_plateau"]) > 1e-9 * max(1, abs(reg.x_plateau)):
                ok = False
                messages.append(
                    f"x_plateau mismatch: csv {reg.x_plateau} vs report {metrics['x_plateau']}"
                )
            else:
                messages.append("x_plateau reproduced from moments.csv")
        if "d_est" in metrics:
            t_start = metrics.get("t2", 0.5 * series.times[-1])
            fit = observables.diffusion_fit(series, t_start=t_start)
            if abs(fit.d_est - metrics["d_est"]) > 1e-9 * max(1, abs(fit.d_est)):
                ok = False
                messages.append(f"d_est mismatch: csv {fit.d_est} vs report {metrics['d_est']}")
            else:
                messages.append("d_est reproduced from moments.csv")
    if not messages:
        messages.append("no recomputable metrics found (nothing to verify)")
    return ok, messages


_PLOT_KINDS = ("density", "mean", "exponent")


def emit_plot_script(run_dir: str, kind: str) -> str:
    """Write a standalone matplotlib script that renders CSVs from a run."""
    if kind not in _PLOT_KINDS:
        raise ConfigurationError(f"unknown plot kind {kind!r}; valid: {_PLOT_KINDS}")
    needed = {"density": ["density.csv", "final_diag.csv", "telegraph_compare.csv"],
              "mean": ["moments.csv"],
              "exponent": ["moments.csv"]}[kind]
    present = [f for f in needed if os.path.exists(os.path.join(run_dir, f))]
    slices = []
    if kind == "density" and os.path.isdir(run_dir):
        slices = sorted(
            f for f in os.listdir(run_dir)
            if f.startswith("diag_t") and f.endswith(".csv")
        )
    if not present and not slices:
        raise ConfigurationError(
            f"{run_dir}: none of {needed} found; run a scenario first"
        )
    x_lim = None
    vg = None
    kv_path = os.path.join(run_dir, "report.kv")
    if os.path.exists(kv_path):
        with open(kv_path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("metric.x_lim"):
                    x_lim = float(line.split("=", 1)[1])
                if line.startswith("metric.vg_formula"):
                    vg = float(line.split("=", 1)[1])
    if kind == "density" and slices:
        body = _density_panels_script(slices)
    else:
        body = _plot_script_body(kind, present[0], x_lim, vg)
    path = os.path.join(run_dir, f"plot_{kind}.py")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body)
    return path


def _density_panels_script(slices: list[str]) -> str:
    """Overlaid density-vs-x curves, one per recorded time slice."""
    return "\n".join([
        "#!/usr/bin/env python3",
        '"""Standalone plot script; reads CSVs from its own directory."""',
        "import csv",
        "import os",
        "import matplotlib",
        "matplotlib.use('Agg')",
        "import matplotlib.pyplot as plt",
        "",
        "here = os.path.dirname(os.path.abspath(__file__))",
        f"names = {slices!r}",
        "for name in names:",
        "    xs, ys = [], []",
        "    with open(os.path.join(here, name)) as fh:",
        "        reader = csv.reader(fh)",
        "        next(reader)",
        "        for row in reader:",
        "            xs.append(float(row[0]))",
        "            ys.append(float(row[1]))",
        "    label = name[len('diag_t'):-len('.csv')]",
        "    plt.plot(xs, ys, lw=1.0, label='t = ' + label)",
        "plt.xlabel('x')",
        "plt.ylabel('probability density')",
        "plt.legend()",
        "plt.tight_layout()",
        "plt.savefig(os.path.join(here, 'density.png'), dpi=160)",
        "print('wrote density.png')",
        "",
    ])


def _plot_script_body(kind: str, csv_name: str, x_lim, vg) -> str:
    lines = [
        "#!/usr/bin/env python3",
        '"""Standalone plot script; reads CSVs from its own directory."""',
        "import csv",
        "import os",
        "import matplotlib",
        "matplotlib.use('Agg')",
        "import matplotlib.pyplot as plt",
        "",
        "here = os.path.dirname(os.path.abspath(__file__))",
        "rows = []",
        f"with open(os.path.join(here, {csv_name!r})) as fh:",
        "    reader = csv.DictReader(fh)",
        "    for row in reader:",
        "        rows.append({k: float(v) for k, v in row.items()})",
        "",
    ]
    if kind == "density":
        ycol = "R0" if csv_name == "density.csv" else "R0_numeric" if "telegraph" in csv_name else "R0"
        lines += [
            "x = [r['x'] for r in rows]",
            f"y = [r['{ycol}'] for r in rows]",
            "plt.plot(x, y, lw=1.2)",
            "plt.xlabel('x')",
            "plt.ylabel('probability density')",
        ]
    elif kind == "mean":
        lines += [
            "t = [r['t'] for r in rows]",
            "m = [r['mean_x'] for r in rows]",
            "plt.plot(t, m, lw=1.2, label='mean position')",
        ]
        if vg:
            lines += [f"plt.plot(t, [{vg} * ti for ti in t], ls=':', label='ballistic')"]
        if x_lim:
            lines += [f"plt.axhline({x_lim}, ls='--', c='k', label='limit position')"]
        lines += [
            "plt.xlabel('t')",
            "plt.ylabel('mean position')",
            "plt.legend()",
        ]
    else:
        lines += [
            "t = [r['t'] for r in rows if r['eta'] == r['eta'] and r['t'] > 0]",
            "e = [r['eta'] for r in rows if r['eta'] == r['eta'] and r['t'] > 0]",
            "plt.semilogx(t, e, lw=1.2)",
            "plt.axhline(2.0, ls=':', c='gray')",
            "plt.axhline(1.0, ls=':', c='gray')",
            "plt.xlabel('t')",
            "plt.ylabel('growth exponent')",
        ]
    lines += [
        "plt.tight_layout()",
        f"plt.savefig(os.path.join(here, '{kind}.png'), dpi=160)",
        f"print('wrote {kind}.png')",
        "",
    ]
    return "\n".join(lines)
