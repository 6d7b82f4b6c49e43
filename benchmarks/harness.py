"""Runs one workload's scenarios through ``dlqw.runner.run`` and checks them.

A repetition runs every generated config once, each into its own output
directory, which is cleared before the run.  A run fails if it raises, if
any of its own gates reports FAIL, if its CSVs differ from the first
repetition's (every run of one process must write identical bytes, traced or
not), or, for the seed the references were made with, if its outputs leave
the reference bound.

Import this module only after ``dlqw`` is importable (see ``run.py``).
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dlqw import config, runner

from tracer import Stat, Target, WorkFn

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# deterministic paths: |out - ref| <= RTOL * max|ref column| + ATOL
RTOL = 1e-8
ATOL = 1e-12
# files compared with the reference: the moment series and the final density
_FINAL_FILES = ("final_diag.csv", "density.csv", "distribution.csv",
                "telegraph_compare.csv", "fourier_compare.csv")


def _cells(arg: str) -> WorkFn:
    return lambda a: float(a[arg].grid.n_sites ** 2)


def _site(dotted: str) -> tuple[str, str]:
    module, path = dotted.split(".", 1)
    return f"dlqw.{module}", path


def _t(name: str, *callers: str, work: WorkFn | None = None) -> Target:
    """Target ``<module>.<function>``, patched on its module and on ``callers``."""
    return Target(name, tuple(_site(s) for s in (name, *callers)), work)


# Traced layers.  Each name is patched where callers look it up: pde imports
# moments and continuity_residual by name, runner imports walk_step by name,
# and the ensemble path calls noise.coin_matrices (not walk.coin_matrices).
LAYERS = [
    _t("walk.walk_step", "runner.walk_step"),
    _t("noise.channel_step", work=_cells("rho")),
    _t("noise.walk_conjugate"),
    _t("noise.run_ensemble",
       work=lambda a: float(a["n_traj"] * a["init"].grid.n_sites * a["n_steps"])),
    _t("noise.rng_for_trajectory"),
    _t("noise.coin_matrices"),
    _t("pde.evolve", work=_cells("init")),
    _t("pde.strang_step", work=_cells("cfield")),
    _t("pde.source_step"),
    _t("pde.homogeneous_step"),
    _t("pde.v_inverse"),
    _t("pde.pauli_from_density"),
    _t("pde.diagonal_evolve"),
    _t("pde.write_diagonal_csv"),
    _t("pde.KernelSourceOperator.apply"),
    _t("analytic.spectral_moments"),
    _t("analytic.expm_stack", work=lambda a: float(math.prod(np.shape(a["a"])[:-2]))),
    _t("analytic.fourier_propagate"),
    _t("analytic.telegraph_solution"),
    _t("observables.moments", "pde.moments"),
    _t("observables.continuity_residual", "pde.continuity_residual"),
    _t("observables.exponent_series"),
    _t("observables.regime_times"),
    _t("observables.diffusion_fit"),
    _t("config.parse_config"),
    _t("runner.run"),
    _t("runner.RunReport.write"),
]

_STAT_UNITS = (("calls", "count"), ("s", "s"), ("self_s", "s"), ("peak_mb", "MB"))
DERIVED_UNITS = {
    "pde.ns_per_cell_step": "ns",
    "pde.field_mb": "MB",
    "noise.ns_per_block_step": "ns",
    "noise.ns_per_traj_site_step": "ns",
    "analytic.expm_stack.matrices": "count",
    "runner.bytes_written": "B",
    "process.cpu_s": "s",
    "process.trace_overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {f"{t.name}.{key}": unit for t in LAYERS for key, unit in _STAT_UNITS}
    out.update(DERIVED_UNITS)
    return out


def layer_values(stats: dict[str, Stat], memory: dict[str, Stat]) -> dict[str, float]:
    """Per-layer values of one timed repetition and one memory-traced repetition.

    ``runner.bytes_written`` and ``process.*`` are added by the caller.
    """
    out = {}
    for name, st in stats.items():
        out[f"{name}.calls"] = float(st.calls)
        out[f"{name}.s"] = st.s
        out[f"{name}.self_s"] = st.self_s
        out[f"{name}.peak_mb"] = memory[name].peak_bytes / 1e6

    def ns_per(name: str) -> float:
        st = stats[name]
        return st.s * 1e9 / st.work if st.work else 0.0

    out["pde.ns_per_cell_step"] = ns_per("pde.strang_step")
    out["noise.ns_per_block_step"] = ns_per("noise.channel_step")
    out["noise.ns_per_traj_site_step"] = ns_per("noise.run_ensemble")
    out["pde.field_mb"] = 4 * stats["pde.evolve"].work_max * 16 / 1e6
    out["analytic.expm_stack.matrices"] = stats["analytic.expm_stack"].work
    return out


@dataclass
class RunOutcome:
    name: str
    wall_s: float
    failure: str = ""  # empty when the run passed every check
    digest: str = ""
    bytes_written: int = 0


@dataclass
class Repetition:
    runs: list[RunOutcome]
    cpu_s: float

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.runs)

    @property
    def bytes_written(self) -> int:
        return sum(r.bytes_written for r in self.runs)


def _csv_digest(out_dir: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            size += path.stat().st_size
            if path.suffix == ".csv":
                h.update(path.relative_to(out_dir).as_posix().encode())
                h.update(path.read_bytes())
    return h.hexdigest(), size


def checked_files(out_dir: Path) -> list[str]:
    """The moment series (if any) and the final density file of one run."""
    names = [n for n in ("moments.csv",) if (out_dir / n).is_file()]
    names += [n for n in _FINAL_FILES if (out_dir / n).is_file()][:1]
    return names


def load_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.npz"


def compare_reference(name: str, out_dir: Path, ref: dict[str, np.ndarray],
                      exact: bool = False) -> str:
    """Empty string if the run's outputs match the stored reference, else the reason.

    ``exact`` (Monte-Carlo runs) asks for bit-identical values.
    """
    files = checked_files(out_dir)
    keys = sorted(k for k in ref if k.startswith(f"{name}/"))
    if sorted(f"{name}/{f}" for f in files) != keys:
        return f"reference files {keys} but run wrote {files}"
    for fname in files:
        got, want = load_csv(out_dir / fname), ref[f"{name}/{fname}"]
        if got.shape != want.shape:
            return f"{fname}: shape {got.shape} != reference {want.shape}"
        if exact:
            if not np.array_equal(got, want, equal_nan=True):
                return f"{fname}: Monte-Carlo output not bit-identical to the reference"
            continue
        scale = np.nanmax(np.abs(want), axis=0, initial=0.0)
        with np.errstate(invalid="ignore"):
            bad = np.abs(got - want) > RTOL * scale + ATOL
        bad |= np.isnan(got) != np.isnan(want)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            return (f"{fname}: row {i} column {j} = {got[i, j]!r}, reference "
                    f"{want[i, j]!r} (rtol {RTOL:g})")
    return ""


class Workload:
    """The generated runs of one workload and the state its repetitions check against."""

    def __init__(self, generated: list[tuple[str, str]], out_root: Path,
                 reference: dict[str, np.ndarray] | None = None):
        self.generated = generated
        self.out_root = out_root
        self.reference = reference
        # name -> (CSV digest, reference failure) of the first repetition
        self.first: dict[str, tuple[str, str]] = {}
        self.attempted = 0
        self.failed = 0

    def repeat(self) -> Repetition:
        """Run every config once."""
        cpu0 = time.process_time()
        # parsing is set-up work: traced when a tracer is active, but outside
        # each run's wall time
        runs = [(name, config.parse_config(text)) for name, text in self.generated]
        outcomes = [self._run_one(name, cfg) for name, cfg in runs]
        return Repetition(outcomes, time.process_time() - cpu0)

    def _run_one(self, name: str, cfg) -> RunOutcome:
        out_dir = self.out_root / name
        shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            report = runner.run(cfg, str(out_dir))
        except Exception:  # a failed run is counted, reported, and the bench goes on
            outcome = RunOutcome(name, time.perf_counter() - t0,
                                 failure="raised " + traceback.format_exc(limit=-1).strip())
        else:
            outcome = RunOutcome(name, time.perf_counter() - t0)
            outcome.digest, outcome.bytes_written = _csv_digest(out_dir)
            outcome.failure = self._check(name, cfg.scenario, out_dir, report, outcome.digest)
        if outcome.failure:
            self.failed += 1
            print(f"FAIL {name}: {outcome.failure}", file=sys.stderr)
        return outcome

    def _check(self, name: str, scenario: str, out_dir: Path, report, digest: str) -> str:
        failed_gates = [c.name for c in report.checks if not c.passed]
        if failed_gates:
            return f"gates failed: {', '.join(failed_gates)}"
        if name not in self.first:
            ref_failure = ("" if self.reference is None else compare_reference(
                name, out_dir, self.reference, exact=scenario == "trajectories"))
            self.first[name] = (digest, ref_failure)
        first_digest, ref_failure = self.first[name]
        if digest != first_digest:
            return "CSV bytes differ from the first repetition"
        return ref_failure


def reference_arrays(generated: list[tuple[str, str]], out_root: Path) -> dict[str, np.ndarray]:
    """Run each config once and collect the arrays a reference file stores."""
    arrays = {}
    for name, text in generated:
        out_dir = out_root / name
        shutil.rmtree(out_dir, ignore_errors=True)
        report = runner.run(config.parse_config(text), str(out_dir))
        if not report.passed:
            raise RuntimeError(f"{name}: gates failed; refusing to store a reference")
        for fname in checked_files(out_dir):
            arrays[f"{name}/{fname}"] = load_csv(out_dir / fname)
    return arrays


def clear(path: Path) -> None:
    if path.exists():
        shutil.rmtree(path)
    parent = path.parent
    if parent.exists() and not any(parent.iterdir()):
        os.rmdir(parent)
