import json
import os
import re
import subprocess
import sys
import tracemalloc
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

from dlqw import noise, pde, runner
from dlqw.analytic import build_packet
from dlqw.cli import main
from dlqw.config import VALID_SCENARIOS, ConfigError, list_presets, load_config, parse_config
from dlqw.pde import GeneratorParams, diagonal_evolve, pauli_from_wave_state
from dlqw.runner import (check_resources, emit_plot_script, read_csv, read_report, run,
                         verify_report)
from dlqw.walk import ConfigurationError

MINI_TRAJ = """
scenario = trajectories
eps = 0.1
t_final = 1
m = 0.5
noise_param = theta
noise_kind = gaussian
noise_delta = 0.5
n_traj = 64
p0 = 1
sigma = 0.5
half_width = 8
seed = 11
"""

SPECTRAL_LOG = """
scenario = lindblad
fast = spectral
m = 0.5
gamma2 = 0.5
p0 = 0.5
sigma = 0.05
dx = 0.05
half_width = 40
t_final = 400
snapshot_spacing = log
"""

KERNEL = ("scenario = kernel-lindblad\nkernel_channel = identity\nkernel_rate = 1\ndx = 0.1\n"
          "half_width = 2\nt_final = 0.5\n")

SPECTRAL_PRESETS = [name for name in list_presets()
                    if load_config(f"preset:{name}").fast == "spectral"]

MOMENTS_HEADER = "t,mean_x,second_moment,eta,trace,continuity_residual"
DIAG_HEADER = "x,R0,R1,R2,R3"

# each scenario's CSVs, by file-name pattern, and the first line each must have
CSV_HEADERS = {
    "telegraph": ("scenario = telegraph\ngamma2 = 0.5\ndx = 0.1\nhalf_width = 4\nt_final = 0.5\n",
                  {"moments.csv": MOMENTS_HEADER,
                   "telegraph_compare.csv": "x,R0_numeric,R0_closed_form"}),
    "fourier": ("scenario = fourier\ngamma2 = 0.5\ndx = 0.05\nhalf_width = 4\nt_final = 0.5\n",
                {"fourier_compare.csv": "x,R0_strang,R0_propagator"}),
    "compare": ("scenario = compare\nm = 0.5\ngamma2 = 0.5\np0 = 1\nsigma = 0.5\n"
                "eps_list = 0.5, 0.25\nt_final = 1\ndx = 0.25\nhalf_width = 4\n",
                {"pde_diag.csv": DIAG_HEADER, "channel_eps*.csv": "x,R0",
                 "convergence.csv": "eps,n_steps,l1_distance"}),
    "sweep": ("scenario = sweep\neps_list = 0.5, 0.25\nt_final = 1\nhalf_width = 4\n"
              "pi2_rate = 0.5\nm = 0.5\ninit = delta\n",
              {"sweep_summary.csv": "eps,trace_drift,edge_mass", "moments.csv": MOMENTS_HEADER,
               "density.csv": "x,R0"}),
    "trajectories": ("scenario = trajectories\neps = 0.25\nt_final = 0.5\nhalf_width = 4\n"
                     "noise_delta = 0.5\nn_traj = 4\nseed = 3\ninit = delta\n",
                     {"density.csv": "x,R0,se_R0"}),
    "lindblad-full": ("scenario = lindblad\nfast = full\nm = 0.5\ngamma2 = 0.5\ndx = 0.25\n"
                      "half_width = 4\nt_final = 0.5\nn_snapshots = 3\np0 = 1\nsigma = 0.5\n",
                      {"moments.csv": MOMENTS_HEADER, "final_diag.csv": DIAG_HEADER,
                       "diag_t*.csv": DIAG_HEADER}),
}


# runs whose plot scripts are run under a logging stand-in for matplotlib, with
# the CSVs the density script plots and their density column: diagonal slices,
# a channel density (with an all-nan eta column), the telegraph and fourier
# comparisons, a walk distribution, the compare run's PDE reference, and a
# spectral run with a limit position and a group velocity but no density
PLOT_RUNS = {
    "lindblad-full": (CSV_HEADERS["lindblad-full"][0], "diag_t*.csv", "R0"),
    "channel": ("scenario = channel\neps = 0.25\nt_final = 0.5\nhalf_width = 4\n"
                "pi2_rate = 0.5\nm = 0.5\ninit = delta\n", "density.csv", "R0"),
    "telegraph": (CSV_HEADERS["telegraph"][0], "telegraph_compare.csv", "R0_numeric"),
    "fourier": (CSV_HEADERS["fourier"][0], "fourier_compare.csv", "R0_strang"),
    "walk": ("scenario = walk\ntheta = 0.5\nn_steps = 10\n", "distribution.csv", "R0"),
    "compare": (CSV_HEADERS["compare"][0], "pde_diag.csv", "R0"),
    "spectral": ("scenario = lindblad\nfast = spectral\nm = 0.5\ngamma2 = 0.5\ndx = 0.25\n"
                 "half_width = 4\nt_final = 20\nn_snapshots = 17\nsnapshot_spacing = log\n",
                 None, None),
}
# the runs that write no moments.csv, so have no mean or exponent plot
NO_MOMENTS = ("compare", "fourier", "walk")

STUB_PYPLOT = """import json
import os


def __getattr__(name):
    def call(*args, **kwargs):
        with open(os.environ["PLOT_LOG"], "a") as fh:
            fh.write(json.dumps([name, args, kwargs]) + "\\n")
    return call
"""


class TestParseConfig:
    def test_minimal_walk_defaults(self):
        cfg = parse_config("scenario = walk\ntheta = 0.5\nn_steps = 100\n")
        assert cfg.scenario == "walk"
        assert cfg.seed == 0
        assert cfg.formats == "csv"

    def test_every_scenario_has_a_runner(self):
        assert set(runner._RUNNERS) == set(VALID_SCENARIOS)

    def test_negative_rate_message(self):
        with pytest.raises(ConfigError) as err:
            parse_config("scenario = walk\ntheta = 0.5\nn_steps = 10\ngamma2 = -1\n")
        assert any("rate must be non-negative" in e for e in err.value.errors)

    def test_all_errors_collected(self):
        text = "scenario = lindblad\nbogus = 1\ngamma1 = -2\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        msgs = " | ".join(err.value.errors)
        assert "unknown key 'bogus'" in msgs
        assert "rate must be non-negative" in msgs
        assert "missing required key" in msgs  # dx, t_final, half_width

    def test_dt_is_an_unknown_key(self):
        # the time step is the spacing (dx, or eps on the lattice), never set on its own
        text = ("scenario = telegraph\ngamma2 = 0.5\ndx = 0.01\ndt = 0.01\n"
                "t_final = 1\nhalf_width = 4\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.errors == ["line 4: unknown key 'dt'"]

    @pytest.mark.parametrize("fast, m, message", [
        ("spectral", "0", "fast = spectral requires m != 0; use fast = diagonal"),
        ("diagonal", "0.5", "fast = diagonal requires m = 0"),
    ], ids=["spectral-massless", "diagonal-massive"])
    def test_fast_path_checked_against_mass(self, tmp_path, capsys, fast, m, message):
        cfg_path = tmp_path / "fast.cfg"
        cfg_path.write_text(f"scenario = lindblad\nfast = {fast}\nm = {m}\ngamma2 = 0.5\n"
                            "dx = 0.05\nhalf_width = 4\nt_final = 1\n")
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("scenario", ["telegraph", "fourier"])
    def test_massive_telegraph_limit_exit_two(self, tmp_path, capsys, scenario):
        # both run at m = 0, so a mass would be reported in report.kv but not used
        cfg_path = tmp_path / "massive.cfg"
        cfg_path.write_text(f"scenario = {scenario}\nm = 0.7\ngamma2 = 0.5\ndx = 0.05\n"
                            "half_width = 4\nt_final = 1\n")
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{scenario} runs at m = 0, the telegraph limit" in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()
        assert parse_config(cfg_path.read_text().replace("m = 0.7", "m = 0")).m == 0.0

    def test_unparsed_mass_is_not_compared_with_fast(self):
        with pytest.raises(ConfigError) as err:
            parse_config("scenario = lindblad\nfast = spectral\nm = nan\ndx = 0.05\n"
                         "half_width = 4\nt_final = 1\n")
        assert err.value.errors == ["line 3: cannot parse m = 'nan'"]

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            parse_config("scenario = frobnicate\n")

    def test_comments_and_blanks(self):
        cfg = parse_config("# header\n\nscenario = walk  # trailing\ntheta = 1\nn_steps = 5\n")
        assert cfg.theta == 1.0

    def test_eps_list_parsing(self):
        cfg = parse_config(
            "scenario = compare\neps_list = 0.1, 0.05, 0.025\nt_final = 1\n"
            "half_width = 5\ndx = 0.025\n"
        )
        assert cfg.eps_list == (0.1, 0.05, 0.025)

    def test_non_finite_eps_list_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse eps_list"):
            parse_config("scenario = compare\neps_list = 0.1, nan\nt_final = 1\n"
                         "half_width = 5\ndx = 0.025\n")


class TestPresets:
    def test_fig1_left_values(self):
        cfg = load_config("preset:fig1-left")
        assert cfg.gamma2 == 0.05
        assert cfg.p0 == 1.0
        assert cfg.m == 3.0
        assert cfg.sigma == 0.1

    def test_expected_presets_shipped(self):
        names = list_presets()
        for expected in ("fig1-left", "fig1-middle", "fig1-right", "fig3",
                         "fig2-a", "fig2-f", "acceptance-walk",
                         "acceptance-telegraph", "acceptance-convergence"):
            assert expected in names

    def test_missing_preset_errors(self):
        with pytest.raises(ConfigurationError):
            load_config("preset:nope")

    @pytest.mark.parametrize("name", SPECTRAL_PRESETS)
    def test_spectral_presets_pass_their_gates(self, tmp_path, name):
        report = run(load_config(f"preset:{name}"), str(tmp_path / name))
        assert report.passed, report.human_summary()

    @pytest.mark.parametrize("name", ["acceptance-equivalence-channel",
                                      "acceptance-equivalence-trajectories"])
    def test_equivalence_presets_pass_their_gates(self, tmp_path, name):
        report = run(load_config(f"preset:{name}"), str(tmp_path / name))
        assert report.passed, report.human_summary()

    @pytest.mark.parametrize("name", ["acceptance-telegraph", "acceptance-kernel",
                                      "acceptance-walk", "fig1-middle", "fig1-left-grid",
                                      "fig1-right"])
    def test_grid_and_walk_presets_pass_their_gates(self, tmp_path, name):
        report = run(load_config(f"preset:{name}"), str(tmp_path / name))
        assert report.passed, report.human_summary()


class TestRunner:
    def test_deterministic_outputs(self, tmp_path):
        cfg = parse_config(MINI_TRAJ)
        run(cfg, str(tmp_path / "a"))
        run(cfg, str(tmp_path / "b"))
        da = (tmp_path / "a" / "density.csv").read_bytes()
        db = (tmp_path / "b" / "density.csv").read_bytes()
        assert da == db

    def test_telegraph_gamma_zero_flags_dalembert(self, tmp_path):
        cfg = parse_config(
            "scenario = telegraph\ngamma2 = 0\ndx = 0.02\nt_final = 1\n"
            "half_width = 4\ntol = 1e-6\n"
        )
        report = run(cfg, str(tmp_path / "run"))
        assert report.metrics["dalembert_case"] == 1.0
        assert report.passed

    def test_report_files_exist_and_verify(self, tmp_path):
        cfg = load_config("preset:fig2-e")
        report = run(cfg, str(tmp_path / "r"))
        assert report.passed
        assert (tmp_path / "r" / "report.kv").exists()
        assert (tmp_path / "r" / "report.txt").exists()
        assert (tmp_path / "r" / "moments.csv").exists()
        ok, messages = verify_report(str(tmp_path / "r"))
        assert ok, messages
        assert any("x_plateau reproduced" in m for m in messages)
        assert any("d_est reproduced" in m for m in messages)

    def test_log_spaced_diagonal_run_records_geometric_times(self, tmp_path):
        cfg = parse_config(
            "scenario = lindblad\nfast = diagonal\nm = 0\ngamma2 = 0.5\ndx = 0.05\n"
            "t_final = 20\nhalf_width = 30\nn_snapshots = 9\nsnapshot_spacing = log\n"
        )
        run(cfg, str(tmp_path / "run"))
        times = np.loadtxt(tmp_path / "run" / "moments.csv", delimiter=",", skiprows=1)[:, 0]
        steps = np.geomspace(1, 400, 8).round()
        np.testing.assert_allclose(times, np.concatenate([[0.0], 0.05 * steps]), rtol=1e-12)
        ratios = times[2:] / times[1:-1]
        assert ratios.min() >= 2.0  # uniform spacing would give ratios near 1

    def test_diagonal_run_starts_from_the_pure_state_diagonal(self, tmp_path):
        cfg = parse_config(
            "scenario = lindblad\nfast = diagonal\nm = 0\ngamma1 = 0.3\ngamma2 = 0.7\n"
            "dx = 0.05\nhalf_width = 8\nt_final = 3\np0 = 0.5\nsigma = 0.3\n"
        )
        run(cfg, str(tmp_path / "run"))
        got = np.loadtxt(tmp_path / "run" / "final_diag.csv", delimiter=",", skiprows=1)
        # the diagonal of the whole (x, x') Pauli field of the start
        grid = runner._pde_grid(cfg)
        start = pauli_from_wave_state(
            build_packet(cfg.p0, cfg.sigma, cfg.m, grid).state(0.0)).diagonal()
        res = diagonal_evolve(start.R[0], start.R[3], grid,
                              GeneratorParams(m=0.0, gamma1=0.3, gamma2=0.7), cfg.t_final)
        want = res.diagonals[-1].R[[0, 3]]
        for column, ref in zip((got[:, 1], got[:, 4]), want):
            np.testing.assert_allclose(column, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    def test_diagonal_run_allocates_no_xx_field(self, tmp_path):
        # n = 1000: one (2, 2, n, n) complex field alone would be 64 MB
        cfg = parse_config(
            "scenario = lindblad\nfast = diagonal\nm = 0\ngamma2 = 0.5\ndx = 0.05\n"
            "half_width = 25\nt_final = 0.5\n"
        )
        tracemalloc.start()
        try:
            run(cfg, str(tmp_path / "run"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_telegraph_run_peaks_within_its_needs(self, tmp_path):
        # 500 sites, a light cone of 100 cells either way; the slack holds the
        # initial data, the moment series and the CSV rows
        cfg = parse_config("scenario = telegraph\ngamma2 = 0.5\ndx = 0.02\nhalf_width = 5\n"
                           "t_final = 2\n")
        fields, buffers, _, _ = runner._needs(cfg)
        assert runner._pde_grid(cfg).n_sites == 500 and not fields
        run(cfg, str(tmp_path / "warm"))  # imports made once, untraced
        tracemalloc.start()
        try:
            run(cfg, str(tmp_path / "run"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sum(size for _, size in buffers) + 128 * 1024

    @pytest.mark.parametrize("text", [
        "scenario = telegraph\ngamma2 = 0.5\ndx = 0.02\nhalf_width = 4\n",
        "scenario = kernel-lindblad\nkernel_channel = identity\nkernel_rate = 1\n"
        "kernel_ell = 0.2\ndx = 0.05\nhalf_width = 2\ninit = gaussian\ninit_width = 0.2\n",
    ], ids=["telegraph", "kernel-lindblad"])
    def test_log_spacing_reaches_moments_csv(self, tmp_path, text):
        cfg = parse_config(text + "t_final = 2\nn_snapshots = 9\nsnapshot_spacing = log\n")
        run(cfg, str(tmp_path / "run"))
        times = np.loadtxt(tmp_path / "run" / "moments.csv", delimiter=",", skiprows=1)[:, 0]
        steps = np.geomspace(1, round(2 / cfg.dx), 8).round()
        np.testing.assert_allclose(times, np.concatenate([[0.0], cfg.dx * steps]), rtol=1e-12)

    def test_default_output_dirs_are_distinct(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DLQW_OUTPUT_ROOT", str(tmp_path / "out"))
        monkeypatch.setattr("time.strftime", lambda fmt: "20260101-000000")
        cfg = parse_config("scenario = walk\ntheta = 0.5\nn_steps = 10\n")
        dirs = {run(cfg).output_dir for _ in range(3)}
        assert len(dirs) == 3
        assert all(d.startswith(str(tmp_path / "out" / "walk-20260101-000000")) for d in dirs)

    def test_moments_csv_columns(self, tmp_path):
        cfg = parse_config(
            "scenario = channel\neps = 0.1\nt_final = 1\nm = 0.5\n"
            "pi2_rate = 0.25\np0 = 1\nsigma = 0.5\nhalf_width = 8\n"
        )
        run(cfg, str(tmp_path / "run"))
        with open(tmp_path / "run" / "moments.csv") as fh:
            header = fh.readline().strip()
        assert header == "t,mean_x,second_moment,eta,trace,continuity_residual"

    def test_emit_plot_script_requires_data(self, tmp_path):
        with pytest.raises(ConfigurationError):
            emit_plot_script(str(tmp_path), "mean")
        assert not list(tmp_path.iterdir())

    def test_dirac_free_records_a_measured_series(self, tmp_path):
        cfg = parse_config("scenario = dirac-free\nm = 0.5\np0 = 1\nsigma = 0.2\ndx = 0.05\n"
                           "half_width = 12\nt_final = 2\nn_snapshots = 5\n")
        report = run(cfg, str(tmp_path / "d"))
        assert report.passed
        data = np.loadtxt(tmp_path / "d" / "moments.csv", delimiter=",", skiprows=1)
        trace, residual = data[:, 4], data[:, 5]
        assert np.abs(trace - 1.0).max() < 1e-12
        assert np.any(residual != 0.0)

    def test_dirac_free_grades_the_packet_velocity(self, tmp_path):
        # the default sigma = 0.5 spreads the packet's momenta: it moves at its
        # spectral mean velocity 0.9125, not at v_g(p0) = 0.8944
        text = ("scenario = dirac-free\nm = 0.5\np0 = 1\ndx = 0.05\nt_final = 10\n"
                "half_width = 20\n")
        report = run(parse_config(text), str(tmp_path / "d"))
        assert report.passed, report.human_summary()
        assert report.metrics["vg_formula"] == pytest.approx(0.894427191, rel=1e-9)
        assert report.checks[0].target == report.metrics["vg_packet"]
        assert report.metrics["vg_packet"] == pytest.approx(0.91246, rel=1e-4)
        # a declared target still wins
        report = run(parse_config(text + "vg_target = 0.894427191\n"), str(tmp_path / "t"))
        assert report.checks[0].target == 0.894427191
        assert not report.passed

    @pytest.mark.parametrize("scenario", sorted(CSV_HEADERS))
    def test_csv_headers(self, tmp_path, scenario):
        text, headers = CSV_HEADERS[scenario]
        run(parse_config(text), str(tmp_path / "run"))
        seen = set()
        for path in sorted((tmp_path / "run").rglob("*.csv")):
            patterns = [p for p in headers if fnmatch(path.name, p)]
            assert len(patterns) == 1, f"unexpected CSV {path.name}"
            # a diagonal's header may end in a "  # t=<time>" comment
            header, _, comment = path.read_text().splitlines()[0].partition("  # t=")
            assert header == headers[patterns[0]]
            if path.name.startswith("diag_t"):
                assert f"{float(comment):g}" == path.name[len("diag_t"):-len(".csv")]
            elif comment:
                float(comment)
            seen.update(patterns)
        assert seen == set(headers)

    def test_emit_plot_script_writes_file(self, tmp_path):
        cfg = load_config("preset:fig2-e")
        run(cfg, str(tmp_path / "r"))
        path = emit_plot_script(str(tmp_path / "r"), "mean")
        text = open(path).read()
        assert "moments.csv" in text
        assert "matplotlib" in text

    def test_read_report_and_csv(self, tmp_path):
        report = run(load_config("preset:fig2-e"), str(tmp_path / "r"))
        kv = read_report(str(tmp_path / "r"))
        assert kv["scenario"] == "lindblad" and kv["passed"] == "True"
        assert {key: kv[f"metric.{key}"] for key in report.metrics} == report.metrics
        cols = read_csv(str(tmp_path / "r" / "moments.csv"))
        assert list(cols) == MOMENTS_HEADER.split(",")
        np.testing.assert_array_equal(
            cols["mean_x"], np.loadtxt(tmp_path / "r" / "moments.csv", delimiter=",",
                                       skiprows=1)[:, 1])
        with pytest.raises(FileNotFoundError):
            read_report(str(tmp_path))

    @pytest.mark.parametrize("name", sorted(PLOT_RUNS))
    def test_plot_scripts_plot_the_csv_columns(self, tmp_path, name):
        # a stand-in matplotlib that logs every pyplot call, so the scripts run here
        stub = tmp_path / "stub" / "matplotlib"
        stub.mkdir(parents=True)
        (stub / "__init__.py").write_text("def use(backend):\n    pass\n")
        (stub / "pyplot.py").write_text(STUB_PYPLOT)
        text, density_csv, column = PLOT_RUNS[name]
        out = tmp_path / "run"
        run(parse_config(text), str(out))
        calls = {}
        missing = (("density",) if density_csv is None else ()) + (
            ("mean", "exponent") if name in NO_MOMENTS else ())
        for kind in missing:
            with pytest.raises(ConfigurationError, match="none of"):
                emit_plot_script(str(out), kind)
        for kind in [k for k in runner.PLOT_KINDS if k not in missing]:
            log = tmp_path / f"{kind}.log"
            proc = subprocess.run(
                [sys.executable, emit_plot_script(str(out), kind)], capture_output=True,
                text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(stub.parent),
                                            "PLOT_LOG": str(log)})
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == f"wrote {kind}.png\n"
            calls[kind] = [json.loads(line) for line in log.read_text().splitlines()]
            assert calls[kind][-1] == ["savefig", [str(out / f"{kind}.png")], {"dpi": 160}]

        def curves(kind, function="plot"):
            return [args for call, args, _ in calls.get(kind, []) if call == function]

        density = sorted(out.glob(density_csv)) if density_csv else []
        assert len(curves("density")) == len(density)
        for (x, y), path in zip(curves("density"), density):
            cols = read_csv(str(path))
            np.testing.assert_array_equal(x, cols["x"])
            np.testing.assert_array_equal(y, cols[column])
        if name in NO_MOMENTS:
            return

        moments = read_csv(str(out / "moments.csv"))
        t, mean = curves("mean")[0]
        np.testing.assert_array_equal(t, moments["t"])
        np.testing.assert_array_equal(mean, moments["mean_x"])
        metrics = read_report(str(out))
        if name == "spectral":
            assert {"metric.vg_formula", "metric.x_lim"} <= set(metrics)
        if "metric.vg_formula" in metrics:
            np.testing.assert_array_equal(curves("mean")[1][1],
                                          metrics["metric.vg_formula"] * moments["t"])
        if "metric.x_lim" in metrics:
            assert curves("mean", "axhline") == [[metrics["metric.x_lim"]]]

        keep = np.isfinite(moments["eta"]) & (moments["t"] > 0)
        (t, eta), = curves("exponent", "semilogx")
        np.testing.assert_array_equal(t, moments["t"][keep])
        np.testing.assert_array_equal(eta, moments["eta"][keep])
        if name == "spectral":
            assert keep.sum() >= 8
        if name == "channel":  # no exponent fit: eta is all nan, and nothing is plotted
            assert not keep.any() and t == []


class TestMain:
    def test_run_pass_exit_zero(self, tmp_path, capsys):
        rc = main(["run", "preset:acceptance-walk", "--out", str(tmp_path / "w")])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_failing_check_exit_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(
            "scenario = walk\ntheta = 0.7853981633974483\nn_steps = 60\ntol = 1e-6\n"
        )
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "w")])
        assert rc == 1

    def test_bad_config_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "broken.cfg"
        cfg_path.write_text("scenario = walk\n")  # missing theta, n_steps
        rc = main(["run", str(cfg_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        ("t_final = -1\n", "t_final must be >= 0"),
        ("t_final = 0\nsnapshot_spacing = log\n", "requires t_final > 0"),
        ("t_final = 10\nsnapshot_spacing = log\nn_snapshots = 0\n", "n_snapshots must be >= 2"),
    ])
    def test_bad_snapshot_config_exit_two(self, tmp_path, capsys, extra, message):
        cfg_path = tmp_path / "snapshots.cfg"
        cfg_path.write_text("scenario = lindblad\nfast = spectral\nm = 0.5\ngamma2 = 0.5\n"
                            "dx = 0.05\nhalf_width = 40\n" + extra)
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ("scenario = telegraph\ngamma2 = 0.5\ndx = 0.05\nhalf_width = 4\nt_final = 1\n"
         "alpha = 1.5\n", "alpha"),
        ("scenario = lindblad\nfast = spectral\nm = 0.5\ngamma2 = 0.5\ndx = 0.05\n"
         "half_width = 40\nt_final = 1\nalpha = 0.5\n", "alpha"),
        ("scenario = lindblad\nfast = spectral\nm = 0.5\ngamma2 = 0.5\ndx = 0.05\n"
         "half_width = 40\nt_final = 400\nsnapshot_spacing = log\nn_snapshots = 17\n"
         "eta_target = 5\nwindow = 1\n", "window"),
    ], ids=["telegraph-alpha", "spectral-alpha", "spectral-window"])
    def test_source_weight_and_exponent_window_are_unknown_keys(self, tmp_path, capsys,
                                                                text, key):
        # the trapezoid source step and the 7-sample exponent fit are fixed
        cfg_path = tmp_path / "removed.cfg"
        cfg_path.write_text(text)
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("text, message", [
        ("scenario = lindblad\nfast = spectral\ngamma2 = 0.5\ndx = 0.05\nhalf_width = 40\n"
         "m = nan\nt_final = 1\n", "cannot parse m = 'nan'"),
        ("scenario = lindblad\nfast = spectral\ngamma2 = 0.5\ndx = 0.05\nhalf_width = 40\n"
         "m = 0.5\nt_final = inf\n", "cannot parse t_final = 'inf'"),
        ("scenario = kernel-lindblad\nkernel_channel = identity\nkernel_rate = 1.5\n"
         "kernel_ell = 0\ndx = 0.05\nhalf_width = 2\nt_final = 0.5\ninit = gaussian\n"
         "init_width = 0.2\n",
         "kernel_ell must be positive"),
        ("scenario = compare\neps_list = 0.1, 0\nt_final = 1\nhalf_width = 5\ndx = 0.025\n",
         "eps_list values must be positive"),
        ("scenario = channel\neps = 0.25\nt_final = 0.5\nhalf_width = 4\ninit = abc\n",
         "init must be one of packet/delta/gaussian, got 'abc'"),
        (KERNEL + "kernel_ell = 0.2\ninit = delta\n", "kernel-lindblad has no delta start"),
        (KERNEL.replace("identity", "") + "kernel_ell = 0.2\n", "unknown kernel_channel ''"),
        # refused before the reference and the eps = 0.1 lattice run
        ("scenario = compare\nm = 0.5\ngamma2 = 0.5\neps_list = 0.1, 20\nhalf_width = 10\n"
         "dx = 0.1\nt_final = 20\n", "n_sites must be >= 4, got 1"),
        # site counts past the float range
        ("scenario = channel\neps = 1e-10\nhalf_width = 1e300\nt_final = 1\n",
         "half_width = 1e+300 at spacing 1e-10 overflows the site count"),
        ("scenario = lindblad\nfast = full\ngamma2 = 0.5\ndx = 1e-10\nhalf_width = 1e300\n"
         "t_final = 1\n", "half_width = 1e+300 at spacing 1e-10 overflows the site count"),
        ("scenario = compare\nm = 0.5\ngamma2 = 0.5\neps_list = 1e-300\nhalf_width = 1e10\n"
         "dx = 0.1\nt_final = 1\n",
         "half_width = 1e+10 at spacing 1e-300 overflows the site count"),
        ("scenario = channel\neps = 1e-300\nt_final = 1e10\n",
         "t_final = 1e+10 at spacing 1e-300 overflows the site count"),
    ], ids=["m-nan", "t_final-inf", "kernel_ell-zero", "eps_list-zero", "init-unknown",
            "init-kernel-delta", "kernel_channel-empty", "compare-lattice-too-small",
            "channel-sites-overflow", "lindblad-sites-overflow", "compare-sites-overflow",
            "channel-duration-overflow"])
    def test_bad_value_exit_two(self, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(text)
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("scenario", ["trajectories", "channel"])
    def test_bad_noise_keys_exit_two(self, tmp_path, capsys, scenario):
        # both keys are checked whatever the scenario, each with the other problems
        cfg_path = tmp_path / "noise.cfg"
        cfg_path.write_text(f"scenario = {scenario}\neps = 0.1\nhalf_width = 8\nt_final = 1\n"
                            "noise_delta = 0.5\nnoise_param = foo\nnoise_kind = cauchy\n"
                            "sigma = -1\n")
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 2
        for message in ("noise_param must be one of xi0/xi1/theta/chi, got 'foo'",
                        "noise_kind must be one of gaussian/uniform/two-point, got 'cauchy'",
                        "sigma must be positive"):
            assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("text", [
        KERNEL + "kernel_ell = 1e300\ninit = gaussian\n",
        KERNEL + "kernel_ell = 1e12\ninit = gaussian\n",
        KERNEL + "kernel_ell = 0.2\ninit = gaussian\ninit_width = 1e300\n",
        "scenario = telegraph\ngamma2 = 0.5\ndx = 0.1\nhalf_width = 4\nt_final = 0.5\n"
        "init_width = 1e300\n",
    ], ids=["kernel_ell", "kernel_ell-offset", "init_width", "telegraph-init_width"])
    def test_huge_length_exits_with_a_code(self, tmp_path, text):
        # a length that squares past the float range gives a flat kernel or start
        cfg_path = tmp_path / "huge.cfg"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "r")]) in (0, 1)

    @pytest.mark.parametrize("text, message", [
        ("scenario = lindblad\nfast = full\ndx = 0.001\nhalf_width = 400\nt_final = 1\n",
         "a 800000-site (x, x') field needs 37.3 TiB, above the limit of 1 GiB"),
        ("scenario = channel\neps = 0.001\nhalf_width = 100\nt_final = 1\n",
         "a 200000-site (x, x') field needs 2.33 TiB, above the limit of 1 GiB"),
        ("scenario = telegraph\ndx = 0.01\nhalf_width = 5\ngamma2 = 0.5\nt_final = 1e9\n",
         "the run needs 1e+14 cell-steps, above the limit of 1e+10"),
        (SPECTRAL_LOG + "n_snapshots = 100000000\n",
         "the run needs 2.05e+11 snapshot-momenta, above the limit of 1e+07"),
        # within the work limit (1e10 cell-steps), but not the memory limit
        ("scenario = walk\ntheta = 0.8\nn_steps = 1\nn = 10000000000\n",
         "the walk buffers need 596 GiB, above the limit of 1 GiB"),
        # only lindblad reads fast: this run still steps the whole (x, x') field
        ("scenario = kernel-lindblad\nkernel_channel = identity\nkernel_rate = 1\n"
         "kernel_ell = 0.2\ndx = 0.001\nhalf_width = 20\nt_final = 1\nfast = diagonal\n",
         "a 40000-site (x, x') field needs 95.4 GiB, above the limit of 1 GiB"),
        # estimates past the float range
        ("scenario = channel\neps = 0.25\nhalf_width = 1e300\nt_final = 1\n",
         "field needs inf TiB, above the limit of 1 GiB"),
        # a trajectory is set up even when it takes no step
        ("scenario = trajectories\neps = 0.1\nhalf_width = 8\nt_final = 0\n"
         "noise_delta = 0.5\nn_traj = 100000000000\n",
         "the run needs 1.6e+13 cell-steps, above the limit of 1e+10"),
        # refused before the eps = 0.1 run, which fits, starts
        ("scenario = sweep\neps_list = 0.1, 0.001\nhalf_width = 100\nt_final = 1\n",
         "a 200000-site (x, x') field needs 2.33 TiB, above the limit of 1 GiB"),
        ("scenario = compare\nm = 0.5\ngamma2 = 0.5\neps_list = 0.1, 0.001\n"
         "half_width = 10\ndx = 0.025\nt_final = 2\n",
         "a 20000-site (x, x') field needs 23.8 GiB, above the limit of 1 GiB"),
        ("scenario = fourier\ngamma2 = 0.5\ndx = 0.01\nhalf_width = 5\nt_final = 1e9\n",
         "the run needs 1e+14 cell-steps, above the limit of 1e+10"),
        ("scenario = lindblad\nfast = diagonal\ngamma2 = 0.5\ndx = 0.01\nhalf_width = 5\n"
         "t_final = 1e9\n",
         "the run needs 1e+14 cell-steps, above the limit of 1e+10"),
    ], ids=["grid-field", "channel-blocks", "telegraph-steps", "spectral-snapshots",
            "walk-amplitudes", "kernel-fast-diagonal", "channel-overflow",
            "trajectories-no-steps", "sweep-second-lattice", "compare-lattice",
            "fourier-steps", "lindblad-diagonal-steps"])
    def test_run_over_a_resource_limit_exit_two(self, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "big.cfg"
        cfg_path.write_text(text)
        tracemalloc.start()
        try:
            rc = main(["run", str(cfg_path), "--out", str(tmp_path / "r")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and "Traceback" not in err
        assert peak < 2**20
        assert not (tmp_path / "r").exists() and not (tmp_path / "r" / "eps-0.1").exists()

    @pytest.mark.parametrize("kind, message", [
        ("missing", "cannot read config {}: No such file or directory"),
        ("directory", "cannot read config {}: Is a directory"),
        ("not-utf8", "config {} is not UTF-8 text"),
    ])
    def test_unreadable_config_exit_two(self, tmp_path, capsys, kind, message):
        path = {"missing": tmp_path / "missing.cfg", "directory": tmp_path,
                "not-utf8": tmp_path / "latin1.cfg"}[kind]
        if kind == "not-utf8":
            path.write_bytes(b"label = caf\xe9\n")
        good = tmp_path / "good.cfg"
        good.write_text(MINI_TRAJ)
        for argv in (["run", str(path)], ["sweep", str(path), "--eps", "0.1"],
                     ["compare", str(good), str(path)]):
            rc = main(argv + ["--out", str(tmp_path / "r")])
            err = capsys.readouterr().err
            assert rc == 2, argv
            assert message.format(path) in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()

    def test_dirac_free_without_time_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "free.cfg"
        cfg_path.write_text("scenario = dirac-free\nm = 0.5\ndx = 0.1\nhalf_width = 4\n"
                            "t_final = 0\n")
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "dirac-free needs t_final > 0" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_kernel_lindblad_without_time_exit_two(self, tmp_path, capsys):
        # with nothing to decay, the coherence gate would grade round-off
        cfg_path = tmp_path / "kernel.cfg"
        cfg_path.write_text("scenario = kernel-lindblad\nkernel_channel = identity\n"
                            "kernel_rate = 1\nkernel_ell = 0.2\ndx = 0.05\nhalf_width = 2\n"
                            "t_final = 0\ninit = gaussian\n")
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "kernel-lindblad needs t_final > 0" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_module_entry_point(self, tmp_path):
        # python -m dlqw from a source checkout, with only src/ on the path
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "dlqw", "run", "preset:acceptance-walk",
             "--out", str(tmp_path / "r")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "result: PASS" in proc.stdout

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_numerical_failure_exit_one(self, tmp_path, capsys):
        # the packet's quadrature cannot converge at this mass
        cfg_path = tmp_path / "heavy.cfg"
        cfg_path.write_text("scenario = dirac-free\nm = 1e300\ndx = 0.1\nhalf_width = 4\n"
                            "t_final = 0.5\n")
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: numerical failure: quadrature did not converge" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("t_final, rc_want", [("1e20", 0), ("1e300", 1)])
    def test_non_finite_spectral_moments_fail_the_run(self, tmp_path, capsys, t_final,
                                                      rc_want):
        cfg_path = tmp_path / "huge.cfg"
        cfg_path.write_text("scenario = lindblad\nfast = spectral\nm = 1\np0 = 1\n"
                            "sigma = 0.5\ngamma2 = 0.5\ndx = 0.1\nhalf_width = 10\n"
                            f"n_snapshots = 6\nt_final = {t_final}\n")
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == rc_want
        if rc_want:
            # the snapshots are at 0, 2e299, ..., 1e300
            assert ("error: numerical failure: spectral moments: the second moment is not "
                    "finite at t = 2e+299") in err
        else:
            moments = np.loadtxt(tmp_path / "r" / "moments.csv", delimiter=",", skiprows=1)
            # mean_x, second_moment and trace; eta is nan without enough snapshots
            assert np.isfinite(moments[:, [1, 2, 4]]).all()

    def test_massless_group_velocity_of_a_tiny_momentum(self, tmp_path, capsys):
        # p0 * p0 underflows to 0
        cfg_path = tmp_path / "slow.cfg"
        cfg_path.write_text("scenario = lindblad\nfast = diagonal\nm = 0\ngamma2 = 0.5\n"
                            "dx = 0.25\nhalf_width = 4\nt_final = 0.5\np0 = 1e-300\n")
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "r")])
        assert rc == 0 and "Traceback" not in capsys.readouterr().err
        report = (tmp_path / "r" / "report.kv").read_text()
        assert "metric.vg_formula = 1\n" in report

    @pytest.mark.parametrize("p0", ["0", "0.5"])
    @pytest.mark.parametrize("sigma", ["1e-20", "1e-160", "1e-300"])
    def test_spectral_sigma_too_small_exit_two(self, tmp_path, capsys, sigma, p0):
        cfg_path = tmp_path / "narrow.cfg"
        cfg_path.write_text("scenario = lindblad\nfast = spectral\nm = 0.5\ngamma2 = 0.5\n"
                            "dx = 0.25\nhalf_width = 4\nt_final = 1\nn_snapshots = 3\n"
                            f"sigma = {sigma}\np0 = {p0}\n")
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if (sigma, p0) == ("1e-20", "0"):
            # the window 0 +- 12 sigma still holds distinct floats
            assert rc == 0
            return
        assert rc == 2
        assert f"error: sigma = {sigma} is too small" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("sigma", ["1e-12", "1e-8"])
    def test_narrow_spectral_packet_off_zero_momentum_runs(self, tmp_path, capsys, sigma):
        cfg_path = tmp_path / "narrow.cfg"
        cfg_path.write_text("scenario = lindblad\nfast = spectral\nm = 0.5\ngamma2 = 0.5\n"
                            "dx = 0.25\nhalf_width = 4\nt_final = 1\nn_snapshots = 3\n"
                            f"sigma = {sigma}\np0 = 0.5\n")
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "r")])
        assert rc == 0, capsys.readouterr().err

    def test_negative_seed_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "seed.cfg"
        cfg_path.write_text(MINI_TRAJ.replace("seed = 11", "seed = -1"))
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "seed must be >= 0" in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("seed", [2**32, 2**130 + 7])
    def test_multi_word_seed_runs(self, tmp_path, capsys, seed):
        cfg_path = tmp_path / "seed.cfg"
        cfg_path.write_text(MINI_TRAJ.replace("seed = 11", f"seed = {seed}"))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "r")]) == 0
        density = np.loadtxt(tmp_path / "r" / "density.csv", delimiter=",", skiprows=1)
        assert np.isfinite(density).all()

    def test_repeated_key_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "twice.cfg"
        cfg_path.write_text("scenario = trajectories\neps = 0.1\nn_traj = 3\nt_final = 1\n"
                            "n_traj = 5\nhalf_width = 8\nbogus = 1\n")
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "line 5: key 'n_traj' repeats line 3" in err
        assert "line 7: unknown key 'bogus'" in err
        assert not (tmp_path / "r").exists()

    @staticmethod
    def _full_grid(n: int) -> str:
        return f"scenario = lindblad\nfast = full\ndx = 1\nhalf_width = {n / 2}\nt_final = 1\n"

    def test_largest_full_grid(self, tmp_path, capsys):
        # 4096 sites is the largest (x, x') field within 1 GiB
        check_resources(parse_config(self._full_grid(4096)))
        cfg_path = tmp_path / "big.cfg"
        cfg_path.write_text(self._full_grid(4097))
        tracemalloc.start()
        try:
            rc = main(["run", str(cfg_path), "--out", str(tmp_path / "r")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert rc == 2
        assert ("a 4097-site (x, x') field needs 1074266176 B, above the limit of "
                "1073741824 B") in err
        assert peak < 2**20
        assert not (tmp_path / "r").exists()

    def test_trajectories_need_no_xx_field(self, tmp_path):
        # more than the 4096 sites of the largest (x, x') field
        cfg = parse_config(MINI_TRAJ.replace("n_traj = 64", "n_traj = 4")
                           .replace("t_final = 1\n", "t_final = 0.3\n") + "n = 5000\n")
        check_resources(cfg)
        assert run(cfg, str(tmp_path / "t")).passed

    def test_dirac_free_snapshot_amplitudes_are_counted(self):
        # 8e7 sites: the (2, 21, n) stack of the snapshots' amplitudes is 50 GiB
        cfg = parse_config("scenario = dirac-free\nm = 0.5\ndx = 1e-7\nhalf_width = 4\n"
                           "t_final = 0.5\n")
        with pytest.raises(ConfigError, match="the snapshot amplitudes need 50.1 GiB, above "
                                              "the limit of 1 GiB"):
            check_resources(cfg)

    def test_presets_are_within_the_resource_limits(self):
        for name in list_presets():
            check_resources(load_config(f"preset:{name}"))

    @pytest.mark.parametrize("extra, failing", [
        ("eta_target = 5\nn_snapshots = 7\n", ["eta_final"]),
        ("plateau_target = 99\nslope_target = 99\nn_snapshots = 7\n",
         ["x_plateau", "variance_slope"]),
    ], ids=["eta-window-too-wide", "plateau-slope-too-few-snapshots"])
    def test_declared_target_that_cannot_be_computed_fails(self, tmp_path, capsys, extra,
                                                           failing):
        cfg_path = tmp_path / "gates.cfg"
        cfg_path.write_text(SPECTRAL_LOG + extra)
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "r")])
        out = capsys.readouterr().out
        assert rc == 1
        for name in failing:
            assert f"[FAIL] {name}: value nan" in out

    def test_presets_listed(self, capsys):
        assert main(["presets"]) == 0
        assert "fig1-left" in capsys.readouterr().out

    def test_report_command(self, tmp_path, capsys):
        main(["run", "preset:acceptance-walk", "--out", str(tmp_path / "w")])
        capsys.readouterr()
        rc = main(["report", str(tmp_path / "w")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "integrity:" in out

    def test_report_command_finds_a_tampered_metric(self, tmp_path, capsys):
        run(load_config("preset:fig2-e"), str(tmp_path / "r"))
        kv = tmp_path / "r" / "report.kv"
        kv.write_text(re.sub(r"metric\.d_est = .*", "metric.d_est = 1.5", kv.read_text()))
        assert main(["report", str(tmp_path / "r")]) == 1
        out = capsys.readouterr().out
        assert "integrity: x_plateau reproduced from moments.csv\n" in out
        assert "integrity: d_est mismatch: csv 0." in out and " vs report 1.5\n" in out
        assert main(["report", str(tmp_path)]) == 1
        assert capsys.readouterr().out == f"integrity: {tmp_path}: no report.kv\n"
        main(["run", "preset:acceptance-walk", "--out", str(tmp_path / "w")])
        capsys.readouterr()
        assert main(["report", str(tmp_path / "w")]) == 0
        assert capsys.readouterr().out.endswith(
            "integrity: no recomputable metrics found (nothing to verify)\n")

    def test_report_shows_the_ensemble_threads(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(noise, "ensemble_threads", lambda t: 3)
        cfg_path = tmp_path / "traj.cfg"
        cfg_path.write_text(MINI_TRAJ.replace("n_traj = 64", "n_traj = 5"))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "t")]) == 0
        capsys.readouterr()
        assert "metric.ensemble_threads = 3\n" in (tmp_path / "t" / "report.kv").read_text()
        assert main(["report", str(tmp_path / "t")]) == 0
        assert "ensemble_threads" in capsys.readouterr().out

    @pytest.mark.parametrize("eps, message", [
        ("0,0.1", "eps_list values must be positive"),
        ("abc", "cannot parse eps_list = 'abc'"),
        ("nan", "cannot parse eps_list = 'nan'"),
        (",", "eps_list needs at least one value"),
    ], ids=["zero", "text", "nan", "empty"])
    def test_sweep_bad_eps_exit_two(self, tmp_path, capsys, eps, message):
        cfg_path = tmp_path / "mini.cfg"
        cfg_path.write_text("scenario = channel\neps = 0.1\nt_final = 0.5\nhalf_width = 8\n")
        rc = main(["sweep", str(cfg_path), "--eps", eps, "--out", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "s").exists()

    def test_sweep_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "mini.cfg"
        cfg_path.write_text(
            "scenario = channel\neps = 0.1\nt_final = 0.5\nm = 0.5\n"
            "pi2_rate = 0.25\np0 = 1\nsigma = 0.5\nhalf_width = 8\n"
        )
        rc = main(["sweep", str(cfg_path), "--eps", "0.25,0.1",
                   "--out", str(tmp_path / "s")])
        assert rc == 0
        assert (tmp_path / "s" / "sweep_summary.csv").exists()
        assert (tmp_path / "s" / "eps-0.25" / "report.kv").exists()

    def test_sweep_of_trajectories_exit_two(self, tmp_path, capsys):
        # sweep repeats the flip channel, so it would not run the ensemble asked for
        cfg_path = tmp_path / "traj.cfg"
        cfg_path.write_text(MINI_TRAJ)
        rc = main(["sweep", str(cfg_path), "--eps", "0.1,0.05", "--out", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "cannot run 'trajectories'" in err and "Traceback" not in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("text, command", [
        ("scenario = channel\neps = 0.1\nhalf_width = 4\n", ["run"]),
        ("scenario = trajectories\neps = 0.1\nhalf_width = 4\nn_traj = 4\n"
         "noise_delta = 0.5\n", ["run"]),
        ("scenario = lindblad\nm = 0.5\ndx = 0.1\nhalf_width = 4\n", ["run"]),
        ("scenario = lindblad\nfast = diagonal\ndx = 0.1\nhalf_width = 4\n", ["run"]),
        ("scenario = kernel-lindblad\nkernel_channel = identity\nkernel_rate = 1\n"
         "kernel_ell = 0.2\ndx = 0.1\nhalf_width = 2\n", ["run"]),
        ("scenario = telegraph\ngamma2 = 0.5\ndx = 0.1\nhalf_width = 4\n", ["run"]),
        ("scenario = fourier\ngamma2 = 0.5\ndx = 0.1\nhalf_width = 4\n", ["run"]),
        ("scenario = compare\nm = 0.5\neps_list = 0.05, 0.1\ndx = 0.05\nhalf_width = 4\n",
         ["run"]),
        ("scenario = compare\nm = 0.5\neps_list = 0.05\ndx = 0.1\nhalf_width = 4\n",
         ["run"]),
        ("scenario = channel\neps = 0.05\nhalf_width = 4\n", ["sweep", "--eps", "0.05,0.1"]),
    ], ids=["channel", "trajectories", "lindblad-full", "lindblad-diagonal",
            "kernel-lindblad", "telegraph", "fourier", "compare-lattice",
            "compare-reference", "sweep"])
    def test_t_final_off_the_step_exit_two(self, tmp_path, capsys, text, command):
        # 1.05 is 21 steps of 0.05 and 10.5 steps of 0.1
        cfg_path = tmp_path / "off.cfg"
        cfg_path.write_text(text + "t_final = 1.05\n")
        rc = main([command[0], str(cfg_path), *command[1:], "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "t_final = 1.05 is not a multiple of the step 0.1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()

    def test_overflowing_step_count_exit_two(self, tmp_path, capsys):
        # t_final / dx overflows to inf, which is no whole number of steps
        cfg_path = tmp_path / "huge.cfg"
        cfg_path.write_text("scenario = lindblad\nfast = diagonal\ndx = 1e-10\n"
                            "half_width = 1e-9\nt_final = 1e300\n")
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "is not a multiple of the step 1e-10" in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()

    def test_t_final_off_the_step_refused_by_run(self, tmp_path):
        cfg = parse_config("scenario = channel\neps = 0.1\nhalf_width = 4\nt_final = 1.05\n")
        with pytest.raises(ConfigurationError, match="not a multiple of the step 0.1"):
            run(cfg, str(tmp_path / "r"))
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("text", [
        "scenario = dirac-free\nm = 0.5\ndx = 0.1\nhalf_width = 4\n",
        "scenario = lindblad\nfast = spectral\nm = 0.5\ndx = 0.1\nhalf_width = 4\n",
    ], ids=["dirac-free", "spectral"])
    def test_t_final_off_the_step_without_steps_runs(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "free.cfg"
        cfg_path.write_text(text + "t_final = 1.05\n")
        # no step to fit: the run is not refused and writes its report
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "r")]) != 2
        assert (tmp_path / "r" / "report.kv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_telegraph_blow_up_exit_one(self, tmp_path, capsys, monkeypatch):
        # the trapezoid step is stable at every rate, so the source step doubles every component
        monkeypatch.setattr(pde, "_propagator_from_f", lambda f, dt: 2.0 * np.eye(4))
        cfg_path = tmp_path / "stiff.cfg"
        cfg_path.write_text("scenario = telegraph\ngamma2 = 300\ndx = 0.05\n"
                            "half_width = 1.6\nt_final = 4\n")
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: numerical failure: field blow-up at t=" in err

    @pytest.mark.parametrize("text, scenario", [
        ("scenario = walk\ntheta = 0.5\nn_steps = 10\n", "walk"),
        ("scenario = lindblad\nfast = spectral\nm = 0.5\ngamma2 = 0.5\ndx = 0.05\n"
         "half_width = 4\nt_final = 1\n", "lindblad"),
    ], ids=["walk", "lindblad"])
    def test_compare_without_a_density_exit_two(self, tmp_path, capsys, text, scenario):
        cfg_a = tmp_path / "a.cfg"
        cfg_a.write_text(MINI_TRAJ)
        cfg_b = tmp_path / "b.cfg"
        cfg_b.write_text(text)
        rc = main(["compare", str(cfg_a), str(cfg_b), "--out", str(tmp_path / "c")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"not '{scenario}'" in err and "Traceback" not in err
        assert not (tmp_path / "c").exists()

    def test_plot_missing_dir_exit_two(self, tmp_path, capsys):
        missing = tmp_path / "nothing"
        rc = main(["plot", str(missing)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{missing}: none of" in err and "run a scenario first" in err
        assert "Traceback" not in err
        assert not missing.exists()

    def test_compare_command(self, tmp_path, capsys):
        cfg_a = tmp_path / "a.cfg"
        cfg_a.write_text(
            "scenario = channel\neps = 0.1\nt_final = 1\nm = 0.5\n"
            "pi2_rate = 0.25\np0 = 1\nsigma = 0.5\nhalf_width = 8\n"
        )
        cfg_b = tmp_path / "b.cfg"
        cfg_b.write_text(MINI_TRAJ)
        rc = main(["compare", str(cfg_a), str(cfg_b), "--out", str(tmp_path / "c"),
                   "--tol", "0.5"])
        assert rc == 0
        assert "L1 distance" in capsys.readouterr().out
