import numpy as np
import pytest

from dlqw.cli import main
from dlqw.config import ConfigError, list_presets, load_config, parse_config
from dlqw.runner import emit_plot_script, run, verify_report
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


class TestParseConfig:
    def test_minimal_walk_defaults(self):
        cfg = parse_config("scenario = walk\ntheta = 0.5\nn_steps = 100\n")
        assert cfg.scenario == "walk"
        assert cfg.seed == 0
        assert cfg.alpha == 0.5
        assert cfg.formats == "csv"

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

    def test_dt_must_equal_dx_for_pde(self):
        text = ("scenario = telegraph\ngamma2 = 0.5\ndx = 0.01\ndt = 0.02\n"
                "t_final = 1\nhalf_width = 4\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("dt = dx" in e for e in err.value.errors)

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

    @pytest.mark.parametrize("name", ["acceptance-equivalence-channel",
                                      "acceptance-equivalence-trajectories"])
    def test_equivalence_presets_pass_their_gates(self, tmp_path, name):
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

    @pytest.mark.filterwarnings("ignore:m = 0")
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

    def test_emit_plot_script_writes_file(self, tmp_path):
        cfg = load_config("preset:fig2-e")
        run(cfg, str(tmp_path / "r"))
        path = emit_plot_script(str(tmp_path / "r"), "mean")
        text = open(path).read()
        assert "moments.csv" in text
        assert "matplotlib" in text


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

    def test_sweep_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "mini.cfg"
        cfg_path.write_text(
            "scenario = channel\neps = 0.1\nt_final = 0.5\nm = 0.5\n"
            "pi2_rate = 0.25\np0 = 1\nsigma = 0.5\nhalf_width = 8\n"
        )
        rc = main(["sweep", str(cfg_path), "--eps", "0.2,0.1",
                   "--out", str(tmp_path / "s")])
        assert rc == 0
        assert (tmp_path / "s" / "sweep_summary.csv").exists()
        assert (tmp_path / "s" / "eps-0.2" / "report.kv").exists()

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
