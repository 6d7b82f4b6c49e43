"""Tests of the benchmark itself: inputs, checks, tracer and result contract.

    python3 -m pytest -q benchmarks/tests
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import harness
import workloads
from dlqw import analytic, config, noise, observables, pde, runner, walk
from tracer import Target, Tracer, resolve

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
# fields that must not depend on the seed, so timings compare across seeds
FIXED = ("scenario", "fast", "n", "dx", "eps", "half_width", "t_final", "n_steps",
         "n_traj", "n_snapshots", "snapshot_spacing", "init", "noise_kind", "noise_param",
         "kernel_channel")


def _runs(workload, seed, names):
    return [(n, t) for n, t in workloads.generate(workload, seed) if n in names]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_generation_is_deterministic_per_seed(workload):
    first = workloads.generate(workload, 5)
    assert first == workloads.generate(workload, 5)
    assert first != workloads.generate(workload, 6)
    for (name_a, a), (name_b, b) in zip(first, workloads.generate(workload, 6)):
        assert name_a == name_b
        cfg_a, cfg_b = config.parse_config(a), config.parse_config(b)
        for key in FIXED:
            assert getattr(cfg_a, key) == getattr(cfg_b, key), (name_a, key)


def test_benchmark_json_lists_the_emitted_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    units = harness.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert spec["paths"] == ["benchmarks"]


def test_traced_and_untraced_runs_write_identical_csvs(tmp_path):
    generated = _runs("spectral-sweep", 2, ("fig2-e", "telegraph", "walk"))
    generated += [(n, t.replace("n_traj = 3000", "n_traj = 64"))
                  for n, t in _runs("grid-noise", 2, ("trajectories",))]
    bench = harness.Workload(generated, tmp_path)
    plain = bench.repeat()
    with Tracer(harness.LAYERS, memory=True) as memory:
        bench.repeat()
    with Tracer(harness.LAYERS) as tracer:
        traced = bench.repeat()
    assert bench.failed == 0 and bench.attempted == 3 * len(generated)
    assert [r.digest for r in plain.runs] == [r.digest for r in traced.runs]
    layers = harness.layer_values(tracer.stats, memory.stats)
    assert set(layers) | {"runner.bytes_written", "process.cpu_s",
                          "process.trace_overhead_s"} == set(harness.per_layer_units())
    assert layers["walk.walk_step.calls"] == 500
    assert layers["noise.run_ensemble.calls"] == 1
    assert layers["noise.run_ensemble.peak_mb"] > 0
    assert layers["config.parse_config.calls"] == len(generated)
    assert traced.bytes_written > 0


def test_no_wrapper_survives_the_traced_run(tmp_path):
    sites = [resolve(module, path) for target in harness.LAYERS
             for module, path in target.sites]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in sites]
    with Tracer(harness.LAYERS):
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in originals)
        harness.Workload(_runs("spectral-sweep", 0, ("walk",)), tmp_path).repeat()
    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn
    for owner in (walk, noise, pde, analytic, observables, config, runner,
                  runner.RunReport, pde.KernelSourceOperator):
        assert not any(getattr(v, "bench_traced", False) for v in vars(owner).values())


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("bench_fake")
    monkeypatch.setitem(sys.modules, "bench_fake", module)
    return module


def test_tracer_refuses_classes_and_restores_on_error(fake_module):
    fake_module.klass = noise.DensityGrid
    fake_module.f = original_f = lambda: 1
    targets = [Target("f", (("bench_fake", "f"),)), Target("klass", (("bench_fake", "klass"),))]
    with pytest.raises(TypeError):
        with Tracer(targets):
            pass
    assert fake_module.f is original_f and fake_module.klass is noise.DensityGrid


def test_missing_site_is_left_untraced(capsys):
    with Tracer([Target("pde.gone", (("dlqw.pde", "no_such_function"),))]) as tr:
        pass
    assert tr.stats["pde.gone"].calls == 0
    assert "not found" in capsys.readouterr().err


def test_self_time_excludes_traced_children(fake_module):
    fake_module.inner = lambda: time.sleep(0.02)

    def outer():
        fake_module.inner()
        fake_module.inner()
        time.sleep(0.01)

    fake_module.outer = outer
    targets = [Target("outer", (("bench_fake", "outer"),)),
               Target("inner", (("bench_fake", "inner"),))]
    with Tracer(targets) as tr:
        fake_module.outer()
    outer_s, inner_s = tr.stats["outer"], tr.stats["inner"]
    assert (outer_s.calls, inner_s.calls) == (1, 2)
    assert inner_s.s >= 0.04 and outer_s.s >= outer_s.self_s >= 0.01
    assert abs(outer_s.self_s - (outer_s.s - inner_s.s)) < 1e-9


def test_forced_gate_failure_counts_in_fail_frac(tmp_path):
    (name, text), = _runs("spectral-sweep", 0, ("fig2-e",))
    wrong = "".join("plateau_target = 10.0\n" if line.startswith("plateau_target")
                    else line + "\n" for line in text.splitlines())
    (_, walk_text), = _runs("spectral-sweep", 0, ("walk",))
    bench = harness.Workload([(name, wrong), ("walk", walk_text)], tmp_path)
    bench.repeat()
    assert (bench.failed, bench.attempted) == (1, 2)


def test_reference_mismatch_counts_as_failure(tmp_path):
    generated = _runs("spectral-sweep", 0, ("fig2-e",))
    ref = harness.reference_arrays(generated, tmp_path / "ref")
    assert harness.Workload(generated, tmp_path / "a", ref).repeat().runs[0].failure == ""
    bumped = {k: v * (1 + 1e-6) for k, v in ref.items()}
    bench = harness.Workload(generated, tmp_path / "b", bumped)
    bench.repeat()
    bench.repeat()
    assert (bench.failed, bench.attempted) == (2, 2)


def test_default_seed_references_exist_for_every_workload():
    for workload in workloads.WORKLOADS:
        with np.load(harness.reference_path(workload)) as data:
            names = {key.split("/")[0] for key in data.files}
        assert names == {n for n, _ in workloads.generate(workload, workloads.DEFAULT_SEED)}


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "spectral-sweep",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
