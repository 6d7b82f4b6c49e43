"""Command-line interface: run scenarios, sweeps, comparisons, and reports."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .config import ConfigError, list_presets, load_config, parse_eps_list
from .observables import l1_density_distance
from .runner import emit_plot_script, run, verify_report
from .walk import ConfigurationError


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    report = run(cfg, args.out)
    print(report.human_summary(), end="")
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    eps_list = parse_eps_list(args.eps)
    if cfg.scenario not in ("channel", "trajectories", "sweep"):
        raise ConfigurationError(
            f"sweep applies to lattice scenarios, not {cfg.scenario!r}"
        )
    cfg = replace(cfg, scenario="sweep", eps_list=eps_list)
    report = run(cfg, args.out)
    print(report.human_summary(), end="")
    return 0 if report.passed else 1


# the scenarios that write the density.csv compare reads
_DENSITY_SCENARIOS = ("channel", "trajectories", "dirac-free")


def _cmd_compare(args) -> int:
    cfg_a, cfg_b = load_config(args.config_a), load_config(args.config_b)
    for cfg in (cfg_a, cfg_b):
        if cfg.scenario not in _DENSITY_SCENARIOS:
            raise ConfigurationError(
                f"compare needs a final density, which only {', '.join(_DENSITY_SCENARIOS)} "
                f"runs write, not {cfg.scenario!r}"
            )
    out = args.out or "dlqw-compare"
    report_a = run(cfg_a, os.path.join(out, "a"))
    report_b = run(cfg_b, os.path.join(out, "b"))
    da = np.loadtxt(os.path.join(report_a.output_dir, "density.csv"),
                    delimiter=",", skiprows=1)
    db = np.loadtxt(os.path.join(report_b.output_dir, "density.csv"),
                    delimiter=",", skiprows=1)
    dens_b = np.interp(da[:, 0], db[:, 0], db[:, 1])
    dx = da[1, 0] - da[0, 0]
    l1 = l1_density_distance(da[:, 1], dens_b, dx)
    print(f"L1 distance of final densities: {l1:.6g}")
    ok = report_a.passed and report_b.passed
    if args.tol is not None:
        ok = ok and l1 <= args.tol
        print(f"tolerance {args.tol:g}: {'PASS' if l1 <= args.tol else 'FAIL'}")
    return 0 if ok else 1


def _cmd_report(args) -> int:
    txt = os.path.join(args.dir, "report.txt")
    if os.path.exists(txt):
        with open(txt, "r", encoding="utf-8") as fh:
            print(fh.read(), end="")
    ok, messages = verify_report(args.dir)
    for msg in messages:
        print(f"integrity: {msg}")
    return 0 if ok else 1


def _cmd_plot(args) -> int:
    path = emit_plot_script(args.dir, args.kind)
    print(f"wrote {path}")
    return 0


def _cmd_presets(_args) -> int:
    for name in list_presets():
        print(name)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dlqw",
        description="Noisy quantum walks, their continuum Lindblad limit, and "
                    "relativistic-diffusion diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config (path or preset:<name>)")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a lattice scenario over a list of eps")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--eps", required=True, help="comma-separated eps values")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = sub.add_parser("compare", help="run two configs and report the L1 distance")
    p_cmp.add_argument("config_a")
    p_cmp.add_argument("config_b")
    p_cmp.add_argument("--out", default=None)
    p_cmp.add_argument("--tol", type=float, default=None)
    p_cmp.set_defaults(func=_cmd_compare)

    p_rep = sub.add_parser("report", help="print a run report and verify its integrity")
    p_rep.add_argument("dir")
    p_rep.set_defaults(func=_cmd_report)

    p_plot = sub.add_parser("plot", help="emit a standalone plot script for a run")
    p_plot.add_argument("dir")
    p_plot.add_argument("--kind", choices=("density", "mean", "exponent"),
                        default="density")
    p_plot.set_defaults(func=_cmd_plot)

    p_pre = sub.add_parser("presets", help="list shipped presets")
    p_pre.set_defaults(func=_cmd_presets)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
