"""Scenario configuration: flat key = value files with '#' comments.

Every runnable scenario is described by a small text file; unknown keys,
missing required keys, and inconsistent numerics are all reported together
rather than one at a time.  Shipped presets live in ``dlqw/presets`` and can
be addressed by name (e.g. ``preset:fig1-left``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from importlib import resources

from .noise import NOISE_KINDS, PARAM_NAMES
from .walk import ConfigurationError


class ConfigError(ConfigurationError):
    """Invalid configuration; carries the full list of problems found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class ScenarioConfig:
    scenario: str = ""
    label: str = ""
    output_dir: str = ""
    formats: str = "csv"
    seed: int = 0

    # physics
    m: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    p0: float = 1.0
    sigma: float = 0.5
    theta: float = 0.0
    pi1_rate: float = 0.0
    pi2_rate: float = 0.0
    noise_param: str = "theta"
    noise_kind: str = "gaussian"
    noise_delta: float = 0.0
    kernel_channel: str = ""
    kernel_rate: float = 0.0
    kernel_ell: float = 0.0

    # numerics
    n: int = 0
    dx: float = 0.0
    eps: float = 0.0
    eps_list: tuple[float, ...] = ()
    t_final: float = 0.0
    n_steps: int = 0
    n_traj: int = 0
    n_snapshots: int = 21
    half_width: float = 0.0
    init: str = "packet"
    init_width: float = 0.0
    fast: str = "full"
    snapshot_spacing: str = "uniform"

    # declared targets and tolerances (gates are active when a target is set)
    tol: float = 0.0
    tol_trace: float = 1e-6
    tol_edge: float = 1e-8
    vg_target: float = 0.0
    tol_vg: float = 0.01
    plateau_target: float = 0.0
    tol_plateau: float = 0.1
    eta_target: float = 0.0
    tol_eta: float = 0.05
    slope_target: float = 0.0
    tol_slope: float = 0.1

    def metadata(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v != f.default:
                out[f.name] = v
        out["scenario"] = self.scenario
        return out


_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}

_REQUIRED = {
    "walk": ("theta",),
    "channel": ("eps", "t_final"),
    "trajectories": ("eps", "t_final", "n_traj", "noise_delta"),
    "lindblad": ("dx", "t_final", "half_width"),
    "kernel-lindblad": ("dx", "t_final", "half_width", "kernel_channel", "kernel_rate", "kernel_ell"),
    "telegraph": ("dx", "t_final", "half_width", "gamma2"),
    "fourier": ("dx", "t_final", "half_width", "gamma2"),
    "dirac-free": ("dx", "t_final", "half_width", "m"),
    "compare": ("eps_list", "t_final", "half_width", "dx"),
    "sweep": ("eps_list",),
}

VALID_SCENARIOS = tuple(_REQUIRED)

_NONNEGATIVE_RATES = ("gamma1", "gamma2", "pi1_rate", "pi2_rate", "kernel_rate", "noise_delta")


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


def _convert(key: str, raw: str):
    target = _FIELD_TYPES[key]
    if key == "eps_list" or "tuple" in str(target):
        return tuple(_finite(v) for v in raw.replace(",", " ").split())
    if target in ("int", int):
        return int(raw)
    if target in ("float", float):
        return _finite(raw)
    return raw


def _eps_list_errors(eps_list: tuple[float, ...]) -> list[str]:
    if not eps_list:
        return ["eps_list needs at least one value"]
    return ["eps_list values must be positive"] if any(eps <= 0 for eps in eps_list) else []


def parse_eps_list(raw: str) -> tuple[float, ...]:
    """A comma- or space-separated eps list, checked as ``parse_config`` checks ``eps_list``."""
    try:
        eps_list = _convert("eps_list", raw)
    except ValueError:
        raise ConfigError([f"cannot parse eps_list = {raw!r}"]) from None
    errors = _eps_list_errors(eps_list)
    if errors:
        raise ConfigError(errors)
    return eps_list


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a config; raises ConfigError listing every problem."""
    errors: list[str] = []
    values: dict[str, object] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            errors.append(f"line {lineno}: expected 'key = value', got {body!r}")
            continue
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _FIELD_TYPES:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in first_line:
            errors.append(f"line {lineno}: key {key!r} repeats line {first_line[key]}")
            continue
        first_line[key] = lineno
        try:
            values[key] = _convert(key, raw)
        except ValueError:
            errors.append(f"line {lineno}: cannot parse {key} = {raw!r}")

    scenario = values.get("scenario", "")
    if not scenario:
        errors.append("missing required key 'scenario'")
    elif scenario not in VALID_SCENARIOS:
        errors.append(f"unknown scenario {scenario!r} (valid: {', '.join(VALID_SCENARIOS)})")
    else:
        for key in _REQUIRED[scenario]:
            if key not in values:
                errors.append(f"scenario {scenario}: missing required key {key!r}")

    for key in _NONNEGATIVE_RATES:
        if key in values and values[key] < 0:
            errors.append(f"{key}: rate must be non-negative")
    if values.get("sigma", 1.0) <= 0:
        errors.append("sigma must be positive")
    if values.get("n_traj", 1) < 1:
        errors.append("n_traj must be >= 1")
    if values.get("seed", 0) < 0:
        errors.append("seed must be >= 0")
    if "eps" in values and values["eps"] <= 0:
        errors.append("eps must be positive")
    if "dx" in values and values["dx"] <= 0:
        errors.append("dx must be positive")
    if "eps_list" in values:
        errors += _eps_list_errors(values["eps_list"])
    fast = values.get("fast", "full")
    if fast not in ("full", "diagonal", "spectral"):
        errors.append(f"fast must be one of full/diagonal/spectral, got {fast!r}")
    elif scenario == "lindblad" and ("m" in values or "m" not in first_line):
        # an m that did not parse is reported above, not compared with fast
        m = values.get("m", 0.0)
        if fast == "spectral" and m == 0:
            errors.append("fast = spectral requires m != 0; use fast = diagonal")
        if fast == "diagonal" and m != 0:
            errors.append("fast = diagonal requires m = 0")
    if scenario in ("telegraph", "fourier") and values.get("m", 0.0) != 0:
        # both run the massless telegraph limit of the paper; a mass would go unused
        errors.append(f"{scenario} runs at m = 0, the telegraph limit; remove m or set m = 0")
    init = values.get("init", "packet")
    if init not in ("packet", "delta", "gaussian"):
        errors.append(f"init must be one of packet/delta/gaussian, got {init!r}")
    elif scenario == "kernel-lindblad" and init == "delta":
        errors.append("kernel-lindblad has no delta start; use init = packet or gaussian")
    if scenario == "kernel-lindblad" and values.get("kernel_ell", 1.0) <= 0:
        errors.append("kernel_ell must be positive")
    if values.get("kernel_channel", "identity") not in ("identity", "phase-flip", "coin-flip"):
        errors.append(f"unknown kernel_channel {values.get('kernel_channel')!r}")
    for key, valid in (("noise_param", PARAM_NAMES), ("noise_kind", NOISE_KINDS)):
        if values.get(key, valid[0]) not in valid:
            errors.append(f"{key} must be one of {'/'.join(valid)}, got {values[key]!r}")
    if values.get("snapshot_spacing", "uniform") not in ("uniform", "log"):
        errors.append("snapshot_spacing must be 'uniform' or 'log'")
    if values.get("t_final", 0.0) < 0:
        errors.append("t_final must be >= 0")
    elif scenario == "dirac-free" and values.get("t_final") == 0:
        errors.append("dirac-free needs t_final > 0 to measure a velocity")
    elif scenario == "kernel-lindblad" and values.get("t_final") == 0:
        errors.append("kernel-lindblad needs t_final > 0 for its coherence to decay")
    elif values.get("t_final", 0.0) == 0 and values.get("snapshot_spacing") == "log":
        errors.append("snapshot_spacing = log requires t_final > 0")
    if values.get("n_snapshots", 2) < 2:
        errors.append("n_snapshots must be >= 2")

    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(**values)


def load_config(source: str) -> ScenarioConfig:
    """Load a config from a path or from ``preset:<name>``."""
    if source.startswith("preset:"):
        return parse_config(preset_text(source.split(":", 1)[1]))
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError([f"cannot read config {source}: {exc.strerror}"]) from None
    except UnicodeDecodeError:
        raise ConfigError([f"config {source} is not UTF-8 text"]) from None
    return parse_config(text)


def preset_text(name: str) -> str:
    ref = resources.files("dlqw.presets").joinpath(f"{name}.cfg")
    if not ref.is_file():
        raise ConfigurationError(f"no preset named {name!r}; see dlqw.config.list_presets()")
    return ref.read_text(encoding="utf-8")


def list_presets() -> list[str]:
    return sorted(
        p.name[:-4]
        for p in resources.files("dlqw.presets").iterdir()
        if p.name.endswith(".cfg")
    )


def default_output_root() -> str:
    return os.environ.get("DLQW_OUTPUT_ROOT", "dlqw-out")
