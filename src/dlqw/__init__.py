"""Noisy discrete-time quantum walks and their Dirac-Lindblad continuum limit.

Modules:
  walk        unitary walk, coin algebra, lattice/state types
  noise       flip channels and random coin unitaries
  pde         Strang-split continuum solver in Pauli components
  momentum    the band of (k, k') Fourier modes that pde and noise step in
  analytic    closed-form oracles and momentum-space propagation
  observables moments, exponents, regime times, diffusion fits
  config/runner/cli  scenario files, execution, reports
"""

from .analytic import (
    DiracWavepacket,
    InitialData1D,
    TelegraphParams,
    bessel_i,
    build_packet,
    expm_stack,
    fourier_propagate,
    group_velocity,
    limit_position,
    spectral_moments,
    telegraph_on_grid,
    telegraph_solution,
)
from .config import ScenarioConfig, list_presets, load_config, parse_config
from .noise import (
    ChannelRates,
    DensityGrid,
    NoiseSpec,
    ParamNoise,
    channel_run,
    channel_step,
    run_ensemble,
    sample_coin_offsets,
    trajectory_step,
)
from .observables import (
    DiagonalFields,
    MomentSeries,
    continuity_residual,
    diffusion_fit,
    exponent_series,
    moment_series,
    moments,
    regime_times,
)
from .pde import (
    GeneratorParams,
    KernelChannel,
    KernelSet,
    PauliField,
    diagonal_evolve,
    evolve,
    pauli_from_density,
    pauli_from_wave_state,
    v_inverse,
    v_transform,
)
from .runner import RunReport, emit_plot_script, run, verify_report
from .walk import (
    AngleField,
    BatchedWalk,
    LatticeGrid,
    WaveState,
    asymptotic_spread,
    walk_step,
)

__version__ = "0.1.0"
