"""Noisy lattice walks: flip channels, random coin unitaries, smooth noise fields.

Two noise models act on the walk of :mod:`dlqw.walk`:

* a channel model on density operators, where each step applies the walk
  unitary with probability 1 - pi1 - pi2, a coin-dependent phase flip
  (sigma^3) with probability pi1, and a coin flip (sigma^1) with probability
  pi2, the per-step probabilities being ``eps`` times the configured rates;

* a random-unitaries model, where each step draws zero-mean offsets for the
  coin angles, scaled by sqrt(eps), and applies the resulting unitary; the
  ensemble average over trajectories estimates the Kraus integral.

With matched rates (pi-rate == delta**2 per channel) the two models share one
continuum limit, which is what the cross-model tests exercise.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product
from typing import Callable

import numpy as np

from .walk import (
    AngleField,
    ConfigurationError,
    LatticeGrid,
    SIGMA,
    WaveState,
    apply_coin_field,
    coin_matrices,
    mix_components,
    roll_components,
    shift_apply,
    step_coins,
)

PARAM_NAMES = ("xi0", "xi1", "theta", "chi")
NOISE_KINDS = ("gaussian", "uniform", "two-point")


@dataclass
class DensityGrid:
    """Lattice density operator stored as 2x2 coin blocks over (x, x').

    ``blocks`` has shape (2, 2, n, n); ``blocks[u, v, i, j]`` is
    <x_i, u| rho |x_j, v>.  Site probabilities live on the block diagonal.
    """

    blocks: np.ndarray
    grid: LatticeGrid

    def __post_init__(self):
        self.blocks = np.asarray(self.blocks, dtype=complex)
        n = self.grid.n_sites
        if self.blocks.shape != (2, 2, n, n):
            raise ConfigurationError(
                f"blocks shape {self.blocks.shape} != (2, 2, {n}, {n})"
            )

    @classmethod
    def from_wave_state(cls, state: WaveState) -> "DensityGrid":
        blocks = np.einsum("ux,vy->uvxy", state.amplitudes, state.amplitudes.conj())
        return cls(blocks, state.grid)

    @classmethod
    def pure_site(cls, grid: LatticeGrid, coin=(1.0, 0.0), site: int | None = None) -> "DensityGrid":
        return cls.from_wave_state(WaveState.delta(grid, coin=coin, site=site))

    def trace(self) -> float:
        return float(np.trace(self.blocks[0, 0]).real + np.trace(self.blocks[1, 1]).real)

    def site_probabilities(self) -> np.ndarray:
        """Per-site occupation probabilities (coin-traced block diagonal)."""
        return (np.diagonal(self.blocks[0, 0]) + np.diagonal(self.blocks[1, 1])).real

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.blocks - self.blocks.conj().transpose(1, 0, 3, 2)).max())

    def purity(self) -> float:
        return float(np.sum(np.abs(self.blocks) ** 2))

    def dense(self) -> np.ndarray:
        """Full (2n x 2n) matrix in the |u, x> basis (u major); small grids only."""
        n = self.grid.n_sites
        return self.blocks.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the dense operator; diagnostic for n <= 64."""
        if self.grid.n_sites > 64:
            raise ConfigurationError("dense positivity check limited to n_sites <= 64")
        return float(np.linalg.eigvalsh(self.dense()).min())

    def edge_mass(self) -> float:
        p = self.site_probabilities()
        return float(p[0] + p[-1])

    def copy(self) -> "DensityGrid":
        return DensityGrid(self.blocks.copy(), self.grid)


@dataclass(frozen=True)
class ChannelRates:
    """Phase-flip / coin-flip probabilities per unit time."""

    pi1_rate: float = 0.0
    pi2_rate: float = 0.0

    def __post_init__(self):
        if self.pi1_rate < 0 or self.pi2_rate < 0:
            raise ConfigurationError("rate must be non-negative")

    def step_probabilities(self, eps: float) -> tuple[float, float]:
        p1, p2 = eps * self.pi1_rate, eps * self.pi2_rate
        if p1 + p2 >= 1.0:
            raise ConfigurationError(
                f"eps*(pi1+pi2) = {p1 + p2:.3g} >= 1; reduce eps or the rates"
            )
        return p1, p2


@dataclass(frozen=True)
class ParamNoise:
    """Zero-mean distribution for one coin angle's unscaled offset."""

    kind: str = "gaussian"
    delta: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigurationError(f"unknown noise kind {self.kind!r}")
        if self.delta < 0:
            raise ConfigurationError("noise standard deviation must be non-negative")


@dataclass(frozen=True)
class NoiseSpec:
    """Independent per-angle noise distributions (index order xi0, xi1, theta, chi)."""

    xi0: ParamNoise = ParamNoise()
    xi1: ParamNoise = ParamNoise()
    theta: ParamNoise = ParamNoise()
    chi: ParamNoise = ParamNoise()

    @property
    def entries(self) -> tuple[ParamNoise, ...]:
        return (self.xi0, self.xi1, self.theta, self.chi)

    @classmethod
    def single(cls, param: str, kind: str, delta: float) -> "NoiseSpec":
        if param not in PARAM_NAMES:
            raise ConfigurationError(f"unknown coin parameter {param!r}")
        return cls(**{param: ParamNoise(kind, delta)})


def rng_for_trajectory(seed: int, trajectory: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, trajectory id)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(trajectory,)))
    )


def _draw_unscaled(entry: ParamNoise, rng: np.random.Generator, size=None) -> np.ndarray:
    if entry.delta == 0.0:
        return np.zeros(size if size is not None else ())
    return _draw(entry.kind, entry.delta, rng, size)


def _draw(kind: str, delta, rng: np.random.Generator, size) -> np.ndarray:
    """Draws of one noise kind; ``delta`` broadcasts against the trailing axis of ``size``."""
    if kind == "gaussian":
        return rng.normal(0.0, delta, size=size)
    if kind == "uniform":
        half = np.sqrt(3.0) * delta
        return rng.uniform(-half, half, size=size)
    # two-point: +-delta with equal probability
    return delta * (2 * rng.integers(0, 2, size=size) - 1).astype(float)


def sample_coin_offsets(spec: NoiseSpec, eps: float, rng: np.random.Generator) -> np.ndarray:
    """Draw one step's angle offsets omega^l = sqrt(eps) * omega_tilde^l."""
    root = np.sqrt(eps)
    return np.array([root * _draw_unscaled(e, rng) for e in spec.entries])


def trajectory_offsets(spec: NoiseSpec, eps: float, rng: np.random.Generator,
                       n_steps: int) -> np.ndarray:
    """Offsets of ``n_steps`` steps, shape (n_steps, 4): the stream of
    ``n_steps`` calls of :func:`sample_coin_offsets`, value for value.

    The scalar loop draws step by step, each step in angle order.  When every
    active angle has one kind, a single draw of shape (n_steps, n_active)
    takes the same values from the generator in the same order.
    """
    active = [l for l, e in enumerate(spec.entries) if e.delta != 0.0]
    kinds = {spec.entries[l].kind for l in active}
    if len(kinds) > 1:
        return np.array([sample_coin_offsets(spec, eps, rng) for _ in range(n_steps)])
    out = np.zeros((n_steps, 4))
    if active:
        deltas = np.array([spec.entries[l].delta for l in active])
        out[:, active] = np.sqrt(eps) * _draw(kinds.pop(), deltas, rng,
                                              (n_steps, len(active)))
    return out


def trajectory_step(state: WaveState, field: AngleField, offsets, t: float) -> WaveState:
    """One random-unitary step: walk with angles eps*barred + offsets.

    ``offsets`` is a length-4 sequence (scalars, or per-site arrays for
    spatially smooth noise), already scaled by sqrt(eps).
    """
    coins = step_coins(field, t, state.grid, offsets=tuple(offsets))
    return apply_coin_field(shift_apply(state), coins)


@dataclass
class TrajectoryEnsemble:
    """Accumulator of pure-state trajectories into a density estimate."""

    grid: LatticeGrid
    n_traj: int
    seed: int
    sum_blocks: np.ndarray | None = None
    sum_prob: np.ndarray = dc_field(default_factory=lambda: np.zeros(0))
    sum_prob2: np.ndarray = dc_field(default_factory=lambda: np.zeros(0))
    count: int = 0

    def __post_init__(self):
        n = self.grid.n_sites
        if self.sum_blocks is None:
            self.sum_blocks = np.zeros((2, 2, n, n), dtype=complex)
        if self.sum_prob.size == 0:
            self.sum_prob = np.zeros(n)
            self.sum_prob2 = np.zeros(n)

    def add(self, state: WaveState) -> None:
        self.sum_blocks += np.einsum("ux,vy->uvxy", state.amplitudes, state.amplitudes.conj())
        p = state.probabilities()
        self.sum_prob += p
        self.sum_prob2 += p * p
        self.count += 1

    def density(self) -> DensityGrid:
        if self.count == 0:
            raise ConfigurationError("no trajectories accumulated")
        return DensityGrid(self.sum_blocks / self.count, self.grid)

    def probability_mean(self) -> np.ndarray:
        return self.sum_prob / self.count

    def probability_se(self) -> np.ndarray:
        """Per-site standard error of the Monte-Carlo mean."""
        m = self.probability_mean()
        var = np.maximum(self.sum_prob2 / self.count - m * m, 0.0)
        return np.sqrt(var / self.count)


def run_ensemble(
    field: AngleField,
    spec: NoiseSpec,
    init: WaveState,
    n_steps: int,
    n_traj: int,
    seed: int,
    accumulate_blocks: bool = True,
    batch: int = 4096,
) -> TrajectoryEnsemble:
    """Evolve ``n_traj`` independently noised trajectories and accumulate them.

    Each trajectory k draws the offsets of all its steps from
    :func:`rng_for_trajectory` (seed, k) with :func:`trajectory_offsets`, so
    the result is reproducible regardless of batching or execution order.
    The batched path requires spatially constant barred angles; per-site
    fields fall back to a per-trajectory loop.
    """
    if n_traj < 1:
        raise ConfigurationError("n_traj must be >= 1")
    grid = init.grid
    eps = grid.time_step
    ens = TrajectoryEnsemble(grid=grid, n_traj=n_traj, seed=seed)

    if not field.is_constant:
        for k in range(n_traj):
            offsets = trajectory_offsets(spec, eps, rng_for_trajectory(seed, k), n_steps)
            s = init.copy()
            for j in range(n_steps):
                s = trajectory_step(s, field, offsets[j], t=j * eps)
            ens.add(s)
        return ens

    base = eps * np.array(field.rates, dtype=float)
    for start in range(0, n_traj, batch):
        ids = range(start, min(start + batch, n_traj))
        t_count = len(ids)
        # offsets[j, k, l]: step j, trajectory k, angle l -- one stream per trajectory
        offsets = np.empty((n_steps, t_count, 4))
        for kk, k in enumerate(ids):
            offsets[:, kk] = trajectory_offsets(spec, eps, rng_for_trajectory(seed, k), n_steps)
        amps = np.broadcast_to(init.amplitudes, (t_count, 2, grid.n_sites)).copy()
        for j in range(n_steps):
            amps[:, 0, :] = np.roll(amps[:, 0, :], -1, axis=1)
            amps[:, 1, :] = np.roll(amps[:, 1, :], +1, axis=1)
            ang = base[None, :] + offsets[j]
            coins = coin_matrices(ang[:, 0], ang[:, 1], ang[:, 2], ang[:, 3])
            amps = np.einsum("tab,tbx->tax", coins, amps)
        if accumulate_blocks:
            ens.sum_blocks += np.einsum("tux,tvy->uvxy", amps, amps.conj())
        p = np.sum(np.abs(amps) ** 2, axis=1).real
        ens.sum_prob += p.sum(axis=0)
        ens.sum_prob2 += (p * p).sum(axis=0)
        ens.count += t_count
    return ens


def ensemble_density(
    field: AngleField,
    spec: NoiseSpec,
    init: WaveState,
    n_steps: int,
    n_traj: int,
    seed: int,
) -> DensityGrid:
    """Monte-Carlo estimate of the Kraus-averaged density after n_steps."""
    return run_ensemble(field, spec, init, n_steps, n_traj, seed).density()


# Coin-conditioned shift of the block grid, per block (u, v) = k // 2, k % 2:
# coin component 0 moves left and 1 moves right, on both sides of rho.
BLOCK_SHIFTS = ((-1, -1), (-1, 1), (1, -1), (1, 1))
# sigma^3 rho sigma^3 and sigma^1 rho sigma^1 as mixes of the four blocks
_PHASE_FLIP = np.kron(SIGMA[3], SIGMA[3]).real
_COIN_FLIP = np.kron(SIGMA[1], SIGMA[1]).real


def _coin_conjugate(blocks: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Blocks of M rho M^dag for one 2x2 coin M at every site."""
    n = blocks.shape[-1]
    return mix_components(np.kron(m, m.conj()), blocks.reshape(4, n, n)).reshape(blocks.shape)


def walk_conjugate(rho: DensityGrid, field: AngleField, t: float,
                   offsets: tuple | None = None) -> np.ndarray:
    """Blocks of U rho U^dag for the walk unitary at time t.

    A constant coin C (no callable angle field, scalar offsets) acts as one
    4x4 mix kron(C, conj C) of the shifted blocks; per-site coins act on
    both sides of each block by one einsum.
    """
    grid = rho.grid
    n = grid.n_sites
    shifted = roll_components(rho.blocks.reshape(4, n, n), BLOCK_SHIFTS)
    if field.is_constant and all(np.ndim(o) == 0 for o in offsets or ()):
        angles = grid.time_step * np.array(field.rates, dtype=float)
        if offsets is not None:
            angles = angles + np.asarray(offsets, dtype=float)
        coin = coin_matrices(*angles)
        return mix_components(np.kron(coin, coin.conj()), shifted).reshape(2, 2, n, n)
    coins = step_coins(field, t, grid, offsets=offsets)
    return np.einsum("xua,abxy,yvb->uvxy", coins, shifted.reshape(2, 2, n, n), coins.conj())


def channel_step(
    rho: DensityGrid,
    field: AngleField,
    rates: ChannelRates,
    t: float,
    eps: float | None = None,
) -> DensityGrid:
    """One step of the flip-channel model.

    rho <- (1 - pi1 - pi2) U rho U^dag + pi1 s3 rho s3 + pi2 s1 rho s1,
    with pi_l = eps * rate_l and U the walk unitary applied blockwise.  The
    two flip branches fold into one 4x4 mix of the unshifted blocks.
    """
    eps = rho.grid.time_step if eps is None else eps
    p1, p2 = rates.step_probabilities(eps)
    out = walk_conjugate(rho, field, t)
    if p1 or p2:
        out *= 1.0 - p1 - p2
        flips = p1 * _PHASE_FLIP + p2 * _COIN_FLIP
        out += mix_components(flips, rho.blocks.reshape(4, -1)).reshape(out.shape)
    return DensityGrid(out, rho.grid)


def hold_channel_step(
    rho: DensityGrid,
    field: AngleField,
    hold_prob: float,
    t: float,
    phases: tuple[float, float] = (0.0, 0.0),
) -> DensityGrid:
    """Channel that skips the walk step with probability ``hold_prob``.

    The held branch applies only coin-diagonal phases (default: identity).
    Even the identity branch slows transport on the lattice, because the
    walker stays put for a finite time eps with probability hold_prob.
    """
    if not 0.0 <= hold_prob < 1.0:
        raise ConfigurationError("hold_prob must be in [0, 1)")
    j = np.diag(np.exp(1j * np.asarray(phases)))
    out = (1.0 - hold_prob) * walk_conjugate(rho, field, t)
    out += hold_prob * _coin_conjugate(rho.blocks, j)
    return DensityGrid(out, rho.grid)


def two_point_channel_step(
    rho: DensityGrid,
    field: AngleField,
    spec: NoiseSpec,
    t: float,
) -> DensityGrid:
    """Exact Kraus average of one random-unitaries step for two-point noise.

    Every noisy angle must carry a two-point distribution; the average is the
    equally weighted sum over the 2^k sign branches, so no Monte-Carlo error
    enters.  Used by the vanishing-noise refinement checks.
    """
    eps = rho.grid.time_step
    root = np.sqrt(eps)
    active = [(l, e.delta) for l, e in enumerate(spec.entries) if e.delta > 0]
    for l, e in enumerate(spec.entries):
        if e.delta > 0 and e.kind != "two-point":
            raise ConfigurationError("exact channel average requires two-point noise")
    if not active:
        return DensityGrid(walk_conjugate(rho, field, t), rho.grid)
    out = np.zeros_like(rho.blocks)
    branches = list(product((-1.0, 1.0), repeat=len(active)))
    for signs in branches:
        offs = [0.0, 0.0, 0.0, 0.0]
        for (l, delta), s in zip(active, signs):
            offs[l] = s * root * delta
        out += walk_conjugate(rho, field, t, offsets=tuple(offs))
    return DensityGrid(out / len(branches), rho.grid)


@dataclass(frozen=True)
class KernelNoise:
    """One angle's spatially correlated noise: variance gamma/2 and kernel kappa(d)."""

    variance: float
    kernel: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.variance < 0:
            raise ConfigurationError("variance must be non-negative")
        k0 = float(np.asarray(self.kernel(np.zeros(1)))[0])
        if abs(k0 - 1.0) > 1e-12:
            raise ConfigurationError(f"kernel must satisfy kappa(0) = 1, got {k0}")


@dataclass(frozen=True)
class CorrelatedNoiseSpec:
    """Per-angle correlated noise for the smooth spatially-dependent model."""

    params: tuple[KernelNoise | None, KernelNoise | None,
                  KernelNoise | None, KernelNoise | None]
    smoothness: int = 0  # retained Fourier modes per side; 0 means no cutoff

    def __post_init__(self):
        if len(self.params) != 4:
            raise ConfigurationError("params must have one entry per coin angle")
        if self.smoothness < 0:
            raise ConfigurationError("smoothness (mode cutoff) must be >= 1")


def _circulant_spectrum(variance: float, kernel, grid: LatticeGrid, n_modes: int) -> np.ndarray:
    n = grid.n_sites
    d = np.minimum(np.arange(n), n - np.arange(n)) * grid.spacing
    cov_row = variance * np.asarray(kernel(d), dtype=float)
    spec = np.fft.fft(cov_row).real
    floor = -1e-10 * max(spec.max(), 1.0)
    if spec.min() < floor:
        raise ConfigurationError(
            f"kernel is not positive semidefinite on this grid "
            f"(min spectral weight {spec.min():.3e})"
        )
    spec = np.clip(spec, 0.0, None)
    if n_modes:
        k = np.minimum(np.arange(n), n - np.arange(n))
        spec = np.where(k <= n_modes, spec, 0.0)
    return spec


def sample_smooth_field(
    spec: CorrelatedNoiseSpec,
    grid: LatticeGrid,
    eps: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample per-site angle offsets lambda_x^l = sqrt(eps) * lambda_tilde_x^l.

    Each active angle gets a real zero-mean Gaussian field whose covariance
    approximates variance * kappa(|x - x'|), synthesized from the truncated
    circulant spectrum of the kernel (band-limiting keeps realizations smooth).
    Returns an array of shape (4, n_sites).
    """
    n = grid.n_sites
    out = np.zeros((4, n))
    root = np.sqrt(eps)
    for l, entry in enumerate(spec.params):
        if entry is None or entry.variance == 0.0:
            continue
        s = _circulant_spectrum(entry.variance, entry.kernel, grid, spec.smoothness)
        w = rng.standard_normal(n)
        out[l] = root * np.fft.ifft(np.sqrt(s) * np.fft.fft(w)).real
    return out
