"""Noisy lattice walks: flip channels and random coin unitaries.

Two noise models act on the walk of :mod:`dlqw.walk`:

* a channel model on density operators, where each step applies the walk
  unitary with probability 1 - pi1 - pi2, a coin-dependent phase flip
  (sigma^3) with probability pi1, and a coin flip (sigma^1) with probability
  pi2, the per-step probabilities being ``eps`` times the configured rates;

* a random-unitaries model, where each step draws zero-mean offsets for the
  coin angles, scaled by sqrt(eps), and applies the resulting unitary; the
  ensemble average over trajectories estimates the Kraus integral.

A run of the channel model with a constant coin from a pure start steps in a
band of (k, k') Fourier modes (:func:`band_channel`), where each step is a
4x4 mix and a phase per mode; :func:`channel_run` picks that path or the
position-space :func:`channel_step`, and steps either through
:func:`dlqw.walk.march`, the loop of the continuum engines too.

With matched rates (pi-rate == delta**2 per channel) the two models share one
continuum limit, which is what the cross-model tests exercise.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field
from itertools import product

import numpy as np

from .momentum import ModeBand
from .walk import (
    AngleField,
    BatchedWalk,
    ConfigurationError,
    LatticeGrid,
    SIGMA,
    WaveState,
    coin_matrices,
    mix_components,
    roll_components,
    step_coins,
    step_state,
)
from .walk import EvolveResult, march

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


# numpy's SeedSequence hash (O'Neill's seed_seq_fe): a pool of four 32-bit
# words, the constants of its mixing and of generate_state
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hashmix(word: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of a uint32 array: the hashed words and the next
    hash constant, which steps by ``mult`` whatever the words are."""
    word = word ^ np.uint32(const)
    const = const * mult & _MASK32
    word = word * np.uint32(const)
    return word ^ (word >> np.uint32(16)), const


def philox_keys(seed: int, ids) -> np.ndarray:
    """The Philox keys of trajectories ``ids``, shape (len(ids), 2) uint64.

    Row k is ``SeedSequence(seed, spawn_key=(ids[k],)).generate_state(2,
    np.uint64)``, the key of :func:`rng_for_trajectory` (seed, ids[k]), bit
    for bit: numpy's pool mixing and ``generate_state`` run once, on uint32
    arrays over the trajectories.  Every id must fit one 32-bit word, as a
    one-word spawn key.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ConfigurationError("seed must be a non-negative integer")
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and not 0 <= ids.min() <= ids.max() <= _MASK32:
        raise ConfigurationError("trajectory ids must lie in [0, 2**32)")
    # the seed's little-endian words, padded with zeros to the pool size
    # because a spawn key follows them, then the id
    run = [(seed >> (32 * i)) & _MASK32 for i in range(max(1, -(-seed.bit_length() // 32)))]
    run += [0] * (_POOL_SIZE - len(run))
    entropy = [np.full(ids.shape, w, dtype=np.uint32) for w in run] + [ids.astype(np.uint32)]

    const = _INIT_A

    def hashmix(word):
        nonlocal const
        word, const = _hashmix(word, const, _MULT_A)
        return word

    def mix(x, y):
        r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return r ^ (r >> np.uint32(16))

    # the pool's first words, the all-pairs mix, then each remaining word
    # against every pool word, in SeedSequence's order of hash calls
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(2, np.uint64) hashes the four pool words, paired little-endian
    state, const = [], _INIT_B
    for word in pool:
        word, const = _hashmix(word, const, _MULT_B)
        state.append(word.astype(np.uint64))
    lo0, hi0, lo1, hi1 = state
    return np.stack([lo0 | hi0 << np.uint64(32), lo1 | hi1 << np.uint64(32)], axis=-1)


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


def _offset_sampler(spec: NoiseSpec, eps: float, n_steps: int):
    """The draw plan of :func:`trajectory_offsets`, made once per spec.

    Returns ``(active, draw)``: the angles with a nonzero delta, and a map
    from a generator to their offsets over ``n_steps`` steps, shape
    (n_steps, len(active)); the other angles' offsets are 0.

    The scalar loop draws step by step, each step in angle order.  When every
    active angle has one kind, a single draw of shape (n_steps, n_active)
    takes the same values from the generator in the same order.  Its scale
    is a scalar when the active angles share one delta: the same draws,
    without the generator's per-call check of an array scale.
    """
    active = [l for l, e in enumerate(spec.entries) if e.delta != 0.0]
    kinds = {spec.entries[l].kind for l in active}
    if len(kinds) > 1:
        return active, lambda rng: np.array(
            [sample_coin_offsets(spec, eps, rng) for _ in range(n_steps)]
        ).reshape(n_steps, 4)[:, active]
    if not active:
        return active, lambda rng: np.zeros((n_steps, 0))
    kind = kinds.pop()
    deltas = np.array([spec.entries[l].delta for l in active])
    scale = float(deltas[0]) if (deltas == deltas[0]).all() else deltas
    root = np.sqrt(eps)
    shape = (n_steps, len(active))
    return active, lambda rng: root * _draw(kind, scale, rng, shape)


def trajectory_offsets(spec: NoiseSpec, eps: float, rng: np.random.Generator,
                       n_steps: int) -> np.ndarray:
    """Offsets of ``n_steps`` steps, shape (n_steps, 4): the stream of
    ``n_steps`` calls of :func:`sample_coin_offsets`, value for value."""
    active, draw = _offset_sampler(spec, eps, n_steps)
    out = np.zeros((n_steps, 4))
    out[:, active] = draw(rng)
    return out


def trajectory_step(state: WaveState, field: AngleField, offsets, t: float) -> WaveState:
    """One random-unitary step: walk with angles eps*barred + offsets.

    ``offsets`` is a length-4 sequence (scalars, or per-site arrays),
    already scaled by sqrt(eps).
    """
    return step_state(state, step_coins(field, t, state.grid, offsets=tuple(offsets)))


# trajectories stepped together by run_ensemble (see there)
ENSEMBLE_BATCH = 1024


@dataclass
class TrajectoryEnsemble:
    """Accumulator of pure-state trajectories into a density estimate.

    ``sum_blocks`` is the (2, 2, n, n) sum of the trajectories' densities,
    or None when only the probabilities are accumulated.
    """

    grid: LatticeGrid
    sum_blocks: np.ndarray | None = None
    sum_prob: np.ndarray = dc_field(default_factory=lambda: np.zeros(0))
    sum_prob2: np.ndarray = dc_field(default_factory=lambda: np.zeros(0))
    count: int = 0

    def __post_init__(self):
        n = self.grid.n_sites
        if self.sum_prob.size == 0:
            self.sum_prob = np.zeros(n)
            self.sum_prob2 = np.zeros(n)

    def density(self) -> DensityGrid:
        if self.count == 0:
            raise ConfigurationError("no trajectories accumulated")
        if self.sum_blocks is None:
            raise ConfigurationError("the ensemble did not accumulate its density blocks")
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
) -> TrajectoryEnsemble:
    """Evolve ``n_traj`` independently noised trajectories and accumulate them.

    Each trajectory k draws the offsets of all its steps as
    :func:`trajectory_offsets` does from :func:`rng_for_trajectory` (seed, k):
    one generator is reset to each key of :func:`philox_keys`.  The sums take
    the trajectories one after another in order, so the result is the same
    bit for bit whatever the batch size is.  Each batch of up to
    :data:`ENSEMBLE_BATCH` trajectories steps as one :class:`BatchedWalk`,
    with a (T, 2, 2) coin stack for spatially constant barred angles and a
    (T, n, 2, 2) stack for per-site fields.  That batch bounds those arrays
    (16 MB each at n = 240): 4096 trajectories were no faster, and 256 paid
    more per-step overhead.
    """
    if not 1 <= n_traj <= 2**32:
        raise ConfigurationError("n_traj must lie in [1, 2**32] (one 32-bit word per id)")
    grid = init.grid
    eps = grid.spacing
    n = grid.n_sites
    batch = ENSEMBLE_BATCH
    ens = TrajectoryEnsemble(grid=grid, sum_blocks=(
        np.zeros((2, 2, n, n), dtype=complex) if accumulate_blocks else None))
    base = eps * np.array(field.rates, dtype=float) if field.is_constant else None
    active, draw = _offset_sampler(spec, eps, n_steps)
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    fresh = bits.state  # counter 0, an empty buffer and no spare 32-bit word
    # buffers of one batch; offsets[j, k, l] is step j, trajectory k, angle l,
    # and the angles without noise stay 0
    drawn = np.empty((min(batch, n_traj), n_steps, len(active)))
    offsets = np.zeros((n_steps, min(batch, n_traj), 4))
    for start in range(0, n_traj, batch):
        ids = np.arange(start, min(start + batch, n_traj))
        t = len(ids)
        # each trajectory's stream is rng_for_trajectory(seed, k): its key, counter 0
        for kk, key in enumerate(philox_keys(seed, ids)):
            fresh["state"]["key"] = key
            bits.state = fresh
            drawn[kk] = draw(rng)
        offsets[:, :t, active] = drawn[:t].transpose(1, 0, 2)
        walk = BatchedWalk(np.broadcast_to(init.amplitudes, (t, 2, n)))
        for j in range(n_steps):
            if base is None:
                # per-trajectory offsets as (T, 1) columns against the (n,) site angles
                coins = step_coins(field, j * eps, grid,
                                   offsets=tuple(offsets[j, :t].T[:, :, None]))
            else:
                ang = base[None, :] + offsets[j, :t]
                coins = coin_matrices(ang[:, 0], ang[:, 1], ang[:, 2], ang[:, 3])
            walk.step(coins)
        amps = walk.amplitudes
        if accumulate_blocks:
            # one trajectory at a time, in order, like the probability sums below
            for k in range(t):
                ens.sum_blocks += np.einsum("ux,vy->uvxy", amps[k], amps[k].conj())
        p = np.sum(np.abs(amps) ** 2, axis=1).real
        # the running total heads the rows, so an axis-0 sum adds them in order
        ens.sum_prob = np.concatenate([ens.sum_prob[None], p]).sum(axis=0)
        ens.sum_prob2 = np.concatenate([ens.sum_prob2[None], p * p]).sum(axis=0)
        ens.count += t
        del walk, amps  # before the next batch builds its own buffers
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
# tr(sigma^mu b) of a coin block b as a mix of (b00, b01, b10, b11)
_PAULI_OF_BLOCKS = SIGMA.transpose(0, 2, 1).reshape(4, 4)


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
        angles = grid.spacing * np.array(field.rates, dtype=float)
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
) -> DensityGrid:
    """One step of the flip-channel model.

    rho <- (1 - pi1 - pi2) U rho U^dag + pi1 s3 rho s3 + pi2 s1 rho s1,
    with pi_l = eps * rate_l, eps the lattice spacing, and U the walk unitary
    applied blockwise.  The two flip branches fold into one 4x4 mix of the
    unshifted blocks.
    """
    p1, p2 = rates.step_probabilities(rho.grid.spacing)
    out = walk_conjugate(rho, field, t)
    if p1 or p2:
        out *= 1.0 - p1 - p2
        flips = p1 * _PHASE_FLIP + p2 * _COIN_FLIP
        out += mix_components(flips, rho.blocks.reshape(4, -1)).reshape(out.shape)
    return DensityGrid(out, rho.grid)


def _channel_march(rho, advance, block_diagonal, finish, grid: LatticeGrid, marks) -> EvolveResult:
    """:func:`march` of a flip-channel state ``rho`` to the last of the sorted step ``marks``.

    A snapshot mixes the block diagonals (b00, b01, b10, b11) that
    ``block_diagonal`` reads into R^mu = tr(sigma^mu b) / a (R^0 = p / a);
    the blow-up check reads them as they are, at most 1 in size for a
    density, so a fine lattice does not trip it.
    """
    return march(rho, advance,
                 lambda s: mix_components(_PAULI_OF_BLOCKS, block_diagonal(s)).real / grid.spacing,
                 block_diagonal, grid, int(marks[-1]), marks, finish)


def channel_run(state: WaveState, field: AngleField, rates: ChannelRates,
                marks) -> EvolveResult:
    """The flip channel from the pure start |state><state| to the last of the
    sorted step ``marks``, with the diagonals at each mark.

    A constant coin steps in the band of modes the start occupies
    (:func:`band_channel`) unless that band fills the axis, as for a delta
    start or a start that does not vanish smoothly at the periodic edge;
    then, and for per-site coins, the (2, 2, n, n) blocks step by
    :func:`channel_step`, at t = step * a.  Either way the rates are checked
    before any step, and the result's ``build_final`` returns the blocks at
    the last mark as a :class:`DensityGrid`.
    """
    grid = state.grid
    a = grid.spacing
    rates.step_probabilities(a)
    if field.is_constant:
        band = ModeBand(np.fft.fft(state.amplitudes, axis=1) / grid.n_sites)
        if not band.fills_axis:
            return band_channel(grid, band, field, rates, marks)

    def advance(rho: DensityGrid, done: int, stop: int) -> DensityGrid:
        for step in range(done, stop):
            rho = channel_step(rho, field, rates, t=step * a)
        return rho

    return _channel_march(
        DensityGrid.from_wave_state(state), advance,
        lambda rho: np.diagonal(rho.blocks, axis1=2, axis2=3).reshape(4, -1),
        lambda rho: rho, grid, marks)


def band_channel(grid: LatticeGrid, band: ModeBand, field: AngleField, rates: ChannelRates,
                 marks) -> EvolveResult:
    """:func:`channel_step` with the constant coin C of ``field``, mode by mode.

    ``band`` holds the start's coefficients c(k) on its kept modes, and the
    blocks start as rho_uv(k, k') = c_u(k) c_v*(k').  In (k, k') space the
    shift of the blocks by :data:`BLOCK_SHIFTS` is a phase table D, so a step
    is (1 - p1 - p2) kron(C, conj C) (D * rho) + (p1 s3 x s3 + p2 s1 x s1) rho
    for each mode, and no two modes mix.  Each mark's diagonal is one n-point
    inverse FFT; the (2, 2, n, n) blocks are built, by one zero-padded
    inverse 2-D FFT, on each call of ``build_final`` only.
    """
    a, n = grid.spacing, grid.n_sites
    p1, p2 = rates.step_probabilities(a)
    coin = coin_matrices(*(a * np.array(field.rates, dtype=float)))
    walk_mix = (1.0 - p1 - p2) * np.kron(coin, coin.conj())
    shift = band.phases(BLOCK_SHIFTS)
    flips = p1 * _PHASE_FLIP + p2 * _COIN_FLIP
    c = band.coefficients
    k = c.shape[1]

    def advance(rho: np.ndarray, done: int, stop: int) -> np.ndarray:
        for _ in range(done, stop):
            out = mix_components(walk_mix, shift * rho)
            if p1 or p2:
                out += mix_components(flips, rho)
            rho = out
        return rho

    return _channel_march(
        np.einsum("uk,vl->uvkl", c, c.conj()).reshape(4, k, k), advance, band.diagonal,
        lambda rho: DensityGrid(band.field(rho).reshape(2, 2, n, n), grid), grid, marks)


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
    root = np.sqrt(rho.grid.spacing)
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
