"""Noisy lattice walks: flip channels and random coin unitaries.

Two noise models act on the walk of :mod:`dlqw.walk`:

* a channel model on density operators, where each step applies the walk
  unitary with probability 1 - pi1 - pi2, a coin-dependent phase flip
  (sigma^3) with probability pi1, and a coin flip (sigma^1) with probability
  pi2, the per-step probabilities being ``eps`` times the configured rates;

* a random-unitaries model, where each step draws zero-mean offsets for the
  coin angles, scaled by sqrt(eps), and applies the resulting unitary; the
  ensemble average over trajectories estimates the Kraus integral.

With a constant coin, one step of either model's density is the same
operation: a 4x4 mix of the shifted coin blocks plus a 4x4 mix of the
unshifted ones.  The flip channel (:meth:`ChannelRates.step_mixes`) and the
exact average of two-point random unitaries (:meth:`NoiseSpec.step_mixes`)
differ only in those two matrices, and :func:`channel_run` steps both, in the
band of (k, k') Fourier modes a pure start occupies or, when that band fills
the axis, on the (x, x') blocks, through :func:`dlqw.walk.march`, the loop of
the continuum engines too.  :func:`channel_step` is the one-step reference,
per-site coins included.

With matched rates (pi-rate == delta**2 per channel) the two models share one
continuum limit, which is what the cross-model tests exercise.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass, field as dc_field
from functools import partial
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

    def trace(self) -> float:
        return float(np.trace(self.blocks[0, 0]).real + np.trace(self.blocks[1, 1]).real)

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.blocks - self.blocks.conj().transpose(1, 0, 3, 2)).max())


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

    def step_mixes(self, angles, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """The (shifted, unshifted) 4x4 block mixes of one step with the coin C
        of ``angles``: (1 - p1 - p2) kron(C, conj C) and p1 s3 x s3 + p2 s1 x s1."""
        p1, p2 = self.step_probabilities(eps)
        coin = coin_matrices(*angles)
        return (1.0 - p1 - p2) * np.kron(coin, coin.conj()), p1 * _PHASE_FLIP + p2 * _COIN_FLIP


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

    def step_mixes(self, angles, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """The exact (shifted, unshifted) 4x4 block mixes of one averaged
        random-unitaries step with the coin of ``angles``.

        Every noisy angle must carry a two-point distribution: the shifted mix
        is the mean of kron(C_w, conj C_w) over the 2^k equally likely sign
        branches of the offsets +-sqrt(eps) * delta, so no Monte-Carlo error
        enters, and the unshifted mix is zero.
        """
        active = [l for l, e in enumerate(self.entries) if e.delta > 0]
        if any(self.entries[l].kind != "two-point" for l in active):
            raise ConfigurationError("exact channel average requires two-point noise")
        deltas = np.sqrt(eps) * np.array([self.entries[l].delta for l in active])
        branches = list(product((-1.0, 1.0), repeat=len(active)))
        mix = np.zeros((4, 4), dtype=complex)
        for signs in branches:
            branch = np.array(angles, dtype=float)
            branch[active] += np.array(signs) * deltas
            coin = coin_matrices(*branch)
            mix += np.kron(coin, coin.conj())
        return mix / len(branches), np.zeros((4, 4))


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


# trajectories stepped together by run_ensemble, and about how many of them
# one of its threads steps (see there)
ENSEMBLE_BATCH = 1024
ENSEMBLE_SLICE = 512


def ensemble_threads(t: int) -> int:
    """The threads that step a batch of t trajectories in :func:`run_ensemble`.

    One per :data:`ENSEMBLE_SLICE` trajectories, rounded, and at least one,
    but no more than the cores in the process's CPU affinity set (a CPU
    quota is not read).  Each slice builds its coins in about 15 small numpy
    calls per step whatever its size, mostly holding the GIL, so slices much
    smaller than the 512 measured on 2 cores would repeat that cost on every
    core and could run slower than one thread.  A full batch takes 2 threads
    on any machine with 2 cores or more.
    """
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return max(1, min(cores, round(t / ENSEMBLE_SLICE)))


@dataclass
class TrajectoryEnsemble:
    """Accumulator of pure-state trajectories into a density estimate.

    ``sum_blocks`` is the (2, 2, n, n) sum of the trajectories' densities,
    or None when only the probabilities are accumulated.  ``threads`` is the
    number of threads that stepped the largest batch.
    """

    grid: LatticeGrid
    sum_blocks: np.ndarray | None = None
    sum_prob: np.ndarray = dc_field(default_factory=lambda: np.zeros(0))
    sum_prob2: np.ndarray = dc_field(default_factory=lambda: np.zeros(0))
    count: int = 0
    threads: int = 1

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
    one generator is reset to each key of :func:`philox_keys`.  Each batch of
    up to :data:`ENSEMBLE_BATCH` trajectories steps as one :class:`BatchedWalk`,
    with a (T, 2, 2) coin stack for spatially constant barred angles and a
    (T, n, 2, 2) stack for per-site fields.  That batch bounds those arrays
    (16 MB each at n = 240): 4096 trajectories were no faster, and 256 paid
    more per-step overhead.

    The batch's T trajectories split into w = :func:`ensemble_threads` (T)
    contiguous slices of about :data:`ENSEMBLE_SLICE`, and each slice runs
    all its steps on a thread of its own.  It builds the coins of its rows
    only (a per-site field is evaluated once per slice and step, on the
    slice's thread) and steps its rows of the batch's one walk
    (:meth:`BatchedWalk.rows`), so the walk buffers are allocated once per
    batch, by the calling thread.  Every coin and amplitude element goes
    through the same numpy operations whatever slice holds it, the draws
    stay in the calling thread, and the probabilities and sums are taken
    there after the threads join, trajectory by trajectory in order.  So
    the result is the same bit for bit whatever the batch size and the
    thread count are.  The threads overlap because einsum and the ufuncs
    release the GIL; the process's CPU time rises with them, and no thread
    outlives the call.
    """
    if not 1 <= n_traj <= 2**32:
        raise ConfigurationError("n_traj must lie in [1, 2**32] (one 32-bit word per id)")
    # here rather than at module load, where it adds about 4 ms to every import
    from concurrent.futures import ThreadPoolExecutor

    grid = init.grid
    eps = grid.spacing
    n = grid.n_sites
    batch = ENSEMBLE_BATCH
    threads = ensemble_threads(min(batch, n_traj))  # the first batch is the largest
    ens = TrajectoryEnsemble(grid=grid, threads=threads, sum_blocks=(
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

    def advance(walk: BatchedWalk, lo: int, hi: int) -> BatchedWalk:
        """Step trajectories lo..hi - 1 of the batch ``walk``, a view of its rows, to the end."""
        part = walk.rows(lo, hi)
        for j in range(n_steps):
            if base is None:
                # per-trajectory offsets as (T, 1) columns against the (n,) site angles
                coins = step_coins(field, j * eps, grid,
                                   offsets=tuple(offsets[j, lo:hi].T[:, :, None]))
            else:
                ang = base[None, :] + offsets[j, lo:hi]
                coins = coin_matrices(ang[:, 0], ang[:, 1], ang[:, 2], ang[:, 3])
            part.step(coins)
        return part

    with ThreadPoolExecutor(threads) as pool:
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
            w = ensemble_threads(t)
            cuts = [t * i // w for i in range(w + 1)]
            # a worker's exception is raised again here, and leaving the pool
            # waits for the other workers
            parts = list(pool.map(partial(advance, walk), cuts[:-1], cuts[1:]))
            if accumulate_blocks:
                # one trajectory at a time, in order, like the probability sums below
                for part in parts:
                    for amp in part.amplitudes:
                        ens.sum_blocks += np.einsum("ux,vy->uvxy", amp, amp.conj())
            # here, not on the workers: their (T, 2, n) temporaries there raised
            # the grid-noise benchmark's peak RSS from 72 to 77 MB
            p = [np.sum(np.abs(part.amplitudes) ** 2, axis=1).real for part in parts]
            # the running total heads the rows, so an axis-0 sum adds them in order
            ens.sum_prob = np.concatenate([ens.sum_prob[None], *p]).sum(axis=0)
            ens.sum_prob2 = np.concatenate([ens.sum_prob2[None], *(q * q for q in p)]
                                           ).sum(axis=0)
            ens.count += t
            del walk, parts, p  # before the next batch builds its own buffers
    return ens


# Coin-conditioned shift of the block grid, per block (u, v) = k // 2, k % 2:
# coin component 0 moves left and 1 moves right, on both sides of rho.
BLOCK_SHIFTS = ((-1, -1), (-1, 1), (1, -1), (1, 1))
# sigma^3 rho sigma^3 and sigma^1 rho sigma^1 as mixes of the four blocks
_PHASE_FLIP = np.kron(SIGMA[3], SIGMA[3]).real
_COIN_FLIP = np.kron(SIGMA[1], SIGMA[1]).real
# tr(sigma^mu b) of a coin block b as a mix of (b00, b01, b10, b11)
_PAULI_OF_BLOCKS = SIGMA.transpose(0, 2, 1).reshape(4, 4)


def walk_conjugate(rho: DensityGrid, field: AngleField, t: float) -> np.ndarray:
    """Blocks of U rho U^dag for the walk unitary at time t.

    A constant coin C acts as one 4x4 mix kron(C, conj C) of the shifted
    blocks; per-site coins act on both sides of each block by one einsum.
    """
    grid = rho.grid
    n = grid.n_sites
    shifted = roll_components(rho.blocks.reshape(4, n, n), BLOCK_SHIFTS)
    if field.is_constant:
        coin = coin_matrices(*(grid.spacing * np.array(field.rates, dtype=float)))
        return mix_components(np.kron(coin, coin.conj()), shifted).reshape(2, 2, n, n)
    coins = step_coins(field, t, grid)
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
    unshifted blocks.  This is the one-step reference of :func:`channel_run`,
    and the only channel step with per-site coins.
    """
    p1, p2 = rates.step_probabilities(rho.grid.spacing)
    out = walk_conjugate(rho, field, t)
    if p1 or p2:
        out *= 1.0 - p1 - p2
        flips = p1 * _PHASE_FLIP + p2 * _COIN_FLIP
        out += mix_components(flips, rho.blocks.reshape(4, -1)).reshape(out.shape)
    return DensityGrid(out, rho.grid)


def channel_run(state: WaveState, field: AngleField, model: ChannelRates | NoiseSpec,
                marks) -> EvolveResult:
    """The averaged density of either noise model from the pure start
    |state><state| to the last of the sorted step ``marks``, with the
    diagonals at each mark.

    ``model.step_mixes`` gives the (shifted, unshifted) mixes (S, F) of the
    constant coin of ``field``, checked before any step, and a step is
    rho <- S shift(rho) + F rho.  The blocks step on the band of (k, k') modes
    the start occupies, where the shift is a phase per mode, or as (4, n, n)
    position blocks when that band fills the axis (a delta start, or a start
    with a kink at the periodic edge).  Snapshots and the blow-up check read
    the block diagonals; ``build_final`` returns the last blocks as a
    :class:`DensityGrid`.  Per-site coins are refused: :func:`channel_step`
    steps them.
    """
    if not field.is_constant:
        raise ConfigurationError("channel_run needs a constant coin; "
                                 "channel_step steps per-site coins")
    grid = state.grid
    a, n = grid.spacing, grid.n_sites
    shifted_mix, unshifted_mix = model.step_mixes(a * np.array(field.rates, dtype=float), a)
    band = ModeBand(np.fft.fft(state.amplitudes, axis=1) / n)
    if band.fills_axis:
        rho = DensityGrid.from_wave_state(state).blocks.reshape(4, n, n)
        shift = partial(roll_components, shifts=BLOCK_SHIFTS)
        diagonal = partial(np.diagonal, axis1=1, axis2=2)
        position = np.asarray
    else:
        c = band.coefficients
        k = c.shape[1]
        rho = np.einsum("uk,vl->uvkl", c, c.conj()).reshape(4, k, k)
        shift = partial(np.multiply, band.phases(BLOCK_SHIFTS))
        diagonal, position = band.diagonal, band.field
    mixes_unshifted = unshifted_mix.any()

    def advance(rho: np.ndarray, done: int, stop: int) -> np.ndarray:
        for _ in range(done, stop):
            out = mix_components(shifted_mix, shift(rho))
            if mixes_unshifted:
                out += mix_components(unshifted_mix, rho)
            rho = out
        return rho

    return march(rho, advance, lambda b: mix_components(_PAULI_OF_BLOCKS, diagonal(b)).real / a,
                 diagonal, grid, int(marks[-1]), marks,
                 lambda b: DensityGrid(position(b).reshape(2, 2, n, n), grid))
