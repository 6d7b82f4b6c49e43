"""Unitary discrete-time quantum walk on a periodic 1-D lattice.

The walker carries a two-component internal degree of freedom (the coin,
components L and R).  One step of the walk is a coin-conditioned shift
(L moves one site left, R one site right) followed by a position-dependent
coin rotation.  Coin angles are stored as rates ("barred" values, radians per
unit time) and multiplied by the time step when a step is taken, which is the
scaling under which the walk converges to a Dirac equation as the lattice is
refined with spacing == time step.

The module also holds :class:`BatchedWalk`, the stepping engine of the
amplitude walks, the component mix and roll that the flip channel and the
(x, x') grid of the continuum solver step with, and :func:`march`, the one
stepping loop of every density engine, with its :class:`EvolveResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import product
from typing import Callable, TypeVar, Union

import numpy as np

from .observables import DiagonalFields, MomentSeries, moment_series

ScalarOrField = Union[float, Callable[[float, np.ndarray], "np.ndarray | float"]]
State = TypeVar("State")


class DomainError(ValueError):
    """A numeric argument is outside the operation's domain."""


class ConfigurationError(ValueError):
    """Inconsistent grid, rate, or solver configuration."""


@dataclass(frozen=True)
class CoinAngles:
    """The four angles (xi0, xi1, theta, chi) parametrizing a 2x2 unitary coin."""

    xi0: float
    xi1: float
    theta: float
    chi: float

    def __post_init__(self):
        for name in ("xi0", "xi1", "theta", "chi"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DomainError(f"coin angle {name} must be finite, got {v!r}")


@dataclass(frozen=True)
class LatticeGrid:
    """Periodic 1-D lattice with ballistic scaling: the spacing is also the time step.

    Site i sits at ``origin + i*spacing``, with the origin chosen so that the
    center site ``n_sites // 2`` is at x = 0.
    """

    n_sites: int
    spacing: float = 1.0

    def __post_init__(self):
        if self.n_sites < 4:
            raise ConfigurationError(f"n_sites must be >= 4, got {self.n_sites}")
        if not self.spacing > 0:
            raise ConfigurationError("spacing must be positive")

    @property
    def origin(self) -> float:
        return -(self.n_sites // 2) * self.spacing

    @property
    def positions(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(self.n_sites)

    @property
    def center_index(self) -> int:
        return self.n_sites // 2

    @classmethod
    def for_duration(cls, t_final: float, eps: float, pad: float = 0.0) -> "LatticeGrid":
        """Grid large enough that a centered start never reaches the wrap by t_final."""
        half = (t_final + pad) / eps
        if not math.isfinite(half):
            raise ConfigurationError(f"t_final = {t_final:g} at spacing {eps:g} "
                                     "overflows the site count")
        return cls(n_sites=2 * (math.ceil(half) + 2) + 1, spacing=eps)

    @classmethod
    def for_half_width(cls, half_width: float, spacing: float) -> "LatticeGrid":
        """Grid of round(2 * half_width / spacing) sites at ``spacing``, centred on x = 0."""
        sites = 2 * half_width / spacing
        if not math.isfinite(sites):
            raise ConfigurationError(f"half_width = {half_width:g} at spacing {spacing:g} "
                                     "overflows the site count")
        return cls(n_sites=int(round(sites)), spacing=spacing)


@dataclass(frozen=True)
class AngleField:
    """Spacetime fields of the barred coin rates.

    Each entry is either a constant (homogeneous case) or a callable
    ``f(t, x) -> rate`` that must be pure.  ``theta_bar = -m`` encodes a mass
    m in the continuum limit; ``xi0_bar`` and ``-xi1_bar`` encode the
    electromagnetic potential components.
    """

    xi0_bar: ScalarOrField = 0.0
    xi1_bar: ScalarOrField = 0.0
    theta_bar: ScalarOrField = 0.0
    chi_bar: ScalarOrField = 0.0

    @classmethod
    def massive(cls, m: float) -> "AngleField":
        return cls(theta_bar=-m)

    @property
    def rates(self) -> tuple[ScalarOrField, ...]:
        return (self.xi0_bar, self.xi1_bar, self.theta_bar, self.chi_bar)

    @property
    def is_constant(self) -> bool:
        """True when no rate is a callable field, so one coin serves every site and time."""
        return not any(callable(f) for f in self.rates)

    def evaluate(self, t: float, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """Evaluate the four barred rates at time t over positions x."""
        out = []
        for f in self.rates:
            v = f(t, x) if callable(f) else f
            out.append(np.broadcast_to(np.asarray(v, dtype=float), x.shape))
        return tuple(out)


@dataclass
class WaveState:
    """Two-component spinor field over a LatticeGrid.

    ``amplitudes`` has shape (2, n_sites); row 0 is the left-moving component,
    row 1 the right-moving one.
    """

    amplitudes: np.ndarray
    grid: LatticeGrid

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (2, self.grid.n_sites):
            raise ConfigurationError(
                f"amplitudes shape {self.amplitudes.shape} != (2, {self.grid.n_sites})"
            )

    @classmethod
    def delta(cls, grid: LatticeGrid, coin=(1.0, 1.0), site: int | None = None) -> "WaveState":
        """State localized on one site (default: center) with the given coin state."""
        amp = np.zeros((2, grid.n_sites), dtype=complex)
        c = np.asarray(coin, dtype=complex)
        c = c / np.linalg.norm(c)
        amp[:, grid.center_index if site is None else site] = c
        return cls(amp, grid)

    @classmethod
    def gaussian(cls, grid: LatticeGrid, width: float, coin=(1.0, 1.0),
                 p0: float = 0.0) -> "WaveState":
        """Normalized Gaussian envelope at x = 0 (position std ``width``) times a coin state.

        Smooth initial data avoids the even/odd parity structure of delta
        starts, which matters when comparing against channels whose flip
        branches skip the shift.
        """
        x = grid.positions
        # as a numpy float, a huge width squares to inf (a flat envelope), not an OverflowError
        width = np.float64(width)
        env = np.exp(-(x**2) / (4.0 * width**2) + 1j * p0 * x)
        c = np.asarray(coin, dtype=complex)
        amp = c[:, None] * env[None, :]
        amp /= np.linalg.norm(amp)
        return cls(amp, grid)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def probabilities(self) -> np.ndarray:
        """Per-site position distribution, summed over the coin."""
        return np.sum(np.abs(self.amplitudes) ** 2, axis=0).real

    def edge_mass(self) -> float:
        p = self.probabilities()
        return float(p[0] + p[-1])

    def copy(self) -> "WaveState":
        return WaveState(self.amplitudes.copy(), self.grid)


# Pauli matrices, indexed 0..3 with sigma^0 = identity.
SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


def coin_matrix(angles: CoinAngles) -> np.ndarray:
    """2x2 unitary coin for the given angles.

    Returns e^{i xi0} [[e^{i xi1} cos th, i e^{i chi} sin th],
                       [i e^{-i chi} sin th, e^{-i xi1} cos th]].
    """
    x0, x1, th, ch = angles.xi0, angles.xi1, angles.theta, angles.chi
    c, s = np.cos(th), np.sin(th)
    m = np.array(
        [
            [np.exp(1j * x1) * c, 1j * np.exp(1j * ch) * s],
            [1j * np.exp(-1j * ch) * s, np.exp(-1j * x1) * c],
        ],
        dtype=complex,
    )
    return np.exp(1j * x0) * m


def coin_matrices(
    xi0: np.ndarray, xi1: np.ndarray, theta: np.ndarray, chi: np.ndarray
) -> np.ndarray:
    """Vectorized coin construction; returns shape (n, 2, 2) for angle arrays."""
    xi0, xi1, theta, chi = np.broadcast_arrays(xi0, xi1, theta, chi)
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty(xi0.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(1j * xi1) * c
    out[..., 0, 1] = 1j * np.exp(1j * chi) * s
    out[..., 1, 0] = 1j * np.exp(-1j * chi) * s
    out[..., 1, 1] = np.exp(-1j * xi1) * c
    out *= np.exp(1j * xi0)[..., None, None]
    return out


def euler_angles(angles: CoinAngles) -> tuple[float, float, float]:
    """Map (xi1, theta, chi) to the Euler angles (psi, phi, Theta) of the rotation part."""
    return (angles.xi1 - angles.chi, angles.xi1 + angles.chi, 2.0 * angles.theta)


def coin_from_euler(psi: float, phi: float, Theta: float, xi0: float = 0.0) -> CoinAngles:
    """Inverse of :func:`euler_angles` (the global phase xi0 is a free choice)."""
    return CoinAngles(xi0=xi0, xi1=0.5 * (psi + phi), theta=0.5 * Theta, chi=0.5 * (phi - psi))


def mix_components(m: np.ndarray, field: np.ndarray) -> np.ndarray:
    """Apply the (k, k) matrix ``m`` on the leading component axis at every cell.

    ``field`` has shape (k, ...); the mix is one (k, k) @ (k, cells) matmul
    on the contiguous field.
    """
    k = field.shape[0]
    return (m @ field.reshape(k, -1)).reshape(field.shape)


def roll_components(field: np.ndarray, shifts, out: np.ndarray | None = None) -> np.ndarray:
    """Roll component ``field[k]`` by the integer shifts ``shifts[k]``, one per cell axis.

    Same result as ``np.roll(field[k], shifts[k], axis=(0, 1, ...))`` for each
    k, written straight into ``out`` (a new array by default, which must not
    overlap ``field``) without an intermediate copy.
    """
    if out is None:
        out = np.empty_like(field)
    for k, shift in enumerate(shifts):
        src, dst = field[k], out[k]
        pieces = []
        for size, s in zip(src.shape, shift):
            s %= size
            pieces.append(((slice(None), slice(None)),) if s == 0 else
                          ((slice(None, -s), slice(s, None)), (slice(-s, None), slice(None, s))))
        for combo in product(*pieces):
            src_idx, dst_idx = zip(*combo)
            dst[dst_idx] = src[src_idx]
    return out


class NumericalError(RuntimeError):
    """The integration produced non-finite or exploding values."""


@dataclass
class EvolveResult:
    """The moment series and the diagonal fields at each snapshot of one density run.

    ``build_final`` builds the full density at the end (a ``PauliField`` or a
    ``DensityGrid``), which :attr:`final` holds from its first access on; the
    massless diagonal path keeps none and leaves both ``None``.
    """

    series: MomentSeries
    diagonals: list[DiagonalFields]
    build_final: Callable[[], object] | None = field(default=None, repr=False)

    @cached_property
    def final(self):
        """The full density at the end of the run, built on first access."""
        return None if self.build_final is None else self.build_final()


def step_count(t_final: float, dt: float) -> int:
    """The number of steps dt in ``t_final``, which must be a non-negative multiple of dt."""
    if t_final < 0:
        raise ConfigurationError("t_final must be non-negative")
    steps = t_final / dt
    # an overflowing count is no multiple either
    n_steps = round(steps) if math.isfinite(steps) else 0
    if abs(n_steps * dt - t_final) > 1e-9 * max(t_final, dt):
        raise ConfigurationError(f"t_final = {t_final} is not a multiple of the step {dt}")
    return n_steps


def march(state: State, advance: Callable[[State, int, int], State],
          read: Callable[[State], np.ndarray], watched: Callable[[State], np.ndarray],
          grid: LatticeGrid, n_steps: int, snapshot_steps=None,
          finish: Callable[[State], object] | None = None) -> EvolveResult:
    """Step a density ``n_steps`` steps on ``grid``, with snapshots at ``snapshot_steps``.

    ``advance(state, done, stop)`` takes the state from step ``done`` to
    ``stop``, fused or not.  The state is exact at each snapshot (by default
    the run's two ends), where ``read`` gives its (4, n) real Pauli diagonal
    R^mu(x), and at every 64th step and the last, where a non-finite entry
    of ``watched(state)``, or one above 1e6 in size, raises
    :class:`NumericalError`.  ``finish`` maps the final state to the full
    density when :attr:`EvolveResult.build_final` is called.
    """
    marks = np.unique(np.asarray([0, n_steps] if snapshot_steps is None else snapshot_steps,
                                 dtype=int))
    if marks.size and (marks[0] < 0 or marks[-1] > n_steps):
        raise ConfigurationError("snapshot steps outside the run")
    mark_set = set(marks.tolist())
    checks = set(range(64, n_steps + 1, 64)) | {n_steps}
    diags = [read(state)] if 0 in mark_set else []
    done = 0
    for stop in sorted((checks | mark_set) - {0}):
        state = advance(state, done, stop)
        done = stop
        if stop in checks:
            largest = np.abs(watched(state)).max()
            if not np.isfinite(largest) or largest > 1e6:
                raise NumericalError(f"field blow-up at t={stop * grid.spacing:.6g} "
                                     f"(largest |entry| = {largest:.3e})")
        if stop in mark_set:
            diags.append(read(state))
    x, dt = grid.positions, grid.spacing
    diag = np.reshape(diags, (-1, 4, x.size))
    return EvolveResult(series=moment_series(dt * marks, x, dt, diag[:, 0], diag[:, 3]),
                        diagonals=[DiagonalFields(x, d) for d in diag],
                        build_final=None if finish is None else partial(finish, state))


def step_coins(
    field: AngleField,
    t: float,
    grid: LatticeGrid,
    offsets: tuple | None = None,
) -> np.ndarray:
    """Coin stack for one step: angles eps*barred(t, x), plus optional offsets.

    ``offsets`` is a 4-tuple of additive angle contributions (scalars or
    per-site arrays), already carrying their own scaling.
    """
    x = grid.positions
    eps = grid.spacing
    vals = [eps * v for v in field.evaluate(t, x)]
    if offsets is not None:
        vals = [v + np.asarray(o) for v, o in zip(vals, offsets)]
    return coin_matrices(*vals)


# coin contraction per coin stack rank: (T, 2, 2) site-constant, (T, n, 2, 2) per site
_COIN_SUBSCRIPTS = {3: "tab,tbx->tax", 4: "txab,tbx->tax"}


class BatchedWalk:
    """T walks on one lattice, stepped together: amplitudes of shape (T, 2, n).

    A step shifts component 0 one site left and component 1 one site right,
    periodically, then applies each walk's coin: a (T, 2, 2) stack of
    site-constant coins or a (T, n, 2, 2) stack of per-site coins.

    The amplitudes live in two ghost-padded buffers of shape (T, 2, n + 2),
    with the sites in columns 1..n.  A step refreshes the two periodic ghost
    columns of the source buffer, reads the shifted field as one strided view
    of it, and contracts the coins into the other buffer's interior, so no
    shifted copy is made.  The contraction is one einsum per step; a matmul or
    a multiply-add would round differently and change every Monte-Carlo
    output in the last bits.

    A step reads and writes only its own walks' rows, so :meth:`rows` hands
    out a contiguous range of walks as a walk of its own on views of these
    buffers, and disjoint ranges can step on separate threads (numpy's einsum
    and ufuncs release the GIL).  Each output element goes through the same
    einsum whatever the range is, so a split run equals the whole one bit for
    bit.
    """

    def __init__(self, amplitudes: np.ndarray):
        t, _, n = np.shape(amplitudes)
        self._buffers = np.empty((2, t, 2, n + 2), dtype=complex)
        self._buffers[0, :, :, 1:-1] = amplitudes
        self._current = 0

    @property
    def amplitudes(self) -> np.ndarray:
        """The current (T, 2, n) amplitudes: a view of the interior of one buffer."""
        return self._buffers[self._current, :, :, 1:-1]

    def rows(self, lo: int, hi: int) -> "BatchedWalk":
        """Walks lo..hi - 1 as a BatchedWalk that steps views of these buffers.

        The range keeps its own step parity: read its amplitudes from it, not
        from this walk, once it has stepped.
        """
        part = object.__new__(BatchedWalk)
        part._buffers = self._buffers[:, lo:hi]
        part._current = self._current
        return part

    def shifted(self) -> np.ndarray:
        """The shifted field of the current amplitudes, as a read-only view.

        Component 0 at site x reads site x + 1 (column x + 2) and component 1
        reads site x - 1 (column x): the view starts at column 2 of component
        0 and steps to component 1 by the component stride less two columns.
        """
        src = self._buffers[self._current]
        src[:, 0, -1] = src[:, 0, 1]
        src[:, 1, 0] = src[:, 1, -2]
        t, _, width = src.shape
        s_t, s_c, s_x = src.strides
        return np.lib.stride_tricks.as_strided(
            src[:, 0, 2:], shape=(t, 2, width - 2), strides=(s_t, s_c - 2 * s_x, s_x),
            writeable=False)

    def step(self, coins: np.ndarray) -> None:
        """Shift, then apply ``coins`` of shape (T, 2, 2) or (T, n, 2, 2)."""
        shifted = self.shifted()
        self._current ^= 1
        np.einsum(_COIN_SUBSCRIPTS[coins.ndim], coins, shifted, out=self.amplitudes)


def step_state(state: WaveState, coins: np.ndarray) -> WaveState:
    """One shift-then-coin step of a single walk, with one coin (2, 2) or per-site coins (n, 2, 2)."""
    walk = BatchedWalk(state.amplitudes[None])
    walk.step(coins[None])
    return WaveState(walk.amplitudes[0], state.grid)


def walk_step(state: WaveState, field: AngleField, t: float) -> WaveState:
    """One walk step: shift, then the position-dependent coin at time t.

    A constant field steps with one coin for every site, built from the
    scalar angles; its entries equal those of the per-site stack.
    """
    if field.is_constant:
        angles = state.grid.spacing * np.array(field.rates, dtype=float)
        return step_state(state, coin_matrices(*angles))
    return step_state(state, step_coins(field, t, state.grid))


def asymptotic_spread(theta: float) -> float:
    """Long-time spread rate sigma(t)/t of the constant-angle walk, in units a/eps."""
    if not math.isfinite(theta):
        raise DomainError("theta must be finite")
    return math.sqrt(1.0 - math.sin(theta))
