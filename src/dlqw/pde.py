"""Strang-split solver for the Dirac-Lindblad dynamics in Pauli components.

The density operator is decomposed as rho = (1/2) sum_mu r^mu sigma^mu; the
four kernels r^mu(x, x') obey a first-order hyperbolic system with a pointwise
source.  A unitary change of variables v = U r diagonalizes both advection
matrices simultaneously, so with dt = dx the homogeneous flow is an exact
integer grid shift per component and the only discretization error comes from
operator splitting.  The source is integrated with the trapezoid rule and
composed symmetrically (half source, full advection, half source), giving
second-order accuracy.

The skewed (x, x') grid of :func:`evolve` is the position-space Strang
engine.  Its noise part may carry per-separation coefficients kappa(|x - x'|),
handled by one propagator per distance class of the periodic grid; the
default :class:`KernelSet` takes the uniform rates of
:class:`GeneratorParams`, and that run is the reference for
:func:`band_evolve` below, which steps every homogeneous run.  The grid
runs in skewed storage, s[k, b, i] = v[b, i, (i + k) mod n]: a cell's
distance class depends on the offset k alone, so the source step is one
batched matmul over k, the exact advection is an integer roll per
component, and the diagonal is the row s[0].  The field is skewed once at
the start of a run and unskewed once at the end.  The flip channel's
full-band path (:func:`dlqw.noise.channel_run`) steps raw (4, n, n) blocks
with the same :func:`dlqw.walk.roll_components` instead: its mix is one
4x4 matrix for every cell, so one flat matmul, which is faster than the
per-offset matmul of skewed storage, and raw blocks need no skew gather.

A homogeneous run from a pure momentum packet needs no position grid at all
(:func:`band_evolve`): in (p, p') Fourier space the Strang step is a 4x4 mix
and a phase per mode, so only the box of modes the packet occupies is
stepped, and each snapshot diagonal is one n-point inverse FFT.

Every engine here, like the flip channel, steps through the one loop
:func:`dlqw.walk.march`, which takes its snapshots and blow-up checks and
returns an :class:`EvolveResult`.
"""

from __future__ import annotations

import copy
import os
import struct
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from .momentum import ModeBand
from .noise import DensityGrid
from .observables import AntiDiagonalFields, DiagonalFields
from .walk import (
    ConfigurationError,
    LatticeGrid,
    SIGMA,
    WaveState,
    mix_components,
    roll_components,
)
# the one marcher; its result and error are also this module's
from .walk import EvolveResult, NumericalError, State, march, step_count

if TYPE_CHECKING:
    from .analytic import GridPacket


@dataclass(frozen=True)
class GeneratorParams:
    """Mass and channel rates of the continuum generator (potentials fixed to zero)."""

    m: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0

    def __post_init__(self):
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ConfigurationError("rate must be non-negative")


# Characteristic transform and its advection eigenvalues: v = U_CHAR r turns
# both one-sided derivative couplings into diagonal matrices LAMBDA (x side)
# and LAMBDA_P (x' side), each with entries in {-1, +1}.
U_CHAR = np.array(
    [
        [1, 0, 0, 1],
        [0, 1j, 1, 0],
        [0, -1j, 1, 0],
        [-1, 0, 0, 1],
    ],
    dtype=complex,
) / np.sqrt(2.0)
U_CHAR_INV = U_CHAR.conj().T
LAMBDA = np.array([-1, -1, 1, 1])
LAMBDA_P = np.array([-1, 1, -1, 1])
# per-component (x, x') grid shift of one exact advection step
ADVECTION_SHIFTS = tuple(zip(LAMBDA.tolist(), LAMBDA_P.tolist()))


@dataclass
class PauliField:
    """Pauli components r^mu(x, x'), mu = 0..3, on a periodic square grid."""

    r: np.ndarray
    grid: LatticeGrid

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=complex)
        n = self.grid.n_sites
        if self.r.shape != (4, n, n):
            raise ConfigurationError(f"r shape {self.r.shape} != (4, {n}, {n})")

    def trace(self) -> float:
        return float(np.trace(self.r[0]).real * self.grid.spacing)

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.r - self.r.conj().transpose(0, 2, 1)).max())

    def diagonal(self) -> DiagonalFields:
        diag = np.stack([np.diagonal(self.r[mu]) for mu in range(4)])
        return DiagonalFields(self.grid.positions, diag.real)

    def antidiagonal(self) -> AntiDiagonalFields:
        """T^mu(x) = r^mu(x, -x); requires the default centered origin."""
        n = self.grid.n_sites
        i = np.arange(n)
        j = (2 * self.grid.center_index - i) % n
        return AntiDiagonalFields(self.grid.positions, self.r[:, i, j])

    def copy(self) -> "PauliField":
        return PauliField(self.r.copy(), self.grid)


def pauli_from_density(rho: DensityGrid) -> PauliField:
    """Pauli components of a lattice density grid, in density normalization.

    Divides by the lattice spacing so that the diagonal r^0(x, x) integrates
    to the total trace (continuum convention).
    """
    r = np.einsum("mvu,uvxy->mxy", SIGMA, rho.blocks) / rho.grid.spacing
    return PauliField(r, rho.grid)


def pauli_from_wave_state(state: WaveState) -> PauliField:
    """Pauli components of the pure state |psi><psi| (density normalization)."""
    return pauli_from_density(DensityGrid.from_wave_state(state))


def v_transform(field: PauliField) -> np.ndarray:
    """The advection-diagonal variables v = U_CHAR r, shape (4, n, n)."""
    return np.einsum("ab,bxy->axy", U_CHAR, field.r)


def v_inverse(v: np.ndarray, grid: LatticeGrid) -> PauliField:
    return PauliField(np.einsum("ab,bxy->axy", U_CHAR_INV, v), grid)


def source_matrix(params: GeneratorParams) -> np.ndarray:
    """Pointwise source F acting on (r^0, r^1, r^2, r^3)."""
    g1, g2, m = params.gamma1, params.gamma2, params.m
    return np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, -g1, 0.0, 0.0],
            [0.0, 0.0, -(g1 + g2), -2.0 * m],
            [0.0, 0.0, 2.0 * m, -g2],
        ]
    )


def _propagator_from_f(f: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid one-step matrix (I - dt F/2)^-1 (I + dt F/2).

    Every source used here couples r^0 to nothing (its first row and column
    vanish except possibly the scalar decay F[0, 0]), so the propagator is a
    scalar on r^0 plus a 3x3 solve.  With F[0, 0] = 0 the r^0 factor is
    exactly 1, which keeps the trace bit-exact in the homogeneous case.
    """
    h = 0.5 * dt
    lhs0 = 1.0 - h * f[0, 0]
    lhs = np.eye(3) - h * f[1:, 1:]
    rhs = np.eye(3) + h * f[1:, 1:]
    if abs(np.linalg.det(lhs)) < 1e-14 or abs(lhs0) < 1e-14:
        raise ConfigurationError("singular implicit source step; reduce dt")
    out = np.eye(4, dtype=f.dtype)
    out[0, 0] = (1.0 + h * f[0, 0]) / lhs0
    out[1:, 1:] = np.linalg.solve(lhs, rhs)
    return out


StateMap = Callable[[State], State]


def _strang_maps(half_source: StateMap, full_source: StateMap,
                 advect: StateMap) -> tuple[StateMap, StateMap, StateMap]:
    """The three maps of :func:`_strang_advance` from source maps and an advection."""
    return (lambda v: advect(half_source(v)), lambda v: advect(full_source(v)), half_source)


def _mix_maps(t_half: np.ndarray, advect: StateMap) -> tuple[StateMap, StateMap, StateMap]:
    """The maps of :func:`_strang_maps` for the constant half-source mix ``t_half``."""
    return _strang_maps(partial(mix_components, t_half),
                        partial(mix_components, t_half @ t_half), advect)


def _strang_advance(maps: tuple[StateMap, StateMap, StateMap]):
    """The ``advance`` of :func:`march`: ``stop - done`` >= 1 Strang steps, fused.

    A Strang step is half source, exact advection, half source.  The
    trailing half source of each step and the leading one of the next are
    applied together as one full source, so ``maps`` are a half source then
    the advection, a full source then the advection, and the closing half
    source of the last step.
    """
    shifted_half, shifted_full, closing_half = maps

    def advance(v: State, done: int, stop: int) -> State:
        v = shifted_half(v)
        for _ in range(stop - done - 1):
            v = shifted_full(v)
        return closing_half(v)

    return advance


@dataclass(frozen=True)
class KernelChannel:
    """Rate and spatial correlation kernel of one noise channel."""

    rate: float
    kernel: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.rate < 0:
            raise ConfigurationError("rate must be non-negative")
        k0 = float(np.asarray(self.kernel(np.zeros(1)))[0])
        if abs(k0 - 1.0) > 1e-12:
            raise ConfigurationError(f"kernel must satisfy kappa(0) = 1, got {k0}")


@dataclass(frozen=True)
class KernelSet:
    """Correlated-noise channels: identity (l=0), phase flip (sigma^3), coin flip (sigma^1).

    A channel left as None falls back to the spatially uniform rate carried by
    the GeneratorParams (kappa == 1); the identity channel only acts through
    a non-constant kernel and has no uniform counterpart.
    """

    identity: KernelChannel | None = None
    phase_flip: KernelChannel | None = None
    coin_flip: KernelChannel | None = None


def _kernel_noise_diagonals(
    kernels: KernelSet, params: GeneratorParams, dists: np.ndarray
) -> np.ndarray:
    """Per-distance noise coefficients for each Pauli component, shape (n_d, 4).

    Conjugation by sigma^3 flips the sign of the r^1, r^2 components and
    conjugation by sigma^1 flips r^2, r^3, so channel l contributes
    (rate/2) * (s_mu * kappa_l(d) - 1) to component mu with s_mu = +-1.
    """
    n_d = dists.size
    out = np.zeros((n_d, 4))
    signs = {
        "identity": np.array([1.0, 1.0, 1.0, 1.0]),
        "phase_flip": np.array([1.0, -1.0, -1.0, 1.0]),
        "coin_flip": np.array([1.0, 1.0, -1.0, -1.0]),
    }
    fallback_rates = {"identity": 0.0, "phase_flip": params.gamma1, "coin_flip": params.gamma2}
    for name in ("identity", "phase_flip", "coin_flip"):
        ch = getattr(kernels, name)
        if ch is None:
            rate = fallback_rates[name]
            kappa = np.ones(n_d)
        else:
            rate = ch.rate
            kappa = np.asarray(ch.kernel(dists), dtype=float)
        if rate == 0.0:
            continue
        out += 0.5 * rate * (signs[name][None, :] * kappa[:, None] - 1.0)
    return out


def _source_propagators(
    params: GeneratorParams, kernels: KernelSet, dists: np.ndarray, dt: float
) -> np.ndarray:
    """The v-variable source propagator over ``dt`` at each distance, shape (n_d, 4, 4)."""
    mass = source_matrix(GeneratorParams(params.m, 0.0, 0.0))
    return np.stack([U_CHAR @ _propagator_from_f(mass + np.diag(d), dt) @ U_CHAR_INV
                     for d in _kernel_noise_diagonals(kernels, params, dists)])


def skew(v: np.ndarray) -> np.ndarray:
    """Skewed storage of a (4, n, n) field: ``s[k, b, i] = v[b, i, (i + k) mod n]``.

    The offset k = j - i (mod n) of a cell leads, so the cells of one
    distance class share their leading indices and the diagonal is ``s[0]``.
    """
    n = v.shape[-1]
    i = np.arange(n)
    return np.ascontiguousarray(v[:, i, (i[None, :] + i[:, None]) % n].transpose(1, 0, 2))


def unskew(s: np.ndarray) -> np.ndarray:
    """The (4, n, n) field of the skewed storage ``s``; inverse of :func:`skew`."""
    n = s.shape[0]
    i = np.arange(n)
    return np.ascontiguousarray(s[(i[None, :] - i[:, None]) % n, :, i[:, None]].transpose(2, 0, 1))


# per-component (i, k) shift of one exact advection step in skewed storage
SKEWED_SHIFTS = tuple((si, sj - si) for si, sj in ADVECTION_SHIFTS)


def skewed_advect(s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Exact advection of a skewed field over one step dt = dx.

    Each component shifts by one cell along both axes according to its
    characteristic speeds, a pure permutation with no dispersion error.  The
    (x, x') shift (si, sj) of a component is the (i, k) shift (si, sj - si).
    The (b, i, k) view of ``s`` is rolled into the same view of ``out``
    (a new contiguous (k, b, i) array by default), which is returned.
    """
    if out is None:
        out = np.empty_like(s)
    roll_components(s.transpose(1, 2, 0), SKEWED_SHIFTS, out=out.transpose(1, 2, 0))
    return out


class KernelSourceOperator:
    """Per-distance-class source propagators for correlated noise, on skewed fields.

    Cell (i, j) of the periodic grid lies in distance class
    d = min(|i - j|, n - |i - j|).  In the skewed storage of :func:`skew`
    that depends on the offset k = j - i (mod n) alone, as min(k, n - k), so
    :meth:`apply` is one batched matmul of the (n, 4, 4) stack ``P[k]`` of
    class propagators (in v variables) with the (n, 4, n) field.
    """

    def __init__(
        self,
        grid: LatticeGrid,
        kernels: KernelSet,
        params: GeneratorParams,
        dt: float,
    ):
        n = grid.n_sites
        offsets = np.arange(n)
        self._class_of_offset = np.minimum(offsets, n - offsets)
        # (n/2 + 1, 4, 4), indexed by distance class
        self.props = _source_propagators(params, kernels,
                                         np.arange(n // 2 + 1) * grid.spacing, dt)
        self._by_offset = self.props[self._class_of_offset]

    def squared(self) -> "KernelSourceOperator":
        """This operator applied twice, as one pass over the field."""
        out = copy.copy(self)
        out.props = np.stack([t_v @ t_v for t_v in self.props])
        out._by_offset = out.props[self._class_of_offset]
        return out

    def apply(self, s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The source step on a skewed field ``s`` of shape (n, 4, n), into ``out``."""
        return np.matmul(self._by_offset, s, out=out)


def evolve(
    init: PauliField,
    params: GeneratorParams,
    t_final: float,
    kernels: KernelSet = KernelSet(),
    snapshot_steps: list[int] | None = None,
) -> EvolveResult:
    """Integrate the full (x, x') system to t_final with the Strang scheme.

    The position-space Strang engine, stepped in skewed storage
    (:func:`skew`), where a cell's distance class is its offset alone; the
    flip channel keeps raw blocks (see the module notes).  The default
    ``kernels`` take the uniform rates of ``params``.  dt is the grid
    spacing (exact-advection constraint).  :func:`march` takes the
    steps; its snapshots, by default at the run's two ends, record the
    diagonal fields, each from the row s[0] in O(n), and the full field is
    built from the last state only.  Every map writes into whichever of two
    skewed buffers its input is not, so a step allocates no field.
    """
    grid = init.grid
    dt = grid.spacing
    n_steps = step_count(t_final, dt)
    start = skew(v_transform(init))
    buffers = (start, np.empty_like(start))

    def into_other(step):
        return lambda s: step(s, out=buffers[s is buffers[0]])

    half = KernelSourceOperator(grid, kernels, params, 0.5 * dt)
    maps = _strang_maps(into_other(half.apply), into_other(half.squared().apply),
                        into_other(skewed_advect))
    return march(start, _strang_advance(maps),
                 lambda s: (U_CHAR_INV @ s[0]).real, lambda s: s, grid, n_steps,
                 snapshot_steps, lambda s: v_inverse(unskew(s), grid))


def band_evolve(
    packet: "GridPacket",
    params: GeneratorParams,
    t_final: float,
    snapshot_steps: list[int] | None = None,
) -> EvolveResult:
    """:func:`evolve` of the pure start |psi><psi| of a momentum packet, mode by mode.

    The homogeneous Strang step is one constant 4x4 mix and one integer shift
    per component, so in (p, p') Fourier space it multiplies each mode's four
    components by the mix and then by a phase, and no two modes mix.  The
    start rho(p, p') = psi(p) psi*(p') vanishes to round-off outside the box
    of modes above :data:`dlqw.momentum.BAND_CUT` on each axis, and the
    steps keep it there, so only that box (a :class:`ModeBand`) is stepped.
    :func:`march` takes the steps, the blow-up checks (on the diagonal) and
    the snapshots as in :func:`evolve`; each snapshot diagonal sums the modes
    of each offset p - p' and takes one n-point inverse FFT.  The full field
    is built, by one zero-padded inverse 2-D FFT, only when
    :attr:`EvolveResult.final` is read.
    """
    grid = packet.grid
    n, dt = grid.n_sites, grid.spacing
    n_steps = step_count(t_final, dt)

    # psi(x) = sum_k c[:, k] e^{2 pi i k x / n}, the normalized packet state
    modes = ModeBand(packet.amplitudes / (np.sqrt(n) * np.linalg.norm(packet.amplitudes)))
    c = modes.coefficients
    # v(x, x') = sum band[:, k, k'] e^{2 pi i (k x - k' x') / n} over the kept modes
    band = mix_components(U_CHAR, np.einsum("mvu,uk,vl->mkl", SIGMA, c, c.conj()) / dt)
    # Every factor i of U_CHAR multiplies r^1, and the source couples r^1 to no
    # other component, so each i meets its conjugate: the imaginary part of the
    # uniform-rate propagator is exactly 0.0 and ``.real`` drops nothing.
    t_half = np.ascontiguousarray(
        _source_propagators(params, KernelSet(), np.zeros(1), 0.5 * dt)[0].real)
    maps = _mix_maps(t_half, partial(np.multiply, modes.phases(ADVECTION_SHIFTS)))
    return march(band, _strang_advance(maps), lambda b: (U_CHAR_INV @ modes.diagonal(b)).real,
                 modes.diagonal, grid, n_steps, snapshot_steps,
                 lambda b: v_inverse(modes.field(b), grid))


def diagonal_evolve(
    init_r0: np.ndarray,
    init_r3: np.ndarray,
    grid: LatticeGrid,
    params: GeneratorParams,
    t_final: float,
    snapshot_steps: list[int] | None = None,
) -> EvolveResult:
    """Massless fast path: the diagonal (R^0, R^3) system is closed when m = 0.

    The full solver's Strang composition and source step, restricted to the
    two-component system d_t R0 = d_x R3, d_t R3 = d_x R0 - gamma2 R3.
    The phase-flip rate gamma1 does not enter these equations.  The steps,
    the blow-up checks (on the two characteristic fields) and the snapshots
    fall as in :func:`evolve`; no full field is kept.
    """
    if params.m != 0.0:
        raise ConfigurationError("diagonal fast path requires m = 0")
    dt = grid.spacing
    n_steps = step_count(t_final, dt)
    # At m = 0 the source F is diagonal, so the (R0, R3) block of its
    # propagator is exact on its own.  Characteristic variables
    # w_pm = (R0 -+ R3)/sqrt(2): w- advects right, w+ left.
    vmat = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    t_r = _propagator_from_f(source_matrix(params), 0.5 * dt)[np.ix_([0, 3], [0, 3])]
    t_half = vmat.T @ t_r @ vmat
    maps = _mix_maps(t_half, partial(roll_components, shifts=((-1,), (1,))))

    w = vmat.T @ np.stack([np.asarray(init_r0, float), np.asarray(init_r3, float)])
    # each snapshot is (R0, 0, 0, R3)
    return march(w, _strang_advance(maps), lambda w: np.insert(vmat @ w, [1, 1], 0.0, axis=0),
                 lambda w: w, grid, n_steps, snapshot_steps)


MAGIC = b"DLQW"


def write_diagonal_csv(path, diag: DiagonalFields, t: float | None = None) -> None:
    # float(t): a numpy time would print its repr, np.float64(...)
    header = "x,R0,R1,R2,R3" + ("" if t is None else f"  # t={float(t)!r}")
    data = np.column_stack([diag.x, diag.R.T])
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


def write_field_binary(path, field: PauliField, t: float) -> None:
    """Binary dump: magic 'DLQW', uint64 n, f8 dx, f8 t, then 4*n*n (re, im) f8 pairs."""
    n = field.grid.n_sites
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Qdd", n, field.grid.spacing, t))
        # a little-endian complex is its (re, im) f8 pair, so the field is written as it lies
        fh.write(np.ascontiguousarray(field.r, dtype="<c16"))


def read_field_binary(path) -> tuple[PauliField, float]:
    """Read a dump of :func:`write_field_binary`; a truncated or overlong file is refused."""
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ConfigurationError(f"{path}: not a field dump (bad magic)")
        header = fh.read(24)
        if len(header) != 24:
            raise ConfigurationError(f"{path}: truncated header")
        n, dx, t = struct.unpack("<Qdd", header)
        n = int(n)
        expected = 4 * n * n * 2 * 8
        found = os.fstat(fh.fileno()).st_size - fh.tell()
        if found != expected:
            problem = "truncated" if found < expected else "trailing bytes after the"
            raise ConfigurationError(
                f"{path}: {problem} field data (n = {n} needs {expected} bytes, "
                f"found {found})"
            )
        body = fh.read(expected)
    raw = np.frombuffer(body, dtype="<f8").reshape(4, n, n, 2)
    grid = LatticeGrid(n_sites=n, spacing=dx)
    return PauliField(raw[..., 0] + 1j * raw[..., 1], grid), t
