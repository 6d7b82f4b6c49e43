"""Strang-split solver for the Dirac-Lindblad dynamics in Pauli components.

The density operator is decomposed as rho = (1/2) sum_mu r^mu sigma^mu; the
four kernels r^mu(x, x') obey a first-order hyperbolic system with a pointwise
source.  A unitary change of variables v = U r diagonalizes both advection
matrices simultaneously, so with dt = dx the homogeneous flow is an exact
integer grid shift per component and the only discretization error comes from
operator splitting.  The source is integrated with an explicit-implicit
one-step scheme (parameter alpha, default 0.5) and composed symmetrically
(half source, full advection, half source), giving second-order accuracy.

The position-dependent noise generalization replaces the source's noise part
with per-separation coefficients kappa(|x - x'|), handled by one propagator
per distance class of the periodic grid.
"""

from __future__ import annotations

import copy
import os
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .noise import DensityGrid
from .observables import AntiDiagonalFields, DiagonalFields, MomentSeries, continuity_residual, moments
from .walk import (
    ConfigurationError,
    LatticeGrid,
    SIGMA,
    WaveState,
    mix_components,
    roll_components,
)


class NumericalError(RuntimeError):
    """The integration produced non-finite or exploding values."""


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

# Jacobians of the r-component system, kept for reference and verified in tests:
# ADVECTION_X = i*P and ADVECTION_XP = ADVECTION_X.T with P the coupling matrix.
ADVECTION_X = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1j, 0],
        [0, -1j, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)
ADVECTION_XP = ADVECTION_X.T.copy()


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


@dataclass
class CharacteristicField:
    """The advection-diagonal variables v = U_CHAR r."""

    v: np.ndarray
    grid: LatticeGrid

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=complex)
        n = self.grid.n_sites
        if self.v.shape != (4, n, n):
            raise ConfigurationError(f"v shape {self.v.shape} != (4, {n}, {n})")


def pauli_from_density(rho: DensityGrid) -> PauliField:
    """Pauli components of a lattice density grid, in density normalization.

    Divides by the lattice spacing so that the diagonal r^0(x, x) integrates
    to the total trace (continuum convention).
    """
    r = np.einsum("mvu,uvxy->mxy", SIGMA, rho.blocks) / rho.grid.spacing
    return PauliField(r, rho.grid)


def density_from_pauli(field: PauliField) -> DensityGrid:
    blocks = 0.5 * field.grid.spacing * np.einsum("mxy,muv->uvxy", field.r, SIGMA)
    return DensityGrid(blocks, field.grid)


def pauli_from_wave_state(state: WaveState) -> PauliField:
    """Pauli components of the pure state |psi><psi| (density normalization)."""
    return pauli_from_density(DensityGrid.from_wave_state(state))


def v_transform(field: PauliField) -> CharacteristicField:
    return CharacteristicField(np.einsum("ab,bxy->axy", U_CHAR, field.r), field.grid)


def v_inverse(cfield: CharacteristicField) -> PauliField:
    return PauliField(np.einsum("ab,bxy->axy", U_CHAR_INV, cfield.v), cfield.grid)


def homogeneous_step(cfield: CharacteristicField, dt: float) -> CharacteristicField:
    """Exact advection over one step; requires dt == grid spacing.

    Each component shifts by one cell along both axes according to its
    characteristic speeds, a pure permutation with no dispersion error.
    """
    _require_unit_cfl(cfield.grid, dt)
    return CharacteristicField(roll_components(cfield.v, ADVECTION_SHIFTS), cfield.grid)


def _require_unit_cfl(grid: LatticeGrid, dt: float) -> None:
    if abs(dt - grid.spacing) > 1e-12 * grid.spacing:
        raise ConfigurationError(
            f"exact advection requires dt == dx, got dt={dt} dx={grid.spacing}"
        )


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


def _propagator_from_f(f: np.ndarray, dt: float, alpha: float) -> np.ndarray:
    """Explicit-implicit one-step matrix (I - (1-a) dt F)^-1 (I + a dt F).

    Every source used here couples r^0 to nothing (its first row and column
    vanish except possibly the scalar decay F[0, 0]), so the propagator is a
    scalar on r^0 plus a 3x3 solve.  With F[0, 0] = 0 the r^0 factor is
    exactly 1, which keeps the trace bit-exact in the homogeneous case.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ConfigurationError("alpha must lie in [0, 1]")
    lhs0 = 1.0 - (1.0 - alpha) * dt * f[0, 0]
    lhs = np.eye(3) - (1.0 - alpha) * dt * f[1:, 1:]
    rhs = np.eye(3) + alpha * dt * f[1:, 1:]
    if abs(np.linalg.det(lhs)) < 1e-14 or abs(lhs0) < 1e-14:
        raise ConfigurationError("singular implicit source step; reduce dt")
    out = np.eye(4, dtype=f.dtype)
    out[0, 0] = (1.0 + alpha * dt * f[0, 0]) / lhs0
    out[1:, 1:] = np.linalg.solve(lhs, rhs)
    return out


@lru_cache(maxsize=128)
def _source_propagator_v(dt: float, m: float, g1: float, g2: float, alpha: float) -> np.ndarray:
    t_r = _propagator_from_f(source_matrix(GeneratorParams(m, g1, g2)), dt, alpha)
    return U_CHAR @ t_r @ U_CHAR_INV


def source_step(
    cfield: CharacteristicField, dt: float, params: GeneratorParams, alpha: float = 0.5
) -> CharacteristicField:
    """Pointwise source integration over dt in characteristic variables."""
    t_v = _source_propagator_v(dt, params.m, params.gamma1, params.gamma2, alpha)
    return CharacteristicField(mix_components(t_v, cfield.v), cfield.grid)


SourceMap = Callable[[CharacteristicField], CharacteristicField]


def _half_sources(dt: float, params: GeneratorParams, alpha: float) -> tuple[SourceMap, SourceMap]:
    """Half-step source of homogeneous noise and its square, as field maps."""
    t_half = _source_propagator_v(0.5 * dt, params.m, params.gamma1, params.gamma2, alpha)
    t_full = t_half @ t_half
    return (lambda c: CharacteristicField(mix_components(t_half, c.v), c.grid),
            lambda c: CharacteristicField(mix_components(t_full, c.v), c.grid))


def _strang_steps(cfield: CharacteristicField, n_steps: int, dt: float,
                  half_source: SourceMap, full_source: SourceMap) -> CharacteristicField:
    """``n_steps`` >= 1 Strang steps: half source, exact advection, half source.

    The trailing half source of each step and the leading one of the next are
    applied together as ``full_source``, so only the last step ends on a half.
    """
    cfield = homogeneous_step(half_source(cfield), dt)
    for _ in range(n_steps - 1):
        cfield = homogeneous_step(full_source(cfield), dt)
    return half_source(cfield)


def strang_step(
    cfield: CharacteristicField, dt: float, params: GeneratorParams, alpha: float = 0.5
) -> CharacteristicField:
    """Half source, exact advection, half source; O(dt^2) accurate globally."""
    return _strang_steps(cfield, 1, dt, *_half_sources(dt, params, alpha))


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


class KernelSourceOperator:
    """Per-distance-class source propagators for correlated noise."""

    def __init__(
        self,
        grid: LatticeGrid,
        kernels: KernelSet,
        params: GeneratorParams,
        dt: float,
        alpha: float = 0.5,
    ):
        n = grid.n_sites
        idx = np.arange(n)
        sep = np.abs(idx[:, None] - idx[None, :])
        sep = np.minimum(sep, n - sep)
        dists = np.arange(n // 2 + 1) * grid.spacing
        diags = _kernel_noise_diagonals(kernels, params, dists)
        mass = source_matrix(GeneratorParams(params.m, 0.0, 0.0))
        self.grid = grid
        self._class_flat = [np.flatnonzero(sep.ravel() == d) for d in range(n // 2 + 1)]
        self._props = []
        for d in range(n // 2 + 1):
            f = mass + np.diag(diags[d])
            t_r = _propagator_from_f(f, dt, alpha)
            self._props.append(U_CHAR @ t_r @ U_CHAR_INV)

    def squared(self) -> "KernelSourceOperator":
        """This operator applied twice, as one pass over the field."""
        out = copy.copy(self)
        out._props = [t_v @ t_v for t_v in self._props]
        return out

    def apply(self, cfield: CharacteristicField) -> CharacteristicField:
        flat = cfield.v.reshape(4, -1)
        out = np.empty_like(flat)
        for t_v, idx in zip(self._props, self._class_flat):
            out[:, idx] = t_v @ flat[:, idx]
        return CharacteristicField(out.reshape(cfield.v.shape), cfield.grid)


def kernel_source_step(
    cfield: CharacteristicField,
    dt: float,
    kernels: KernelSet,
    params: GeneratorParams,
    alpha: float = 0.5,
) -> CharacteristicField:
    """Source integration with per-separation noise coefficients."""
    return KernelSourceOperator(cfield.grid, kernels, params, dt, alpha).apply(cfield)


@dataclass
class EvolveResult:
    """Snapshots and the moment series of one PDE run."""

    series: MomentSeries
    diagonals: list[DiagonalFields]
    antidiagonals: list[AntiDiagonalFields]
    fields: list[PauliField]
    final: PauliField


def _step_marks(t_final: float, dt: float, n_snapshots: int,
                snapshot_steps: list[int] | None) -> tuple[int, np.ndarray]:
    """Step count of a run and its sorted snapshot steps.

    Without ``snapshot_steps``, ``n_snapshots`` steps are spread evenly over
    the run, both ends included.
    """
    n_steps = int(round(t_final / dt)) if t_final > 0 else 0
    if abs(n_steps * dt - t_final) > 1e-9 * max(t_final, dt):
        raise ConfigurationError(f"t_final = {t_final} is not a multiple of dt = {dt}")
    if snapshot_steps is None:
        marks = np.unique(np.linspace(0, n_steps, min(n_snapshots, n_steps + 1)).round().astype(int))
    else:
        marks = np.unique(np.asarray(snapshot_steps, dtype=int))
        if marks.size and (marks[0] < 0 or marks[-1] > n_steps):
            raise ConfigurationError("snapshot steps outside the run")
    return n_steps, marks


def evolve(
    init: PauliField,
    params: GeneratorParams,
    t_final: float,
    kernels: KernelSet | None = None,
    alpha: float = 0.5,
    n_snapshots: int = 21,
    snapshot_steps: list[int] | None = None,
    keep_fields: bool = False,
    keep_antidiagonals: bool = False,
) -> EvolveResult:
    """Integrate the full (x, x') system to t_final with the Strang scheme.

    dt is the grid spacing (exact-advection constraint).  Snapshots record
    the diagonal fields, moments, trace, and the continuity residual between
    consecutive snapshots; full fields are kept only on request.
    """
    if t_final < 0:
        raise ConfigurationError("t_final must be non-negative")
    grid = init.grid
    dt = grid.spacing
    n_steps, marks = _step_marks(t_final, dt, n_snapshots, snapshot_steps)

    if kernels is None:
        half_source, full_source = _half_sources(dt, params, alpha)
    else:
        half = KernelSourceOperator(grid, kernels, params, 0.5 * dt, alpha)
        half_source, full_source = half.apply, half.squared().apply

    cfield = v_transform(init)
    on_diagonal = np.arange(grid.n_sites)
    times, means, seconds, traces, residuals = [], [], [], [], []
    diags: list[DiagonalFields] = []
    antis: list[AntiDiagonalFields] = []
    fields: list[PauliField] = []
    prev_diag: DiagonalFields | None = None
    prev_t = 0.0

    def record(step: int) -> None:
        nonlocal prev_diag, prev_t
        t = step * dt
        # the diagonal of v first, then the 4x4 transform: O(n), not O(n^2)
        r_diag = U_CHAR_INV @ cfield.v[:, on_diagonal, on_diagonal]
        d = DiagonalFields(grid.positions, r_diag.real)
        mean, second = moments(d.density, d.x, d.dx, check_normalization=False)
        times.append(t)
        means.append(mean)
        seconds.append(second)
        traces.append(float(r_diag[0].sum().real * dt))
        if prev_diag is None:
            residuals.append(0.0)
        else:
            residuals.append(
                continuity_residual(
                    prev_diag.R[0], d.R[0], prev_diag.R[3], d.R[3], t - prev_t, d.dx
                )
            )
        diags.append(d)
        if keep_antidiagonals or keep_fields:
            field = v_inverse(cfield)
            if keep_antidiagonals:
                antis.append(field.antidiagonal())
            if keep_fields:
                fields.append(field)
        prev_diag, prev_t = d, t

    # The state must be exact at snapshots, at every 64th step (blow-up
    # check) and at the last step; the steps between them run fused.
    mark_set = set(int(s) for s in marks)
    checks = set(range(64, n_steps + 1, 64)) | {n_steps}
    if 0 in mark_set:
        record(0)
    done = 0
    for stop in sorted((checks | mark_set) - {0}):
        cfield = _strang_steps(cfield, stop - done, dt, half_source, full_source)
        done = stop
        if stop in checks:
            peak = np.abs(cfield.v).max()
            if not np.isfinite(peak) or peak > 1e6:
                raise NumericalError(
                    f"field blow-up at t={stop * dt:.6g} (max |v| = {peak:.3e})"
                )
        if stop in mark_set:
            record(stop)

    final = v_inverse(cfield)
    series = MomentSeries(
        times=np.array(times),
        mean_x=np.array(means),
        second_moment=np.array(seconds),
        trace=np.array(traces),
        continuity_residual=np.array(residuals),
    )
    return EvolveResult(series=series, diagonals=diags, antidiagonals=antis,
                        fields=fields, final=final)


def diagonal_evolve(
    init_r0: np.ndarray,
    init_r3: np.ndarray,
    grid: LatticeGrid,
    params: GeneratorParams,
    t_final: float,
    alpha: float = 0.5,
    n_snapshots: int = 21,
    snapshot_steps: list[int] | None = None,
) -> EvolveResult:
    """Massless fast path: the diagonal (R^0, R^3) system is closed when m = 0.

    Same characteristic splitting as the full solver, restricted to the
    two-component system d_t R0 = d_x R3, d_t R3 = d_x R0 - gamma2 R3.
    The phase-flip rate gamma1 does not enter these equations.  Snapshots
    are taken as in :func:`evolve`.
    """
    if params.m != 0.0:
        raise ConfigurationError("diagonal fast path requires m = 0")
    dt = grid.spacing
    n_steps, marks = _step_marks(t_final, dt, n_snapshots, snapshot_steps)
    # characteristic variables w_pm = (R0 -+ R3)/sqrt(2): w- advects right, w+ left
    vmat = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    lam = ((-1,), (1,))
    f2 = np.array([[0.0, 0.0], [0.0, -params.gamma2]])
    lhs = np.eye(2) - (1 - alpha) * 0.5 * dt * f2
    rhs = np.eye(2) + alpha * 0.5 * dt * f2
    t_r = np.linalg.solve(lhs, rhs)
    t_w = vmat.T @ t_r @ vmat

    w = vmat.T @ np.stack([np.asarray(init_r0, float), np.asarray(init_r3, float)])
    mark_set = set(int(s) for s in marks)
    x = grid.positions

    times, means, seconds, traces, residuals = [], [], [], [], []
    diags: list[DiagonalFields] = []
    prev: DiagonalFields | None = None
    prev_t = 0.0

    def record(step: int) -> None:
        nonlocal prev, prev_t
        t = step * dt
        r0, r3 = vmat @ w
        mean, second = moments(r0, x, dt, check_normalization=False)
        times.append(t)
        means.append(mean)
        seconds.append(second)
        traces.append(float(r0.sum() * dt))
        full = np.zeros((4, x.size))
        full[0], full[3] = r0, r3
        d = DiagonalFields(x, full)
        residuals.append(
            0.0 if prev is None else continuity_residual(
                prev.R[0], r0, prev.R[3], r3, t - prev_t, dt
            )
        )
        diags.append(d)
        prev, prev_t = d, t

    if 0 in mark_set:
        record(0)
    for step in range(1, n_steps + 1):
        w = t_w @ roll_components(t_w @ w, lam)
        if step in mark_set:
            record(step)

    series = MomentSeries(
        times=np.array(times), mean_x=np.array(means), second_moment=np.array(seconds),
        trace=np.array(traces), continuity_residual=np.array(residuals),
    )
    r0, r3 = vmat @ w
    n = grid.n_sites
    final = PauliField(np.zeros((4, n, n), dtype=complex), grid)
    np.fill_diagonal(final.r[0], r0)
    np.fill_diagonal(final.r[3], r3)
    return EvolveResult(series=series, diagonals=diags, antidiagonals=[], fields=[],
                        final=final)


MAGIC = b"DLQW"


def write_diagonal_csv(path, diag: DiagonalFields, t: float | None = None) -> None:
    header = "x,R0,R1,R2,R3" + ("" if t is None else f"  # t={t!r}")
    data = np.column_stack([diag.x, diag.R.T])
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


def write_field_binary(path, field: PauliField, t: float) -> None:
    """Binary dump: magic 'DLQW', uint64 n, f8 dx, f8 t, then 4*n*n (re, im) f8 pairs."""
    n = field.grid.n_sites
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Qdd", n, field.grid.spacing, t))
        inter = np.empty((4, n, n, 2))
        inter[..., 0] = field.r.real
        inter[..., 1] = field.r.imag
        fh.write(inter.astype("<f8").tobytes())


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
    grid = LatticeGrid(n_sites=n, spacing=dx, time_step=dx)
    return PauliField(raw[..., 0] + 1j * raw[..., 1], grid), t
