"""Diagnostics extracted from density snapshots and moment time series.

Everything here is pure post-processing over plain arrays: Pauli-component
diagonals, moments of the position distribution, the running power-law
exponent of the second moment, regime times of the mean position, continuity
residuals, and diffusion-coefficient fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DiagnosticError(ValueError):
    """Input data violates a precondition of a diagnostic."""


@dataclass
class DiagonalFields:
    """The four real diagonal fields R^mu(x) = r^mu(x, x) on a uniform grid."""

    x: np.ndarray
    R: np.ndarray  # shape (4, n), real

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.R = np.asarray(self.R, dtype=float)
        if self.R.shape != (4, self.x.size):
            raise DiagnosticError(f"R shape {self.R.shape} != (4, {self.x.size})")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def density(self) -> np.ndarray:
        return self.R[0]


@dataclass
class AntiDiagonalFields:
    """The four coherence fields T^mu(x) = r^mu(x, -x); complex in general."""

    x: np.ndarray
    T: np.ndarray  # shape (4, n), complex

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.T = np.asarray(self.T, dtype=complex)
        if self.T.shape != (4, self.x.size):
            raise DiagnosticError(f"T shape {self.T.shape} != (4, {self.x.size})")


@dataclass
class MomentSeries:
    """Time series of position moments and conservation diagnostics."""

    times: np.ndarray
    mean_x: np.ndarray
    second_moment: np.ndarray
    trace: np.ndarray | None = None
    continuity_residual: np.ndarray | None = None
    eta: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise DiagnosticError("times must be strictly increasing")
        self.mean_x = np.asarray(self.mean_x, dtype=float)
        self.second_moment = np.asarray(self.second_moment, dtype=float)
        if self.trace is None:
            self.trace = np.ones_like(self.times)
        if self.continuity_residual is None:
            self.continuity_residual = np.zeros_like(self.times)

    def max_trace_drift(self) -> float:
        return float(np.abs(np.asarray(self.trace) - 1.0).max())


def moments(density: np.ndarray, x: np.ndarray, dx: float | None = None,
            check_normalization: bool = True) -> tuple[float, float]:
    """Midpoint-rule first and second (non-centered) moments of a density."""
    density = np.asarray(density, dtype=float)
    x = np.asarray(x, dtype=float)
    dx = float(x[1] - x[0]) if dx is None else dx
    total = density.sum() * dx
    if check_normalization and abs(total - 1.0) > 1e-6:
        raise DiagnosticError(f"density integrates to {total}, expected 1 within 1e-6")
    mean = float((x * density).sum() * dx)
    second = float((x**2 * density).sum() * dx)
    return mean, second


def exponent_series(series: MomentSeries, window: int = 7) -> np.ndarray:
    """Running exponent eta_t = d ln(<x^2>_t - <x^2>_0) / d ln t.

    Least-squares slope of ln(increment) against ln(t) over a sliding window
    of samples.  Entries where the increment is not positive (or t <= 0) are
    reported as NaN rather than aborting the series.
    """
    if window < 2:
        raise DiagnosticError("window must be >= 2 samples")
    t = series.times
    if t.size < window + 1:
        raise DiagnosticError(f"need at least {window + 1} samples, got {t.size}")
    incr = series.second_moment - series.second_moment[0]
    valid = (t > 0) & (incr > 0)
    eta = np.full(t.size, np.nan)
    lt = np.where(valid, np.log(np.where(valid, t, 1.0)), np.nan)
    ly = np.where(valid, np.log(np.where(valid, incr, 1.0)), np.nan)
    half = window // 2
    for i in range(t.size):
        if not valid[i]:
            continue  # gap stays NaN
        lo, hi = max(0, i - half), min(t.size, i - half + window)
        sl_t, sl_y = lt[lo:hi], ly[lo:hi]
        keep = np.isfinite(sl_t) & np.isfinite(sl_y)
        if keep.sum() < 2:
            continue
        a, b = sl_t[keep], sl_y[keep]
        da = a - a.mean()
        denom = (da**2).sum()
        if denom > 0:
            eta[i] = float((da * (b - b.mean())).sum() / denom)
    series.eta = eta
    return eta


@dataclass(frozen=True)
class RegimeTimes:
    """Propagative / diffusive regime boundaries of a mean-position series."""

    t1: float | None
    t2: float | None
    t_mid: float | None
    x_plateau: float


# relative tolerances of regime_times: tracking v_g * t, and staying at the plateau
BALLISTIC_TOL = 0.02
SETTLED_TOL = 0.01
# trailing share of the samples averaged into the plateau value
PLATEAU_FRACTION = 0.1
# a mean whose bend T^2 max|d2<x>/dt2| is below this share of T max|d<x>/dt|
# (or of max|<x>|, if larger) is straight: fig3-free's free packet reads
# 2.7e-11, the bent means of the other presets 0.06 to 169
STRAIGHT_TOL = 1e-9


def regime_times(series: MomentSeries, v_g: float) -> RegimeTimes:
    """Locate the ballistic time t1, the plateau time t2, and the crossover t_mid.

    t1 is the last time where the mean position tracks v_g * t within
    BALLISTIC_TOL (relative); t2 the first time after which the mean stays
    within SETTLED_TOL of the plateau value until the end; t_mid the time of
    the largest-magnitude second finite-difference derivative of the mean
    (the sharpest bend between the ballistic and settled segments).  The
    plateau value is the average over the trailing PLATEAU_FRACTION of
    samples.  t2 is absent when the series has not settled, and t_mid when
    the mean is straight to STRAIGHT_TOL or has fewer than 5 samples.
    """
    t = series.times
    m = series.mean_x
    if t.size < 4:
        raise DiagnosticError("need at least 4 samples")
    tail = max(2, int(np.ceil(PLATEAU_FRACTION * t.size)))
    x_plateau = float(m[-tail:].mean())

    with np.errstate(divide="ignore", invalid="ignore"):
        ballistic = np.abs(m - v_g * t) <= BALLISTIC_TOL * np.abs(v_g * t)
    ballistic &= t > 0
    t1 = float(t[ballistic][-1]) if ballistic.any() else None

    scale = max(abs(x_plateau), 1e-300)
    settled = np.abs(m - x_plateau) <= SETTLED_TOL * scale
    # derivative still large at the end means no plateau was reached
    end_slope = abs(m[-1] - m[-2]) / (t[-1] - t[-2])
    plateau_reached = settled[-1] and end_slope * t[-1] <= 0.05 * scale
    t2 = None
    if plateau_reached:
        i = t.size - 1
        while i > 0 and settled[i - 1]:
            i -= 1
        t2 = float(t[i])

    t_mid = None
    if t.size >= 5:
        d1 = np.gradient(m, t)
        d2 = np.abs(np.gradient(d1, t))
        # a straight mean has no bend: its d2 is round-off, not a crossover
        span = t[-1] - t[0]
        if span * span * d2.max() > STRAIGHT_TOL * max(span * np.abs(d1).max(), np.abs(m).max()):
            t_mid = float(t[int(np.argmax(d2))])
    return RegimeTimes(t1=t1, t2=t2, t_mid=t_mid, x_plateau=x_plateau)


def continuity_residual(
    r0_old: np.ndarray,
    r0_new: np.ndarray,
    r3_old: np.ndarray,
    r3_new: np.ndarray,
    dt: float,
    dx: float,
) -> float:
    """L2 norm of d_t R^0 - d_x R^3 between two consecutive snapshots.

    The time derivative is the forward difference over dt; the current is
    evaluated at the midpoint (average of the two snapshots) with a centered
    spatial stencil, so the residual is second order for smooth fields.
    """
    dt_term = (np.asarray(r0_new) - np.asarray(r0_old)) / dt
    r3_mid = 0.5 * (np.asarray(r3_old) + np.asarray(r3_new))
    dx_term = (np.roll(r3_mid, -1) - np.roll(r3_mid, 1)) / (2.0 * dx)
    res = dt_term - dx_term
    return float(np.sqrt(np.sum(res**2) * dx))


def moment_series(times: np.ndarray, x: np.ndarray, dx: float,
                  r0: np.ndarray, r3: np.ndarray) -> MomentSeries:
    """Moments, trace and continuity residual of k snapshots on one grid.

    ``r0`` and ``r3`` stack the diagonals R^0(x) and R^3(x) at the k
    ``times``, shape (k, n).  The trace is sum(R^0) * dx; the residual of a
    snapshot is taken against the one before it (0 for the first).
    """
    r0 = np.asarray(r0, dtype=float)
    r3 = np.asarray(r3, dtype=float)
    times = np.asarray(times, dtype=float)
    pairs = np.reshape([moments(r, x, dx, check_normalization=False) for r in r0], (-1, 2))
    residuals = np.zeros(times.size)
    for i in range(1, times.size):
        residuals[i] = continuity_residual(r0[i - 1], r0[i], r3[i - 1], r3[i],
                                           times[i] - times[i - 1], dx)
    return MomentSeries(times=times, mean_x=pairs[:, 0], second_moment=pairs[:, 1],
                        trace=r0.sum(axis=1) * dx, continuity_residual=residuals)


@dataclass(frozen=True)
class DiffusionFit:
    """Least-squares fit of the tail second moment to 4*D*(t - t_start)."""

    d_est: float
    slope: float
    residual_rms: float
    t_start: float
    n_samples: int


def diffusion_fit(series: MomentSeries, t_start: float) -> DiffusionFit:
    """Fit the tail of <x^2>_t - <x^2>_{t_start} through the origin.

    The fitted form is 4*D*(t - t_start); ``slope`` is the raw growth rate
    4*D of that form.  Requires at least 10 tail samples.
    """
    t = series.times
    sel = t >= t_start
    if sel.sum() < 10:
        raise DiagnosticError(
            f"diffusion fit needs >= 10 samples at t >= {t_start}, got {int(sel.sum())}"
        )
    tt = t[sel]
    yy = series.second_moment[sel]
    dtt = tt - tt[0]
    dyy = yy - yy[0]
    denom = float((dtt**2).sum())
    if denom == 0:
        raise DiagnosticError("degenerate time axis in diffusion fit")
    slope = float((dtt * dyy).sum() / denom)
    resid = dyy - slope * dtt
    rms = float(np.sqrt(np.mean(resid**2)))
    return DiffusionFit(
        d_est=slope / 4.0,
        slope=slope,
        residual_rms=rms,
        t_start=float(tt[0]),
        n_samples=int(sel.sum()),
    )


def l1_density_distance(p: np.ndarray, q: np.ndarray, dx: float) -> float:
    """L1 distance between two densities sampled on the same grid."""
    return float(np.abs(np.asarray(p) - np.asarray(q)).sum() * dx)
