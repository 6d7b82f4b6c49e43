"""Closed-form oracles: telegraph solution, free Dirac packets, momentum-space propagation.

These routines are independent of the lattice and grid solvers and serve as
references for them: the damped-wave (telegraph) solution in terms of modified
Bessel functions, free massive wavepackets with known group velocity, the
momentum-space propagator of the massless diagonal (R0, R3) system, and
an exact moment evolution that integrates the first and second position
moments without any spatial grid.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .momentum import BAND_CUT
from .observables import MomentSeries
from .pde import GeneratorParams, NumericalError
from .walk import ConfigurationError, DomainError, LatticeGrid, SIGMA, WaveState

SERIES_ASYMPTOTIC_SWITCH = 15.0


def bessel_i(order: int, x) -> np.ndarray | float:
    """Modified Bessel function of the first kind, order 0 or 1, for x >= 0.

    Power series below x = 15 (all terms positive, factorial decay), the
    large-argument asymptotic expansion with optimal truncation above.
    Relative accuracy is ~1e-13 on both branches.
    """
    if order not in (0, 1):
        raise DomainError("order must be 0 or 1")
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    if np.any(xa < 0):
        raise DomainError("bessel_i requires x >= 0")
    out = np.empty_like(xa)
    small = xa <= SERIES_ASYMPTOTIC_SWITCH
    if small.any():
        out[small] = _bessel_series(order, xa[small])
    if (~small).any():
        out[~small] = _bessel_asymptotic(order, xa[~small])
    return float(out[0]) if scalar else out


def _bessel_series(order: int, x: np.ndarray) -> np.ndarray:
    quarter = 0.25 * x * x
    term = np.ones_like(x) if order == 0 else 0.5 * x
    total = term.copy()
    for n in range(1, 60):
        term = term * quarter / (n * (n + order))
        total += term
    return total


def _bessel_asymptotic(order: int, x: np.ndarray) -> np.ndarray:
    # I_nu(x) ~ e^x/sqrt(2 pi x) * sum_k (-1)^k a_k(nu) x^-k; truncate each
    # element where the terms stop decreasing
    four_nu2 = 4.0 * order * order
    total = np.ones_like(x)
    term = np.ones_like(x)
    active = np.ones_like(x, dtype=bool)
    for k in range(1, 40):
        nxt = term * (four_nu2 - (2 * k - 1) ** 2) / (-8.0 * k * x)
        grow = np.abs(nxt) >= np.abs(term)
        active &= ~grow
        total = np.where(active, total + nxt, total)
        term = np.where(active, nxt, term)
        if not active.any() or np.abs(term[active]).max() < 1e-18:
            break
    return np.exp(x) / np.sqrt(2.0 * np.pi * x) * total


def bessel_i1_over_x(x) -> np.ndarray | float:
    """I_1(x)/x, evaluated by series near zero (analytic, limit 1/2)."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xa < 0):
        raise DomainError("bessel_i1_over_x requires x >= 0")
    out = np.empty_like(xa)
    tiny = xa < 1e-3
    if tiny.any():
        q = 0.25 * xa[tiny] ** 2
        out[tiny] = 0.5 * (1.0 + q / 2.0 + q * q / 12.0)
    if (~tiny).any():
        out[~tiny] = bessel_i(1, xa[~tiny]) / xa[~tiny]
    return float(out[0]) if np.asarray(x).ndim == 0 else out


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def adaptive_gauss_legendre(f, a: float, b: float, tol: float = 1e-8,
                            max_panels: int = 4096):
    """Composite 16-point Gauss-Legendre with panel bisection until converged.

    ``f`` maps an array of nodes to values with the node axis last; the
    integral is taken along that axis.  Raises NumericalError with the
    achieved difference when doubling panels stops improving below tol.
    """
    prev = None
    change = np.inf  # no difference yet: fewer than two panel counts tried
    panels = 1
    while panels <= max_panels:
        edges = np.linspace(a, b, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        nodes = (mid[:, None] + half * _GL_NODES[None, :]).ravel()
        weights = np.broadcast_to(half * _GL_WEIGHTS, (panels, 16)).ravel()
        cur = np.asarray(f(nodes)) @ weights
        if prev is not None:
            change = np.max(np.abs(cur - prev))
            if change <= tol * max(1.0, float(np.max(np.abs(cur)))):
                return cur
        prev = cur
        panels *= 2
    raise NumericalError(
        f"quadrature did not converge to {tol} within {max_panels} panels; "
        f"last change {change:.3e}"
    )


@dataclass(frozen=True)
class TelegraphParams:
    """Damped-wave parameters derived from the two channel rates."""

    gamma1: float = 0.0
    gamma2: float = 0.0

    def __post_init__(self):
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ConfigurationError("rate must be non-negative")

    @property
    def kappa(self) -> float:
        return 2.0 * self.gamma1 + self.gamma2

    @property
    def b(self) -> float:
        return -self.gamma1 * (self.gamma1 + self.gamma2)

    @property
    def diffusion(self) -> float:
        return 1.0 / self.gamma2 if self.gamma2 > 0 else math.inf


@dataclass(frozen=True)
class InitialData1D:
    """Initial profile f and initial time derivative g for the telegraph solution."""

    f: "callable"
    g: "callable"
    support: tuple[float, float] | None = None


def _telegraph_kernels(params: TelegraphParams, t: float, z: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The kernels that weigh f and g in the telegraph integral, at z = sqrt(t^2 - d^2).

    K_f = (gamma2/4) t mu I1(mu z)/(mu z) + (kappa/4) I0(mu z) and
    K_g = I0(mu z)/2, with mu = gamma2/2.  Both are entire in d, since the
    series of I0(w) and I1(w)/w hold even powers of w only.
    """
    mu = 0.5 * params.gamma2
    i0 = bessel_i(0, mu * z)
    kf = 0.25 * params.gamma2 * t * mu * bessel_i1_over_x(mu * z) + 0.25 * params.kappa * i0
    return kf, 0.5 * i0


def telegraph_solution(params: TelegraphParams, init: InitialData1D, t: float, x,
                       tol: float = 1e-8):
    """Closed-form solution of d_tt F + kappa d_t F = d_xx F + b F.

    Evaluates, for kappa = 2*gamma1 + gamma2 and b = -gamma1*(gamma1 + gamma2),

        F(t, x) = e^{-kappa t/2} { [f(x+t) + f(x-t)]/2
                  + Int K_f(z) f(y) + K_g(z) g(y) dy },

    with the kernels of :func:`_telegraph_kernels` (the Bessel I0 and I1
    terms), z = sqrt(t^2 - (x-y)^2) and the integral over [x-t, x+t].
    Substituting y = x + t*u makes the kernels shared by all evaluation
    points.  Composite Gauss-Legendre panels are doubled until ``tol``: for
    smooth ``f`` and ``g`` a few panels reach it, but kinked data (such as
    an interpolant of node values) converge only algebraically, and every
    pass evaluates the whole (points x quadrature nodes) grid.  For node
    values use :func:`telegraph_on_grid`, which is exact.
    """
    if t < 0:
        raise DomainError("t must be >= 0")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    scalar = np.asarray(x).ndim == 0
    if t == 0:
        vals = np.asarray(init.f(xa), dtype=float)
        return float(vals[0]) if scalar else vals
    damp = math.exp(-0.5 * params.kappa * t)
    boundary = 0.5 * damp * (np.asarray(init.f(xa + t)) + np.asarray(init.f(xa - t)))

    def integrand(u):
        y = xa[:, None] + t * u[None, :]
        kf, kg = _telegraph_kernels(params, t, t * np.sqrt(np.maximum(1.0 - u * u, 0.0)))
        return kf * np.asarray(init.f(y)) + kg * np.asarray(init.g(y))

    integral = adaptive_gauss_legendre(integrand, -1.0, 1.0, tol=tol)
    vals = boundary + damp * t * integral
    return float(vals[0]) if scalar else vals


def _telegraph_reach(n_sites: int, spacing: float, t: float) -> int:
    """Cells of the light cone on each side of a node, as far as the grid reaches."""
    return min(math.ceil(t / spacing), n_sites)


def telegraph_grid_bytes(n_sites: int, spacing: float, t: float) -> int:
    """Bytes that :func:`telegraph_on_grid` holds at most on ``n_sites`` nodes.

    At most 16 float arrays of its (2 * reach, 16) cell quadrature points
    are alive at once (most of them inside the Bessel series), and 8 of
    the node values and taps.
    """
    reach = _telegraph_reach(n_sites, spacing, t)
    return 16 * (2 * reach * 16 * 8) + 8 * (n_sites + 2 * reach) * 8


def telegraph_on_grid(params: TelegraphParams, f, g, spacing: float, t: float) -> np.ndarray:
    """:func:`telegraph_solution` of node data, at the nodes, with no quadrature grid.

    ``f`` and ``g`` are values at the n nodes ``spacing * j`` of a uniform
    grid; the data between them are their linear interpolant, zero outside
    the end nodes, as ``np.interp(y, x, f, left=0, right=0)`` gives.  So the
    data are sums of hats (one-sided at the two end nodes), and the integral
    over [x_i - t, x_i + t] is a correlation of the node values with taps
    w[k] = Int K(d) hat(d/dx - k) dd over |d| <= t, one per node offset k
    within the light cone (at most n - 1 either way).  A cell's share of a
    tap is a polynomial in d times a kernel that is entire in d, so one
    16-point Gauss-Legendre rule per cell is exact to round-off.
    """
    if t < 0:
        raise DomainError("t must be >= 0")
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if t == 0:
        return f.copy()
    n = f.size
    x = spacing * np.arange(n)
    damp = math.exp(-0.5 * params.kappa * t)
    boundary = 0.5 * damp * (np.interp(x + t, x, f, left=0.0, right=0.0)
                             + np.interp(x - t, x, f, left=0.0, right=0.0))

    # cells [c, c + 1] * spacing, c = -reach .. reach - 1, clipped to |d| <= t
    reach = _telegraph_reach(n, spacing, t)
    c = np.arange(-reach, reach)
    lo = np.maximum(c * spacing, -t)
    hi = np.minimum((c + 1) * spacing, t)
    half = 0.5 * np.maximum(hi - lo, 0.0)  # an outer cell can round to empty
    d = 0.5 * (lo + hi)[:, None] + half[:, None] * _GL_NODES  # (cells, 16)
    kf, kg = _telegraph_kernels(params, t, np.sqrt(np.maximum((t - d) * (t + d), 0.0)))
    rise = d / spacing - c[:, None]  # the hat of the cell's right node, 0 -> 1
    i = np.arange(n)
    first, last = i[: reach + 1], i[max(n - 1 - reach, 0):]  # nodes that reach an end node
    integral = np.zeros(n)
    for data, kern in ((f, kf), (g, kg)):
        kw = kern * (half[:, None] * _GL_WEIGHTS)
        # the taps' halves at k = -reach .. reach: node k rises over cell k - 1, falls over cell k
        rising = np.concatenate([[0.0], (kw * rise).sum(axis=1)])
        falling = np.concatenate([(kw * (1.0 - rise)).sum(axis=1), [0.0]])
        # integral[i] = sum_j data[j] w[j - i]: the full convolution with w reversed
        integral += np.convolve(data, (rising + falling)[::-1])[reach:reach + n]
        # the end nodes' hats are one-sided: node 0 does not rise, node n - 1 does not fall
        integral[first] -= data[0] * rising[reach - first]
        integral[last] -= data[-1] * falling[reach + n - 1 - last]
    return boundary + damp * integral


def dispersion(p, m: float):
    """Relativistic dispersion E_p = sqrt(p^2 + m^2)."""
    return np.sqrt(np.asarray(p, dtype=float) ** 2 + m * m)


def eigenvectors(p, m: float):
    """Positive/negative-energy spinors of the free Hamiltonian at momentum p.

    For m != 0 these are (1, (+-E+p)/m); for m = 0 the Hamiltonian is already
    diagonal and the chirality basis is returned (with a warning), the
    positive-energy vector being the one moving with velocity sign(p).
    """
    pa = np.asarray(p, dtype=float)
    e = dispersion(pa, m)
    if m == 0.0:
        warnings.warn("m = 0: falling back to the chirality eigenbasis", stacklevel=2)
        right = pa >= 0
        v_plus = np.stack([np.where(right, 0.0, 1.0), np.where(right, 1.0, 0.0)], axis=-1)
        v_minus = np.stack([np.where(right, 1.0, 0.0), np.where(right, 0.0, 1.0)], axis=-1)
        return v_plus.astype(complex), v_minus.astype(complex)
    ones = np.ones_like(pa)
    v_plus = np.stack([ones, (e + pa) / m], axis=-1).astype(complex)
    v_minus = np.stack([ones, (-e + pa) / m], axis=-1).astype(complex)
    return v_plus, v_minus


def group_velocity(p0: float, m: float) -> float:
    """dE/dp at p0; the packet transport speed, always inside (-1, 1) for m > 0."""
    if p0 == 0.0 and m == 0.0:
        raise DomainError("group velocity undefined at p0 = m = 0")
    e2 = p0 * p0 + m * m
    if e2 < sys.float_info.min or not math.isfinite(e2):
        # the squares underflow or overflow; hypot scales them, but it is an
        # ulp off the plain root for some ordinary (p0, m)
        return p0 / math.hypot(p0, m)
    return p0 / math.sqrt(e2)


def limit_position(v_g: float, gamma: float) -> float:
    """Late-time mean-position plateau 1/(v_g * gamma) of the noisy evolution."""
    if v_g <= 0 or gamma <= 0:
        raise DomainError("limit position requires v_g > 0 and gamma > 0")
    return 1.0 / (v_g * gamma)


def _gaussian_momentum_profile(q, sigma: float):
    return (2.0 * np.pi * sigma * sigma) ** -0.25 * np.exp(-(q * q) / (4.0 * sigma * sigma))


@dataclass(frozen=True)
class DiracWavepacket:
    """Positive-energy packet with Gaussian momentum profile (center p0, spread sigma)."""

    p0: float
    sigma: float
    m: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ConfigurationError("sigma must be positive")

    @cached_property
    def norm(self) -> float:
        """N fixing the total probability of the two-component packet to one."""
        if self.m == 0.0:
            return 1.0

        def weight(q):
            # over q = p - p0 itself: from absolute momenta, q keeps few digits when sigma << p0
            p = self.p0 + q
            gs = _gaussian_momentum_profile(q, self.sigma) ** 2
            return gs * (1.0 + ((dispersion(p, self.m) + p) / self.m) ** 2)

        span = 14.0 * self.sigma
        total = adaptive_gauss_legendre(weight, -span, span, tol=1e-12)
        return 1.0 / float(total)

    def momentum_spinor(self, p) -> np.ndarray:
        """sqrt(N) * sqrt(g^sigma)(p - p0) * V+(p), shape p.shape + (2,)."""
        q = np.asarray(p, dtype=float) - self.p0
        beta = math.sqrt(self.norm) * _gaussian_momentum_profile(q, self.sigma)
        v_plus, _ = eigenvectors(p, self.m)
        return beta[..., None] * v_plus

    def momentum_spinor_derivatives(self, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(psi, dpsi/dp, d2psi/dp2) evaluated analytically on the momentum axis."""
        if self.m == 0.0:
            raise ConfigurationError("analytic derivatives require m != 0")
        pa = np.asarray(p, dtype=float)
        q = pa - self.p0
        s2 = self.sigma * self.sigma
        beta = math.sqrt(self.norm) * _gaussian_momentum_profile(q, self.sigma)
        dbeta = beta * (-q / (2.0 * s2))
        d2beta = beta * ((q / (2.0 * s2)) ** 2 - 1.0 / (2.0 * s2))
        e = dispersion(pa, self.m)
        v = np.stack([np.ones_like(pa), (e + pa) / self.m], axis=-1)
        dv = np.stack([np.zeros_like(pa), (pa / e + 1.0) / self.m], axis=-1)
        d2v = np.stack([np.zeros_like(pa), self.m / e**3], axis=-1)
        psi = beta[..., None] * v
        dpsi = dbeta[..., None] * v + beta[..., None] * dv
        d2psi = d2beta[..., None] * v + 2.0 * dbeta[..., None] * dv + beta[..., None] * d2v
        return psi.astype(complex), dpsi.astype(complex), d2psi.astype(complex)


@dataclass
class GridPacket:
    """A Dirac packet realized on a periodic lattice's momentum grid."""

    packet: DiracWavepacket
    grid: LatticeGrid
    momenta: np.ndarray
    amplitudes: np.ndarray  # (2, n) discrete momentum amplitudes, unit norm

    def state(self, t: float = 0.0) -> WaveState:
        """Position-space state at time t (positive-energy phases e^{-i E t})."""
        phase = np.exp(-1j * dispersion(self.momenta, self.packet.m) * t)
        amp = np.fft.ifft(self.amplitudes * phase[None, :], axis=1)
        amp /= np.linalg.norm(amp)
        return WaveState(amp, self.grid)

    def mean_velocity(self) -> float:
        """The packet's spectral mean velocity: p / E_p averaged over |psi(p)|^2.

        A packet with a momentum spread moves at this velocity, not at the
        group velocity of its center p0.
        """
        e = dispersion(self.momenta, self.packet.m)
        v = np.divide(self.momenta, e, out=np.zeros_like(e), where=e > 0)
        return float(np.sum(np.abs(self.amplitudes) ** 2 * v))

    def negative_energy_fraction(self) -> float:
        """Max |alpha^-| reconstructed from the discrete amplitudes."""
        _, v_minus = eigenvectors(self.momenta, self.packet.m)
        overlap = np.einsum("xa,ax->x", v_minus.conj(), self.amplitudes)
        norms = np.einsum("xa,xa->x", v_minus.conj(), v_minus).real
        return float(np.abs(overlap / norms).max())


def build_packet(p0: float, sigma: float, m: float, grid: LatticeGrid) -> GridPacket:
    """Sample the positive-energy packet on the lattice's momentum grid.

    Requires the grid bandwidth to cover p0 + 6 sigma and the momentum
    resolution to resolve the profile; the returned amplitudes carry unit
    discrete norm, so ``state(t)`` is a normalized WaveState.
    """
    packet = DiracWavepacket(p0=p0, sigma=sigma, m=m)
    n, dx = grid.n_sites, grid.spacing
    p = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    p_max = np.pi / dx
    if abs(p0) + 6.0 * sigma > p_max:
        raise ConfigurationError(
            f"grid bandwidth pi/dx = {p_max:.3g} cannot resolve p0 + 6 sigma = "
            f"{abs(p0) + 6 * sigma:.3g}"
        )
    if n * dx < 4.0 / sigma:  # at least 8 position widths of 1/(2 sigma)
        raise ConfigurationError(
            f"domain extent {n * dx:.3g} too small for a packet of position "
            f"width {1.0 / (2 * sigma):.3g} (need >= {4.0 / sigma:.3g})"
        )
    spinor = packet.momentum_spinor(p).T  # (2, n)
    # phase referencing the physical origin so the packet is centered at x = 0
    spinor = spinor * np.exp(1j * p * grid.origin)[None, :]
    spinor /= np.linalg.norm(spinor)
    return GridPacket(packet=packet, grid=grid, momenta=p, amplitudes=spinor)


def generator_matrix(p, q, params: GeneratorParams) -> np.ndarray:
    """G(p, q) acting on the Pauli vector (r^0, r^1, r^2, r^3) in momentum space."""
    pa = np.asarray(p, dtype=float)
    qa = np.asarray(q, dtype=float)
    pa, qa = np.broadcast_arrays(pa, qa)
    g1, g2, m = params.gamma1, params.gamma2, params.m
    out = np.zeros(pa.shape + (4, 4), dtype=complex)
    diff = 1j * (pa - qa)
    tot = pa + qa
    out[..., 0, 3] = diff
    out[..., 3, 0] = diff
    out[..., 1, 1] = -g1
    out[..., 1, 2] = tot
    out[..., 2, 1] = -tot
    out[..., 2, 2] = -(g1 + g2)
    out[..., 2, 3] = -2.0 * m
    out[..., 3, 2] = 2.0 * m
    out[..., 3, 3] = -g2
    return out


_PADE6 = np.array(
    [
        math.factorial(12 - j) * math.factorial(6)
        / (math.factorial(12) * math.factorial(6 - j) * math.factorial(j))
        for j in range(7)
    ]
)
_THETA6 = 0.54


def expm_stack(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a stack (..., k, k) by [6/6] Pade with scaling-squaring.

    Matrices are bucketed by their required squaring count, so small and
    large norms coexist in one stack without losing accuracy.
    """
    a = np.asarray(a, dtype=complex)
    k = a.shape[-1]
    lead = a.shape[:-2]
    flat = a.reshape(-1, k, k)
    norms = np.abs(flat).sum(axis=-2).max(axis=-1)  # 1-norm per matrix
    with np.errstate(divide="ignore"):
        s = np.ceil(np.log2(np.maximum(norms / _THETA6, 1.0))).astype(int)
    out = np.empty_like(flat)
    for s_val in np.unique(s):
        idx = np.flatnonzero(s == s_val)
        out[idx] = _pade6_exp(flat[idx] / (2.0**s_val))
        for _ in range(int(s_val)):
            out[idx] = out[idx] @ out[idx]
    return out.reshape(lead + (k, k))


def _pade6_exp(a: np.ndarray) -> np.ndarray:
    k = a.shape[-1]
    eye = np.broadcast_to(np.eye(k, dtype=complex), a.shape)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    even = _PADE6[0] * eye + _PADE6[2] * a2 + _PADE6[4] * a4 + _PADE6[6] * a6
    odd = a @ (_PADE6[1] * eye + _PADE6[3] * a2 + _PADE6[5] * a4)
    return np.linalg.solve(even - odd, even + odd)


def fourier_propagate(r0, r3, grid: LatticeGrid, params: GeneratorParams,
                      t: float) -> np.ndarray:
    """Exact-in-time propagation of the massless diagonal (R0, R3), shape (2, n).

    At m = 0 the diagonal system d_t R0 = d_x R3, d_t R3 = d_x R0 - gamma2 R3
    is closed, and each wavenumber s evolves by exp(t [[0, i s], [i s, -gamma2]]),
    the (0, 3) block of the generator at offset s.
    """
    if t < 0:
        raise DomainError("t must be >= 0")
    if params.m != 0.0:
        raise ConfigurationError("the diagonal (R0, R3) system closes only at m = 0")
    s = 2.0 * np.pi * np.fft.fftfreq(grid.n_sites, d=grid.spacing)
    prop = expm_stack(t * generator_matrix(s, 0.0, params)[:, [0, 3]][:, :, [0, 3]])
    spectrum = np.einsum("sab,bs->as", prop, np.fft.fft(np.stack([r0, r3]), axis=1))
    # prop(-s) = conj(prop(s)), so only rounding and the unpaired Nyquist mode
    # leave an imaginary part
    return np.fft.ifft(spectrum, axis=1).real


# d/ds of the generator at s = p - q = 0: G(p, q) = G(p, p) + s * _G_OFFSET
_G_OFFSET = np.array(
    [
        [0, 0, 0, 1j],
        [0, 0, -1, 0],
        [0, 1, 0, 0],
        [1j, 0, 0, 0],
    ],
    dtype=complex,
)

# Momenta whose eigenvector matrix V has a 1-norm condition number above this
# keep the Pade path.  The eigenbasis blocks lose about 0.4 * eps * cond(V)^3
# relative to exp(dt * big) (measured), so 20 keeps them within 1e-12.  Most
# momenta have cond(V) ~ 3; only those near an exceptional point, where a
# damped 2x2 block is critically damped, exceed it.
_EIG_COND_MAX = 20.0
# Divided differences of e^{dt x} lose digits to cancellation when eigenvalues
# are close.  Below _SERIES_GAP in |gap| * dt, a pair takes the form
# e^{dt mean} sinh(dt gap/2) / (gap/2), which has none, and a triple (by its
# widest gap) a series about its mean, summed until the next term is below
# _SERIES_TOL of the first.
_SERIES_GAP = 1.0
_SERIES_TOL = 1e-17

# the 20 index triples i <= j <= k, and each ordered triple's position among them
_TRIPLES = np.array([(i, j, k) for i in range(4) for j in range(i, 4) for k in range(j, 4)])
_TRIPLE_OF = np.array([
    [tuple(t) for t in _TRIPLES.tolist()].index(tuple(sorted((i, j, k))))
    for i in range(4) for j in range(4) for k in range(4)
])
_DIAGONAL_TRIPLES = [_TRIPLE_OF[21 * i] for i in range(4)]  # (i, i, i)
# a triple's three pairs (by position) and, for each, the position left over
_PAIR_A, _PAIR_C, _PAIR_MID = np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([2, 1, 0])


def _moment_generator(g0: np.ndarray) -> np.ndarray:
    """The 12x12 generator of (r, dr/ds, d2r/ds2) at s = 0, per momentum."""
    big = np.zeros(g0.shape[:-2] + (12, 12), dtype=complex)
    big[..., 0:4, 0:4] = g0
    big[..., 4:8, 4:8] = g0
    big[..., 8:12, 8:12] = g0
    big[..., 4:8, 0:4] = _G_OFFSET
    big[..., 8:12, 4:8] = 2.0 * _G_OFFSET
    return big


class _EigenPropagator:
    """exp(dt * big) for the 12x12 moment system, kept in the eigenbasis of g0.

    With g0 = V diag(lam) W and B = W _G_OFFSET V, the lower block triangle of
    exp(dt * big) is E = e^{dt lam}, L_ij = B_ij f[li, lj] and 2 K with
    K_ik = sum_j B_ij B_jk f[li, lj, lk], where f[...] are the divided
    differences of x -> e^{dt x} (Van Loan 1978; Najfeld & Havel 1995).
    Everything that depends only on lam is computed here once, so a new dt
    costs a few gathers on (16, n) pair and (20, n) triple arrays.  Arrays
    keep the momentum axis last, so a step is a few contiguous multiply-adds.
    """

    def __init__(self, lam: np.ndarray, v: np.ndarray, w: np.ndarray):
        # lam (n, 4) and v (n, 4, 4) as np.linalg.eig returns them, w = inv(v)
        n = lam.shape[0]
        self.v = v
        self.w = w
        b = w @ _G_OFFSET @ v
        lam = self.lam = np.ascontiguousarray(lam.T)  # (4, n)
        self.b = np.ascontiguousarray(b.transpose(1, 2, 0))  # (4, 4, n)
        self.bb = self.b[:, :, None, :] * self.b[None, :, :, :]  # B_ij B_jk, (4, 4, 4, n)
        gap = (lam[:, None] - lam[None, :]).reshape(16, n)
        # gaps this small are on the series side for any dt, and 1/gap could overflow
        self.abs_gap2 = np.abs(gap)
        self.inv_gap2 = np.divide(1.0, gap, out=np.zeros_like(gap), where=self.abs_gap2 > 1e-150)
        self.abs_gap2[::5] = np.inf  # the diagonal, f[li, li] = dt e^{dt li}, is set apart
        self.mean2 = 0.5 * (lam[:, None] + lam[None, :]).reshape(16, n)
        self.half2 = 0.5 * gap

        # f[a, mid, c] = (f[a, mid] - f[mid, c]) / (a - c) over the farthest pair (a, c)
        l3 = lam[_TRIPLES]  # (20, 3, n)
        far = np.argmax(np.abs(l3[:, _PAIR_A] - l3[:, _PAIR_C]), axis=1)  # (20, n)
        rows = np.arange(20)[:, None]
        a, c, mid = (_TRIPLES[rows, pos[far]] for pos in (_PAIR_A, _PAIR_C, _PAIR_MID))
        self.pair_am, self.pair_mc = 4 * a + mid, 4 * mid + c  # rows of the (16, n) array
        gap3 = np.take_along_axis(lam, a, axis=0) - np.take_along_axis(lam, c, axis=0)
        self.abs_gap3 = np.abs(gap3)
        self.inv_gap3 = np.divide(1.0, gap3, out=np.zeros_like(gap3),
                                  where=self.abs_gap3 > 1e-150)
        self.abs_gap3[_DIAGONAL_TRIPLES] = np.inf  # f[li, li, li] = dt^2/2 e^{dt li}
        # series about the triple's mean: elementary symmetric e2, e3 of the deviations
        self.mean3 = l3.mean(axis=1)
        d0, d1, d2 = (l3 - self.mean3[:, None]).transpose(1, 0, 2)
        self.e2 = d0 * d1 + d0 * d2 + d1 * d2
        self.e3 = d0 * d1 * d2

    def blocks(self, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(E, L, K) in eigen coordinates, shapes (4, n), (4, 4, n), (4, 4, n)."""
        n = self.lam.shape[1]
        e = np.exp(dt * self.lam)
        f2 = (e[:, None] - e[None, :]).reshape(16, n) * self.inv_gap2
        near = self.abs_gap2 * dt < _SERIES_GAP
        x = dt * self.half2[near]
        sinhc = np.divide(np.sinh(x), x, out=np.ones_like(x), where=np.abs(x) > 1e-8)
        f2[near] = dt * np.exp(dt * self.mean2[near]) * sinhc
        f2[::5] = dt * e

        f3 = (np.take_along_axis(f2, self.pair_am, axis=0)
              - np.take_along_axis(f2, self.pair_mc, axis=0)) * self.inv_gap3
        near = self.abs_gap3 * dt < _SERIES_GAP
        if near.any():
            # no deviation from the mean exceeds 2/3 of the widest gap
            reach = 2.0 / 3.0 * dt * float(self.abs_gap3[near].max())
            f3[near] = np.exp(dt * self.mean3[near]) * _triple_series(
                dt, dt**2 * self.e2[near], dt**3 * self.e3[near], reach)
        f3[_DIAGONAL_TRIPLES] = 0.5 * dt**2 * e

        l = self.b * f2.reshape(4, 4, n)
        k = (self.bb * f3[_TRIPLE_OF].reshape(4, 4, 4, n)).sum(axis=1)
        return e, l, k


def _well_conditioned(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The matrices of the stack ``v`` whose 1-norm condition number is at most
    ``_EIG_COND_MAX``, as a mask, and their inverses.

    Each matrix is inverted once, and its condition number is
    ``np.linalg.cond(v, 1)`` computed from that inverse.  An exactly singular
    matrix, whose condition number is infinite, makes the stacked inverse
    raise; then the condition numbers come from ``cond``, and only the kept
    matrices are inverted again.
    """
    try:
        w = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        ok = np.linalg.cond(v, 1) <= _EIG_COND_MAX
        return ok, np.linalg.inv(v[ok])
    cond = np.linalg.norm(v, 1, axis=(-2, -1)) * np.linalg.norm(w, 1, axis=(-2, -1))
    ok = cond <= _EIG_COND_MAX
    return ok, w[ok]


def _triple_series(dt: float, u2: np.ndarray, u3: np.ndarray, reach: float) -> np.ndarray:
    """e^{-dt mean} f[a, b, c] from the deviations' scaled e2 = u2 / dt^2, e3 = u3 / dt^3.

    f = e^{dt mean} sum_k dt^{k+2} h_k / (k+2)!, where the complete symmetric
    polynomials h_k of deviations that sum to zero obey h_k = -e2 h_{k-2} + e3 h_{k-3}.
    With every |deviation| * dt <= reach, term k is at most reach^k / k! of
    the first.
    """
    h_3, h_2, h_1 = np.ones_like(u2), np.zeros_like(u2), -u2  # h_{k-3}, h_{k-2}, h_{k-1}
    total = 0.5 - u2 / 24.0
    k = 3
    while reach**k / math.factorial(k) >= _SERIES_TOL:
        h_k = u3 * h_3
        h_k -= u2 * h_2
        total += h_k * (1.0 / math.factorial(k + 2))
        h_3, h_2, h_1 = h_2, h_1, h_k
        k += 1
    return dt**2 * total


def _momentum_band(forms) -> slice:
    """The one slice of momenta on which some (4, n) form exceeds ``BAND_CUT``
    of its own peak (by the norm over the components), and always holds each
    form's peak.  Outside it every form is round-off, and so is the momentum's
    share of the moments, which are linear in the forms."""
    keep = np.zeros(forms[0].shape[1], dtype=bool)
    for m in forms:
        norm = np.linalg.norm(m, axis=0)
        peak = np.argmax(norm)  # a NaN's index, if there is one
        keep |= norm > BAND_CUT * norm[peak]
        keep[peak] = True
    kept = np.flatnonzero(keep)
    return slice(kept[0], kept[-1] + 1)


# momentum quadrature points of spectral_moments
N_MOMENTA = 2048


def spectral_momenta(p0: float, sigma: float, n_momenta: int = N_MOMENTA,
                     span: float = 12.0) -> np.ndarray:
    """The momentum quadrature points of :func:`spectral_moments`: p0 +- span sigma.

    Raises ConfigurationError for a sigma the quadrature cannot resolve:
    sigma^2 underflows, or the window holds fewer than ``n_momenta``
    distinct floats (a sigma far below the spacing of floats near p0).
    """
    if sigma * sigma < sys.float_info.min:
        raise ConfigurationError(f"sigma = {sigma:g} is too small: sigma^2 underflows")
    p = np.linspace(p0 - span * sigma, p0 + span * sigma, n_momenta)
    if not np.all(np.diff(p) > 0):
        raise ConfigurationError(
            f"sigma = {sigma:g} is too small for p0 = {p0:g}: the momentum window "
            f"p0 +- {span:g} sigma cannot hold {n_momenta} distinct points")
    return p


def spectral_moments(
    packet: DiracWavepacket,
    params: GeneratorParams,
    times,
    n_momenta: int = N_MOMENTA,
    span: float = 12.0,
) -> MomentSeries:
    """Exact moment evolution of the noisy dynamics, with no spatial grid.

    The generator is diagonal in the momentum pair (p, q) and linear in the
    offset s = p - q, so the Pauli vector at s = 0 together with its first two
    s-derivatives obeys a closed 12-dimensional linear system per momentum p.
    Integrals of those blocks give the trace and the first two position
    moments.  Only the band of momenta where one of the three forms exceeds
    ``BAND_CUT`` of its own peak is stepped (``_momentum_band``); outside it
    a momentum's share is round-off, and the trapezoid weights stay those of
    the whole axis.  The band's system is propagated in the eigenbasis of the
    4x4 generator (``_EigenPropagator``): one eigendecomposition per momentum,
    and a few array operations per distinct time step.  The weights are
    folded into the row of V that is read back, so each time's moments are
    three weighted sums.  The approximations are still the momentum
    quadrature and the eigenbasis rounding, which the cond(V) guard bounds:
    momenta whose eigenvector matrix has a condition number above
    ``_EIG_COND_MAX`` (near an exceptional point) are propagated by Pade
    matrix exponentials of the 12x12 system instead.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0 or np.any(times < 0):
        raise ConfigurationError("times must be non-negative")
    if times.size > 1 and np.any(np.diff(times) <= 0):
        raise ConfigurationError("times must be strictly increasing")
    p = spectral_momenta(packet.p0, packet.sigma, n_momenta, span)
    psi, dpsi, d2psi = packet.momentum_spinor_derivatives(p)

    def pauli_form(bra, ket):
        # (bra)^dag sigma^mu (ket) per momentum, shape (4, n_p)
        return np.einsum("xa,mab,xb->mx", bra.conj(), SIGMA, ket)

    # the Pauli vector and its first two s-derivatives at s = 0, each (4, n_p)
    forms = (pauli_form(psi, psi), -pauli_form(dpsi, psi), pauli_form(d2psi, psi))
    # the whole axis's trapezoid weights (dp[i-1] + dp[i]) / 2: the band's sum is the full rule's
    weight = 0.5 * (np.diff(p, prepend=p[0]) + np.diff(p, append=p[-1]))
    band = _momentum_band(forms)
    p, weight = p[band], weight[band]
    m0, m1, m2 = (m[:, band] for m in forms)

    g0 = generator_matrix(p, p, params)  # (n_p, 4, 4), real at p = q
    lam, vec = np.linalg.eig(g0.real)
    ok, w = _well_conditioned(vec)
    bad = ~ok
    prop = _EigenPropagator(lam[ok], vec[ok], w)
    # eigen coordinates z = W m of each 4-block; only row 0 of V is read back,
    # with the quadrature weights folded in
    z0, z1, z2 = (np.einsum("xab,bx->ax", prop.w, m[:, ok]) for m in (m0, m1, m2))
    row_w = np.ascontiguousarray(prop.v[:, 0, :].T) * weight[ok]
    w_bad = weight[bad]
    big = _moment_generator(g0[bad])
    y = np.concatenate([m0.T, m1.T, m2.T], axis=1)[bad]  # (n_bad, 12)

    work = np.empty((4,) + z0.shape, dtype=complex)  # one (4, 4, n) product at a time

    def contract(a, z):
        # (a * z).sum(axis=1), the product written into ``work``
        return np.multiply(a, z, out=work).sum(axis=1)

    series = np.empty((times.size, 3))  # trace, mean, second moment
    steps = np.diff(times, prepend=0.0)
    last_use = {round(dt, 15): i for i, dt in enumerate(steps)}  # blocks go after last use
    prop_cache: dict[float, tuple] = {}
    for i, dt in enumerate(steps):
        if dt > 0:
            key = round(dt, 15)
            if key not in prop_cache:
                fallback = expm_stack(dt * big) if bad.any() else None
                prop_cache[key] = prop.blocks(dt) + (fallback,)
            e, l, k, fallback = (prop_cache.pop(key) if last_use[key] == i
                                 else prop_cache[key])
            z2 = e * z2 + 2.0 * (contract(l, z1) + contract(k, z0))
            z1 = e * z1 + contract(l, z0)
            z0 = e * z0
            if fallback is not None:
                y = np.einsum("xab,xb->xa", fallback, y)
        # trace = int r0, <x> = int i dr0/ds, <x^2> = -int d2r0/ds2
        # (a pairwise sum: a BLAS dot was faster but summed with about 3x the error)
        trace, mean, second = [(row_w * z).sum() for z in (z0, z1, z2)] + w_bad @ y[:, 0::4]
        series[i] = trace.real, -mean.imag, -second.real
    not_finite = ~np.isfinite(series)
    if not_finite.any():
        i, col = np.argwhere(not_finite)[0]
        name = ("trace", "mean", "second moment")[col]
        raise NumericalError(f"spectral moments: the {name} is not finite at t = {times[i]:.6g}")
    trace, mean_x, second = series.T.copy()
    return MomentSeries(times=times, mean_x=mean_x, second_moment=second, trace=trace)
