"""Closed-form oracles: telegraph solution, free Dirac packets, momentum-space propagation.

These routines are independent of the lattice and grid solvers and serve as
references for them: the damped-wave (telegraph) solution in terms of modified
Bessel functions, free massive wavepackets with known group velocity, the
momentum-space matrix-exponential propagator of the full noisy dynamics, and
an exact moment evolution that integrates the first and second position
moments without any spatial grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .observables import MomentSeries
from .pde import GeneratorParams, NumericalError, PauliField
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


def telegraph_solution(params: TelegraphParams, init: InitialData1D, t: float, x,
                       tol: float = 1e-8):
    """Closed-form solution of d_tt F + kappa d_t F = d_xx F + b F.

    Evaluates, for kappa = 2*gamma1 + gamma2 and b = -gamma1*(gamma1 + gamma2),

        F(t, x) = e^{-kappa t/2} { [f(x+t) + f(x-t)]/2
                  + (gamma2/2)(t/2) Int I1(mu z)/z f(y) dy
                  + (1/2) Int I0(mu z) [g(y) + (kappa/2) f(y)] dy },

    with mu = gamma2/2, z = sqrt(t^2 - (x-y)^2), the integrals running over
    [x-t, x+t].  Substituting y = x + t*u makes the Bessel factors shared by
    all evaluation points and the integrand analytic in u, so a few
    Gauss-Legendre panels reach tol.
    """
    if t < 0:
        raise DomainError("t must be >= 0")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    scalar = np.asarray(x).ndim == 0
    if t == 0:
        vals = np.asarray(init.f(xa), dtype=float)
        return float(vals[0]) if scalar else vals
    kappa = params.kappa
    mu = 0.5 * params.gamma2
    damp = math.exp(-0.5 * kappa * t)
    boundary = 0.5 * damp * (np.asarray(init.f(xa + t)) + np.asarray(init.f(xa - t)))

    def integrand(u):
        y = xa[:, None] + t * u[None, :]
        z = t * np.sqrt(np.maximum(1.0 - u * u, 0.0))
        fy = np.asarray(init.f(y))
        gy = np.asarray(init.g(y))
        wave = 0.25 * params.gamma2 * t * mu * bessel_i1_over_x(mu * z)[None, :] * fy
        diff = 0.5 * bessel_i(0, mu * z)[None, :] * (gy + 0.5 * kappa * fy)
        return wave + diff

    integral = adaptive_gauss_legendre(integrand, -1.0, 1.0, tol=tol)
    vals = boundary + damp * t * integral
    return float(vals[0]) if scalar else vals


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


def free_hamiltonian(p, m: float) -> np.ndarray:
    """h(p) = [[-p, m], [m, p]], the free generator in the coin basis."""
    pa = np.asarray(p, dtype=float)
    out = np.zeros(pa.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = -pa
    out[..., 1, 1] = pa
    out[..., 0, 1] = m
    out[..., 1, 0] = m
    return out


def group_velocity(p0: float, m: float) -> float:
    """dE/dp at p0; the packet transport speed, always inside (-1, 1) for m > 0."""
    if p0 == 0.0 and m == 0.0:
        raise DomainError("group velocity undefined at p0 = m = 0")
    return p0 / math.sqrt(p0 * p0 + m * m)


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

        def weight(p):
            q = p - self.p0
            gs = _gaussian_momentum_profile(q, self.sigma) ** 2
            return gs * (1.0 + ((dispersion(p, self.m) + p) / self.m) ** 2)

        span = 14.0 * self.sigma
        total = adaptive_gauss_legendre(weight, self.p0 - span, self.p0 + span, tol=1e-12)
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


def free_evolve(packet: GridPacket, t: float) -> WaveState:
    """Free evolution of the packet: multiply momentum amplitudes by e^{-i E t}."""
    return packet.state(t)


@dataclass(frozen=True)
class MomentumGenerator:
    """The 4x4 transport generator between momentum bras p and kets q."""

    p: float
    q: float
    params: GeneratorParams

    @property
    def matrix(self) -> np.ndarray:
        return generator_matrix(self.p, self.q, self.params)


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


def fourier_propagate(init: PauliField, params: GeneratorParams, t: float,
                      chunk_rows: int = 64) -> PauliField:
    """Exact-in-time propagation via per-momentum-pair matrix exponentials.

    Transforms r(x, x') to r(p, q), applies exp(t G(p, q)) to each 4-vector,
    and transforms back.  Memory is bounded by processing blocks of p rows.
    """
    if t < 0:
        raise DomainError("t must be >= 0")
    grid = init.grid
    n = grid.n_sites
    p = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing)
    rt = np.fft.ifft(np.fft.fft(init.r, axis=1), axis=2)
    out = np.empty_like(rt)
    for lo in range(0, n, chunk_rows):
        hi = min(lo + chunk_rows, n)
        g = generator_matrix(p[lo:hi, None], p[None, :], params)
        prop = expm_stack(t * g)
        out[:, lo:hi, :] = np.einsum("xyab,bxy->axy", prop, rt[:, lo:hi, :])
    r_new = np.fft.fft(np.fft.ifft(out, axis=1), axis=2)
    return PauliField(r_new, grid)


def spectral_moments(
    packet: DiracWavepacket,
    params: GeneratorParams,
    times,
    n_momenta: int = 2048,
    span: float = 12.0,
) -> MomentSeries:
    """Exact moment evolution of the noisy dynamics, with no spatial grid.

    The generator is diagonal in the momentum pair (p, q) and linear in the
    offset s = p - q, so the Pauli vector at s = 0 together with its first two
    s-derivatives obeys a closed 12-dimensional linear system per momentum p.
    Integrals of those blocks give the trace and the first two position
    moments; the only approximations are the momentum quadrature and the
    matrix exponentials.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0 or np.any(times < 0):
        raise ConfigurationError("times must be non-negative")
    if times.size > 1 and np.any(np.diff(times) <= 0):
        raise ConfigurationError("times must be strictly increasing")
    p = np.linspace(packet.p0 - span * packet.sigma, packet.p0 + span * packet.sigma,
                    n_momenta)
    psi, dpsi, d2psi = packet.momentum_spinor_derivatives(p)

    def pauli_form(bra, ket):
        # (bra)^dag sigma^mu (ket) per momentum, shape (4, n_p)
        return np.einsum("xa,mab,xb->mx", bra.conj(), SIGMA, ket)

    m0 = pauli_form(psi, psi)
    m1 = -pauli_form(dpsi, psi)
    m2 = pauli_form(d2psi, psi)

    g0 = generator_matrix(p, p, params)  # (n_p, 4, 4)
    g1 = np.array(
        [
            [0, 0, 0, 1j],
            [0, 0, -1, 0],
            [0, 1, 0, 0],
            [1j, 0, 0, 0],
        ],
        dtype=complex,
    )
    big = np.zeros((n_momenta, 12, 12), dtype=complex)
    big[:, 0:4, 0:4] = g0
    big[:, 4:8, 4:8] = g0
    big[:, 8:12, 8:12] = g0
    big[:, 4:8, 0:4] = g1
    big[:, 8:12, 4:8] = 2.0 * g1

    y = np.concatenate([m0.T, m1.T, m2.T], axis=1)  # (n_p, 12)

    means, seconds, traces = [], [], []
    prev_t = 0.0
    prop_cache: dict[float, np.ndarray] = {}
    for t in times:
        dt = t - prev_t
        if dt > 0:
            key = round(dt, 15)
            if key not in prop_cache:
                prop_cache[key] = expm_stack(dt * big)
            y = np.einsum("xab,xb->xa", prop_cache[key], y)
        prev_t = t
        traces.append(float(np.trapezoid(y[:, 0].real, p)))
        means.append(float(np.trapezoid((1j * y[:, 4]).real, p)))
        seconds.append(float(np.trapezoid((-y[:, 8]).real, p)))
    return MomentSeries(
        times=times,
        mean_x=np.array(means),
        second_moment=np.array(seconds),
        trace=np.array(traces),
    )
