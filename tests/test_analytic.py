import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dlqw import analytic
from dlqw.analytic import (
    DiracWavepacket,
    GeneratorParams,
    InitialData1D,
    TelegraphParams,
    adaptive_gauss_legendre,
    bessel_i,
    bessel_i1_over_x,
    build_packet,
    dispersion,
    eigenvectors,
    expm_stack,
    fourier_propagate,
    generator_matrix,
    group_velocity,
    limit_position,
    spectral_moments,
    telegraph_on_grid,
    telegraph_solution,
)
from dlqw.observables import diffusion_fit
from dlqw.pde import NumericalError, diagonal_evolve, evolve, pauli_from_wave_state
from dlqw.walk import ConfigurationError, DomainError, LatticeGrid, WaveState


class TestBessel:
    def test_values_at_zero(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(1, 0.0) == 0.0

    def test_i0_at_one(self):
        assert bessel_i(0, 1.0) == pytest.approx(1.2660658777520084, rel=1e-13)

    @pytest.mark.parametrize("order", [0, 1])
    def test_against_scipy_sweep(self, order):
        x = np.concatenate([np.linspace(0, 15, 301), np.linspace(15.01, 600, 200)])
        mine = bessel_i(order, x)
        ref = scipy.special.iv(order, x)
        rel = np.abs(mine - ref) / np.maximum(np.abs(ref), 1e-300)
        assert rel.max() < 1e-12

    @pytest.mark.parametrize("order", [0, 1])
    def test_branch_agreement_at_switch(self, order):
        from dlqw.analytic import _bessel_asymptotic, _bessel_series

        x = np.array([15.0])
        a = _bessel_series(order, x)[0]
        b = _bessel_asymptotic(order, x)[0]
        assert abs(a - b) / abs(a) < 1e-11

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            bessel_i(0, -1.0)
        with pytest.raises(DomainError):
            bessel_i(2, 1.0)

    def test_i1_over_x_limit(self):
        assert bessel_i1_over_x(0.0) == pytest.approx(0.5, abs=1e-15)
        x = np.array([1e-8, 1e-4, 1e-2, 0.5, 3.0])
        ref = scipy.special.iv(1, x) / x
        np.testing.assert_allclose(bessel_i1_over_x(x), ref, rtol=1e-12)


def gaussian_profile(center=0.0, width=0.5):
    return lambda y: np.exp(-((y - center) ** 2) / (2.0 * width**2)) / (
        np.sqrt(2 * np.pi) * width
    )


class TestTelegraphSolution:
    def test_t_zero_returns_profile(self):
        init = InitialData1D(f=gaussian_profile(), g=lambda y: np.zeros_like(y))
        x = np.linspace(-2, 2, 11)
        np.testing.assert_allclose(
            telegraph_solution(TelegraphParams(0.3, 0.7), init, 0.0, x),
            init.f(x),
            atol=1e-15,
        )

    def test_free_case_is_dalembert(self):
        f = gaussian_profile(width=0.4)
        g = lambda y: 0.3 * np.exp(-(y**2))
        init = InitialData1D(f=f, g=g)
        params = TelegraphParams(0.0, 0.0)
        x = np.linspace(-1, 1, 9)
        t = 0.8
        got = telegraph_solution(params, init, t, x)

        from scipy.integrate import quad

        expected = []
        for xi in x:
            integral = quad(g, xi - t, xi + t, epsabs=1e-12)[0]
            expected.append(0.5 * (f(xi + t) + f(xi - t)) + 0.5 * integral)
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_satisfies_the_pde(self):
        # plug the closed form into d_tt F + kappa d_t F - d_xx F - b F via
        # central differences; the residual must shrink second order in h
        params = TelegraphParams(gamma1=0.2, gamma2=0.6)
        init = InitialData1D(f=gaussian_profile(width=0.5), g=lambda y: np.zeros_like(y))
        x = np.linspace(-0.8, 0.8, 7)
        t0 = 1.3
        residuals = []
        for h in (0.02, 0.01):
            fm = telegraph_solution(params, init, t0 - h, x)
            f0 = telegraph_solution(params, init, t0, x)
            fp = telegraph_solution(params, init, t0 + h, x)
            ftt = (fp - 2 * f0 + fm) / h**2
            ft = (fp - fm) / (2 * h)
            fxx = (
                telegraph_solution(params, init, t0, x + h)
                - 2 * f0
                + telegraph_solution(params, init, t0, x - h)
            ) / h**2
            residuals.append(np.abs(ftt + params.kappa * ft - fxx - params.b * f0).max())
        assert residuals[1] < residuals[0] / 2.5

    def test_matches_diagonal_fast_path(self):
        # gamma1 = 0 chirality-flip case evolved by the grid solver
        gamma2, t_final, dx = 0.5, 5.0, 0.01
        n = int(round(16.0 / dx))
        grid = LatticeGrid(n_sites=n, spacing=dx)
        x = grid.positions
        width = 0.35
        f = gaussian_profile(width=width)
        r0 = f(x)
        r0 /= r0.sum() * dx
        r3 = np.zeros_like(r0)
        res = diagonal_evolve(r0, r3, grid, GeneratorParams(gamma2=gamma2), t_final)
        init = InitialData1D(f=f, g=lambda y: np.zeros_like(y))
        oracle = telegraph_solution(TelegraphParams(0.0, gamma2), init, t_final, x)
        assert np.abs(res.diagonals[-1].R[0] - oracle).max() <= 1e-3

    @pytest.mark.parametrize("g1", [0.0, 0.3])
    def test_t_coherence_telegraph(self, g1):
        # coherences between x and -x follow the same closed form with
        # kappa = 2 g1 + g2, b = -g1 (g1 + g2); initial slope is -g1 * f.
        # At g1 = 0 this is exactly the transport law of the density.
        g2, t_final, dx = 0.5, 1.0, 0.02
        n = int(round(8.0 / dx))
        grid = LatticeGrid(n_sites=n, spacing=dx)
        x = grid.positions
        envelope = np.exp(-(x**2) / (2 * 0.3**2))
        r = np.zeros((4, n, n), dtype=complex)
        r[1] = np.outer(envelope, envelope)  # even profile: hermitian, T1 = envelope^2
        from dlqw.pde import PauliField

        field = PauliField(r, grid)
        res = evolve(field, GeneratorParams(m=0.0, gamma1=g1, gamma2=g2), t_final)
        t1_num = res.final.antidiagonal().T[1].real

        fvals = envelope**2
        oracle = telegraph_on_grid(TelegraphParams(g1, g2), fvals, -g1 * fvals, dx, t_final)
        assert np.abs(t1_num - oracle).max() <= 2e-3


def interp_data(values, spacing):
    """The interpolant of node values at ``spacing * j`` that the grid oracle assumes."""
    x = spacing * np.arange(values.size)
    return lambda y: np.interp(y, x, values, left=0.0, right=0.0)


def telegraph_by_cells(params, f, g, spacing, t):
    """The closed form at the nodes, by scipy quad on each cell between nodes."""
    from scipy.integrate import quad

    x = spacing * np.arange(f.size)
    fi, gi = interp_data(f, spacing), interp_data(g, spacing)
    damp = math.exp(-0.5 * params.kappa * t)
    out = []
    mu = 0.5 * params.gamma2
    for xi in x:
        def integrand(y):
            w = mu * math.sqrt(max((t - y + xi) * (t + y - xi), 0.0))
            i1_over_w = scipy.special.i1(w) / w if w > 0 else 0.5
            kf = 0.25 * params.gamma2 * t * mu * i1_over_w + 0.25 * params.kappa * scipy.special.i0(w)
            return kf * float(fi(y)) + 0.5 * scipy.special.i0(w) * float(gi(y))

        lo, hi = max(xi - t, x[0]), min(xi + t, x[-1])
        edges = [lo] + [p for p in x if lo < p < hi] + [hi]
        total = sum(quad(integrand, a, b, epsabs=1e-15, epsrel=1e-13)[0]
                    for a, b in zip(edges[:-1], edges[1:]) if b > a)
        out.append(0.5 * damp * (fi(xi + t) + fi(xi - t)) + damp * total)
    return np.array(out)


class TestTelegraphOnGrid:
    def test_free_case_is_dalembert_plus_trapezoid(self):
        # gamma = 0: F = [f(x+t) + f(x-t)]/2 + (1/2) Int g, and the integral of
        # piecewise-linear g between nodes is the trapezoid rule
        rng = np.random.default_rng(3)
        n, dx, cells = 41, 0.1, 5
        f, g = rng.random(n), rng.random(n)
        g[:cells] = g[-cells:] = 0.0
        got = telegraph_on_grid(TelegraphParams(0.0, 0.0), f, g, dx, cells * dx)
        fp = np.pad(f, cells)
        gp = np.pad(g, cells)
        want = np.empty(n)
        for i in range(n):
            window = gp[i:i + 2 * cells + 1]
            trapezoid = dx * (window.sum() - 0.5 * (window[0] + window[-1]))
            want[i] = 0.5 * (fp[i + 2 * cells] + fp[i]) + 0.5 * trapezoid
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())

    def test_matches_adaptive_quadrature(self):
        # both rates on, t not a multiple of dx, smooth data at the nodes
        params, dx, t = TelegraphParams(0.3, 0.7), 0.05, 0.93
        y = dx * np.arange(121) - 3.0
        f = np.exp(-y**2 / (2 * 0.4**2))
        g = -0.3 * f
        got = telegraph_on_grid(params, f, g, dx, t)
        ref = telegraph_solution(params, InitialData1D(interp_data(f, dx), interp_data(g, dx)),
                                 t, dx * np.arange(y.size), tol=1e-9)
        assert np.abs(got - ref).max() <= 5e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("t", [0.73, 1.0], ids=["off-node", "on-node"])
    def test_nonzero_end_nodes(self, t):
        # the interpolant jumps to 0 past the end nodes: their hats are one-sided
        rng = np.random.default_rng(5)
        f, g = 1.0 + rng.random(30), 1.0 + rng.random(30)
        params = TelegraphParams(0.2, 0.6)
        got = telegraph_on_grid(params, f, g, 0.1, t)
        want = telegraph_by_cells(params, f, g, 0.1, t)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    def test_t_zero_returns_data(self):
        f = np.linspace(0.0, 1.0, 9)
        got = telegraph_on_grid(TelegraphParams(0.3, 0.7), f, np.ones(9), 0.1, 0.0)
        np.testing.assert_array_equal(got, f)
        assert got is not f

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            telegraph_on_grid(TelegraphParams(), np.ones(3), np.ones(3), 0.1, -1.0)

    @pytest.mark.parametrize("n, t", [(500, 2.0), (4000, 1.0), (300, 40.0)],
                             ids=["benchmark", "short-cone", "cone-past-grid"])
    def test_peak_within_its_stated_bytes(self, n, t):
        params, f, g = TelegraphParams(0.2, 0.5), np.ones(n), np.ones(n)
        telegraph_on_grid(params, f[:9], g[:9], 0.02, 0.1)  # imports made once, untraced
        tracemalloc.start()
        try:
            telegraph_on_grid(params, f, g, 0.02, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= analytic.telegraph_grid_bytes(n, 0.02, t)

    def test_light_cone_wider_than_grid(self):
        # 2 ceil(t/dx) + 1 = 61 taps on 7 sites
        rng = np.random.default_rng(7)
        f, g = rng.random(7), rng.random(7)
        dx, t = 0.1, 3.0
        # gamma = 0: every node sees all of g, whose integral is the trapezoid rule
        got = telegraph_on_grid(TelegraphParams(), f, g, dx, t)
        want = 0.5 * dx * (g.sum() - 0.5 * (g[0] + g[-1]))
        np.testing.assert_allclose(got, want, rtol=1e-14)
        params = TelegraphParams(0.2, 0.6)
        got = telegraph_on_grid(params, f, g, dx, t)
        want = telegraph_by_cells(params, f, g, dx, t)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


class TestDispersion:
    def test_zero_momentum(self):
        assert dispersion(0.0, 3.0) == 3.0
        vp, _ = eigenvectors(0.0, 3.0)
        np.testing.assert_allclose(vp, [1.0, 1.0], atol=1e-15)

    def test_value(self):
        assert dispersion(5.0, 0.5) == pytest.approx(5.024937810560445, rel=1e-14)

    @given(
        st.floats(-8, 8, allow_nan=False),
        st.floats(0.05, 6, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_eigen_residual(self, p, m):
        h = np.array([[-p, m], [m, p]])  # the free generator in the coin basis
        e = dispersion(p, m)
        vp, vm = eigenvectors(p, m)
        assert np.abs(h @ vp - e * vp).max() < 1e-13 * max(1, e)
        assert np.abs(h @ vm + e * vm).max() < 1e-13 * max(1, e)

    def test_massless_fallback_warns(self):
        for p in (2.0, -2.0):
            h = np.array([[-p, 0.0], [0.0, p]])
            vp, vm = eigenvectors(p, 0.0)
            np.testing.assert_allclose(h @ vp, abs(p) * vp, atol=1e-15)
            np.testing.assert_allclose(h @ vm, -abs(p) * vm, atol=1e-15)


class TestPacket:
    def make(self, p0=1.0, m=3.0, sigma=0.1, dx=0.2, half=40.0):
        n = int(round(2 * half / dx))
        grid = LatticeGrid(n_sites=n, spacing=dx)
        return build_packet(p0, sigma, m, grid)

    def test_norm_and_center(self):
        pk = self.make()
        state = pk.state(0.0)
        assert abs(state.norm() - 1.0) < 1e-8
        prob_p = np.sum(np.abs(pk.amplitudes) ** 2, axis=0)
        p_mean = float(np.sum(pk.momenta * prob_p))
        # the spinor norm |V+(p)|^2 skews the momentum weight upward by
        # sigma^2 (p0 + E)/E^2 at leading order; assert both the smallness
        # and the predicted skew
        e0 = dispersion(1.0, 3.0)
        predicted = 1.0 + 0.1**2 * (1.0 + e0) / e0**2
        assert p_mean == pytest.approx(1.0, rel=5e-3)
        assert p_mean == pytest.approx(predicted, abs=3e-4)

    def test_negative_energy_contamination(self):
        assert self.make().negative_energy_fraction() < 1e-10

    def test_group_velocity_from_snapshots(self):
        pk = self.make()
        x = pk.grid.positions
        means = []
        for t in (0.0, 0.5):
            p = pk.state(t).probabilities()
            means.append(float(np.sum(x * p)))
        v = (means[1] - means[0]) / 0.5
        assert v == pytest.approx(0.316, abs=0.316 * 0.01)

    def test_ballistic_mean_over_long_time(self):
        pk = self.make()
        x = pk.grid.positions
        v_g = group_velocity(1.0, 3.0)
        for t in (2.0, 10.0):
            p = pk.state(t).probabilities()
            mean = float(np.sum(x * p))
            assert mean == pytest.approx(v_g * t, rel=0.01)

    def test_free_evolution_unitary(self):
        pk = self.make()
        assert abs(pk.state(7.0).norm() - 1.0) < 1e-12
        at_zero = np.fft.ifft(pk.amplitudes, axis=1)
        np.testing.assert_allclose(
            pk.state(0.0).amplitudes, at_zero / np.linalg.norm(at_zero), atol=1e-15
        )

    def test_bandwidth_validation(self):
        grid = LatticeGrid(n_sites=64, spacing=1.0)
        with pytest.raises(ConfigurationError):
            build_packet(p0=3.0, sigma=0.1, m=1.0, grid=grid)

    def test_normalization_constant_definition(self):
        wp = DiracWavepacket(p0=1.0, sigma=0.1, m=3.0)

        def weight(p):
            q = p - 1.0
            gs = np.exp(-(q**2) / (2 * 0.01)) / np.sqrt(2 * np.pi * 0.01)
            return wp.norm * gs * (1 + ((dispersion(p, 3.0) + p) / 3.0) ** 2)

        total = adaptive_gauss_legendre(weight, -0.5, 2.5, tol=1e-12)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_norm_of_a_narrow_packet_off_zero_momentum(self):
        # sigma = 1e-12 of p0: the weight is the spinor factor at p0 times a unit Gaussian
        p0, m = 0.5, 0.5
        want = 1.0 / (1.0 + ((dispersion(p0, m) + p0) / m) ** 2)
        assert DiracWavepacket(p0=p0, sigma=1e-12, m=m).norm == pytest.approx(want, rel=1e-12)

    def test_quadrature_without_a_second_panel_count_raises(self):
        with pytest.raises(NumericalError):
            adaptive_gauss_legendre(np.cos, 0.0, 1.0, max_panels=1)


class TestVelocityFormulas:
    def test_group_velocity_values(self):
        assert group_velocity(1.0, 3.0) == pytest.approx(0.31622776601683794, rel=1e-14)
        assert group_velocity(5.0, 0.5) == pytest.approx(0.9950371902099892, rel=1e-14)
        assert group_velocity(2.0, 0.0) == 1.0
        assert group_velocity(-2.0, 0.0) == -1.0
        # where the squares stay in the normal float range, the plain root, bit for bit
        for p0, m in itertools.product((0.3, 1.0, 7.0), (0.1, 0.5, 2.0)):
            assert group_velocity(p0, m) == p0 / math.sqrt(p0 * p0 + m * m)

    @pytest.mark.parametrize("p0, m, want", [
        (1e-300, 0.0, 1.0), (-1e-300, 0.0, -1.0), (1e-160, 0.0, 1.0), (3e-300, 4e-300, 0.6),
        (1e200, 1.0, 1.0), (-1e200, 1e-300, -1.0), (3e200, 4e200, 0.6),
    ])
    def test_group_velocity_where_the_squares_leave_the_float_range(self, p0, m, want):
        assert group_velocity(p0, m) == pytest.approx(want, rel=1e-15)

    def test_subluminal(self):
        for p0 in (0.1, 1.0, 50.0):
            for m in (0.01, 1.0, 10.0):
                assert abs(group_velocity(p0, m)) < 1.0

    def test_limit_position_values(self):
        assert limit_position(0.995, 0.5) == pytest.approx(2.0101, abs=2e-4)
        assert limit_position(0.316, 0.05) == pytest.approx(63.29, abs=0.01)
        # v_g -> 1 recovers the bare diffusion length 1/gamma
        assert limit_position(1.0, 0.5) == pytest.approx(2.0)

    def test_limit_position_domain(self):
        with pytest.raises(DomainError):
            limit_position(0.0, 0.5)
        with pytest.raises(DomainError):
            limit_position(0.9, 0.0)


class TestExpmStack:
    def test_against_scipy_random(self):
        rng = np.random.default_rng(21)
        for scale in (0.1, 1.0, 30.0):
            a = scale * (rng.normal(size=(40, 4, 4)) + 1j * rng.normal(size=(40, 4, 4)))
            mine = expm_stack(a)
            ref = np.stack([scipy.linalg.expm(m) for m in a])
            err = np.abs(mine - ref).max() / max(np.abs(ref).max(), 1.0)
            assert err < 1e-11

    def test_large_norm_oscillatory(self):
        # the use case: near-anti-Hermitian generators with huge imaginary
        # spectrum (t * G at large momenta) plus mild damping
        rng = np.random.default_rng(22)
        h = rng.normal(size=(30, 4, 4)) + 1j * rng.normal(size=(30, 4, 4))
        h = 0.5 * (h + h.conj().transpose(0, 2, 1))
        a = 1500.0 * 1j * h - 0.3 * np.broadcast_to(np.eye(4), h.shape)
        mine = expm_stack(a)
        ref = np.stack([scipy.linalg.expm(m) for m in a])
        assert np.abs(mine - ref).max() < 1e-9

    def test_identity(self):
        np.testing.assert_allclose(
            expm_stack(np.zeros((3, 4, 4))), np.broadcast_to(np.eye(4), (3, 4, 4)),
            atol=1e-15,
        )


class TestMomentumGenerator:
    def test_entries(self):
        params = GeneratorParams(m=0.7, gamma1=0.2, gamma2=0.9)
        g = generator_matrix(1.3, 0.4, params)
        assert g[0, 3] == pytest.approx(1j * 0.9)
        assert g[3, 0] == pytest.approx(1j * 0.9)
        assert g[1, 2] == pytest.approx(1.7)
        assert g[2, 1] == pytest.approx(-1.7)
        assert g[1, 1] == pytest.approx(-0.2)
        assert g[2, 2] == pytest.approx(-1.1)
        assert g[3, 3] == pytest.approx(-0.9)
        assert g[2, 3] == pytest.approx(-1.4)
        assert g[3, 2] == pytest.approx(1.4)

    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_unitary_spectrum_without_noise(self, p, q, m):
        g = generator_matrix(p, q, GeneratorParams(m=m))
        assert np.abs(np.linalg.eigvals(g).real).max() < 1e-12 * max(1.0, abs(p), abs(q), m)


class TestFourierPropagate:
    def make_diagonal(self, n=128, dx=0.05, width=0.3):
        grid = LatticeGrid(n_sites=n, spacing=dx)
        state = WaveState.gaussian(grid, width=width, coin=(1.0, 1j))
        d0 = pauli_from_wave_state(state).diagonal()
        return d0.R[0], d0.R[3], grid

    def test_zero_time_identity(self):
        r0, r3, grid = self.make_diagonal()
        out = fourier_propagate(r0, r3, grid, GeneratorParams(gamma2=0.3), 0.0)
        np.testing.assert_allclose(out, [r0, r3], atol=1e-13)

    def test_norm_preserved_when_unitary(self):
        # without damping each 2x2 block is unitary, so Parseval keeps sum R0^2 + R3^2
        r0, r3, grid = self.make_diagonal()
        out = fourier_propagate(r0, r3, grid, GeneratorParams(), 1.0)
        assert np.sum(out**2) == pytest.approx(np.sum(r0**2 + r3**2), rel=1e-10)

    @pytest.mark.parametrize("gamma2", [0.0, 0.5, 1.3])
    def test_matches_telegraph_solution(self, gamma2):
        # two independent exact solutions: R0 obeys the telegraph equation with
        # kappa = gamma2, and R3 = 0 at t = 0 makes d_t R0 = 0 there
        dx, t = 0.05, 2.0
        grid = LatticeGrid(n_sites=320, spacing=dx)
        x = grid.positions
        f = gaussian_profile(width=0.35)
        out = fourier_propagate(f(x), np.zeros_like(x), grid, GeneratorParams(gamma2=gamma2), t)
        ref = telegraph_solution(TelegraphParams(0.0, gamma2),
                                 InitialData1D(f=f, g=lambda y: np.zeros_like(np.asarray(y))),
                                 t, x, tol=1e-14)
        assert np.abs(out[0] - ref).max() <= 1e-12 * f(x).max()

    def test_massive_rejected(self):
        r0, r3, grid = self.make_diagonal()
        with pytest.raises(ConfigurationError):
            fourier_propagate(r0, r3, grid, GeneratorParams(m=0.4), 1.0)

    def test_matches_strang_run_massless(self):
        dx = 0.04
        n = int(round(16.0 / dx))
        grid = LatticeGrid(n_sites=n, spacing=dx)
        field = pauli_from_wave_state(WaveState.gaussian(grid, width=0.35))
        params = GeneratorParams(m=0.0, gamma2=0.5)
        t = 5.0
        res = evolve(field, params, t)
        d0 = field.diagonal()
        exact = fourier_propagate(d0.R[0], d0.R[3], grid, params, t)
        diff = np.abs(res.diagonals[-1].R[0] - exact[0]).max()
        assert diff <= 4e-3  # splitting error scales as dx^2: 6.6e-5 at dx = 0.04


class TestSpectralMoments:
    def test_trace_conserved(self):
        wp = DiracWavepacket(p0=1.0, sigma=0.2, m=0.8)
        series = spectral_moments(wp, GeneratorParams(m=0.8, gamma2=0.5),
                                  np.linspace(0.0, 4.0, 9))
        assert series.max_trace_drift() < 1e-10

    def test_free_packet_is_exactly_ballistic(self):
        wp = DiracWavepacket(p0=1.0, sigma=0.1, m=3.0)
        times = np.linspace(0.0, 10.0, 21)
        series = spectral_moments(wp, GeneratorParams(m=3.0), times)
        v_g = group_velocity(1.0, 3.0)
        # the mean velocity is <p/E> over the packet's weight: equal to
        # v_g(p0) up to an O(sigma^2) skew, well inside 1%
        np.testing.assert_allclose(series.mean_x[1:], v_g * times[1:], rtol=0.01)
        # quadratic growth of the second moment: exact power law eta = 2
        incr = series.second_moment - series.second_moment[0]
        ratio = incr[1:] / times[1:] ** 2
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-8)

    def test_matches_grid_solver_moments(self):
        p0, sigma, m, g2 = 1.0, 0.5, 0.8, 0.5
        dx = 0.02
        n = int(round(12.0 / dx))
        grid = LatticeGrid(n_sites=n, spacing=dx)
        pk = build_packet(p0, sigma, m, grid)
        field = pauli_from_wave_state(pk.state(0.0))
        res = evolve(field, GeneratorParams(m=m, gamma2=g2), 1.0,
                     snapshot_steps=[0, 10, 20, 30, 40, 50])
        series = spectral_moments(DiracWavepacket(p0, sigma, m),
                                  GeneratorParams(m=m, gamma2=g2), res.series.times)
        np.testing.assert_allclose(series.mean_x, res.series.mean_x, atol=2e-3)
        np.testing.assert_allclose(
            series.second_moment, res.series.second_moment, rtol=5e-3
        )

    def test_tail_variance_slope_is_two_over_gamma(self):
        # exact moment evolution pins the asymptotic growth rate of <x^2>
        gamma = 0.5
        wp = DiracWavepacket(p0=0.5, sigma=0.05, m=0.5)
        times = np.linspace(0.0, 120.0, 121)
        series = spectral_moments(wp, GeneratorParams(m=0.5, gamma2=gamma), times)
        fit = diffusion_fit(series, t_start=60.0)
        assert fit.slope == pytest.approx(2.0 / gamma, rel=0.02)

    def test_doubling_gamma_halves_the_plateau(self):
        from dlqw.observables import regime_times

        wp = DiracWavepacket(p0=5.0, sigma=0.5, m=0.5)
        plateaus = {}
        for gamma in (0.5, 1.0):
            series = spectral_moments(wp, GeneratorParams(m=0.5, gamma2=gamma),
                                      np.linspace(0.0, 60.0, 121))
            plateaus[gamma] = regime_times(series, v_g=group_velocity(5.0, 0.5)).x_plateau
        assert plateaus[0.5] / plateaus[1.0] == pytest.approx(2.0, rel=0.1)

    def test_log_spaced_times_hold_one_step_of_blocks(self):
        # every log-spaced step is distinct, so no step's blocks are kept past it
        wp = DiracWavepacket(p0=0.5, sigma=0.05, m=0.5)
        times = np.concatenate([[0.0], np.geomspace(0.4, 400.0, 399)])
        tracemalloc.start()
        try:
            series = spectral_moments(wp, GeneratorParams(m=0.5, gamma2=0.5), times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert series.max_trace_drift() < 1e-10
        assert peak < 40 * 2**20

    def test_eta_envelope_non_increasing_after_bend(self):
        from dlqw.observables import exponent_series, regime_times

        wp = DiracWavepacket(p0=0.5, sigma=0.05, m=0.5)
        times = np.concatenate([[0.0], np.geomspace(0.1, 200.0, 80)])
        series = spectral_moments(wp, GeneratorParams(m=0.5, gamma2=0.5), times)
        eta = exponent_series(series)
        reg = regime_times(series, v_g=group_velocity(0.5, 0.5))
        sel = (series.times > (reg.t_mid or 1.0)) & np.isfinite(eta)
        tail = eta[sel]
        assert np.all(np.diff(tail) <= 0.05)


class TestMomentumBand:
    """spectral_moments steps only the momenta where a Pauli form is above round-off."""

    @staticmethod
    def forms(wp, p):
        psi, dpsi, d2psi = wp.momentum_spinor_derivatives(p)
        form = lambda bra: np.einsum("xa,mab,xb->mx", bra.conj(), analytic.SIGMA, psi)
        return form(psi), -form(dpsi), form(d2psi)

    @pytest.mark.parametrize("physics, times", [
        # fig2-a: the second moment reaches ~5e3
        ((5.0, 0.5, 0.05, 0.5), np.linspace(0.0, 1500.0, 151)),
        # fig3: 17 log-spaced times, every step distinct
        ((0.5, 0.5, 0.05, 0.5), np.concatenate([[0.0], np.geomspace(0.4, 400.0, 16)])),
    ], ids=["fig2-a", "fig3"])
    def test_band_changes_nothing_above_round_off(self, monkeypatch, physics, times):
        m, p0, sigma, gamma2 = physics
        wp = DiracWavepacket(p0=p0, sigma=sigma, m=m)
        params = GeneratorParams(m=m, gamma2=gamma2)
        band = spectral_moments(wp, params, times)
        monkeypatch.setattr(analytic, "BAND_CUT", 0.0)  # every momentum kept
        full = spectral_moments(wp, params, times)
        for name in ("mean_x", "second_moment", "trace"):
            got, want = getattr(band, name), getattr(full, name)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max(),
                                       err_msg=name)

    def test_band_drops_the_round_off_tails(self):
        wp = DiracWavepacket(p0=0.5, sigma=0.05, m=0.5)
        p = analytic.spectral_momenta(wp.p0, wp.sigma)
        band = analytic._momentum_band(self.forms(wp, p))
        q = (p[band][[0, -1]] - wp.p0) / wp.sigma
        # |psi|^2 ~ e^{-q^2 / 2 sigma^2} is round-off past about 8 of the 12 sigma
        assert -9.0 < q[0] < -7.5 and 7.5 < q[1] < 9.0

    def test_narrow_window_keeps_every_momentum(self):
        wp = DiracWavepacket(p0=0.5, sigma=0.05, m=0.5)
        p = analytic.spectral_momenta(wp.p0, wp.sigma, 201, span=2.0)
        assert analytic._momentum_band(self.forms(wp, p)) == slice(0, 201)

    def test_band_always_holds_each_peak(self):
        forms = [np.zeros((4, 9), dtype=complex) for _ in range(3)]
        forms[1][2, 6] = 1.0
        forms[2][0, 1] = np.nan
        # the all-zero form keeps its first momentum, the NaN form its NaN
        assert analytic._momentum_band(forms) == slice(0, 7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["everywhere", "one momentum"])
    def test_non_finite_forms_raise(self, monkeypatch, bad, where):
        wp = DiracWavepacket(p0=0.5, sigma=0.05, m=0.5)
        derivatives = DiracWavepacket.momentum_spinor_derivatives

        def spoiled(self, p):
            psi, dpsi, d2psi = derivatives(self, p)
            if where == "everywhere":
                psi[:] = bad
            else:
                psi[len(p) // 3, 0] = bad
            return psi, dpsi, d2psi

        monkeypatch.setattr(DiracWavepacket, "momentum_spinor_derivatives", spoiled)
        with pytest.raises((NumericalError, ConfigurationError)):
            spectral_moments(wp, GeneratorParams(m=0.5, gamma2=0.5), np.linspace(0.0, 4.0, 5))


class TestEigenPropagator:
    """The eigenbasis blocks of spectral_moments against the 12x12 Pade exponential."""

    @given(m=st.floats(0, 3), gamma1=st.floats(0, 2), gamma2=st.floats(0, 2),
           p=st.floats(-5, 5), dt=st.floats(1e-3, 50))
    @settings(max_examples=200, deadline=None)
    def test_blocks_match_pade(self, m, gamma1, gamma2, p, dt):
        g0 = generator_matrix(np.array([p]), np.array([p]),
                              GeneratorParams(m=m, gamma1=gamma1, gamma2=gamma2))
        lam, v = np.linalg.eig(g0.real)
        assume(np.linalg.cond(v, 1)[0] <= analytic._EIG_COND_MAX)
        prop = analytic._EigenPropagator(lam, v, np.linalg.inv(v))
        e, l, k = (np.moveaxis(block, -1, 0) for block in prop.blocks(dt))
        w = prop.w
        ref = expm_stack(dt * analytic._moment_generator(g0))
        for got, want in (((v * e[:, None, :]) @ w, ref[:, 0:4, 0:4]),
                          (v @ l @ w, ref[:, 4:8, 0:4]),
                          (v @ l @ w, ref[:, 8:12, 4:8] / 2.0),
                          (v @ (2.0 * k) @ w, ref[:, 8:12, 0:4])):
            scale = float(np.abs(want).max())
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-11 * scale)

    def test_singular_eigenvectors_are_not_kept(self):
        singular = np.eye(4, dtype=complex)
        singular[:, 1] = singular[:, 0]
        v = np.stack([np.eye(4) + 0.1j, singular, 3.0 * np.eye(4)])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(v)
        ok, w = analytic._well_conditioned(v)
        np.testing.assert_array_equal(ok, [True, False, True])
        np.testing.assert_array_equal(w, np.linalg.inv(v[[0, 2]]))
        # the kept mask is cond's, computed from the one inverse
        ok, w = analytic._well_conditioned(v[[0, 2]])
        np.testing.assert_array_equal(ok, np.linalg.cond(v[[0, 2]], 1) <= analytic._EIG_COND_MAX)

    def test_singular_eigenvectors_fall_back_to_pade(self, monkeypatch):
        wp = DiracWavepacket(p0=1.0, sigma=0.2, m=0.5)
        params = GeneratorParams(m=0.5, gamma2=0.5)
        times = np.linspace(0.0, 4.0, 5)
        ref = spectral_moments(wp, params, times, n_momenta=65)
        eig = np.linalg.eig

        def singular_in_the_middle(a):
            # the stack holds the band's momenta only, so its size depends on the packet
            lam, vec = eig(a)
            mid = len(a) // 2
            vec[mid, :, 1] = vec[mid, :, 0]
            return lam, vec

        rows = []
        pade = analytic.expm_stack
        monkeypatch.setattr(analytic.np.linalg, "eig", singular_in_the_middle)
        monkeypatch.setattr(analytic, "expm_stack", lambda a: rows.append(a.shape[0]) or pade(a))
        series = spectral_moments(wp, params, times, n_momenta=65)
        assert rows == [1]  # the one momentum, at the one distinct time step
        for name in ("mean_x", "second_moment", "trace"):
            got, want = getattr(series, name), getattr(ref, name)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max(),
                                       err_msg=name)

    def test_exceptional_point_falls_back_to_pade(self, monkeypatch):
        # with m -> 0 the (r1, r2) block is critically damped at p = gamma2 / 4,
        # which the grid of 201 momenta over [0.025, 0.225] hits at its centre
        wp = DiracWavepacket(p0=0.125, sigma=0.05, m=1e-7)
        params = GeneratorParams(m=1e-7, gamma2=0.5)
        times = np.concatenate([[0.0], np.geomspace(0.1, 40.0, 9)])
        grid = dict(n_momenta=201, span=2.0)
        p = np.linspace(0.025, 0.225, 201)
        g0 = generator_matrix(p, p, params)
        assert np.linalg.cond(np.linalg.eig(g0.real)[1], 1)[100] > 1e6

        rows = []
        pade = analytic.expm_stack

        def counting_expm(a):
            rows.append(a.shape[0])
            return pade(a)

        monkeypatch.setattr(analytic, "expm_stack", counting_expm)
        series = spectral_moments(wp, params, times, **grid)
        assert len(rows) == times.size - 1 and 0 < rows[0] < 201
        assert set(rows) == {rows[0]}

        rows.clear()
        monkeypatch.setattr(analytic, "_EIG_COND_MAX", -1.0)  # every momentum on Pade
        ref = spectral_moments(wp, params, times, **grid)
        assert rows == [201] * (times.size - 1)
        for name in ("mean_x", "second_moment", "trace"):
            got, want = getattr(series, name), getattr(ref, name)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max(),
                                       err_msg=name)
