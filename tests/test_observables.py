import numpy as np
import pytest

from dlqw.observables import (
    DiagnosticError,
    DiagonalFields,
    MomentSeries,
    continuity_residual,
    diffusion_fit,
    exponent_series,
    l1_density_distance,
    moments,
    regime_times,
)


def make_grid_density(n=801, dx=0.02, center=0.0, std=0.5):
    x = (np.arange(n) - n // 2) * dx
    d = np.exp(-((x - center) ** 2) / (2 * std**2))
    d /= d.sum() * dx
    return x, d


class TestMoments:
    def test_symmetric_density_zero_mean(self):
        x, d = make_grid_density()
        mean, _ = moments(d, x, x[1] - x[0])
        assert mean == pytest.approx(0.0, abs=1e-10)

    def test_gaussian_moments(self):
        x, d = make_grid_density(center=0.7, std=0.3)
        mean, second = moments(d, x, x[1] - x[0])
        assert mean == pytest.approx(0.7, abs=1e-8)
        assert second == pytest.approx(0.7**2 + 0.3**2, rel=1e-8)

    def test_two_half_deltas(self):
        n, dx, t = 401, 0.1, 12.0
        x = (np.arange(n) - n // 2) * dx
        d = np.zeros(n)
        k = int(round(t / dx))
        d[n // 2 - k] = 0.5 / dx
        d[n // 2 + k] = 0.5 / dx
        mean, second = moments(d, x, x[1] - x[0])
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert second == pytest.approx(t**2, rel=1e-12)


class TestExponentSeries:
    def test_ballistic_series_gives_two(self):
        # first sample at t = 0 so the increment is a pure power law
        t = np.linspace(0.0, 30, 121)
        s = MomentSeries(times=t, mean_x=0.9 * t, second_moment=4.0 + (0.9 * t) ** 2)
        eta = exponent_series(s)
        valid = np.isfinite(eta)
        assert valid.sum() > 100
        np.testing.assert_allclose(eta[valid], 2.0, atol=1e-9)

    def test_diffusive_series_gives_one(self):
        t = np.linspace(0.0, 50, 151)
        s = MomentSeries(times=t, mean_x=np.zeros_like(t), second_moment=1.0 + 8.0 * t)
        eta = exponent_series(s)
        valid = np.isfinite(eta)
        np.testing.assert_allclose(eta[valid], 1.0, atol=1e-9)

    def test_non_positive_increment_is_gap_not_abort(self):
        t = np.linspace(0.1, 5, 40)
        m2 = 1.0 + 0.2 * t
        m2[5] = 1.0  # increment zero at one sample
        s = MomentSeries(times=t, mean_x=np.zeros_like(t), second_moment=m2)
        eta = exponent_series(s)
        assert np.isnan(eta[5])
        assert np.isfinite(eta[20])

    def test_too_few_samples(self):
        s = MomentSeries(times=[1.0, 2.0], mean_x=[0, 0], second_moment=[1, 2])
        with pytest.raises(DiagnosticError):
            exponent_series(s)


class TestRegimeTimes:
    def test_pure_ballistic(self):
        t = np.linspace(0.0, 10, 50)
        s = MomentSeries(times=t, mean_x=0.5 * t, second_moment=1 + (0.5 * t) ** 2)
        r = regime_times(s, v_g=0.5)
        assert r.t1 == pytest.approx(10.0)
        assert r.t2 is None

    def test_pure_plateau(self):
        t = np.linspace(0.0, 10, 50)
        s = MomentSeries(times=t, mean_x=np.full_like(t, 2.0), second_moment=1 + t)
        r = regime_times(s, v_g=0.5)
        assert r.x_plateau == pytest.approx(2.0)
        assert r.t2 == pytest.approx(0.0)

    def test_saturating_curve(self):
        # ballistic start, sharpest bend near t = 1.3, plateau at 2
        t = np.linspace(0.0, 40, 2001)
        xlim, v = 2.0, 1.0
        m = xlim * np.tanh(v * t / xlim)
        s = MomentSeries(times=t, mean_x=m, second_moment=1 + t)
        r = regime_times(s, v_g=v)
        assert r.x_plateau == pytest.approx(xlim, rel=0.01)
        assert r.t1 is not None and 0.0 < r.t1 < 1.0
        assert r.t2 is not None and 3.0 < r.t2 < 10.0
        assert r.t_mid is not None and 0.5 < r.t_mid < 3.0

    @pytest.mark.parametrize("times", [np.linspace(0.0, 10, 50),
                                       np.concatenate([[0.0], np.geomspace(0.4, 400, 30)])],
                             ids=["uniform", "log"])
    @pytest.mark.parametrize("slope", [0.7, 0.0])
    def test_straight_mean_has_no_crossover(self, times, slope):
        # the second difference of a line is round-off, whose argmax is no bend
        s = MomentSeries(times=times, mean_x=0.3 + slope * times, second_moment=1 + times)
        assert regime_times(s, v_g=0.5).t_mid is None


class TestContinuityResidual:
    def test_static_uniform_zero(self):
        n = 64
        r0 = np.full(n, 0.25)
        r3 = np.zeros(n)
        assert continuity_residual(r0, r0, r3, r3, 0.1, 0.05) == 0.0

    def test_exact_translation_residual_second_order(self):
        # R0 advected at unit speed with R3 = -R0 solves the continuity
        # equation; the centered stencils leave an O(dx^2) remainder
        residuals = []
        for dx in (0.04, 0.02):
            n = int(round(10.24 / dx))
            x = (np.arange(n) - n // 2) * dx
            prof = lambda y: np.exp(-(y**2) / (2 * 0.3**2))
            residuals.append(
                continuity_residual(
                    prof(x), prof(x - dx), -prof(x), -prof(x - dx), dt=dx, dx=dx
                )
            )
        assert 3.0 < residuals[0] / residuals[1] < 5.0


class TestDiffusionFit:
    def test_synthetic_4dt(self):
        t = np.linspace(0.0, 20, 60)
        s = MomentSeries(times=t, mean_x=np.zeros_like(t), second_moment=3.0 + 8.0 * t)
        fit = diffusion_fit(s, t_start=5.0)
        assert fit.d_est == pytest.approx(2.0, abs=1e-10)
        assert fit.slope == pytest.approx(8.0, abs=1e-9)
        assert fit.residual_rms < 1e-12

    def test_insufficient_tail(self):
        t = np.linspace(0.0, 20, 30)
        s = MomentSeries(times=t, mean_x=np.zeros_like(t), second_moment=1 + t)
        with pytest.raises(DiagnosticError):
            diffusion_fit(s, t_start=19.0)


class TestSeriesValidation:
    def test_times_must_increase(self):
        with pytest.raises(DiagnosticError):
            MomentSeries(times=[0.0, 1.0, 1.0], mean_x=[0, 0, 0], second_moment=[1, 1, 1])

    def test_l1_distance(self):
        p = np.array([0.2, 0.4, 0.4])
        q = np.array([0.4, 0.4, 0.2])
        assert l1_density_distance(p, q, 0.5) == pytest.approx(0.2)

    def test_diagonal_fields_shape_checked(self):
        with pytest.raises(DiagnosticError):
            DiagonalFields(np.arange(4.0), np.zeros((4, 5)))
