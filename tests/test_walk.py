import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlqw.pde import ADVECTION_SHIFTS
from dlqw.walk import (
    AngleField,
    BatchedWalk,
    CoinAngles,
    ConfigurationError,
    DomainError,
    GhostGrid,
    LatticeGrid,
    WaveState,
    asymptotic_spread,
    coin_from_euler,
    coin_matrices,
    coin_matrix,
    euler_angles,
    mix_components,
    roll_components,
    step_coins,
    step_state,
    walk_step,
)

angles_st = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def run_walk(theta, steps, coin=(1.0, 1.0), n=None):
    n = n or (2 * steps + 64)
    grid = LatticeGrid(n_sites=n)
    state = WaveState.delta(grid, coin=coin)
    field = AngleField(theta_bar=theta)  # eps = 1, so theta is applied unscaled
    for k in range(steps):
        state = walk_step(state, field, t=float(k))
    return state


class TestCoinMatrix:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(coin_matrix(CoinAngles(0, 0, 0, 0)), np.eye(2), atol=1e-15)

    def test_half_pi_theta_is_i_sigma1(self):
        expected = np.array([[0, 1j], [1j, 0]])
        np.testing.assert_allclose(
            coin_matrix(CoinAngles(0, 0, np.pi / 2, 0)), expected, atol=1e-15
        )

    @given(angles_st, angles_st, angles_st, angles_st)
    @settings(max_examples=200, deadline=None)
    def test_unitarity(self, x0, x1, th, ch):
        u = coin_matrix(CoinAngles(x0, x1, th, ch))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-13)

    def test_nonfinite_angle_rejected(self):
        with pytest.raises(DomainError):
            CoinAngles(np.nan, 0, 0, 0)
        with pytest.raises(DomainError):
            CoinAngles(0, np.inf, 0, 0)


class TestEulerAngles:
    def test_zero(self):
        assert euler_angles(CoinAngles(0, 0, 0, 0)) == (0, 0, 0)

    def test_chi_zero_collapses(self):
        a, b = 0.7, -0.4
        assert euler_angles(CoinAngles(0, a, b, 0)) == pytest.approx((a, a, 2 * b))

    def test_worked_example(self):
        # psi = xi1 - chi, phi = xi1 + chi, Theta = 2 theta
        assert euler_angles(CoinAngles(0, 0.3, 0.2, 0.1)) == pytest.approx((0.2, 0.4, 0.4))

    @given(angles_st, angles_st, angles_st)
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, x1, th, ch):
        psi, phi, big = euler_angles(CoinAngles(0, x1, th, ch))
        back = coin_from_euler(psi, phi, big)
        assert back.xi1 == pytest.approx(x1, abs=1e-12)
        assert back.theta == pytest.approx(th, abs=1e-12)
        assert back.chi == pytest.approx(ch, abs=1e-12)


def shift(state):
    """The walk engine's coin-conditioned shift of one state, with no coin."""
    return WaveState(BatchedWalk(state.amplitudes[None]).shifted()[0].copy(), state.grid)


class TestShift:
    def test_left_component_moves_left(self):
        grid = LatticeGrid(n_sites=8)
        s = WaveState.delta(grid, coin=(1.0, 0.0))
        out = shift(s)
        assert out.amplitudes[0, grid.center_index - 1] == 1.0
        assert np.count_nonzero(out.amplitudes) == 1

    def test_right_component_moves_right(self):
        grid = LatticeGrid(n_sites=8)
        s = WaveState.delta(grid, coin=(0.0, 1.0))
        out = shift(s)
        assert out.amplitudes[1, grid.center_index + 1] == 1.0
        assert np.count_nonzero(out.amplitudes) == 1

    def test_periodicity(self):
        grid = LatticeGrid(n_sites=6)
        rng = np.random.default_rng(0)
        s = WaveState(rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6)), grid)
        out = s
        for _ in range(grid.n_sites):
            out = shift(out)
        np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=0)


class TestBatchedWalk:
    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("t", [1, 3])
    def test_shifted_view_matches_roll(self, n, t):
        # the steps alternate the two buffers, so each buffer's ghost columns
        # are refreshed and read at least once
        rng = np.random.default_rng(n + 10 * t)
        walk = BatchedWalk(rng.normal(size=(t, 2, n)) + 1j * rng.normal(size=(t, 2, n)))
        for _ in range(4):
            want = np.stack([roll_components(a, ((-1,), (1,))) for a in walk.amplitudes])
            np.testing.assert_array_equal(walk.shifted(), want)
            walk.step(coin_matrices(*rng.normal(size=(4, t))))

    def test_step_is_coin_after_shift(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=(2, 2, 6)) + 1j * rng.normal(size=(2, 2, 6))
        constant = coin_matrices(*rng.normal(size=(4, 2)))
        per_site = coin_matrices(*rng.normal(size=(4, 2, 6)))
        walk = BatchedWalk(amps)
        walk.step(constant)
        walk.step(per_site)
        want = amps
        for coins in (constant[:, None], per_site):
            rolled = np.stack([roll_components(a, ((-1,), (1,))) for a in want])
            want = np.einsum("txab,tbx->tax", np.broadcast_to(coins, (2, 6, 2, 2)), rolled)
        np.testing.assert_allclose(walk.amplitudes, want, rtol=0, atol=1e-15)


class TestGhostGrid:
    @pytest.mark.parametrize("n", [4, 5, 7, 8])
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_step_is_roll_after_mix(self, n, steps):
        rng = np.random.default_rng(10 * n + steps)
        v = rng.normal(size=(4, n, n)) + 1j * rng.normal(size=(4, n, n))
        grid = GhostGrid(v)
        want = v
        for _ in range(steps):
            m = rng.normal(size=(4, 4))
            grid.step(m)
            want = roll_components(mix_components(m, want), ADVECTION_SHIFTS)
            np.testing.assert_array_equal(grid.field, want)
        m = rng.normal(size=(4, 4))
        grid.mix(m)
        np.testing.assert_array_equal(grid.field, mix_components(m, want))

    @pytest.mark.parametrize("n", [4, 5])
    def test_ghost_ring_is_the_periodic_copy(self, n):
        # the passes alternate the two buffers, so each buffer's ring is
        # checked after a step and after a mix
        rng = np.random.default_rng(n)
        grid = GhostGrid(rng.normal(size=(4, n, n)) + 1j * rng.normal(size=(4, n, n)))
        for op in ("step", "mix", "step", "step", "mix"):
            getattr(grid, op)(rng.normal(size=(4, 4)))
            wrapped = np.pad(grid.field, ((0, 0), (1, 1), (1, 1)), mode="wrap")
            np.testing.assert_array_equal(grid.padded, wrapped)


class TestMixAndShift:
    @pytest.mark.parametrize("shifts", [((-1, -1), (-1, 1), (1, -1), (1, 1)),
                                        ((0, 0), (2, -3), (-5, 0), (7, 7))])
    def test_roll_matches_numpy_roll(self, shifts):
        rng = np.random.default_rng(1)
        field = rng.normal(size=(4, 5, 7)) + 1j * rng.normal(size=(4, 5, 7))
        want = np.stack([np.roll(field[k], s, axis=(0, 1)) for k, s in enumerate(shifts)])
        np.testing.assert_array_equal(roll_components(field, shifts), want)

    def test_roll_one_axis(self):
        field = np.arange(12.0).reshape(2, 6)
        out = roll_components(field, ((-1,), (1,)))
        np.testing.assert_array_equal(out, [np.roll(field[0], -1), np.roll(field[1], 1)])

    def test_mix_matches_componentwise_sum(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        field = rng.normal(size=(4, 6, 6)) + 1j * rng.normal(size=(4, 6, 6))
        want = np.einsum("ab,bxy->axy", m, field)
        np.testing.assert_allclose(mix_components(m, field), want, rtol=0, atol=1e-14)


class TestWalkStep:
    def test_zero_angles_is_pure_shift(self):
        grid = LatticeGrid(n_sites=16)
        rng = np.random.default_rng(1)
        amp = rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
        s = WaveState(amp / np.linalg.norm(amp), grid)
        np.testing.assert_array_equal(walk_step(s, AngleField(), 0.0).amplitudes,
                                      roll_components(s.amplitudes, ((-1,), (1,))))

    def test_norm_preserved_per_step(self):
        field = AngleField(xi0_bar=0.2, xi1_bar=-0.3, theta_bar=0.8, chi_bar=0.1)
        grid = LatticeGrid(n_sites=64)
        s = WaveState.delta(grid)
        for k in range(50):
            s = walk_step(s, field, t=float(k))
            assert abs(s.norm() - 1.0) < 1e-12

    def test_norm_drift_over_many_steps(self):
        # closed small ring, long run: drift must stay below 1e-8
        field = AngleField(theta_bar=0.6, xi1_bar=0.2)
        grid = LatticeGrid(n_sites=32)
        s = WaveState.delta(grid)
        for k in range(100_000):
            s = walk_step(s, field, t=float(k))
        assert abs(s.norm() - 1.0) < 1e-8

    @pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 4, np.pi / 3])
    def test_spread_law(self, theta):
        steps = 500
        state = run_walk(theta, steps)
        x = state.grid.positions
        p = state.probabilities()
        mean = float(np.sum(x * p))
        sigma = np.sqrt(np.sum(x**2 * p) - mean**2)
        assert sigma / steps == pytest.approx(asymptotic_spread(theta), rel=0.02)

    def test_theta_half_pi_no_spread(self):
        state = run_walk(np.pi / 2, 500, n=1100)
        x = state.grid.positions
        p = state.probabilities()
        sigma = np.sqrt(np.sum(x**2 * p) - np.sum(x * p) ** 2)
        assert sigma / 500 < 0.01

    @pytest.mark.parametrize("coin", [(1.0, 0.0), (0.0, 1.0)])
    def test_chi_does_not_affect_distribution(self, coin):
        # A constant chi conjugates the walk by a coin-diagonal unitary; for
        # sigma^3-eigenstate starts the distribution is exactly unchanged.
        p_ref = run_walk(np.pi / 5, 60, coin=coin, n=200).probabilities()
        grid = LatticeGrid(n_sites=200)
        s = WaveState.delta(grid, coin=coin)
        field = AngleField(theta_bar=np.pi / 5, chi_bar=0.73)
        for k in range(60):
            s = walk_step(s, field, t=float(k))
        np.testing.assert_allclose(s.probabilities(), p_ref, atol=1e-12)

    def test_chi_does_not_affect_spread_law(self):
        # The spread formula is chi-independent once the symmetric coin state
        # is expressed in the chi-rotated coin basis.
        chi = 1.1
        grid = LatticeGrid(n_sites=1064)
        s = WaveState.delta(grid, coin=(np.exp(1j * chi / 2), np.exp(-1j * chi / 2)))
        field = AngleField(theta_bar=np.pi / 4, chi_bar=chi)
        for k in range(500):
            s = walk_step(s, field, t=float(k))
        x = grid.positions
        p = s.probabilities()
        sigma = np.sqrt(np.sum(x**2 * p) - np.sum(x * p) ** 2)
        assert sigma / 500 == pytest.approx(asymptotic_spread(np.pi / 4), rel=0.02)

    def test_light_cone_exact_zeros(self):
        grid = LatticeGrid(n_sites=301)
        s = WaveState.delta(grid)
        field = AngleField(theta_bar=0.9, xi0_bar=1.1)
        c = grid.center_index
        for k in range(1, 41):
            s = walk_step(s, field, t=float(k))
            p = s.probabilities()
            assert np.all(p[: c - k] == 0.0)
            assert np.all(p[c + k + 1 :] == 0.0)

    def test_constant_field_matches_per_site_coins(self):
        grid = LatticeGrid(n_sites=40, spacing=0.1)
        field = AngleField(xi0_bar=0.3, xi1_bar=-0.2, theta_bar=-0.9, chi_bar=0.4)
        a = b = WaveState.gaussian(grid, width=0.3, p0=0.5)
        for k in range(30):
            a = walk_step(a, field, 0.1 * k)
            b = step_state(b, step_coins(field, 0.1 * k, grid))
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_position_dependent_field(self):
        # a field callable sees the physical positions and stays pure
        seen = []

        def theta_bar(t, x):
            seen.append(t)
            return 0.3 * np.tanh(x)

        grid = LatticeGrid(n_sites=32)
        s = WaveState.delta(grid)
        field = AngleField(theta_bar=theta_bar)
        out1 = walk_step(s, field, 2.0)
        out2 = walk_step(s, field, 2.0)
        assert seen == [2.0, 2.0]
        np.testing.assert_array_equal(out1.amplitudes, out2.amplitudes)
        assert abs(out1.norm() - 1.0) < 1e-12


class TestAsymptoticSpread:
    def test_values(self):
        assert asymptotic_spread(0.0) == 1.0
        assert asymptotic_spread(np.pi / 2) == pytest.approx(0.0, abs=1e-8)
        assert asymptotic_spread(np.pi / 4) == pytest.approx(0.541196, abs=1e-6)


class TestAngleField:
    def test_constant_unless_a_rate_is_callable(self):
        assert AngleField(theta_bar=-1.0, xi1_bar=0.3).is_constant
        assert not AngleField(chi_bar=lambda t, x: 0.1 * x).is_constant


class TestLatticeGrid:
    def test_minimum_size(self):
        with pytest.raises(ConfigurationError):
            LatticeGrid(n_sites=3)

    def test_center_at_zero(self):
        g = LatticeGrid(n_sites=9, spacing=0.5)
        assert g.positions[g.center_index] == pytest.approx(0.0)

    def test_for_duration_contains_cone(self):
        g = LatticeGrid.for_duration(2.0, 0.05)
        assert g.n_sites * g.spacing > 2 * 2.0
