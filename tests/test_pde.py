import itertools
import tracemalloc

import numpy as np
import pytest

from dlqw import analytic, runner
from dlqw.config import load_config, parse_config
from dlqw.noise import DensityGrid
from dlqw.pde import (
    ADVECTION_SHIFTS,
    GeneratorParams,
    KernelChannel,
    KernelSet,
    KernelSourceOperator,
    LAMBDA,
    LAMBDA_P,
    NumericalError,
    PauliField,
    U_CHAR,
    U_CHAR_INV,
    _mix_maps,
    _propagator_from_f,
    _strang_steps,
    band_evolve,
    density_from_pauli,
    diagonal_evolve,
    evolve,
    homogeneous_step,
    kernel_source_step,
    pauli_from_density,
    pauli_from_wave_state,
    read_field_binary,
    skew,
    skewed_advect,
    source_matrix,
    source_step,
    strang_step,
    unskew,
    v_inverse,
    v_transform,
    write_field_binary,
)
from dlqw.walk import (
    ConfigurationError,
    LatticeGrid,
    WaveState,
    mix_components,
    roll_components,
)


def make_grid(n=32, dx=0.1):
    return LatticeGrid(n_sites=n, spacing=dx)


def gaussian_pauli(grid, width=0.4, coin=(1.0, 1.0)):
    return pauli_from_wave_state(WaveState.gaussian(grid, width=width, coin=coin))


def hermitian_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    n = grid.n_sites
    r = rng.normal(size=(4, n, n)) + 1j * rng.normal(size=(4, n, n))
    r = 0.5 * (r + r.conj().transpose(0, 2, 1))
    return PauliField(r, grid)


class TestPauliConversion:
    def test_pure_left_block(self):
        grid = make_grid(8, 1.0)
        rng = np.random.default_rng(1)
        f = rng.normal(size=(8, 8))
        f = f + f.T  # hermitian scalar profile
        blocks = np.zeros((2, 2, 8, 8), dtype=complex)
        blocks[0, 0] = f
        r = pauli_from_density(DensityGrid(blocks, grid)).r
        np.testing.assert_allclose(r[0], f, atol=1e-14)
        np.testing.assert_allclose(r[3], f, atol=1e-14)
        np.testing.assert_allclose(r[1], 0, atol=1e-14)
        np.testing.assert_allclose(r[2], 0, atol=1e-14)

    def test_left_right_coherence_block(self):
        grid = make_grid(6, 1.0)
        f = np.arange(36.0).reshape(6, 6)
        blocks = np.zeros((2, 2, 6, 6), dtype=complex)
        blocks[0, 1] = f
        r = pauli_from_density(DensityGrid(blocks, grid)).r
        np.testing.assert_allclose(r[0], 0, atol=1e-14)
        np.testing.assert_allclose(r[1], f, atol=1e-14)
        np.testing.assert_allclose(r[2], 1j * f, atol=1e-14)
        np.testing.assert_allclose(r[3], 0, atol=1e-14)

    def test_round_trip(self):
        grid = make_grid(10, 0.3)
        rng = np.random.default_rng(2)
        blocks = rng.normal(size=(2, 2, 10, 10)) + 1j * rng.normal(size=(2, 2, 10, 10))
        blocks = 0.5 * (blocks + blocks.conj().transpose(1, 0, 3, 2))
        rho = DensityGrid(blocks, grid)
        back = density_from_pauli(pauli_from_density(rho))
        np.testing.assert_allclose(back.blocks, rho.blocks, atol=1e-13)

    def test_wave_state_normalization(self):
        grid = make_grid(64, 0.05)
        field = gaussian_pauli(grid)
        assert field.trace() == pytest.approx(1.0, abs=1e-12)
        assert field.hermiticity_defect() < 1e-14

    def test_antidiagonal_matches_diagonal_at_origin(self):
        grid = make_grid(32, 0.1)
        field = hermitian_field(grid, seed=14)
        c = grid.center_index
        anti = field.antidiagonal()
        for mu in range(4):
            assert anti.T[mu][c] == field.r[mu][c, c]


class TestCharacteristicTransform:
    def test_unitary(self):
        err = np.abs(U_CHAR @ U_CHAR.conj().T - np.eye(4)).max()
        assert err <= 1e-15

    def test_diagonalizes_advection(self):
        # Jacobians of the r-component system: i*P on the x side, its
        # transpose on the x' side, with P the coupling matrix
        advection_x = np.array(
            [
                [0, 0, 0, -1],
                [0, 0, 1j, 0],
                [0, -1j, 0, 0],
                [-1, 0, 0, 0],
            ],
            dtype=complex,
        )
        lam = U_CHAR @ advection_x @ U_CHAR.conj().T
        lam_p = U_CHAR @ advection_x.T @ U_CHAR.conj().T
        np.testing.assert_allclose(lam, np.diag(LAMBDA), atol=1e-14)
        np.testing.assert_allclose(lam_p, np.diag(LAMBDA_P), atol=1e-14)

    def test_first_column(self):
        v = U_CHAR @ np.array([1.0, 0, 0, 0])
        np.testing.assert_allclose(v, np.array([1, 0, 0, -1]) / np.sqrt(2), atol=1e-15)

    def test_round_trip(self):
        grid = make_grid(12)
        field = hermitian_field(grid, seed=3)
        back = v_inverse(v_transform(field), grid)
        np.testing.assert_allclose(back.r, field.r, atol=1e-13)


class TestHomogeneousStep:
    def test_point_moves_down_left_for_v0(self):
        v = np.zeros((4, 8, 8), dtype=complex)
        v[0, 5, 6] = 1.0
        out = homogeneous_step(v)
        assert out[0, 4, 5] == 1.0
        assert np.count_nonzero(out) == 1

    def test_all_components_follow_their_speeds(self):
        v = np.zeros((4, 8, 8), dtype=complex)
        for mu in range(4):
            v[mu, 4, 4] = 1.0
        out = homogeneous_step(v)
        for mu in range(4):
            assert out[mu, 4 + LAMBDA[mu], 4 + LAMBDA_P[mu]] == 1.0

    def test_pure_permutation(self):
        grid = make_grid(16)
        field = hermitian_field(grid, seed=4)
        v = v_transform(field)
        out = homogeneous_step(v)
        for mu in range(4):
            np.testing.assert_array_equal(
                np.sort_complex(out[mu].ravel()), np.sort_complex(v[mu].ravel())
            )

    def test_periodic_return(self):
        grid = make_grid(10)
        field = hermitian_field(grid, seed=5)
        v = v_transform(field)
        out = v
        for _ in range(grid.n_sites):
            out = homogeneous_step(out)
        np.testing.assert_array_equal(out, v)


class TestSourceStep:
    def test_identity_when_free(self):
        grid = make_grid(8)
        v = v_transform(hermitian_field(grid, seed=6))
        out = source_step(v, grid.spacing, GeneratorParams())
        np.testing.assert_allclose(out, v, atol=1e-14)

    def test_decay_rates_against_exponential(self):
        dt = 0.05
        grid = LatticeGrid(n_sites=8, spacing=dt)
        params = GeneratorParams(m=0.0, gamma1=0.4, gamma2=0.7)
        field = hermitian_field(grid, seed=7)
        out = v_inverse(source_step(v_transform(field), dt, params), grid)
        for mu, rate in ((1, 0.4), (2, 1.1), (3, 0.7)):
            np.testing.assert_allclose(
                out.r[mu], field.r[mu] * np.exp(-rate * dt), rtol=3 * dt**2
            )
        np.testing.assert_allclose(out.r[0], field.r[0], atol=1e-14)

    def test_trace_component_untouched(self):
        grid = make_grid(8)
        params = GeneratorParams(m=1.5, gamma1=0.3, gamma2=0.9)
        field = hermitian_field(grid, seed=8)
        out = v_inverse(source_step(v_transform(field), grid.spacing, params), grid)
        np.testing.assert_allclose(out.r[0], field.r[0], atol=1e-13)

    def test_alpha_validated(self):
        grid = make_grid(8)
        v = v_transform(hermitian_field(grid))
        with pytest.raises(ConfigurationError):
            source_step(v, grid.spacing, GeneratorParams(), alpha=1.5)
        with pytest.raises(ConfigurationError):
            diagonal_evolve(np.zeros(8), np.zeros(8), grid, GeneratorParams(gamma2=0.5),
                            2 * grid.spacing, alpha=1.5)


class TestStrangStep:
    @pytest.mark.parametrize("n", [5, 8])
    def test_is_mix_shift_mix_bit_for_bit(self, n):
        grid = make_grid(n, 0.05)
        params = GeneratorParams(m=0.8, gamma1=0.2, gamma2=0.5)
        v = v_transform(hermitian_field(grid, seed=n))
        half = 0.5 * grid.spacing
        want = source_step(homogeneous_step(source_step(v, half, params)), half, params)
        np.testing.assert_array_equal(strang_step(v, grid, params), want)

    @pytest.mark.parametrize("n", [4, 5, 7, 8])
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_step_is_roll_after_mix(self, n, steps):
        # the maps of every constant-mix Strang run on the plain (4, n, n) field
        rng = np.random.default_rng(10 * n + steps)
        v = rng.normal(size=(4, n, n)) + 1j * rng.normal(size=(4, n, n))
        t_half = rng.normal(size=(4, 4))
        want = roll_components(mix_components(t_half, v), ADVECTION_SHIFTS)
        for _ in range(steps - 1):
            want = roll_components(mix_components(t_half @ t_half, want), ADVECTION_SHIFTS)
        got = _strang_steps(v, steps, *_mix_maps(t_half, homogeneous_step))
        np.testing.assert_array_equal(got, mix_components(t_half, want))

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_source_propagator_is_real_in_v_variables(self, alpha):
        # so the ``.real`` of the v-variable source propagator drops nothing
        for m, g1, g2, dt in itertools.product([0.0, 0.8, 3.0], [0.0, 0.3], [0.0, 0.5, 2.0],
                                               [0.01, 0.05, 0.5]):
            t_r = _propagator_from_f(source_matrix(GeneratorParams(m, g1, g2)), dt, alpha)
            assert np.all((U_CHAR @ t_r @ U_CHAR_INV).imag == 0.0)

    def test_free_is_pure_advection(self):
        grid = make_grid(8)
        v = v_transform(hermitian_field(grid, seed=9))
        out = strang_step(v, grid, GeneratorParams())
        ref = homogeneous_step(v)
        np.testing.assert_allclose(out, ref, atol=1e-14)

    def test_trace_drift_over_thousand_steps(self):
        grid = make_grid(128, 0.05)
        params = GeneratorParams(m=0.8, gamma1=0.2, gamma2=0.5)
        field = gaussian_pauli(grid, width=0.5)
        v = v_transform(field)
        t0 = field.trace()
        for _ in range(1000):
            v = strang_step(v, grid, params)
        assert abs(v_inverse(v, grid).trace() - t0) < 1e-8
        # evolve runs the same steps fused between snapshots and checks
        final = evolve(field, params, 1000 * grid.spacing).final
        assert abs(final.trace() - t0) < 1e-8

    def test_hermiticity_preserved(self):
        grid = make_grid(64, 0.05)
        params = GeneratorParams(m=0.8, gamma1=0.2, gamma2=0.5)
        field = gaussian_pauli(grid, width=0.4)
        v = v_transform(field)
        for _ in range(200):
            v = strang_step(v, grid, params)
        assert v_inverse(v, grid).hermiticity_defect() < 1e-10
        final = evolve(field, params, 200 * grid.spacing).final
        assert final.hermiticity_defect() < 1e-10
        np.testing.assert_allclose(final.r, v_inverse(v, grid).r, rtol=0, atol=1e-12)

    def test_self_convergence_second_order(self):
        # same physical problem on dx, dx/2, dx/4; errors on shared points
        # should shrink by ~4x per refinement
        params = GeneratorParams(m=0.8, gamma2=0.5)
        t_final, half_width = 0.48, 3.2
        sols = {}
        for k, dx in enumerate((0.04, 0.02, 0.01)):
            n = int(round(2 * half_width / dx))
            grid = LatticeGrid(n_sites=n, spacing=dx)
            field = gaussian_pauli(grid, width=0.3)
            res = evolve(field, params, t_final)
            sols[k] = res.diagonals[-1].R[0][:: 2**k]  # restrict to the coarse points
        err_coarse = np.abs(sols[0] - sols[1]).max()
        err_fine = np.abs(sols[1] - sols[2]).max()
        assert 2.5 < err_coarse / err_fine < 6.0


class TestMasslessStructure:
    def test_m0_sectors_decouple(self):
        grid = make_grid(48, 0.05)
        params = GeneratorParams(m=0.0, gamma1=0.3, gamma2=0.5)
        field = gaussian_pauli(grid, width=0.4)
        field.r[1] = 0.0
        field.r[2] = 0.0
        out = evolve(field, params, 1.0).final
        assert np.abs(out.r[1]).max() < 1e-12
        assert np.abs(out.r[2]).max() < 1e-12
        assert np.abs(out.r[0]).max() > 1e-3

    def test_gamma1_inert_for_density_when_massless(self):
        grid = make_grid(48, 0.05)
        field = gaussian_pauli(grid, width=0.4)
        series = {}
        for g1 in (0.0, 0.3):
            res = evolve(field.copy(), GeneratorParams(0.0, g1, 0.5), 1.0,
                         snapshot_steps=[0, 5, 10, 15, 20])
            series[g1] = np.stack([d.R[[0, 3]] for d in res.diagonals])
        np.testing.assert_allclose(series[0.0], series[0.3], atol=1e-10)

    def test_diagonal_fast_path_matches_full_solver(self):
        grid = make_grid(64, 0.05)
        field = gaussian_pauli(grid, width=0.4)
        params = GeneratorParams(m=0.0, gamma1=0.0, gamma2=0.5)
        steps = [0, 10, 20]
        full = evolve(field, params, 1.0, snapshot_steps=steps)
        d0 = field.diagonal()
        fast = diagonal_evolve(d0.R[0], d0.R[3], grid, params, 1.0, snapshot_steps=steps)
        for a, b in zip(full.diagonals, fast.diagonals):
            np.testing.assert_allclose(a.R[0], b.R[0], atol=1e-12)
            np.testing.assert_allclose(a.R[3], b.R[3], atol=1e-12)

    def test_fast_path_takes_snapshot_steps(self):
        grid = make_grid(64, 0.05)
        d0 = gaussian_pauli(grid, width=0.4).diagonal()
        steps = [0, 1, 2, 4, 8, 16]
        res = diagonal_evolve(d0.R[0], d0.R[3], grid, GeneratorParams(gamma2=0.5), 0.8,
                              snapshot_steps=steps)
        np.testing.assert_allclose(res.series.times, 0.05 * np.array(steps), rtol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fast_path_blow_up_guard(self):
        # the explicit source step (alpha = 1) is unstable at this rate
        grid = make_grid(32, 0.05)
        d0 = gaussian_pauli(grid).diagonal()
        with pytest.raises(NumericalError, match="blow-up at t="):
            diagonal_evolve(d0.R[0], d0.R[3], grid, GeneratorParams(gamma2=300.0),
                            80 * grid.spacing, alpha=1.0)

    def test_fast_path_requires_massless(self):
        grid = make_grid(16, 0.1)
        with pytest.raises(ConfigurationError):
            diagonal_evolve(np.zeros(16), np.zeros(16), grid, GeneratorParams(m=1.0), 0.5)


class TestEvolve:
    def test_zero_time_returns_init(self):
        grid = make_grid(24, 0.1)
        field = gaussian_pauli(grid)
        res = evolve(field, GeneratorParams(m=1.0, gamma2=0.5), 0.0)
        np.testing.assert_allclose(res.final.r, field.r, atol=1e-14)
        assert res.series.times.tolist() == [0.0]

    def test_free_massless_delta_splits_in_half(self):
        grid = make_grid(64, 0.1)
        state = WaveState.delta(grid, coin=(1.0, 1.0))
        field = pauli_from_wave_state(state)
        res = evolve(field, GeneratorParams(), 1.0)
        dens = res.diagonals[-1].R[0] * grid.spacing  # back to probabilities
        c = grid.center_index
        assert dens[c - 10] == pytest.approx(0.5, abs=1e-12)
        assert dens[c + 10] == pytest.approx(0.5, abs=1e-12)
        assert np.abs(np.delete(dens, [c - 10, c + 10])).max() < 1e-12

    def test_reality_of_diagonals(self):
        grid = make_grid(48, 0.05)
        params = GeneratorParams(m=1.0, gamma1=0.1, gamma2=0.4)
        field = gaussian_pauli(grid, width=0.4, coin=(1.0, 0.5j))
        for t_final in (0.5, 1.0):
            f = evolve(field, params, t_final).final
            for mu in range(4):
                assert np.abs(np.diagonal(f.r[mu]).imag).max() < 1e-10

    def test_continuity_residual_second_order(self):
        # residual between consecutive solver steps, so the time difference
        # refines together with the grid
        params = GeneratorParams(m=0.6, gamma2=0.4)
        res_by_dx = []
        for dx in (0.04, 0.02):
            n = int(round(6.4 / dx))
            grid = LatticeGrid(n_sites=n, spacing=dx)
            field = gaussian_pauli(grid, width=0.4)
            mid = int(0.24 / dx)
            res = evolve(field, params, 0.48, snapshot_steps=[0, mid, mid + 1])
            res_by_dx.append(res.series.continuity_residual[-1])
        ratio = res_by_dx[0] / res_by_dx[1]
        assert 2.5 < ratio < 6.0

    def test_blow_up_guard(self):
        grid = make_grid(32, 0.05)
        field = gaussian_pauli(grid)
        with pytest.raises(NumericalError):
            evolve(field, GeneratorParams(gamma2=300.0), 40 * 0.05 * 80, alpha=1.0)

    def test_non_multiple_t_final_rejected(self):
        grid = make_grid(16, 0.1)
        with pytest.raises(ConfigurationError):
            evolve(gaussian_pauli(grid), GeneratorParams(), 0.55)


def random_field(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(4, n, n)) + 1j * rng.normal(size=(4, n, n))


class TestSkewedStorage:
    @pytest.mark.parametrize("n", [7, 8])
    def test_skew_layout_and_round_trip(self, n):
        v = random_field(n, seed=n)
        s = skew(v)
        assert s.shape == (n, 4, n) and s.flags.c_contiguous
        for k in range(n):
            for i in range(n):
                np.testing.assert_array_equal(s[k, :, i], v[:, i, (i + k) % n])
        np.testing.assert_array_equal(s[0], v[:, np.arange(n), np.arange(n)])
        back = unskew(s)
        assert back.flags.c_contiguous
        np.testing.assert_array_equal(back, v)

    @pytest.mark.parametrize("n", [7, 8])
    def test_skewed_advect_is_the_exact_advection(self, n):
        grid = make_grid(n, 0.1)
        v = random_field(n, seed=n + 1)
        s = skewed_advect(skew(v))
        assert s.flags.c_contiguous
        np.testing.assert_array_equal(unskew(s), homogeneous_step(v))

    @pytest.mark.parametrize("n", [9, 10, 31, 48])
    def test_kernel_source_step_matches_per_cell_reference(self, n):
        grid = make_grid(n, 0.1)
        kern = lambda d: np.exp(-(d**2) / 0.05)
        kernels = KernelSet(
            identity=KernelChannel(1.3, kern),
            phase_flip=KernelChannel(0.4, kern),
            coin_flip=KernelChannel(0.7, lambda d: 1.0 / (1.0 + d**2)),
        )
        params = GeneratorParams(m=0.6, gamma1=0.1)
        v = random_field(n, seed=n)
        props = KernelSourceOperator(grid, kernels, params, 0.05).props
        # each cell's distance class, then one product per class over its cells
        cells = {}
        for i in range(n):
            for j in range(n):
                cells.setdefault(min(abs(i - j), n - abs(i - j)), []).append((i, j))
        assert sorted(cells) == list(range(n // 2 + 1))
        want = np.empty_like(v)
        for d, ij in cells.items():
            i, j = np.array(ij).T
            want[:, i, j] = props[d] @ v[:, i, j]
        np.testing.assert_array_equal(kernel_source_step(v, grid, 0.05, kernels, params), want)


class TestKernelSource:
    def make_v(self, grid, seed=11):
        return v_transform(hermitian_field(grid, seed))

    def test_constant_kernels_reduce_to_homogeneous(self):
        grid = make_grid(32, 0.1)
        params = GeneratorParams(m=0.7, gamma1=0.3, gamma2=0.6)
        ones = lambda d: np.ones_like(d)
        kernels = KernelSet(
            identity=KernelChannel(1.7, ones),
            phase_flip=KernelChannel(0.3, ones),
            coin_flip=KernelChannel(0.6, ones),
        )
        v = self.make_v(grid)
        a = kernel_source_step(v, grid, 0.05, kernels, params)
        b = source_step(v, 0.05, params)
        assert np.abs(a - b).max() <= 1e-12

    def test_diagonal_cells_follow_homogeneous_generator(self):
        grid = make_grid(32, 0.1)
        params = GeneratorParams(m=0.7, gamma1=0.3, gamma2=0.6)
        kern = lambda d: np.exp(-(d**2) / 0.5)
        kernels = KernelSet(
            identity=KernelChannel(2.0, kern),
            phase_flip=KernelChannel(0.3, kern),
            coin_flip=KernelChannel(0.6, kern),
        )
        v = self.make_v(grid)
        a = v_inverse(kernel_source_step(v, grid, 0.05, kernels, params), grid)
        b = v_inverse(source_step(v, 0.05, params), grid)
        for mu in range(4):
            np.testing.assert_allclose(
                np.diagonal(a.r[mu]), np.diagonal(b.r[mu]), atol=1e-12
            )

    def test_far_cell_pure_decay_oracle(self):
        # gamma0-only channel with kappa ~ 0 at large separation: the block
        # decays as exp(-gamma0 t / 2)
        dt = 0.01
        grid = LatticeGrid(n_sites=64, spacing=dt)
        gamma0 = 2.0
        kernels = KernelSet(identity=KernelChannel(gamma0, lambda d: np.exp(-((d / 0.02) ** 2))))
        params = GeneratorParams()  # no mass, no uniform noise, advection not applied
        v = self.make_v(grid, seed=12)
        steps = 100
        out = v
        for _ in range(steps):
            out = kernel_source_step(out, grid, dt, kernels, params)
        i, j = 5, 37  # separation far beyond the kernel width
        ratio = v_inverse(out, grid).r[0][i, j] / v_inverse(v, grid).r[0][i, j]
        assert ratio.real == pytest.approx(np.exp(-gamma0 * steps * dt / 2), rel=1e-4)

    def test_kernel_coherence_decays_faster_off_diagonal(self):
        dt = 0.02
        grid = LatticeGrid(n_sites=48, spacing=dt)
        kernels = KernelSet(identity=KernelChannel(1.5, lambda d: np.exp(-(d**2) / 0.1)))
        params = GeneratorParams()
        field = gaussian_pauli(grid, width=0.2)
        v = v_transform(field)
        for _ in range(50):
            v = kernel_source_step(v, grid, dt, kernels, params)
        out = v_inverse(v, grid)
        k = 8  # fixed separation d = k*dt > 0
        start = np.abs(np.diagonal(field.r[0], offset=k))
        end = np.abs(np.diagonal(out.r[0], offset=k))
        mask = start > 1e-8
        decay_off = (end[mask] / start[mask]).max()
        decay_diag = (
            np.abs(np.diagonal(out.r[0])) / np.abs(np.diagonal(field.r[0]))
        ).max()
        assert decay_off < decay_diag - 1e-3

    def test_kernel_must_be_one_at_zero(self):
        with pytest.raises(ConfigurationError):
            KernelChannel(1.0, lambda d: 0.5 * np.ones_like(d))

    def test_kernel_evolve_trace_preserved(self):
        grid = make_grid(48, 0.05)
        kernels = KernelSet(identity=KernelChannel(1.0, lambda d: np.exp(-(d**2) / 0.2)))
        params = GeneratorParams(m=0.5, gamma2=0.3)
        field = gaussian_pauli(grid, width=0.4)
        res = evolve(field, params, 1.0, kernels=kernels, snapshot_steps=[0, 10, 20])
        assert res.series.max_trace_drift() < 1e-8


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        grid = make_grid(12, 0.25)
        field = hermitian_field(grid, seed=13)
        path = tmp_path / "snap.dlqw"
        write_field_binary(path, field, t=1.75)
        back, t = read_field_binary(path)
        assert t == 1.75
        assert back.grid.spacing == 0.25
        np.testing.assert_array_equal(back.r, field.r)

    @pytest.mark.parametrize("cut", [1, 100, 4 * 12 * 12 * 16, 4 * 12 * 12 * 16 + 20])
    def test_truncated_file_rejected(self, tmp_path, cut):
        path = tmp_path / "snap.dlqw"
        write_field_binary(path, hermitian_field(make_grid(12, 0.25), seed=2), t=0.5)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ConfigurationError):
            read_field_binary(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "snap.dlqw"
        write_field_binary(path, hermitian_field(make_grid(12, 0.25), seed=2), t=0.5)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ConfigurationError):
            read_field_binary(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ConfigurationError):
            read_field_binary(path)


# The strang-grid runs of the grid-noise benchmark at seeds 0 and 7: (m, gamma2, p0, sigma)
STRANG_GRID = {
    "seed0-transient": (0.5243, 0.5079, 4.8664, 0.512),
    "seed0-diffusive": (0.5322, 1.9774, 5.3853, 0.5451),
    "seed7-transient": (0.4875, 0.526, 4.7202, 0.5002),
    "seed7-diffusive": (0.463, 2.0858, 5.1199, 0.5224),
}
# m, gamma1, gamma2 > 0 over 90 steps: the runner_lindblad_full golden's run
FULL_GRID = ("scenario = lindblad\nfast = full\nm = 0.6\ngamma1 = 0.3\ngamma2 = 0.4\np0 = 1.5\n"
             "sigma = 1\ndx = 0.05\nhalf_width = 3\nt_final = 4.5\nn_snapshots = 10\n")
BAND_CONFIGS = {
    **{name: ("scenario = lindblad\nfast = full\ndx = 0.1\nhalf_width = 15\nt_final = 6\n"
              f"n_snapshots = 13\nm = {m}\ngamma2 = {g}\np0 = {p0}\nsigma = {sigma}\n")
       for name, (m, g, p0, sigma) in STRANG_GRID.items()},
    "runner-compare": ("scenario = compare\nm = 0.5\ngamma1 = 0.2\ngamma2 = 0.5\np0 = 1\n"
                       "sigma = 0.5\neps_list = 0.1, 0.05\nt_final = 1\ndx = 0.05\n"
                       "half_width = 4\n"),
    "full-grid": FULL_GRID,
    "fig1-middle": "preset:fig1-middle",
}


def band_and_evolve(cfg):
    """The band engine and :func:`evolve` from the packet start of a grid config."""
    params = GeneratorParams(m=cfg.m, gamma1=cfg.gamma1, gamma2=cfg.gamma2)
    grid = runner._pde_grid(cfg)
    pk = analytic.build_packet(cfg.p0, cfg.sigma, cfg.m, grid)
    marks = (runner._snapshot_steps(cfg, round(cfg.t_final / cfg.dx))
             if cfg.scenario == "lindblad" else None)
    band = band_evolve(pk, params, cfg.t_final, alpha=cfg.alpha, snapshot_steps=marks)
    ref = evolve(pauli_from_wave_state(pk.state(0.0)), params, cfg.t_final, alpha=cfg.alpha,
                 snapshot_steps=marks)
    return band, ref


class TestBandEvolve:
    @pytest.mark.parametrize("name", list(BAND_CONFIGS))
    def test_matches_evolve(self, name):
        text = BAND_CONFIGS[name]
        cfg = load_config(text) if text.startswith("preset:") else parse_config(text)
        band, ref = band_and_evolve(cfg)
        np.testing.assert_array_equal(band.series.times, ref.series.times)
        assert len(band.diagonals) == len(ref.diagonals)
        for got, want in zip(band.diagonals, ref.diagonals):
            # each diagonal column to 1e-12 of its own largest entry
            for mu in range(4):
                np.testing.assert_allclose(got.R[mu], want.R[mu], rtol=0,
                                           atol=1e-12 * np.abs(want.R[mu]).max())

    def test_binary_dump_matches_evolve_final(self, tmp_path):
        cfg = parse_config(FULL_GRID + "formats = binary\n")
        runner.run(cfg, str(tmp_path / "r"))
        dumped, t = read_field_binary(tmp_path / "r" / "final_field.dlqw")
        _, ref = band_and_evolve(cfg)
        assert t == cfg.t_final
        np.testing.assert_allclose(dumped.r, ref.final.r, rtol=0,
                                   atol=1e-12 * np.abs(ref.final.r).max())

    def test_binary_dump_peak_memory(self, tmp_path):
        # the full field is built by one inverse FFT and written as it lies
        cfg = parse_config("scenario = lindblad\nfast = full\nm = 0.5\ngamma2 = 0.5\n"
                           "dx = 0.05\nhalf_width = 12.8\nt_final = 0.5\n"
                           "formats = csv,binary\n")
        assert runner._pde_grid(cfg).n_sites == 512
        tracemalloc.start()
        try:
            runner.run(cfg, str(tmp_path / "r"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * runner.field_bytes(512)

    def test_final_field_built_only_when_read(self):
        cfg = parse_config(FULL_GRID)
        band, _ = band_and_evolve(cfg)
        assert "final" not in vars(band)
        assert band.final is band.final

    def test_blow_up_guard(self):
        grid = make_grid(64, 0.1)
        pk = analytic.build_packet(1.0, 1.0, 0.5, grid)
        with pytest.raises(NumericalError, match="blow-up at t=6.4"):
            band_evolve(pk, GeneratorParams(m=0.5, gamma2=300.0), 80 * 0.1, alpha=1.0)
