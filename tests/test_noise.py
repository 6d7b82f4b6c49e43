import numpy as np
import pytest

from dlqw import noise, runner
from dlqw.analytic import build_packet
from dlqw.config import load_config
from dlqw.momentum import ModeBand
from dlqw.noise import (
    ChannelRates,
    DensityGrid,
    NoiseSpec,
    ParamNoise,
    channel_run,
    channel_step,
    ensemble_density,
    rng_for_trajectory,
    run_ensemble,
    sample_coin_offsets,
    trajectory_offsets,
    trajectory_step,
    two_point_channel_step,
)
from dlqw.walk import (
    AngleField,
    ConfigurationError,
    LatticeGrid,
    WaveState,
    walk_step,
)


def l1_probability_distance(p, q):
    return float(np.abs(np.asarray(p) - np.asarray(q)).sum())


class TestDensityGrid:
    def test_pure_state_trace_and_hermiticity(self):
        grid = LatticeGrid(n_sites=16)
        rho = DensityGrid.pure_site(grid, coin=(1.0, 1.0))
        assert rho.trace() == pytest.approx(1.0, abs=1e-14)
        assert rho.hermiticity_defect() < 1e-14
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)

    def test_dense_round_trip(self):
        grid = LatticeGrid(n_sites=6)
        rng = np.random.default_rng(3)
        amp = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
        amp /= np.linalg.norm(amp)
        rho = DensityGrid.from_wave_state(WaveState(amp, grid))
        dense = rho.dense()
        psi = amp.reshape(-1)
        np.testing.assert_allclose(dense, np.outer(psi, psi.conj()), atol=1e-15)


def dense_walk_matrix(grid, coins):
    """Independent dense walk operator in the |u,x> basis (u major)."""
    n = grid.n_sites
    s = np.zeros((2 * n, 2 * n), dtype=complex)
    for x in range(n):
        s[x, (x + 1) % n] = 1.0  # L picks up amplitude from the right neighbor
        s[n + x, n + (x - 1) % n] = 1.0
    c = np.zeros((2 * n, 2 * n), dtype=complex)
    for x in range(n):
        for u in range(2):
            for v in range(2):
                c[u * n + x, v * n + x] = coins[x, u, v]
    return c @ s


class TestChannelStep:
    def setup_method(self):
        self.grid = LatticeGrid(n_sites=24)
        self.field = AngleField(theta_bar=0.7, xi1_bar=0.2)
        self.rho = DensityGrid.pure_site(self.grid, coin=(1.0, 1j))

    def test_zero_rates_is_unitary(self):
        out = self.rho
        for k in range(12):
            out = channel_step(out, self.field, ChannelRates(), t=float(k))
        assert out.purity() == pytest.approx(1.0, abs=1e-10)
        assert out.trace() == pytest.approx(1.0, abs=1e-12)

    def test_trace_preserved_any_rates(self):
        out = self.rho
        rates = ChannelRates(0.07, 0.11)
        for k in range(10):
            prev = out.trace()
            out = channel_step(out, self.field, rates, t=float(k))
            assert abs(out.trace() - prev) < 1e-12

    def test_hermiticity_preserved(self):
        out = self.rho
        for k in range(10):
            out = channel_step(out, self.field, ChannelRates(0.2, 0.1), t=float(k))
        assert out.hermiticity_defect() < 1e-12

    def test_dense_oracle_four_sites(self):
        # one step, identity coin, per-step probabilities 0.1 / 0.2 (eps = 1)
        grid = LatticeGrid(n_sites=4)
        rho = DensityGrid.pure_site(grid, coin=(1.0, 0.0), site=0)
        out = channel_step(rho, AngleField(), ChannelRates(0.1, 0.2), t=0.0)

        n = 4
        u = dense_walk_matrix(grid, np.broadcast_to(np.eye(2), (n, 2, 2)))
        s3 = np.kron(np.diag([1.0, -1.0]), np.eye(n))
        s1 = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(n))
        rd = rho.dense()
        expected = 0.7 * u @ rd @ u.conj().T + 0.1 * s3 @ rd @ s3 + 0.2 * s1 @ rd @ s1
        np.testing.assert_allclose(out.dense(), expected, atol=1e-14)

    def test_dense_oracle_generic_coin_and_rates(self):
        grid = LatticeGrid(n_sites=6, spacing=0.5)
        field = AngleField(theta_bar=-0.9, xi1_bar=0.3, xi0_bar=0.1)
        rng = np.random.default_rng(11)
        amp = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
        amp /= np.linalg.norm(amp)
        rho = DensityGrid.from_wave_state(WaveState(amp, grid))
        rates = ChannelRates(0.3, 0.5)
        out = channel_step(rho, field, rates, t=0.25)

        from dlqw.walk import step_coins

        coins = step_coins(field, 0.25, grid)
        u = dense_walk_matrix(grid, coins)
        s3 = np.kron(np.diag([1.0, -1.0]), np.eye(6))
        s1 = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(6))
        rd = rho.dense()
        p1, p2 = 0.5 * 0.3, 0.5 * 0.5
        expected = (1 - p1 - p2) * u @ rd @ u.conj().T + p1 * s3 @ rd @ s3 + p2 * s1 @ rd @ s1
        np.testing.assert_allclose(out.dense(), expected, atol=1e-13)

    def test_rate_overflow_rejected(self):
        with pytest.raises(ConfigurationError):
            channel_step(self.rho, self.field, ChannelRates(0.6, 0.5), t=0.0)
        with pytest.raises(ConfigurationError):
            ChannelRates(-0.1, 0.0)

    def test_positivity_diagnostic(self):
        grid = LatticeGrid(n_sites=16)
        rho = DensityGrid.pure_site(grid, coin=(1.0, 1.0))
        for k in range(8):
            rho = channel_step(rho, self.field, ChannelRates(0.15, 0.25), t=float(k))
        assert rho.min_eigenvalue() >= -1e-8

    def test_light_cone(self):
        grid = LatticeGrid(n_sites=41)
        rho = DensityGrid.pure_site(grid, coin=(1.0, 1.0))
        c = grid.center_index
        for k in range(1, 13):
            rho = channel_step(rho, self.field, ChannelRates(0.1, 0.2), t=float(k))
            p = rho.site_probabilities()
            assert np.all(np.abs(p[: c - k]) < 1e-15)
            assert np.all(np.abs(p[c + k + 1 :]) < 1e-15)


def channel_reference(state, field, rates, marks):
    """Repeated :func:`channel_step` from |state><state|: R0 and R3 at each mark, final blocks."""
    a = state.grid.spacing
    rho = DensityGrid.from_wave_state(state)
    r0, r3 = [], []
    done = 0
    for stop in marks:
        for step in range(done, stop):
            rho = channel_step(rho, field, rates, t=step * a)
        done = stop
        r0.append(rho.site_probabilities() / a)
        r3.append((np.diagonal(rho.blocks[0, 0]) - np.diagonal(rho.blocks[1, 1])).real / a)
    return np.array(r0), np.array(r3), rho


@pytest.fixture
def step_calls(monkeypatch):
    """Counts the calls of :func:`channel_step` that :func:`channel_run` makes."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return channel_step(*args, **kwargs)

    monkeypatch.setattr(noise, "channel_step", counted)
    return calls


BAND_GRID = LatticeGrid(n_sites=200, spacing=0.1)
GENERIC_COIN = AngleField(theta_bar=-0.9, xi0_bar=0.3, xi1_bar=0.2, chi_bar=-0.4)
# (start, coin, rates, marks) of runs whose start leaves modes out of the band
BAND_RUNS = {
    "packet": (build_packet(1.0, 0.5, 0.5, BAND_GRID).state(0.0), AngleField.massive(0.5),
               ChannelRates(0.1, 0.25), list(range(0, 101, 20))),
    "narrow-gaussian": (WaveState.gaussian(BAND_GRID, width=0.4, p0=1.0), GENERIC_COIN,
                        ChannelRates(0.7, 1.1), [0, 3, 10, 40]),
    "no-flips": (WaveState.gaussian(BAND_GRID, width=0.4, p0=1.0), AngleField.massive(0.5),
                 ChannelRates(), [0, 5, 30]),
}


class TestBandChannel:
    @pytest.mark.parametrize("name", list(BAND_RUNS))
    def test_matches_channel_step(self, name, step_calls):
        state, field, rates, marks = BAND_RUNS[name]
        got = channel_run(state, field, rates, marks)
        assert step_calls == []  # the band path
        r0, r3, rho = channel_reference(state, field, rates, marks)
        # each array to 1e-13 of its own largest entry
        got_r0, got_r3 = (np.stack([d.R[mu] for d in got.diagonals]) for mu in (0, 3))
        for have, want in ((got_r0, r0), (got_r3, r3), (got.build_final().blocks, rho.blocks)):
            assert have.shape == want.shape
            np.testing.assert_allclose(have, want, rtol=0, atol=1e-13 * np.abs(want).max())
        edge_mass = got.diagonals[-1].R[0][[0, -1]].sum() * state.grid.spacing
        assert edge_mass == pytest.approx(rho.edge_mass(), abs=1e-15)

    @pytest.mark.parametrize("name", list(BAND_RUNS))
    def test_final_field_is_hermitian(self, name):
        state, field, rates, marks = BAND_RUNS[name]
        final = channel_run(state, field, rates, marks).build_final()
        assert final.hermiticity_defect() <= 1e-14
        assert final.trace() == pytest.approx(1.0, abs=1e-12)

    def test_delta_start_takes_the_position_path(self, step_calls):
        grid = LatticeGrid(n_sites=40, spacing=0.1)
        state = WaveState.delta(grid)
        rates = ChannelRates(0.3, 0.2)
        got = channel_run(state, AngleField.massive(0.5), rates, [0, 4, 9])
        assert len(step_calls) == 9
        r0, r3, rho = channel_reference(state, AngleField.massive(0.5), rates, [0, 4, 9])
        np.testing.assert_array_equal(np.stack([d.R[0] for d in got.diagonals]), r0)
        np.testing.assert_array_equal(np.stack([d.R[3] for d in got.diagonals]), r3)
        np.testing.assert_array_equal(got.build_final().blocks, rho.blocks)

    def test_fine_lattice_delta_start_is_not_a_blow_up(self):
        # the blow-up check reads probabilities, not R = p / a = 1e7 here
        grid = LatticeGrid(n_sites=40, spacing=1e-7)
        got = channel_run(WaveState.delta(grid), AngleField.massive(0.5),
                          ChannelRates(0.3, 0.2), [0, 64, 70])
        assert got.series.trace == pytest.approx(np.ones(3), abs=1e-12)

    def test_wrapped_gaussian_start_takes_the_position_path(self, step_calls):
        # the acceptance-equivalence-channel start: its periodic wrap has a kink
        cfg = load_config("preset:acceptance-equivalence-channel")
        grid = runner._lattice_grid(cfg)
        state = runner._lattice_init(cfg, grid)
        assert ModeBand(np.fft.fft(state.amplitudes, axis=1)).fills_axis
        channel_run(state, AngleField.massive(cfg.m),
                    ChannelRates(cfg.pi1_rate, cfg.pi2_rate), [0, 1])
        assert len(step_calls) == 1

    def test_site_coin_takes_the_position_path(self, step_calls):
        state, _, rates, _ = BAND_RUNS["packet"]
        field = AngleField(theta_bar=lambda t, x: -0.5 + 0.1 * np.sin(x))
        channel_run(state, field, rates, [0, 2])
        assert len(step_calls) == 2

    @pytest.mark.parametrize("path", ["band", "position"])
    def test_rates_checked_before_any_step(self, path):
        state = BAND_RUNS["packet"][0] if path == "band" else WaveState.delta(BAND_GRID)
        with pytest.raises(ConfigurationError, match="reduce eps or the rates"):
            channel_run(state, AngleField.massive(0.5), ChannelRates(6.0, 5.0), [0])


class TestSampleCoinOffsets:
    def test_zero_deltas(self):
        rng = rng_for_trajectory(0, 0)
        np.testing.assert_array_equal(sample_coin_offsets(NoiseSpec(), 0.1, rng), np.zeros(4))

    def test_gaussian_variance(self):
        from dlqw.noise import _draw_unscaled

        rng = rng_for_trajectory(7, 0)
        draws = _draw_unscaled(ParamNoise("gaussian", 0.5), rng, size=1_000_000)
        assert draws.mean() == pytest.approx(0.0, abs=2e-3)
        assert draws.var() == pytest.approx(0.25, rel=0.01)

    def test_uniform_variance(self):
        from dlqw.noise import _draw_unscaled

        rng = rng_for_trajectory(7, 1)
        draws = _draw_unscaled(ParamNoise("uniform", 0.3), rng, size=1_000_000)
        assert draws.var() == pytest.approx(0.09, rel=0.01)
        assert np.abs(draws).max() <= np.sqrt(3) * 0.3 + 1e-12

    def test_two_point_support(self):
        spec = NoiseSpec.single("theta", "two-point", 0.4)
        rng = rng_for_trajectory(1, 2)
        eps = 0.04
        vals = {round(sample_coin_offsets(spec, eps, rng)[2], 12) for _ in range(64)}
        assert vals <= {round(0.2 * 0.4, 12), round(-0.2 * 0.4, 12)}
        assert len(vals) == 2

    def test_scaling_with_eps(self):
        spec = NoiseSpec.single("xi1", "two-point", 1.0)
        rng = rng_for_trajectory(0, 3)
        off = sample_coin_offsets(spec, 0.25, rng)
        assert abs(off[1]) == pytest.approx(0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ParamNoise("lognormal", 0.1)


class TestTrajectoryStep:
    def test_zero_offsets_match_walk_step(self):
        grid = LatticeGrid(n_sites=32, spacing=0.1)
        field = AngleField(theta_bar=-0.8, xi0_bar=0.4)
        s = WaveState.delta(grid)
        a = trajectory_step(s, field, np.zeros(4), t=0.3)
        b = walk_step(s, field, t=0.3)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_norm_preserved(self):
        grid = LatticeGrid(n_sites=32, spacing=0.1)
        field = AngleField(theta_bar=-0.8)
        s = WaveState.delta(grid)
        rng = rng_for_trajectory(5, 1)
        spec = NoiseSpec.single("theta", "gaussian", 0.6)
        for j in range(40):
            s = trajectory_step(s, field, sample_coin_offsets(spec, 0.1, rng), t=0.1 * j)
            assert abs(s.norm() - 1.0) < 1e-12

    def test_fixed_seed_bit_identical(self):
        grid = LatticeGrid(n_sites=32, spacing=0.1)
        field = AngleField(theta_bar=-0.8)
        spec = NoiseSpec.single("theta", "gaussian", 0.6)

        def run():
            s = WaveState.delta(grid)
            rng = rng_for_trajectory(42, 17)
            for j in range(25):
                s = trajectory_step(s, field, sample_coin_offsets(spec, 0.1, rng), 0.1 * j)
            return s.amplitudes

        np.testing.assert_array_equal(run(), run())

    def test_per_site_offsets(self):
        grid = LatticeGrid(n_sites=16, spacing=0.1)
        s = WaveState.delta(grid)
        offs = np.zeros((4, 16))
        offs[2] = 0.05 * np.sin(grid.positions)
        out = trajectory_step(s, AngleField(), tuple(offs), t=0.0)
        assert abs(out.norm() - 1.0) < 1e-12


class TestTrajectoryOffsets:
    @pytest.mark.parametrize("spec", [
        NoiseSpec.single("theta", "gaussian", 0.6),
        NoiseSpec.single("chi", "uniform", 0.3),
        NoiseSpec.single("xi1", "two-point", 0.5),
        NoiseSpec(xi0=ParamNoise("gaussian", 0.2), theta=ParamNoise("gaussian", 0.7)),
        NoiseSpec(xi1=ParamNoise("uniform", 0.4), chi=ParamNoise("uniform", 0.9)),
        NoiseSpec(xi0=ParamNoise("two-point", 1.0), xi1=ParamNoise("two-point", 0.1),
                  chi=ParamNoise("two-point", 0.5)),
        NoiseSpec(xi0=ParamNoise("gaussian", 0.4), theta=ParamNoise("uniform", 0.5)),
        NoiseSpec(xi1=ParamNoise("two-point", 0.4), theta=ParamNoise("gaussian", 0.5)),
        NoiseSpec(),
        # one delta for every active angle: a scalar scale
        NoiseSpec(xi0=ParamNoise("gaussian", 0.6), theta=ParamNoise("gaussian", 0.6)),
        NoiseSpec(xi1=ParamNoise("uniform", 0.3), chi=ParamNoise("uniform", 0.3)),
    ])
    def test_matches_step_by_step_draws(self, spec):
        rng_a, rng_b = rng_for_trajectory(4, 2), rng_for_trajectory(4, 2)
        scalar = np.array([sample_coin_offsets(spec, 0.05, rng_a) for _ in range(30)])
        np.testing.assert_array_equal(trajectory_offsets(spec, 0.05, rng_b, 30), scalar)
        # both generators end in the same state
        assert rng_a.random() == rng_b.random()


class TestTrajectoryStreams:
    """run_ensemble's batched set-up of the streams of rng_for_trajectory."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 12345])
    def test_keys_match_seed_sequence(self, seed):
        ids = [0, 1, 1023, 1024, 2999]
        want = [np.random.SeedSequence(seed, spawn_key=(k,)).generate_state(2, np.uint64)
                for k in ids]
        got = noise.philox_keys(seed, ids)
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, want)

    def test_keys_reject_what_a_one_word_spawn_key_cannot_hold(self):
        with pytest.raises(ConfigurationError):
            noise.philox_keys(-1, [0])
        with pytest.raises(ConfigurationError):
            noise.philox_keys(0, [2**32])

    @pytest.mark.parametrize("spec", [
        NoiseSpec(xi1=ParamNoise("two-point", 0.4), theta=ParamNoise("gaussian", 0.5)),
        NoiseSpec(xi0=ParamNoise("uniform", 0.3), chi=ParamNoise("two-point", 0.2)),
    ], ids=["two-point+gaussian", "uniform+two-point"])
    def test_two_kind_spec_matches_per_trajectory_loop(self, spec, monkeypatch):
        grid = LatticeGrid(n_sites=20, spacing=0.1)
        field = AngleField(theta_bar=-1.0, xi1_bar=0.5)
        init = WaveState.gaussian(grid, width=0.3, p0=0.5)
        monkeypatch.setattr(noise, "ENSEMBLE_BATCH", 4)  # three batches, one partial
        ens = run_ensemble(field, spec, init, 7, n_traj=10, seed=2**33 + 5)

        sum_prob = np.zeros(grid.n_sites)
        blocks = np.zeros_like(ens.sum_blocks)
        for k in range(10):
            offsets = trajectory_offsets(spec, 0.1, rng_for_trajectory(2**33 + 5, k), 7)
            s = init
            for j in range(7):
                s = trajectory_step(s, field, offsets[j], 0.1 * j)
            sum_prob = sum_prob + s.probabilities()
            blocks += DensityGrid.from_wave_state(s).blocks
        np.testing.assert_array_equal(ens.sum_prob, sum_prob)
        np.testing.assert_array_equal(ens.sum_blocks, blocks)


class TestEnsembleDensity:
    def test_single_noiseless_trajectory_is_projector(self):
        grid = LatticeGrid(n_sites=24, spacing=0.1)
        field = AngleField(theta_bar=-1.0)
        init = WaveState.delta(grid)
        rho = ensemble_density(field, NoiseSpec(), init, n_steps=10, n_traj=1, seed=0)
        s = init
        for j in range(10):
            s = walk_step(s, field, t=0.1 * j)
        np.testing.assert_allclose(
            rho.blocks, DensityGrid.from_wave_state(s).blocks, atol=1e-12
        )
        assert rho.purity() == pytest.approx(1.0, abs=1e-10)

    def test_batched_matches_explicit_loop(self):
        grid = LatticeGrid(n_sites=20, spacing=0.1)
        field = AngleField(theta_bar=-1.0, xi1_bar=0.5)
        init = WaveState.delta(grid)
        spec = NoiseSpec.single("theta", "gaussian", 0.5)
        rho = ensemble_density(field, spec, init, n_steps=8, n_traj=3, seed=9)

        acc = np.zeros_like(rho.blocks)
        for k in range(3):
            rng = rng_for_trajectory(9, k)
            s = init.copy()
            for j in range(8):
                s = trajectory_step(s, field, sample_coin_offsets(spec, 0.1, rng), 0.1 * j)
            acc += DensityGrid.from_wave_state(s).blocks
        np.testing.assert_allclose(rho.blocks, acc / 3, atol=1e-14)

    @pytest.mark.parametrize("field", [
        AngleField(theta_bar=-1.0, xi1_bar=0.5),
        AngleField(theta_bar=lambda t, x: -1.0 + 0.3 * np.sin(x - t), xi1_bar=0.5),
    ], ids=["constant-coin", "per-site-coin"])
    def test_sums_do_not_depend_on_batching(self, field, monkeypatch):
        grid = LatticeGrid(n_sites=20, spacing=0.1)
        init = WaveState.gaussian(grid, width=0.3, p0=0.5)
        spec = NoiseSpec.single("theta", "gaussian", 0.5)
        whole = run_ensemble(field, spec, init, 8, n_traj=20, seed=4)
        monkeypatch.setattr(noise, "ENSEMBLE_BATCH", 7)
        split = run_ensemble(field, spec, init, 8, n_traj=20, seed=4)
        for key in ("sum_prob", "sum_prob2", "sum_blocks"):
            np.testing.assert_array_equal(getattr(split, key), getattr(whole, key),
                                          err_msg=key)

    def test_blocks_only_when_accumulated(self):
        grid = LatticeGrid(n_sites=20, spacing=0.1)
        init = WaveState.gaussian(grid, width=0.3, p0=0.5)
        spec = NoiseSpec.single("theta", "gaussian", 0.5)
        field = AngleField(theta_bar=-1.0)
        with_blocks = run_ensemble(field, spec, init, 6, n_traj=9, seed=2)
        without = run_ensemble(field, spec, init, 6, n_traj=9, seed=2, accumulate_blocks=False)
        assert without.sum_blocks is None
        with pytest.raises(ConfigurationError):
            without.density()
        np.testing.assert_array_equal(without.sum_prob, with_blocks.sum_prob)
        np.testing.assert_array_equal(without.sum_prob2, with_blocks.sum_prob2)

    def test_trace_and_hermiticity(self):
        grid = LatticeGrid(n_sites=24, spacing=0.1)
        field = AngleField(theta_bar=-1.0)
        spec = NoiseSpec.single("theta", "gaussian", 0.4)
        rho = ensemble_density(field, spec, WaveState.delta(grid), 10, 64, seed=3)
        assert rho.trace() == pytest.approx(1.0, abs=1e-10)
        assert rho.hermiticity_defect() < 1e-12

    def test_xi1_noise_feeds_sigma3_channel(self):
        # With only xi1 noise active, the matching channel has pi1 = delta^2
        # (phase-flip): the distance to that channel vanishes linearly in eps,
        # while pairing the same noise with the coin-flip channel does not.
        # Exact two-point averages, massive walk, smooth initial state.
        delta, t_final = 0.6, 1.0
        d_right, d_wrong = [], []
        for eps in (0.1, 0.05, 0.025):
            steps = round(t_final / eps)
            grid = LatticeGrid(n_sites=int(6.4 / eps), spacing=eps)
            field = AngleField(theta_bar=-1.0)
            init = DensityGrid.from_wave_state(WaveState.gaussian(grid, width=0.4))
            spec = NoiseSpec.single("xi1", "two-point", delta)
            rho_rand, rho_r, rho_w = init, init.copy(), init.copy()
            for j in range(steps):
                t = eps * j
                rho_rand = two_point_channel_step(rho_rand, field, spec, t)
                rho_r = channel_step(rho_r, field, ChannelRates(delta**2, 0.0), t)
                rho_w = channel_step(rho_w, field, ChannelRates(0.0, delta**2), t)
            p = rho_rand.site_probabilities()
            d_right.append(l1_probability_distance(p, rho_r.site_probabilities()))
            d_wrong.append(l1_probability_distance(p, rho_w.site_probabilities()))
        assert d_right[0] > d_right[1] > d_right[2]
        assert d_right[2] < 0.3 * d_right[0]
        assert d_wrong[2] > 5.0 * d_right[2]

    def test_cross_model_within_monte_carlo_error(self):
        eps, steps = 0.1, 10
        grid = LatticeGrid(n_sites=64, spacing=eps)
        field = AngleField(theta_bar=-0.5)
        init = WaveState.gaussian(grid, width=0.4)
        spec = NoiseSpec.single("theta", "gaussian", 0.5)

        ens = run_ensemble(field, spec, init, steps, n_traj=2000, seed=101,
                           accumulate_blocks=False)
        rho = DensityGrid.from_wave_state(init)
        for j in range(steps):
            rho = channel_step(rho, field, ChannelRates(0.0, 0.25), t=eps * j)

        l1 = l1_probability_distance(ens.probability_mean(), rho.site_probabilities())
        se_l1 = float(ens.probability_se().sum())
        assert l1 <= 3.0 * se_l1


class TestNullNoises:
    def test_xi0_noise_exactly_null(self):
        eps, steps = 0.1, 10
        grid = LatticeGrid(n_sites=30, spacing=eps)
        field = AngleField(theta_bar=-1.0)
        spec = NoiseSpec.single("xi0", "two-point", 1.0)
        rho = DensityGrid.pure_site(grid, coin=(1.0, 1.0))
        ref = rho.copy()
        for j in range(steps):
            rho = two_point_channel_step(rho, field, spec, eps * j)
            ref = DensityGrid(
                __import__("dlqw.noise", fromlist=["walk_conjugate"]).walk_conjugate(
                    ref, field, eps * j
                ),
                grid,
            )
        assert l1_probability_distance(
            rho.site_probabilities(), ref.site_probabilities()
        ) < 1e-12

    def test_chi_noise_vanishes_under_refinement(self):
        t_final = 1.0
        dists = []
        for eps in (0.1, 0.05, 0.025):
            steps = round(t_final / eps)
            grid = LatticeGrid.for_duration(t_final, eps)
            field = AngleField(theta_bar=-2.0)
            spec = NoiseSpec.single("chi", "two-point", 1.0)
            noisy = DensityGrid.pure_site(grid, coin=(1.0, 1.0))
            clean = noisy.copy()
            for j in range(steps):
                t = eps * j
                noisy = two_point_channel_step(noisy, field, spec, t)
                clean = channel_step(clean, field, ChannelRates(), t)
            # compare as densities on the shared physical interval
            x = grid.positions
            pn = noisy.site_probabilities() / eps
            pc = clean.site_probabilities() / eps
            dists.append(np.abs(pn - pc).sum() * eps)
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < dists[0] / 2
