import os
import sys
import threading
import tracemalloc

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
    rng_for_trajectory,
    run_ensemble,
    sample_coin_offsets,
    trajectory_offsets,
    trajectory_step,
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


def pure_site(grid, coin=(1.0, 0.0), site=None):
    return DensityGrid.from_wave_state(WaveState.delta(grid, coin=coin, site=site))


def dense(rho):
    """Full (2n x 2n) matrix of ``rho`` in the |u, x> basis (u major); small grids only."""
    n = rho.grid.n_sites
    return rho.blocks.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)


def purity(rho):
    return float(np.sum(np.abs(rho.blocks) ** 2))


class TestDensityGrid:
    def test_pure_state_trace_and_hermiticity(self):
        grid = LatticeGrid(n_sites=16)
        rho = pure_site(grid, coin=(1.0, 1.0))
        assert rho.trace() == pytest.approx(1.0, abs=1e-14)
        assert rho.hermiticity_defect() < 1e-14
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_dense_round_trip(self):
        grid = LatticeGrid(n_sites=6)
        rng = np.random.default_rng(3)
        amp = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
        amp /= np.linalg.norm(amp)
        rho = DensityGrid.from_wave_state(WaveState(amp, grid))
        psi = amp.reshape(-1)
        np.testing.assert_allclose(dense(rho), np.outer(psi, psi.conj()), atol=1e-15)


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
        self.rho = pure_site(self.grid, coin=(1.0, 1j))

    def test_zero_rates_is_unitary(self):
        out = self.rho
        for k in range(12):
            out = channel_step(out, self.field, ChannelRates(), t=float(k))
        assert purity(out) == pytest.approx(1.0, abs=1e-10)
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
        rho = pure_site(grid, coin=(1.0, 0.0), site=0)
        out = channel_step(rho, AngleField(), ChannelRates(0.1, 0.2), t=0.0)

        n = 4
        u = dense_walk_matrix(grid, np.broadcast_to(np.eye(2), (n, 2, 2)))
        s3 = np.kron(np.diag([1.0, -1.0]), np.eye(n))
        s1 = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(n))
        rd = dense(rho)
        expected = 0.7 * u @ rd @ u.conj().T + 0.1 * s3 @ rd @ s3 + 0.2 * s1 @ rd @ s1
        np.testing.assert_allclose(dense(out), expected, atol=1e-14)

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
        rd = dense(rho)
        p1, p2 = 0.5 * 0.3, 0.5 * 0.5
        expected = (1 - p1 - p2) * u @ rd @ u.conj().T + p1 * s3 @ rd @ s3 + p2 * s1 @ rd @ s1
        np.testing.assert_allclose(dense(out), expected, atol=1e-13)

    def test_rate_overflow_rejected(self):
        with pytest.raises(ConfigurationError):
            channel_step(self.rho, self.field, ChannelRates(0.6, 0.5), t=0.0)
        with pytest.raises(ConfigurationError):
            ChannelRates(-0.1, 0.0)

    def test_positivity_diagnostic(self):
        grid = LatticeGrid(n_sites=16)
        rho = pure_site(grid, coin=(1.0, 1.0))
        for k in range(8):
            rho = channel_step(rho, self.field, ChannelRates(0.15, 0.25), t=float(k))
        assert np.linalg.eigvalsh(dense(rho)).min() >= -1e-8

    def test_light_cone(self):
        grid = LatticeGrid(n_sites=41)
        rho = pure_site(grid, coin=(1.0, 1.0))
        c = grid.center_index
        for k in range(1, 13):
            rho = channel_step(rho, self.field, ChannelRates(0.1, 0.2), t=float(k))
            p = (np.diagonal(rho.blocks[0, 0]) + np.diagonal(rho.blocks[1, 1])).real
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
        r0.append((np.diagonal(rho.blocks[0, 0]) + np.diagonal(rho.blocks[1, 1])).real / a)
        r3.append((np.diagonal(rho.blocks[0, 0]) - np.diagonal(rho.blocks[1, 1])).real / a)
    return np.array(r0), np.array(r3), rho


@pytest.fixture
def roll_calls(monkeypatch):
    """Counts the position-space block shifts (:func:`noise.roll_components`) that
    :func:`channel_run` makes, one per step on the position path."""
    calls = []
    roll = noise.roll_components

    def counted(*args, **kwargs):
        calls.append(1)
        return roll(*args, **kwargs)

    monkeypatch.setattr(noise, "roll_components", counted)
    return calls


def final_probabilities(state, field, model, steps):
    """Site probabilities of :func:`channel_run` after ``steps`` steps."""
    return channel_run(state, field, model, [steps]).diagonals[-1].R[0] * state.grid.spacing


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
    def test_matches_channel_step(self, name, roll_calls):
        state, field, rates, marks = BAND_RUNS[name]
        got = channel_run(state, field, rates, marks)
        assert roll_calls == []  # the band path
        r0, r3, rho = channel_reference(state, field, rates, marks)
        # each array to 1e-13 of its own largest entry
        got_r0, got_r3 = (np.stack([d.R[mu] for d in got.diagonals]) for mu in (0, 3))
        for have, want in ((got_r0, r0), (got_r3, r3), (got.build_final().blocks, rho.blocks)):
            assert have.shape == want.shape
            np.testing.assert_allclose(have, want, rtol=0, atol=1e-13 * np.abs(want).max())
        edge_mass = got.diagonals[-1].R[0][[0, -1]].sum() * state.grid.spacing
        p = (np.diagonal(rho.blocks[0, 0]) + np.diagonal(rho.blocks[1, 1])).real
        assert edge_mass == pytest.approx(p[0] + p[-1], abs=1e-15)

    @pytest.mark.parametrize("name", list(BAND_RUNS))
    def test_final_field_is_hermitian(self, name):
        state, field, rates, marks = BAND_RUNS[name]
        final = channel_run(state, field, rates, marks).build_final()
        assert final.hermiticity_defect() <= 1e-14
        assert final.trace() == pytest.approx(1.0, abs=1e-12)

    def test_delta_start_takes_the_position_path(self, roll_calls):
        grid = LatticeGrid(n_sites=40, spacing=0.1)
        state = WaveState.delta(grid)
        rates = ChannelRates(0.3, 0.2)
        got = channel_run(state, AngleField.massive(0.5), rates, [0, 4, 9])
        assert len(roll_calls) == 9
        r0, r3, rho = channel_reference(state, AngleField.massive(0.5), rates, [0, 4, 9])
        # the band runs' bound: the walk mix carries the factor 1 - p1 - p2 here
        got_r0, got_r3 = (np.stack([d.R[mu] for d in got.diagonals]) for mu in (0, 3))
        for have, want in ((got_r0, r0), (got_r3, r3), (got.build_final().blocks, rho.blocks)):
            np.testing.assert_allclose(have, want, rtol=0, atol=1e-13 * np.abs(want).max())

    def test_fine_lattice_delta_start_is_not_a_blow_up(self):
        # the blow-up check reads probabilities, not R = p / a = 1e7 here
        grid = LatticeGrid(n_sites=40, spacing=1e-7)
        got = channel_run(WaveState.delta(grid), AngleField.massive(0.5),
                          ChannelRates(0.3, 0.2), [0, 64, 70])
        assert got.series.trace == pytest.approx(np.ones(3), abs=1e-12)

    def test_wrapped_gaussian_start_takes_the_position_path(self, roll_calls):
        # the acceptance-equivalence-channel start: its periodic wrap has a kink
        cfg = load_config("preset:acceptance-equivalence-channel")
        grid = runner._lattice_grid(cfg)
        state = runner._lattice_init(cfg, grid)
        assert ModeBand(np.fft.fft(state.amplitudes, axis=1)).fills_axis
        channel_run(state, AngleField.massive(cfg.m),
                    ChannelRates(cfg.pi1_rate, cfg.pi2_rate), [0, 1])
        assert len(roll_calls) == 1

    def test_site_coin_is_refused(self):
        # with per-site coins no pointwise mix describes a step: channel_step steps them
        state, _, rates, _ = BAND_RUNS["packet"]
        field = AngleField(theta_bar=lambda t, x: -0.5 + 0.1 * np.sin(x))
        with pytest.raises(ConfigurationError, match="constant coin"):
            channel_run(state, field, rates, [0, 2])

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


def trajectory_loop(field, spec, init, n_steps, n_traj, seed):
    """``sum_prob``, ``sum_prob2`` and ``sum_blocks`` of one trajectory at a time,
    each drawn from :func:`rng_for_trajectory` and stepped by :func:`trajectory_step`."""
    eps = init.grid.spacing
    sum_prob = sum_prob2 = np.zeros(init.grid.n_sites)
    blocks = 0
    for k in range(n_traj):
        offsets = trajectory_offsets(spec, eps, rng_for_trajectory(seed, k), n_steps)
        s = init
        for j in range(n_steps):
            s = trajectory_step(s, field, offsets[j], j * eps)
        p = s.probabilities()
        sum_prob = sum_prob + p
        sum_prob2 = sum_prob2 + p * p
        blocks = blocks + DensityGrid.from_wave_state(s).blocks
    return dict(sum_prob=sum_prob, sum_prob2=sum_prob2, sum_blocks=blocks)


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
        for key, value in trajectory_loop(field, spec, init, 7, 10, 2**33 + 5).items():
            np.testing.assert_array_equal(getattr(ens, key), value, err_msg=key)


class TestEnsembleDensity:
    def test_single_noiseless_trajectory_is_projector(self):
        grid = LatticeGrid(n_sites=24, spacing=0.1)
        field = AngleField(theta_bar=-1.0)
        init = WaveState.delta(grid)
        rho = run_ensemble(field, NoiseSpec(), init, n_steps=10, n_traj=1, seed=0).density()
        s = init
        for j in range(10):
            s = walk_step(s, field, t=0.1 * j)
        np.testing.assert_allclose(
            rho.blocks, DensityGrid.from_wave_state(s).blocks, atol=1e-12
        )
        assert purity(rho) == pytest.approx(1.0, abs=1e-10)

    def test_batched_matches_explicit_loop(self):
        grid = LatticeGrid(n_sites=20, spacing=0.1)
        field = AngleField(theta_bar=-1.0, xi1_bar=0.5)
        init = WaveState.delta(grid)
        spec = NoiseSpec.single("theta", "gaussian", 0.5)
        rho = run_ensemble(field, spec, init, n_steps=8, n_traj=3, seed=9).density()

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
        rho = run_ensemble(field, spec, WaveState.delta(grid), 10, 64, seed=3).density()
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
            init = WaveState.gaussian(grid, width=0.4)
            spec = NoiseSpec.single("xi1", "two-point", delta)
            p, p_r, p_w = (final_probabilities(init, field, model, steps) for model in (
                spec, ChannelRates(delta**2, 0.0), ChannelRates(0.0, delta**2)))
            d_right.append(l1_probability_distance(p, p_r))
            d_wrong.append(l1_probability_distance(p, p_w))
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
        p = final_probabilities(init, field, ChannelRates(0.0, 0.25), steps)

        l1 = l1_probability_distance(ens.probability_mean(), p)
        se_l1 = float(ens.probability_se().sum())
        assert l1 <= 3.0 * se_l1


class FieldFailure(RuntimeError):
    pass


class TestEnsembleThreads:
    """run_ensemble steps each batch in contiguous slices, one thread each."""

    @pytest.mark.parametrize("n_traj", [1, 5, 1025])
    @pytest.mark.parametrize("field", [
        AngleField(theta_bar=-1.0, xi1_bar=0.5),
        AngleField(theta_bar=lambda t, x: -1.0 + 0.3 * np.sin(x - t), xi1_bar=0.5),
    ], ids=["constant-coin", "per-site-coin"])
    def test_sums_do_not_depend_on_the_thread_count(self, field, n_traj, monkeypatch):
        # 1025 trajectories: a full batch in uneven slices, then a batch of one;
        # one trajectory leaves two of three threads an empty slice
        grid = LatticeGrid(n_sites=16, spacing=0.1)
        init = WaveState.gaussian(grid, width=0.3, p0=0.5)
        spec = NoiseSpec.single("theta", "gaussian", 0.5)
        want = trajectory_loop(field, spec, init, 4, n_traj, seed=6)
        for threads in (1, 2, 3):
            monkeypatch.setattr(noise, "ensemble_threads", lambda t: threads)
            ens = run_ensemble(field, spec, init, 4, n_traj, seed=6)
            assert ens.threads == threads
            for key, value in want.items():
                np.testing.assert_array_equal(getattr(ens, key), value,
                                              err_msg=f"{key}, {threads} threads")

    @pytest.mark.parametrize("cores, t, want", [
        (64, 1024, 2), (64, 952, 2), (64, 767, 1), (64, 768, 2), (64, 5, 1),
        (3, 1500, 3), (2, 3000, 2), (1, 1024, 1),
    ])
    def test_thread_count_keeps_slices_near_the_measured_size(self, cores, t, want,
                                                              monkeypatch):
        # a full batch takes 2 threads however many cores there are, so a
        # large host runs the case measured on 2 cores, not 64 small slices
        monkeypatch.setattr(noise.os, "sched_getaffinity", lambda pid: set(range(cores)))
        assert noise.ensemble_threads(t) == want
        assert noise.ensemble_threads(noise.ENSEMBLE_BATCH) <= 2

    def test_more_threads_than_cores(self, monkeypatch):
        # every thread writes its own rows of the shared buffers, switching
        # often: a crossed or lost write would change the sums
        grid = LatticeGrid(n_sites=16, spacing=0.1)
        init = WaveState.gaussian(grid, width=0.3, p0=0.5)
        spec = NoiseSpec.single("theta", "gaussian", 0.5)
        field = AngleField(theta_bar=-1.0, xi1_bar=0.5)
        threads = len(os.sched_getaffinity(0)) + 5  # the cores this process may use, and more
        monkeypatch.setattr(noise, "ensemble_threads", lambda t: 1)
        want = run_ensemble(field, spec, init, 12, 300, seed=8)
        monkeypatch.setattr(noise, "ensemble_threads", lambda t: threads)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run_ensemble(field, spec, init, 12, 300, seed=8)
        finally:
            sys.setswitchinterval(interval)
        assert got.threads == threads
        for key in ("sum_prob", "sum_prob2", "sum_blocks"):
            np.testing.assert_array_equal(getattr(got, key), getattr(want, key), err_msg=key)

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(noise, "ensemble_threads", lambda t: 2)
        grid = LatticeGrid(n_sites=16, spacing=0.1)
        init = WaveState.gaussian(grid, width=0.3)
        spec = NoiseSpec.single("theta", "gaussian", 0.5)
        raised = []

        def theta(t, x):
            if t > 0.25 and threading.current_thread() is not threading.main_thread():
                raised.append(FieldFailure(f"no angle at t = {t:g}"))
                raise raised[-1]
            return -1.0 + 0.3 * np.sin(x - t)

        before = threading.active_count()
        run_ensemble(AngleField(theta_bar=theta), spec, init, 2, 10, seed=1)
        assert threading.active_count() == before
        with pytest.raises(FieldFailure) as info:
            run_ensemble(AngleField(theta_bar=theta), spec, init, 6, 10, seed=1)
        assert any(e is info.value for e in raised)
        assert threading.active_count() == before

    def test_threads_share_the_walk_buffers(self, monkeypatch):
        grid = LatticeGrid(n_sites=64, spacing=0.1)
        init = WaveState.gaussian(grid, width=0.3)
        spec = NoiseSpec.single("theta", "gaussian", 0.5)
        field = AngleField(theta_bar=-1.0)
        n_traj = 256
        built = []

        class CountedWalk(noise.BatchedWalk):
            def __init__(self, amplitudes):
                built.append(len(amplitudes))
                super().__init__(amplitudes)

        def peak(threads):
            monkeypatch.setattr(noise, "ensemble_threads", lambda t: threads)
            built.clear()
            tracemalloc.start()
            try:
                run_ensemble(field, spec, init, 6, n_traj, seed=1, accumulate_blocks=False)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                # one walk per batch, built by the caller; the threads step views of it
                assert built == [n_traj]

        run_ensemble(field, spec, init, 1, 2, seed=1)  # imports made once, untraced
        monkeypatch.setattr(noise, "BatchedWalk", CountedWalk)
        one, two = peak(1), peak(2)
        # the workers hold the coins of their rows, of two steps at most:
        # (T, 2, 2) complex in all, twice
        coin_stacks = 2 * n_traj * 2 * 2 * 16
        assert two <= one + coin_stacks
        # so a second set of walk buffers would break the bound
        assert runner.walk_bytes(n_traj, grid.n_sites) > 10 * coin_stacks

    def test_trajectories_estimate_one_batch_of_walk_buffers(self):
        cfg = load_config("preset:acceptance-equivalence-trajectories")
        grid = runner._lattice_grid(cfg)
        n_steps = runner.step_count(cfg.t_final, cfg.eps)
        batch = min(cfg.n_traj, noise.ENSEMBLE_BATCH)
        assert runner._needs(cfg)[1] == [
            ("the walk buffers", runner.walk_bytes(batch, grid.n_sites, n_steps))]


class TestNullNoises:
    def test_xi0_noise_exactly_null(self):
        eps, steps = 0.1, 10
        grid = LatticeGrid(n_sites=30, spacing=eps)
        field = AngleField(theta_bar=-1.0)
        spec = NoiseSpec.single("xi0", "two-point", 1.0)
        start = WaveState.delta(grid, coin=(1.0, 1.0))
        assert l1_probability_distance(
            final_probabilities(start, field, spec, steps),
            final_probabilities(start, field, ChannelRates(), steps),
        ) < 1e-12

    def test_chi_noise_vanishes_under_refinement(self):
        t_final = 1.0
        dists = []
        for eps in (0.1, 0.05, 0.025):
            steps = round(t_final / eps)
            grid = LatticeGrid.for_duration(t_final, eps)
            field = AngleField(theta_bar=-2.0)
            spec = NoiseSpec.single("chi", "two-point", 1.0)
            start = WaveState.delta(grid, coin=(1.0, 1.0))
            # compare as densities on the shared physical interval
            pn = final_probabilities(start, field, spec, steps) / eps
            pc = final_probabilities(start, field, ChannelRates(), steps) / eps
            dists.append(np.abs(pn - pc).sum() * eps)
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < dists[0] / 2


TWO_POINT_SPECS = {
    "theta": NoiseSpec.single("theta", "two-point", 0.5),
    "theta+chi": NoiseSpec(theta=ParamNoise("two-point", 0.5), chi=ParamNoise("two-point", 0.5)),
}


class TestExactTwoPointAverage:
    @pytest.mark.parametrize("steps", [20, 40])
    @pytest.mark.parametrize("name", list(TWO_POINT_SPECS))
    def test_band_average_within_monte_carlo_error(self, name, steps, roll_calls):
        state, field, _, _ = BAND_RUNS["packet"]
        spec = TWO_POINT_SPECS[name]
        exact = final_probabilities(state, field, spec, steps)
        assert roll_calls == []  # the band path: the start keeps 36 of 200 modes
        assert exact.sum() == pytest.approx(1.0, abs=1e-14)
        ens = run_ensemble(field, spec, state, steps, n_traj=2000, seed=0,
                           accumulate_blocks=False)
        mean, se = ens.probability_mean(), ens.probability_se()
        assert l1_probability_distance(mean, exact) <= 3.0 * se.sum()
        assert np.all(np.abs(mean - exact) <= 5.0 * se)

    @pytest.mark.parametrize("model", [ChannelRates(0.1, 0.25), TWO_POINT_SPECS["theta+chi"]],
                             ids=["flips", "two-point"])
    def test_band_and_position_paths_agree(self, model, monkeypatch):
        state, field, _, marks = BAND_RUNS["packet"]
        band = channel_run(state, field, model, marks)
        monkeypatch.setattr(ModeBand, "fills_axis", True)
        position = channel_run(state, field, model, marks)
        for mu in (0, 3):
            have, want = (np.stack([d.R[mu] for d in run.diagonals]) for run in (band, position))
            np.testing.assert_allclose(have, want, rtol=0, atol=1e-13 * np.abs(want).max())
        want = position.build_final().blocks
        np.testing.assert_allclose(band.build_final().blocks, want, rtol=0,
                                   atol=1e-13 * np.abs(want).max())

    def test_other_noise_kinds_are_refused(self):
        state, field, _, _ = BAND_RUNS["packet"]
        with pytest.raises(ConfigurationError, match="requires two-point noise"):
            channel_run(state, field, NoiseSpec.single("theta", "gaussian", 0.5), [0, 2])
