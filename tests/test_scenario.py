import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from shuttlekit import scenario
from shuttlekit.scenario import (
    EASY_VOLUME_SIZE,
    HARD_VOLUME_SIZE,
    RHYTHM_RANGE,
    EpisodeRecord,
    InfeasibleTargetError,
    ManifoldPoint,
    RandomizationTable,
    ServeConfig,
    evaluate_episodes,
    expand_manifold,
    load_episode_csv,
    load_manifold_points,
    sample_randomization,
    sample_rhythm_interval,
    save_manifold,
    serve_trajectory,
    strike_volume,
)
from shuttlekit.shuttle import (
    DEFAULT_DT,
    CourtGeometry,
    ShuttleParams,
    ShuttleState,
    simulate_to_ground,
    step,
)
from shuttlekit.spatial import _record

COURT = CourtGeometry(net_height=1.55, net_x=3.0, x_min=3.2, x_max=9.0, y_min=-2.6, y_max=2.6)
CENTER = (0.0, 0.0, 1.1)

DATASET = [
    (np.array([0.2, 0.1, 1.1]), 1.0),
    (np.array([-0.3, -0.1, 1.15]), 1.2),
    (np.array([0.5, 0.0, 1.05]), 0.9),
]


class TestExpandManifold:
    def test_zero_radius_reproduces_dataset(self):
        manifold = expand_manifold(DATASET, radius=0.0, time_jitter=0.0,
                                   count=30, mode="easy", seed=5, center=CENTER)
        base = {tuple(p) for p, _ in DATASET}
        for pt in manifold.points:
            assert tuple(pt.position) in base
            assert pt.time_offset == DATASET[pt.source][1]

    def test_easy_volume_respected(self):
        manifold = expand_manifold(DATASET, radius=0.8, time_jitter=0.5,
                                   count=2000, mode="easy", seed=6, center=CENTER)
        volume = strike_volume("easy", CENTER)
        for pt in manifold.points:
            assert volume.contains(pt.position)

    def test_hard_volume_larger(self):
        easy = strike_volume("easy", CENTER)
        hard = strike_volume("hard", CENTER)
        assert np.all(hard.size >= easy.size)
        assert tuple(easy.size) == EASY_VOLUME_SIZE
        assert tuple(hard.size) == HARD_VOLUME_SIZE

    def test_seeded_determinism(self):
        a = expand_manifold(DATASET, 0.5, 0.3, 100, "hard", seed=9, center=CENTER)
        b = expand_manifold(DATASET, 0.5, 0.3, 100, "hard", seed=9, center=CENTER)
        for pa, pb in zip(a.points, b.points):
            assert np.array_equal(pa.position, pb.position)
            assert pa.time_offset == pb.time_offset
            assert pa.source == pb.source

    @settings(max_examples=30)
    @given(
        mode=st.sampled_from(["easy", "hard"]),
        fracs=st.lists(st.tuples(*[st.floats(-0.7, 0.7)] * 3), min_size=1, max_size=4),
        radius=st.floats(0.0, 0.6),
        count=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_samples_stay_inside_volume(self, mode, fracs, radius, count, seed):
        volume = strike_volume(mode, CENTER)
        dataset = [(volume.center + np.array(f) * volume.size, 1.0) for f in fracs]
        try:
            manifold = expand_manifold(dataset, radius, 0.3, count, mode, seed, center=CENTER)
        except InfeasibleTargetError:
            return
        positions = np.array([pt.position for pt in manifold.points])
        assert positions.shape == (count, 3)
        assert np.all(np.abs(positions - volume.center) <= 0.5 * volume.size)

    def test_samples_stay_within_radius_of_source(self):
        # a larger radius therefore covers every smaller-radius sample
        radius = 0.35
        manifold = expand_manifold(DATASET, radius, 0.2, 500, "hard", seed=10,
                                   center=CENTER)
        for pt in manifold.points:
            src_pos, src_t = DATASET[pt.source]
            assert np.linalg.norm(pt.position - src_pos) <= radius + 1e-12
            assert abs(pt.time_offset - src_t) <= 0.2 + 1e-12

    def test_infeasible_configuration_errors(self):
        far = [(np.array([50.0, 0.0, 1.1]), 1.0)]
        with pytest.raises(InfeasibleTargetError):
            expand_manifold(far, radius=0.0, time_jitter=0.0,
                            count=1, mode="easy", seed=0, center=CENTER)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            expand_manifold([], 0.1, 0.1, 10, "easy", seed=0)
        with pytest.raises(ValueError):
            expand_manifold(DATASET, 0.1, 0.1, 0, "easy", seed=0)
        with pytest.raises(ValueError):
            expand_manifold(DATASET, 0.1, 0.1, 10, "medium", seed=0)


class TestRhythmSampling:
    def test_range_and_mean(self):
        rng = np.random.default_rng(11)
        samples = np.array([sample_rhythm_interval(rng) for _ in range(100_000)])
        assert samples.min() >= RHYTHM_RANGE[0]
        assert samples.max() <= RHYTHM_RANGE[1]
        assert abs(samples.mean() - 3.5) < 0.05

    def test_kolmogorov_smirnov_uniform(self):
        rng = np.random.default_rng(12)
        samples = [sample_rhythm_interval(rng) for _ in range(20_000)]
        result = stats.kstest(samples, stats.uniform(loc=1.0, scale=5.0).cdf)
        assert result.pvalue > 0.01


class TestRandomization:
    def test_all_draws_within_ranges(self):
        table = RandomizationTable()
        rng = np.random.default_rng(13)
        ranges = table.ranges()
        for _ in range(20_000):
            draw = sample_randomization(table, rng)
            for name, value in draw.items():
                lo, hi = ranges[name]
                assert lo <= value <= hi

    def test_degenerate_range_constant(self):
        table = RandomizationTable(pd_gain_scale=(1.0, 1.0))
        rng = np.random.default_rng(14)
        assert all(
            sample_randomization(table, rng)["pd_gain_scale"] == 1.0 for _ in range(100)
        )

    def test_gain_scale_mean(self):
        table = RandomizationTable()
        rng = np.random.default_rng(15)
        draws = [sample_randomization(table, rng)["pd_gain_scale"] for _ in range(100_000)]
        assert abs(np.mean(draws) - 1.0) < 0.005

    def test_shared_xy_range_sampled_independently(self):
        table = RandomizationTable()
        rng = np.random.default_rng(16)
        draws = [sample_randomization(table, rng) for _ in range(100)]
        assert any(d["com_offset_x"] != d["com_offset_y"] for d in draws)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            RandomizationTable(ground_friction=(1.0, 0.5))
        for bad in ((0.0, np.inf), (np.nan, 1.0), (-1e308, 1e308)):
            with pytest.raises(ValueError, match="restitution is not finite"):
                RandomizationTable(restitution=bad)

    def test_draw_matches_uniform_on_the_same_stream(self):
        table = RandomizationTable(pd_gain_scale=(1.0, 1.0))
        ranges = table.ranges()
        lows = np.array([lo for lo, _ in ranges.values()])
        highs = np.array([hi for _, hi in ranges.values()])
        rng, ref = np.random.default_rng(17), np.random.default_rng(17)
        for _ in range(1000):
            draw = sample_randomization(table, rng)
            assert list(draw) == list(ranges)
            assert list(draw.values()) == ref.uniform(lows, highs).tolist()

    def test_table_matches_published_ranges(self):
        ranges = RandomizationTable().ranges()
        assert ranges["base_mass"] == (-3.0, 5.0)
        assert ranges["hand_mass"] == (-0.05, 0.15)
        assert ranges["racket_mass"] == (-0.005, 0.005)
        assert ranges["com_offset_x"] == (-0.05, 0.05)
        assert ranges["com_offset_z"] == (-0.03, 0.03)
        assert ranges["pd_gain_scale"] == (0.9, 1.1)
        assert ranges["control_latency_ms"] == (5.0, 30.0)
        assert ranges["ground_friction"] == (0.5, 1.0)
        assert ranges["restitution"] == (0.0, 0.2)
        assert ranges["base_velocity"] == (-0.4, 0.4)
        assert ranges["terrain_height_noise"] == (0.0, 0.05)


class TestServeTrajectory:
    PARAMS = ShuttleParams(mass=0.005, drag_coeff=0.001)
    DRAG_FREE = ShuttleParams(mass=0.005, drag_coeff=0.0)

    def test_drag_free_matches_ballistic_aim(self):
        target = ManifoldPoint(np.array([0.2, 0.1, 1.1]), 1.0, 0)
        cfg = ServeConfig(origin=np.array([5.0, 0.0, 2.0]))
        state = serve_trajectory(target, COURT, self.DRAG_FREE, None, cfg)
        t = target.time_offset
        delta = target.position - cfg.origin
        v_expected = delta / t + np.array([0.0, 0.0, 0.5 * 9.81 * t])
        assert np.allclose(state.velocity, v_expected, atol=1e-6)

    def test_flight_passes_through_target(self):
        rng = np.random.default_rng(17)
        cfg = ServeConfig(origin=np.array([6.0, 0.0, 2.0]))
        for _ in range(20):
            target = ManifoldPoint(
                rng.uniform([-0.8, -0.2, 0.95], [0.8, 0.2, 1.25]),
                rng.uniform(0.8, 1.4),
                0,
            )
            state = serve_trajectory(target, COURT, self.PARAMS, rng, cfg)
            # independent re-simulation at the full step rate
            s = state
            t = 0.0
            while t + DEFAULT_DT <= target.time_offset + 1e-12:
                s = step(s, self.PARAMS, DEFAULT_DT)
                t += DEFAULT_DT
            rem = target.time_offset - t
            if rem > 1e-9:
                s = step(s, self.PARAMS, rem)
            assert np.linalg.norm(s.position - target.position) < 0.01

    def test_one_flight_per_iteration(self, monkeypatch):
        flown = []  # (launch velocity, step) of every flight
        position_at = scenario._position_at

        def recording(origin, v0, p, t_end, dt):
            flown.append((v0.copy(), dt))
            return position_at(origin, v0, p, t_end, dt)

        def repeats(flights):
            return [(a, b) for a, b in zip(flights, flights[1:]) if np.array_equal(a[0], b[0])]

        monkeypatch.setattr(scenario, "_position_at", recording)
        target = ManifoldPoint(np.array([0.3, -0.1, 1.1]), 1.1, 0)
        cfg = ServeConfig()
        state = serve_trajectory(target, COURT, self.PARAMS, None, cfg)
        assert 1 < len(flown) <= scenario._SERVE_MAX_ITERATIONS + 1
        assert {dt for _, dt in flown} <= {scenario._COARSE_DT, DEFAULT_DT}
        # within one grid no velocity is flown twice
        for grid in (scenario._COARSE_DT, DEFAULT_DT):
            velocities = [v.tolist() for v, dt in flown if dt == grid]
            assert len({tuple(v) for v in velocities}) == len(velocities)
        # the only repeat is the coarse hit flown again on the fine grid
        assert [(a[1], b[1]) for a, b in repeats(flown)] == [(scenario._COARSE_DT, DEFAULT_DT)]
        # the fine grid comes last, and its last flight gave the result
        steps = [dt for _, dt in flown]
        assert steps == sorted(steps, reverse=True)
        assert flown[-1][1] == DEFAULT_DT
        assert np.array_equal(flown[-1][0], state.velocity)
        flown.clear()
        monkeypatch.setattr(scenario, "_SERVE_MAX_ITERATIONS", 2)
        with pytest.raises(InfeasibleTargetError):
            serve_trajectory(target, COURT, self.PARAMS, None, cfg)
        # the iteration budget ran out after two corrections
        assert len(flown) == 3
        assert not repeats(flown)

    def test_few_flights_per_serve(self, monkeypatch):
        # coarse-grid Broyden corrections and one fine confirmation, in
        # DEFAULT_DT flight equivalents (a coarse flight counts 1/8), over easy
        # and hard volumes, jittered origins and hit times of 0.6-1.6 s
        flights = []
        position_at = scenario._position_at

        def counting(origin, v0, p, t_end, dt):
            flights[-1] += DEFAULT_DT / dt
            return position_at(origin, v0, p, t_end, dt)

        monkeypatch.setattr(scenario, "_position_at", counting)
        rng = np.random.default_rng(29)
        cfg = ServeConfig(origin=np.array([6.0, 0.0, 2.0]),
                          origin_jitter=np.array([0.5, 0.5, 0.3]))
        for k in range(200):
            volume = strike_volume(("easy", "hard")[k % 2], CENTER)
            position = volume.center + rng.uniform(-0.5, 0.5, 3) * volume.size
            target = ManifoldPoint(position, rng.uniform(0.6, 1.6), 0)
            flights.append(0.0)
            serve_trajectory(target, COURT, self.PARAMS, rng, cfg)
        assert np.mean(flights) <= 2.5
        assert max(flights) <= 10

    def test_zero_time_target_infeasible(self):
        # a time that is not positive and finite is named, not met as a numpy error;
        # ManifoldPoint rejects a non-finite time, so an unchecked point carries it here
        for t_hit, shown in ((0.0, "0.0"), (-1.0, "-1.0"), (np.nan, "nan"),
                             (np.inf, "inf"), (-np.inf, "-inf")):
            target = _record(ManifoldPoint, np.array([0.0, 0.0, 1.1]), t_hit, 0)
            with pytest.raises(InfeasibleTargetError,
                               match=f"^target time must be positive and finite, got {shown}$"):
                serve_trajectory(target, COURT, self.PARAMS, None, ServeConfig())

    def test_origin_jitter_is_seeded(self):
        target = ManifoldPoint(np.array([0.0, 0.0, 1.1]), 1.0, 0)
        cfg = ServeConfig(origin=np.array([6.0, 0.0, 2.0]),
                          origin_jitter=np.array([0.5, 0.5, 0.2]))
        a = serve_trajectory(target, COURT, self.PARAMS, np.random.default_rng(3), cfg)
        b = serve_trajectory(target, COURT, self.PARAMS, np.random.default_rng(3), cfg)
        assert np.array_equal(a.position, b.position)
        assert np.array_equal(a.velocity, b.velocity)

    @settings(max_examples=30)
    @given(
        mode=st.sampled_from(["easy", "hard"]),
        frac=st.tuples(*[st.floats(-0.5, 0.5)] * 3),
        t_hit=st.floats(0.8, 1.4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_serve_contract(self, mode, frac, t_hit, seed):
        # a launch is either refused or flies within tolerance of the target
        volume = strike_volume(mode, CENTER)
        target = ManifoldPoint(volume.center + np.array(frac) * volume.size, t_hit, 0)
        cfg = ServeConfig(origin=np.array([6.0, 0.0, 2.0]),
                          origin_jitter=np.array([0.5, 0.5, 0.3]))
        rng = np.random.default_rng(seed)
        try:
            state = serve_trajectory(target, COURT, self.PARAMS, rng, cfg)
        except InfeasibleTargetError:
            return
        # full steps at DEFAULT_DT, then the remainder step
        n_full = int(t_hit / DEFAULT_DT)
        s = state
        for _ in range(n_full):
            s = step(s, self.PARAMS, DEFAULT_DT)
        rem = t_hit - n_full * DEFAULT_DT
        if rem > 1e-12:
            s = step(s, self.PARAMS, rem)
        assert np.linalg.norm(s.position - target.position) <= scenario._SERVE_TOLERANCE


class TestEvaluateEpisodes:
    @staticmethod
    def _record(serve_id, intercepted, offset=None, **kwargs):
        return EpisodeRecord(
            serve_id=serve_id,
            intercepted=intercepted,
            impact_offset=offset,
            **kwargs,
        )

    def test_success_rate(self):
        logs = [
            self._record(0, True, np.zeros(3)),
            self._record(1, True, np.zeros(3)),
            self._record(2, True, np.zeros(3)),
            self._record(3, False),
        ]
        assert evaluate_episodes(logs).sr == 0.75

    def test_zero_offsets_zero_mse(self):
        logs = [self._record(i, True, np.zeros(3)) for i in range(5)]
        assert evaluate_episodes(logs).mse == 0.0

    def test_mse_is_mean_squared_norm(self):
        logs = [
            self._record(0, True, np.array([0.1, 0.0, 0.0])),
            self._record(1, True, np.array([0.0, 0.2, 0.0])),
        ]
        assert evaluate_episodes(logs).mse == pytest.approx((0.01 + 0.04) / 2)

    def test_all_in_bounds_unit_ibr(self):
        logs = [
            self._record(i, True, np.zeros(3), landed=True, in_bounds=True,
                         cleared_net=True, return_speed=8.0)
            for i in range(4)
        ]
        assert evaluate_episodes(logs).ibr == 1.0

    def test_faults_penalized(self):
        logs = [
            self._record(0, True, np.zeros(3), landed=True, in_bounds=True, cleared_net=True),
            self._record(1, True, np.zeros(3), landed=True, in_bounds=False, cleared_net=True),
            self._record(2, False),
            self._record(3, True, np.zeros(3), landed=True, in_bounds=True, cleared_net=False),
        ]
        metrics = evaluate_episodes(logs)
        assert metrics.ibr == pytest.approx((1.0 - 0.25 + 0.0 - 0.25) / 4)

    def test_empty_logs_error(self):
        with pytest.raises(ValueError):
            evaluate_episodes([])

    def test_offset_presence_enforced(self):
        with pytest.raises(ValueError):
            EpisodeRecord(0, True, None)
        with pytest.raises(ValueError):
            EpisodeRecord(0, False, np.zeros(3))


@pytest.mark.parametrize("build, message", [
    (lambda v: ManifoldPoint([v, 0.0, 1.1], 1.0, 0),
     "position must be finite numbers of shape (3,)"),
    (lambda v: ManifoldPoint([0.0, v], 1.0, 0),
     "position must be finite numbers of shape (3,)"),
    (lambda v: ManifoldPoint([0.0, 0.0, 1.1], v, 0), "time_offset must be finite, got "),
    (lambda v: ManifoldPoint([0.0, 0.0, 1.1], 1.0, v), "source must be an integer, got "),
    (lambda v: EpisodeRecord(0, True, [0.0, v, 0.0]),
     "impact_offset must be finite numbers of shape (3,)"),
    (lambda v: EpisodeRecord(0, True, np.full((3, 1), v)),
     "impact_offset must be finite numbers of shape (3,)"),
    (lambda v: EpisodeRecord(0, False, None, return_speed=v), "return_speed must be finite, got "),
    (lambda v: ServeConfig(origin=[6.0, v, 2.0]), "origin must be finite numbers of shape (3,)"),
    (lambda v: ServeConfig(origin_jitter=[0.5, 0.5, v]),
     "origin_jitter must be finite numbers of shape (3,)"),
], ids=["position", "position-shape", "time_offset", "source", "impact_offset",
        "impact_offset-shape", "return_speed", "serve-origin", "serve-origin_jitter"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_records_reject_non_finite_or_misshapen_fields(build, message, value):
    """A record built directly checks its numbers, so no NaN reaches evaluate_episodes'
    MSE or a serve flight; the message names the field."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        build(value)


def test_serve_config_rejects_a_negative_jitter():
    message = r"^origin_jitter must be non-negative, got \[0.5, -0.1, 0.3\]$"
    with pytest.raises(ValueError, match=message):
        ServeConfig(origin_jitter=[0.5, -0.1, 0.3])


class TestIo:
    def test_manifold_json_round_trip(self, tmp_path):
        manifold = expand_manifold(DATASET, 0.4, 0.2, 50, "easy", seed=8, center=CENTER)
        path = tmp_path / "manifold.json"
        save_manifold(manifold, path)
        loaded = load_manifold_points(path)
        assert len(loaded) == 50
        assert np.allclose(loaded[7].position, manifold.points[7].position)
        assert loaded[7].source == manifold.points[7].source

    def test_episode_csv_reads_every_column(self, tmp_path):
        path = tmp_path / "episodes.csv"
        path.write_text(
            "serve_id,intercepted,dx,dy,dz,landing,in_bounds,cleared_net,speed\n"
            "0,1,0.01,-0.02,0.03,1,1,1,7.5\n"
            "1,0,,,,0,0,0,0\n"
        )
        loaded = load_episode_csv(path)
        assert loaded[0].intercepted
        assert np.allclose(loaded[0].impact_offset, [0.01, -0.02, 0.03])
        assert loaded[0].return_speed == 7.5
        assert (loaded[0].serve_id, loaded[1].serve_id) == (0, 1)
        assert loaded[0].landed and loaded[0].in_bounds and loaded[0].cleared_net
        assert not loaded[1].intercepted
        assert loaded[1].impact_offset is None

    def test_full_pipeline_scores(self):
        # serve -> impact -> return flight -> landing classification -> metrics
        params = ShuttleParams(mass=0.005, drag_coeff=0.001)
        rng = np.random.default_rng(19)
        manifold = expand_manifold(DATASET, 0.3, 0.2, 5, "easy", seed=21, center=CENTER)
        logs = []
        for i, pt in enumerate(manifold.points):
            state = serve_trajectory(pt, COURT, params, rng,
                                     ServeConfig(origin=np.array([6.0, 0.0, 2.0])))
            # pretend the racket meets the ball at the target, returning it
            returned = ShuttleState(pt.position, np.array([7.0, 0.0, 4.0]))
            flight = simulate_to_ground(returned, params, dt=0.005, t_max=10.0)
            assert flight.landing is not None
            from shuttlekit.shuttle import lands_in_court

            result = lands_in_court(flight.landing.point, flight.trajectory, COURT)
            logs.append(
                EpisodeRecord(
                    serve_id=i,
                    intercepted=True,
                    impact_offset=rng.normal(0, 0.02, 3),
                    landed=True,
                    in_bounds=result.in_bounds,
                    cleared_net=result.cleared_net,
                    return_speed=float(np.linalg.norm(returned.velocity)),
                )
            )
        metrics = evaluate_episodes(logs)
        assert metrics.sr == 1.0
        assert metrics.mse < 0.01
