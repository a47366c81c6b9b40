import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import vec3
from shuttlekit import shuttle
from shuttlekit.shuttle import (
    CourtGeometry,
    NoContactError,
    ShuttleParams,
    ShuttleState,
    Trajectory,
    _drag_accel,
    _relax_axis,
    lands_in_court,
    mechanical_energy,
    racket_impact,
    save_trajectory_csv,
    simulate_to_ground,
    step,
)
from shuttlekit.spatial import Pose, Twist, quat_from_rotvec, quat_identity

PARAMS = ShuttleParams(mass=0.005, drag_coeff=0.001)
DRAG_FREE = ShuttleParams(mass=0.005, drag_coeff=0.0)


class TestParams:
    @pytest.mark.parametrize("key", ["mass", "drag_coeff", "axis_damping", "gravity"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_param_rejected_by_name(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be finite, got {value}$"):
            ShuttleParams(**{"mass": 0.005, "drag_coeff": 0.001, key: value})


def _accel(velocity):
    return np.array(_drag_accel(*velocity, PARAMS.drag_coeff / PARAMS.mass, PARAMS.gravity))


class TestShuttleAccel:
    def test_at_rest_pure_gravity(self):
        assert np.allclose(_accel([0.0, 0.0, 0.0]), [0.0, 0.0, -PARAMS.gravity])

    def test_terminal_speed_cancels_gravity(self):
        vt = PARAMS.terminal_speed()  # sqrt(m g / k)
        assert abs(_accel([0.0, 0.0, -vt])[2]) < 1e-9

    def test_matches_hand_formula(self):
        v = np.array([10.0, 0.0, 0.0])
        expected = np.array([0.0, 0.0, -9.81]) - (0.001 / 0.005) * 10.0 * v
        assert np.allclose(_accel(v.tolist()), expected, atol=1e-12)


class TestStep:
    def test_ballistic_single_step(self):
        s = ShuttleState(np.array([0.0, 0.0, 2.0]), np.zeros(3))
        dt = 0.005
        out = step(s, DRAG_FREE, dt)
        assert out.position[2] == pytest.approx(2.0 - 0.5 * 9.81 * dt**2, abs=1e-15)

    def test_fourth_order_convergence(self):
        # Richardson: halving dt shrinks error ~16x against a dt=1e-5 reference
        def endpoint(dt, t_end=0.32):
            s = ShuttleState(np.array([0.0, 0.0, 10.0]), np.array([8.0, 0.0, 6.0]))
            for _ in range(int(round(t_end / dt))):
                s = step(s, PARAMS, dt)
            return s.position

        ref = endpoint(1e-5)
        e1 = np.linalg.norm(endpoint(0.01) - ref)
        e2 = np.linalg.norm(endpoint(0.005) - ref)
        order = np.log2(e1 / e2)
        assert order > 3.8

    def test_zero_damping_keeps_axis(self):
        s = ShuttleState(
            np.array([0.0, 0.0, 2.0]), np.array([3.0, 0.0, 1.0]),
            axis=np.array([1.0, 0.0, 0.0]),
        )
        out = step(s, ShuttleParams(mass=0.005, drag_coeff=0.001, axis_damping=0.0), 0.01)
        assert np.allclose(out.axis, s.axis)

    def test_axis_relaxes_toward_velocity(self):
        p = ShuttleParams(mass=0.005, drag_coeff=0.0, axis_damping=10.0)
        s = ShuttleState(
            np.array([0.0, 0.0, 5.0]), np.array([5.0, 0.0, 0.0]),
            axis=np.array([0.0, 0.0, 1.0]),
        )
        for _ in range(200):
            s = step(s, p, 0.01)
        vhat = s.velocity / np.linalg.norm(s.velocity)
        assert float(np.dot(s.axis, vhat)) > 0.99

    @given(vec3.filter(lambda a: np.linalg.norm(a) > 0.1),
           vec3.filter(lambda v: np.linalg.norm(v) > 1e-3),
           st.floats(0.0, 50.0), st.floats(1e-4, 0.1))
    def test_relaxed_axis_is_unit_and_turns_toward_velocity(self, axis, vel, rate, dt):
        axis = axis / np.linalg.norm(axis)
        out = np.array(_relax_axis(axis, (0.0, 0.0, 1.0, *vel.tolist()), rate, dt))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        vhat = vel / np.linalg.norm(vel)
        assert float(np.dot(out, vhat)) >= float(np.dot(axis, vhat)) - 1e-12

    def test_bad_dt_rejected(self):
        s = ShuttleState(np.array([0.0, 0.0, 2.0]), np.zeros(3))
        with pytest.raises(ValueError):
            step(s, PARAMS, 0.0)
        with pytest.raises(ValueError):
            step(s, PARAMS, -0.01)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1.0])
    def test_non_positive_or_non_finite_dt_rejected(self, dt):
        s = ShuttleState(np.array([0.0, 0.0, 2.0]), np.array([3.0, 0.0, 1.0]), [1.0, 0.0, 0.0])
        message = f"^dt must be positive and finite, got {re.escape(str(dt))}$"
        with pytest.raises(ValueError, match=message):
            step(s, PARAMS, dt)

    def test_stepped_state_passes_the_constructor_unchanged(self):
        # step builds its state without ShuttleState's checks; they accept it
        damped = ShuttleParams(mass=0.005, drag_coeff=0.001, axis_damping=3.0)
        launch = ShuttleState(np.array([0.0, 0.0, 2.0]), np.array([6.0, -1.0, 4.0]), [0.6, 0.0, 0.8])
        for params in (PARAMS, damped):
            s = launch
            for _ in range(50):
                s = step(s, params, 0.005)
                checked = ShuttleState(s.position, s.velocity, s.axis)
                assert np.array_equal(checked.position, s.position)
                assert np.array_equal(checked.velocity, s.velocity)
                assert s.position.dtype == s.velocity.dtype == s.axis.dtype == np.float64
                assert abs(np.linalg.norm(s.axis) - 1.0) < 1e-12

    @pytest.mark.parametrize("state, name", [
        ((0.0, np.inf, 1.0, 1.0, 0.0, 0.0), "position"),
        ((np.nan, 0.0, 1.0, np.nan, 0.0, 0.0), "position"),
        ((0.0, 0.0, 1.0, 1.0, 0.0, -np.inf), "velocity"),
    ])
    def test_non_finite_step_names_the_field(self, monkeypatch, state, name):
        monkeypatch.setattr(shuttle, "_rk4_step", lambda *args: state)
        s = ShuttleState(np.array([0.0, 0.0, 2.0]), np.array([3.0, 0.0, 1.0]), [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=f"^{name} has non-finite components$"):
            step(s, PARAMS, 0.005)


class TestEnergy:
    def test_conserved_without_drag(self):
        s = ShuttleState(np.array([0.0, 0.0, 50.0]), np.array([5.0, 3.0, 10.0]))
        e0 = mechanical_energy(s, DRAG_FREE)
        for _ in range(1000):
            s = step(s, DRAG_FREE, 0.005)
        assert abs(mechanical_energy(s, DRAG_FREE) - e0) / abs(e0) < 1e-6

    def test_non_increasing_with_drag(self):
        s = ShuttleState(np.array([0.0, 0.0, 20.0]), np.array([10.0, -4.0, 8.0]))
        prev = mechanical_energy(s, PARAMS)
        for _ in range(500):
            s = step(s, PARAMS, 0.005)
            e = mechanical_energy(s, PARAMS)
            assert e <= prev + 1e-12
            prev = e

    def test_speed_approaches_terminal_after_apex(self):
        vt = PARAMS.terminal_speed()
        s = ShuttleState(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 12.0]))
        speeds = []
        for _ in range(2000):
            s = step(s, PARAMS, 0.005)
            speeds.append(float(np.linalg.norm(s.velocity)))
        apex = int(np.argmin(speeds))
        gaps = [abs(v - vt) for v in speeds[apex:]]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


class TestSimulateToGround:
    def test_drop_time_closed_form(self):
        s = ShuttleState(np.array([0.0, 0.0, 1.0]), np.zeros(3))
        result = simulate_to_ground(s, DRAG_FREE, dt=0.001, t_max=5.0)
        assert result.landing is not None
        assert result.landing.time == pytest.approx(np.sqrt(2.0 / 9.81), abs=0.002)
        assert result.landing.point[2] == pytest.approx(0.0, abs=1e-9)

    def test_drag_delays_landing(self):
        s = ShuttleState(np.array([0.0, 0.0, 3.0]), np.array([6.0, 0.0, 4.0]))
        free = simulate_to_ground(s, DRAG_FREE, dt=0.001, t_max=10.0)
        dragged = simulate_to_ground(s, PARAMS, dt=0.001, t_max=10.0)
        assert dragged.landing.time > free.landing.time

    def test_airborne_timeout(self):
        s = ShuttleState(np.array([0.0, 0.0, 10.0]), np.zeros(3))
        result = simulate_to_ground(s, DRAG_FREE, dt=0.005, t_max=0.01)
        assert result.landing is None
        assert len(result.trajectory) >= 2

    def test_underground_start_rejected(self):
        s = ShuttleState(np.array([0.0, 0.0, -0.1]), np.zeros(3))
        with pytest.raises(ValueError):
            simulate_to_ground(s, DRAG_FREE)

    def test_non_finite_flight_raises_with_time(self):
        # |v|^2 overflows on the first step, so every later sample is NaN
        s = ShuttleState(np.array([0.0, 0.0, 2.0]), np.array([1e200, 0.0, 1e200]))
        with pytest.raises(ValueError, match=r"stopped being finite at t = 0\.005 s"):
            simulate_to_ground(s, PARAMS, dt=0.005, t_max=10.0)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1.0])
    def test_non_positive_or_non_finite_dt_rejected(self, dt):
        s = ShuttleState(np.array([0.0, 0.0, 2.0]), np.array([3.0, 0.0, 1.0]))
        message = f"^dt must be positive and finite, got {re.escape(str(dt))}$"
        with pytest.raises(ValueError, match=message):
            simulate_to_ground(s, PARAMS, dt=dt)

    def test_drag_free_flight_at_overflowing_speed_stays_finite(self):
        # |v|^2 overflows, but without drag nothing depends on it
        s = ShuttleState(np.array([0.0, 0.0, 2.0]), np.array([1e200, 0.0, 1e200]))
        result = simulate_to_ground(s, DRAG_FREE, dt=0.005, t_max=0.01)
        assert result.landing is None
        assert np.array_equal(result.trajectory.velocities[-1], [1e200, 0.0, 1e200])
        assert result.trajectory.positions[-1] == pytest.approx([1e198, 0.0, 1e198], rel=1e-12)


class TestRacketImpact:
    def test_one_dimensional_restitution(self):
        p = ShuttleParams(mass=0.005, drag_coeff=0.001, restitution_head=0.8)
        s = ShuttleState(np.array([0.05, 0.0, 1.0]), np.array([-5.0, 0.0, 0.0]))
        racket = Pose(np.array([0.0, 0.0, 1.0]), quat_identity())  # face normal +x
        out = racket_impact(s, racket, Twist.zero(), p)
        assert np.allclose(out.velocity, [4.0, 0.0, 0.0], atol=1e-12)

    def test_moving_racket_relative_reflection(self):
        p = ShuttleParams(mass=0.005, drag_coeff=0.001, restitution_head=1.0)
        s = ShuttleState(np.array([0.05, 0.0, 1.0]), np.array([-5.0, 0.0, 0.0]))
        racket = Pose(np.array([0.0, 0.0, 1.0]), quat_identity())
        swing = Twist(np.array([3.0, 0.0, 0.0]), np.zeros(3))
        out = racket_impact(s, racket, swing, p)
        assert np.allclose(out.velocity, [11.0, 0.0, 0.0], atol=1e-12)

    def test_oblique_preserves_tangential(self, rng):
        p = ShuttleParams(mass=0.005, drag_coeff=0.001, restitution_head=0.7)
        racket = Pose(np.array([0.0, 0.0, 1.0]), quat_identity())
        normal = np.array([1.0, 0.0, 0.0])
        for _ in range(50):
            v = rng.normal(size=3)
            if v[0] >= -0.1:
                v[0] = -abs(v[0]) - 0.1
            s = ShuttleState(np.array([0.05, 0.0, 1.0]), v)
            out = racket_impact(s, racket, Twist.zero(), p)
            tangential_in = v - np.dot(v, normal) * normal
            tangential_out = out.velocity - np.dot(out.velocity, normal) * normal
            assert np.allclose(tangential_in, tangential_out, atol=1e-9)

    def test_receding_is_no_contact(self):
        s = ShuttleState(np.array([0.05, 0.0, 1.0]), np.array([2.0, 0.0, 0.0]))
        racket = Pose(np.array([0.0, 0.0, 1.0]), quat_identity())
        with pytest.raises(NoContactError):
            racket_impact(s, racket, Twist.zero(), PARAMS)

    def test_skirt_first_uses_skirt_restitution(self):
        p = ShuttleParams(
            mass=0.005, drag_coeff=0.001, restitution_head=0.8, restitution_skirt=0.4
        )
        racket = Pose(np.array([0.0, 0.0, 1.0]), quat_identity())
        v = np.array([-5.0, 0.0, 0.0])
        head_first = ShuttleState(
            np.array([0.05, 0.0, 1.0]), v, axis=np.array([-1.0, 0.0, 0.0])
        )
        skirt_first = ShuttleState(
            np.array([0.05, 0.0, 1.0]), v, axis=np.array([1.0, 0.0, 0.0])
        )
        assert racket_impact(head_first, racket, Twist.zero(), p).velocity[0] == pytest.approx(4.0)
        assert racket_impact(skirt_first, racket, Twist.zero(), p).velocity[0] == pytest.approx(2.0)

    def test_normal_speed_never_amplified(self, rng):
        racket_quat = quat_from_rotvec(np.array([0.0, 0.3, 0.2]))
        racket = Pose(np.array([0.0, 0.0, 1.0]), racket_quat)
        normal = racket.rotation_matrix()[:, 0]
        for _ in range(100):
            e = rng.uniform(0.0, 1.0)
            p = ShuttleParams(
                mass=0.005, drag_coeff=0.001,
                restitution_head=e, restitution_skirt=e * 0.5,
            )
            vel = rng.normal(size=3) * 4.0
            vn_in = float(np.dot(vel, normal))
            if vn_in >= 0:
                vel = vel - 2.1 * vn_in * normal
                vn_in = float(np.dot(vel, normal))
            s = ShuttleState(np.array([0.05, 0.0, 1.0]), vel)
            out = racket_impact(s, racket, Twist.zero(), p)
            assert abs(np.dot(out.velocity, normal)) <= abs(vn_in) + 1e-12


class TestLandsInCourt:
    COURT = CourtGeometry(
        net_height=1.55, net_x=2.0, x_min=2.5, x_max=8.0, y_min=-2.5, y_max=2.5
    )

    @pytest.mark.parametrize("field, message", [
        ("net_height", "net_height must be positive"), ("net_x", "net_x must be finite, got nan"),
    ], ids=["net_height", "net_x"])
    def test_nan_net_rejected(self, field, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(self.COURT, **{field: float("nan")})

    @staticmethod
    def _arc(z_at_net: float, x_land: float = 5.0) -> Trajectory:
        xs = np.linspace(0.0, x_land, 50)
        # parabola through (0, 1), (2, z_at_net), landing at x_land
        a = np.polyfit([0.0, 2.0, x_land], [1.0, z_at_net, 0.0], 2)
        zs = np.polyval(a, xs)
        pos = np.stack([xs, np.zeros_like(xs), zs], axis=1)
        times = np.linspace(0.0, 1.0, 50)
        return Trajectory(times, pos, np.zeros_like(pos))

    def test_center_landing_clears(self):
        traj = self._arc(z_at_net=3.0)
        result = lands_in_court(np.array([5.0, 0.0, 0.0]), traj, self.COURT)
        assert result.in_bounds and result.cleared_net

    def test_just_outside_is_out(self):
        traj = self._arc(z_at_net=3.0, x_land=8.01)
        result = lands_in_court(np.array([8.01, 0.0, 0.0]), traj, self.COURT)
        assert not result.in_bounds

    def test_crossing_below_net_height(self):
        # interpolated crossing sits 1 cm below the tape
        traj = self._arc(z_at_net=self.COURT.net_height - 0.01)
        result = lands_in_court(np.array([5.0, 0.0, 0.0]), traj, self.COURT)
        assert not result.cleared_net

    def test_never_crossing_net_plane(self):
        xs = np.linspace(0.0, 1.5, 10)
        pos = np.stack([xs, np.zeros_like(xs), np.ones_like(xs)], axis=1)
        traj = Trajectory(np.linspace(0, 1, 10), pos, np.zeros_like(pos))
        result = lands_in_court(np.array([1.5, 0.0, 0.0]), traj, self.COURT)
        assert not result.cleared_net


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path):
        s = ShuttleState(np.array([0.0, 0.0, 2.0]), np.array([3.0, 1.0, 4.0]))
        result = simulate_to_ground(s, PARAMS, dt=0.005, t_max=5.0)
        path = tmp_path / "traj.csv"
        save_trajectory_csv(result.trajectory, path)
        loaded = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        traj = result.trajectory
        assert loaded.shape == (len(traj), 7)
        assert np.allclose(loaded[:, 0], traj.times, atol=1e-9)
        assert np.allclose(loaded[:, 1:4], traj.positions, atol=1e-7)
        assert np.allclose(loaded[:, 4:7], traj.velocities, atol=1e-7)
        header = path.read_text().splitlines()[0]
        assert header == "t,x,y,z,vx,vy,vz"
