import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import poses, random_pose
from shuttlekit.goal import (
    PHASE_PREPARATION,
    PHASE_RECOVERY,
    TTH_LIMIT,
    ClipFrame,
    ReferenceClip,
    RobotState,
    StrikeTarget,
    clip_from_dict,
    clip_to_dict,
    encode_goal,
    pose_delta_in_base,
    reference_window,
    time_to_hit,
)
from shuttlekit.spatial import (
    Pose,
    Twist,
    quat_boxminus,
    quat_conj,
    quat_from_rotvec,
    quat_identity,
    quat_rotate,
)


def make_state(rng=None, root=None):
    if root is None:
        root = Pose(np.array([0.0, 0.0, 0.8]), quat_identity())
    q = np.zeros(2) if rng is None else rng.uniform(-1.0, 1.0, 2)
    return RobotState(
        root=root,
        root_twist=Twist.zero(),
        q=q,
        qd=np.zeros(2),
        projected_gravity=np.array([0.0, 0.0, -1.0]),
        last_action=np.zeros(2),
        base_height=float(root.position[2]),
        feet_contacts=np.array([1.0, 1.0]),
    )


class TestTimeToHit:
    def test_clips_far_future(self):
        assert time_to_hit(0.0, 3.5) == 2.0

    def test_zero_at_impact(self):
        assert time_to_hit(1.0, 1.0) == 0.0

    def test_clips_deep_past(self):
        assert time_to_hit(5.0, 0.0) == -2.0

    def test_always_in_range_and_monotone(self, rng):
        prev = -np.inf
        for hit in np.linspace(-10.0, 10.0, 101):
            v = time_to_hit(0.0, hit)
            assert -2.0 <= v <= 2.0
            assert v >= prev
            prev = v


times = st.floats(-5.0, 5.0)
# (now, hit_time) pairs, with time-to-hit exactly +-0.0 and +-TTH_LIMIT among them
time_pairs = st.one_of(
    st.sampled_from([(0.0, 0.0), (0.0, -0.0), (0.0, TTH_LIMIT), (0.0, -TTH_LIMIT)]),
    times.map(lambda t: (t, t)),
    st.tuples(times, times),
)
OFF_TARGET = Pose(np.array([0.1, -0.2, 0.3]), quat_from_rotvec(np.array([0.3, 0.2, -0.1])))


class TestEncodeGoal:
    def _target(self, rng):
        return StrikeTarget(
            hit_time=0.0,
            hit_racket_pose=random_pose(rng),
            recovery_root_pose=random_pose(rng),
        )

    def test_preparation_masks_recovery(self, rng):
        target = StrikeTarget(1.0, random_pose(rng), random_pose(rng))
        obs = encode_goal(make_state(), target, now=0.0, racket_pose=random_pose(rng))
        assert obs.tth == 1.0
        assert obs.phase == PHASE_PREPARATION
        assert np.all(obs.recovery_delta == 0.0)
        assert np.any(obs.hit_delta != 0.0)

    def test_recovery_masks_hit(self, rng):
        target = StrikeTarget(-1.0, random_pose(rng), random_pose(rng))
        obs = encode_goal(make_state(), target, now=0.0, racket_pose=random_pose(rng))
        assert obs.tth == -1.0
        assert obs.phase == PHASE_RECOVERY
        assert np.all(obs.hit_delta == 0.0)

    def test_boundary_belongs_to_preparation(self, rng):
        target = StrikeTarget(0.0, random_pose(rng), random_pose(rng))
        obs = encode_goal(make_state(), target, now=0.0, racket_pose=random_pose(rng))
        assert obs.phase == PHASE_PREPARATION
        assert np.all(obs.recovery_delta == 0.0)

    @given(poses, poses, poses, poses, time_pairs)
    @example(OFF_TARGET, Pose.identity(), OFF_TARGET, Pose.identity(), (0.0, 0.0))
    @example(OFF_TARGET, Pose.identity(), OFF_TARGET, Pose.identity(), (0.0, -0.0))
    def test_exactly_the_inactive_block_is_masked(self, root, racket, hit, recovery, pair):
        now, hit_time = pair
        tth = time_to_hit(now, hit_time)
        obs = encode_goal(make_state(root=root), StrikeTarget(hit_time, hit, recovery), now,
                          racket_pose=racket)
        assert obs.tth == tth
        if tth >= 0.0:
            assert obs.phase == PHASE_PREPARATION
            active, inactive = obs.hit_delta, obs.recovery_delta
            expected = pose_delta_in_base(hit, racket, root)
        else:
            assert obs.phase == PHASE_RECOVERY
            active, inactive = obs.recovery_delta, obs.hit_delta
            expected = pose_delta_in_base(recovery, root, root)
        assert not any(inactive.tolist())
        assert np.array_equal(active, expected)

    def test_on_target_racket_gives_zero_delta(self, rng):
        racket = random_pose(rng)
        target = StrikeTarget(0.0, racket, random_pose(rng))
        obs = encode_goal(make_state(), target, now=0.0, racket_pose=racket)
        assert np.allclose(obs.hit_delta, 0.0, atol=1e-12)

    def test_exactly_one_block_zero(self, rng):
        for _ in range(500):
            now = rng.uniform(-3.0, 3.0)
            target = StrikeTarget(0.0, random_pose(rng), random_pose(rng))
            obs = encode_goal(make_state(), target, now=now, racket_pose=random_pose(rng))
            hit_zero = bool(np.all(obs.hit_delta == 0.0))
            rec_zero = bool(np.all(obs.recovery_delta == 0.0))
            assert hit_zero != rec_zero
            assert rec_zero == (obs.tth >= 0.0)

    def test_invariant_under_world_transform(self, rng):
        world = random_pose(rng)
        for _ in range(50):
            root = random_pose(rng)
            racket = random_pose(rng)
            target = StrikeTarget(1.0, random_pose(rng), random_pose(rng))
            obs = encode_goal(make_state(root=root), target, 0.5, racket_pose=racket)
            moved_target = StrikeTarget(
                1.0,
                world.compose(target.hit_racket_pose),
                world.compose(target.recovery_root_pose),
            )
            obs_moved = encode_goal(
                make_state(root=world.compose(root)),
                moved_target,
                0.5,
                racket_pose=world.compose(racket),
            )
            assert np.allclose(obs.hit_delta, obs_moved.hit_delta, atol=1e-9)
            assert np.allclose(obs.recovery_delta, obs_moved.recovery_delta, atol=1e-9)

class TestPoseDeltaInBase:
    def test_identity_base_matches_direct_difference(self, rng):
        a, b = random_pose(rng), random_pose(rng)
        delta = pose_delta_in_base(a, b, Pose.identity())
        assert np.allclose(delta[:3], a.position - b.position)

    def test_matches_spatial_oracle(self, rng):
        # the scalar path is pinned against spatial's quaternion helpers
        for _ in range(200):
            target, current, base = random_pose(rng), random_pose(rng), random_pose(rng)
            q_inv = quat_conj(base.orientation)
            expected = np.concatenate([
                quat_rotate(q_inv, target.position - current.position),
                quat_rotate(q_inv, quat_boxminus(target.orientation, current.orientation)),
            ])
            delta = pose_delta_in_base(target, current, base)
            assert delta.shape == (6,)
            assert np.allclose(delta, expected, rtol=0.0, atol=1e-12)


def _linear_clip(n_frames=10, dt=0.1, vel=(1.0, 0.0, 0.0)):
    vel = np.asarray(vel)
    frames = []
    for k in range(n_frames):
        frames.append(
            ClipFrame(
                t=k * dt,
                root=Pose(vel * (k * dt), quat_identity()),
                root_lin=vel,
                root_ang=np.zeros(3),
                q=np.array([0.1 * k, -0.05 * k]),
            )
        )
    return ReferenceClip(tuple(frames), hit_times=(0.5,), recovery_times=(0.8,))


class TestReferenceWindow:
    def test_static_clip_all_zero(self):
        frames = tuple(
            ClipFrame(
                t=0.1 * k,
                root=Pose(np.array([1.0, 2.0, 0.9]), quat_from_rotvec([0, 0, 0.4])),
                root_lin=np.zeros(3),
                root_ang=np.zeros(3),
                q=np.array([0.3, 0.3]),
            )
            for k in range(5)
        )
        clip = ReferenceClip(frames)
        window = reference_window(clip, 0.0, 1)
        assert np.allclose(window.root_deltas, 0.0, atol=1e-12)
        assert np.allclose(window.joint_deltas, 0.0)

    def test_constant_velocity_grows_linearly(self):
        clip = _linear_clip()
        window = reference_window(clip, 0.0, 4)
        dx = window.root_deltas[:, 0]
        assert np.allclose(dx, [0.1, 0.2, 0.3, 0.4], atol=1e-12)
        assert np.allclose(window.joint_deltas[:, 0], [0.1, 0.2, 0.3, 0.4], atol=1e-12)

    def test_clamps_past_clip_end(self):
        clip = _linear_clip(n_frames=5)
        window = reference_window(clip, 0.4, 3)  # frame 4 is the last
        assert np.allclose(window.root_deltas, 0.0)

    def test_saturation_at_clip_tail(self):
        clip = _linear_clip(n_frames=5)
        window = reference_window(clip, clip.frames[3].t, 4)
        dx = window.root_deltas[:, 0]
        assert np.allclose(dx, [0.1, 0.1, 0.1, 0.1], atol=1e-12)

    def test_deltas_expressed_in_base_frame(self):
        yaw = quat_from_rotvec([0.0, 0.0, np.pi / 2])
        frames = (
            ClipFrame(0.0, Pose(np.zeros(3), yaw), np.zeros(3), np.zeros(3), np.zeros(1)),
            ClipFrame(0.1, Pose(np.array([1.0, 0.0, 0.0]), yaw), np.zeros(3), np.zeros(3), np.zeros(1)),
        )
        window = reference_window(ReferenceClip(frames), 0.0, 1)
        # +x world displacement seen from a base yawed by +90 deg is -y
        assert np.allclose(window.root_deltas[0, 0:3], [0.0, -1.0, 0.0], atol=1e-12)

    def test_empty_clip_errors(self):
        clip = ReferenceClip(())
        with pytest.raises(ValueError, match="reference clip is empty"):
            reference_window(clip, 0.0, 1)


class TestFrameIndexAt:
    def test_matches_searchsorted(self):
        times = np.array([0.0, 0.1, 0.25, 0.4])
        frames = tuple(
            ClipFrame(t, Pose.identity(), np.zeros(3), np.zeros(3), np.zeros(1)) for t in times
        )
        clip = ReferenceClip(frames)
        queries = [-1.0, -np.inf, 0.0, 0.05, 0.1, 0.2, 0.25, 0.3, 0.4, 0.41, 7.0, np.inf, np.nan]
        for t in queries:
            expected = int(np.searchsorted(times, t, side="right")) - 1
            assert clip.frame_index_at(t) == min(max(expected, 0), len(times) - 1), t


class TestClipIo:
    def test_round_trip(self, tmp_path):
        clip = _linear_clip()
        data = clip_to_dict(clip)
        rebuilt = clip_from_dict(data)
        assert len(rebuilt) == len(clip)
        assert rebuilt.hit_times == clip.hit_times
        assert rebuilt.recovery_times == clip.recovery_times
        assert np.allclose(rebuilt.frames[3].root.position, clip.frames[3].root.position)

    def test_non_monotone_times_rejected(self):
        frames = (
            ClipFrame(0.1, Pose.identity(), np.zeros(3), np.zeros(3), np.zeros(1)),
            ClipFrame(0.1, Pose.identity(), np.zeros(3), np.zeros(3), np.zeros(1)),
        )
        with pytest.raises(ValueError):
            ReferenceClip(frames)

    def test_joint_vectors_of_another_length_rejected(self):
        frames = tuple(ClipFrame(0.1 * k, Pose.identity(), np.zeros(3), np.zeros(3), np.zeros(n))
                       for k, n in enumerate((3, 3, 2)))
        message = r"^frames\[2\]\.q has 2 angles, frames\[0\]\.q has 3$"
        with pytest.raises(ValueError, match=message):
            ReferenceClip(frames)

    def test_clip_file_with_joint_vectors_of_another_length_rejected(self):
        data = clip_to_dict(_linear_clip())
        data["frames"][1]["q"] = data["frames"][1]["q"][:-1]
        n = len(data["frames"][0]["q"])
        with pytest.raises(ValueError, match=rf"^frames\[1\]\.q has {n - 1} angles, "
                                             rf"frames\[0\]\.q has {n}$"):
            clip_from_dict(data)
