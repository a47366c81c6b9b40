import hashlib
import json
import re
from dataclasses import replace

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


@pytest.mark.parametrize("name, value", [
    ("q", [0.0, np.nan]), ("qd", [np.nan, 0.0]), ("projected_gravity", [0.0, np.nan, -1.0]),
    ("last_action", [np.nan, 0.0]), ("feet_contacts", [1.0, np.nan]), ("base_height", np.nan),
], ids=["q", "qd", "projected_gravity", "last_action", "feet_contacts", "base_height"])
def test_robot_state_rejects_nan(name, value):
    """A NaN field is named where the state is built, not met later in a feature or a gate."""
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        replace(make_state(), **{name: value})


def test_strike_target_rejects_nan_hit_time():
    with pytest.raises(ValueError, match="^hit_time must be finite, got nan$"):
        StrikeTarget(np.nan, Pose.identity(), Pose.identity())


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

    @pytest.mark.parametrize("now, hit_time", [(np.nan, 1.0), (1.0, np.nan), (np.inf, np.inf)])
    def test_nan_time_to_hit_raises_naming_now(self, now, hit_time):
        with pytest.raises(ValueError, match=r"^time to hit is NaN: now=.*, hit_time="):
            time_to_hit(now, hit_time)

    def test_infinite_now_keeps_its_clamp(self):
        assert time_to_hit(np.inf, 1.0) == -TTH_LIMIT
        assert time_to_hit(-np.inf, 1.0) == TTH_LIMIT

    def test_encode_goal_rejects_a_nan_now(self, rng):
        target = StrikeTarget(1.0, random_pose(rng), random_pose(rng))
        with pytest.raises(ValueError, match="^time to hit is NaN: now=nan"):
            encode_goal(make_state(), target, np.nan, random_pose(rng))


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

    @pytest.mark.parametrize("horizon", [2.5, 3.0, True, False, 0, -1, np.int64(0), "5", None])
    def test_horizon_that_is_not_a_positive_int_is_named(self, horizon):
        with pytest.raises(ValueError, match="^horizon must be a positive int, got "):
            reference_window(_linear_clip(), 0.0, horizon)

    def test_numpy_integer_horizon_is_the_int_horizon(self):
        clip = _linear_clip()
        assert reference_window(clip, 0.25, np.int64(3)) is reference_window(clip, 0.25, 3)

    def test_windows_are_memoized_and_read_only(self):
        clip = _linear_clip()
        window = reference_window(clip, 0.2, 4)
        assert reference_window(clip, clip.frames[2].t, 4) is window  # same frame, same key
        assert reference_window(clip, 0.2, 3) is not window
        for table in (window.root_deltas, window.joint_deltas):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0
        with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
            window.root_deltas.flags.writeable = True


class TestFrameIndexAt:
    def test_matches_searchsorted(self):
        times = np.array([0.0, 0.1, 0.25, 0.4])
        frames = tuple(
            ClipFrame(t, Pose.identity(), np.zeros(3), np.zeros(3), np.zeros(1)) for t in times
        )
        clip = ReferenceClip(frames)
        queries = [-1.0, -np.inf, 0.0, 0.05, 0.1, 0.2, 0.25, 0.3, 0.4, 0.41, 7.0, np.inf]
        for t in queries:
            expected = int(np.searchsorted(times, t, side="right")) - 1
            assert clip.frame_index_at(t) == min(max(expected, 0), len(times) - 1), t

    def test_nan_time_raises_naming_t(self):
        clip = _linear_clip()
        with pytest.raises(ValueError, match="^t must not be NaN, got nan$"):
            clip.frame_index_at(np.nan)
        with pytest.raises(ValueError, match="^t must not be NaN, got nan$"):
            reference_window(clip, float("nan"), 5)


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

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_nan_time_rejected(self, position):
        times = [0.0, 0.5, 1.0]
        times[position] = np.nan
        frames = tuple(ClipFrame(t, Pose.identity(), np.zeros(3), np.zeros(3), np.zeros(1))
                       for t in times)
        with pytest.raises(ValueError, match="^frame times must be strictly increasing$"):
            ReferenceClip(frames)

    def test_joint_vectors_of_another_length_rejected(self):
        frames = tuple(ClipFrame(0.1 * k, Pose.identity(), np.zeros(3), np.zeros(3), np.zeros(n))
                       for k, n in enumerate((3, 3, 2)))
        message = r"^frames\[2\]\.q has 2 angles, frames\[0\]\.q has 3$"
        with pytest.raises(ValueError, match=message):
            ReferenceClip(frames)

    @pytest.mark.parametrize("field", ["root_lin", "root_ang", "q"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("bad_frame", [0, 2])
    def test_non_finite_table_value_names_its_frame(self, field, value, bad_frame):
        frames = [ClipFrame(0.1 * k, Pose.identity(), np.zeros(3), np.zeros(3), np.zeros(2))
                  for k in range(4)]
        cells = np.zeros(2 if field == "q" else 3)
        cells[-1] = value
        frames[bad_frame] = replace(frames[bad_frame], **{field: cells})
        frames[3] = replace(frames[3], **{field: cells})  # only the first bad frame is named
        with pytest.raises(ValueError,
                           match=rf"^frames\[{bad_frame}\]\.{field} has non-finite values$"):
            ReferenceClip(tuple(frames))

    @pytest.mark.parametrize("field", ["root_lin", "root_ang"])
    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), ()])
    def test_misshapen_root_velocity_names_its_frame(self, field, shape):
        frames = [ClipFrame(0.1 * k, Pose.identity(), np.zeros(3), np.zeros(3), np.zeros(2))
                  for k in range(3)]
        frames[1] = replace(frames[1], **{field: np.zeros(shape)})
        message = rf"^frames\[1\]\.{field} must have shape \(3,\), got {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            ReferenceClip(tuple(frames))

    def test_joint_vectors_of_two_dimensions_rejected(self):
        frames = tuple(ClipFrame(0.1 * k, Pose.identity(), np.zeros(3), np.zeros(3),
                                 np.zeros((2, 2))) for k in range(3))
        message = r"^frames\[0\]\.q must have one dimension, got shape \(2, 2\)$"
        with pytest.raises(ValueError, match=message):
            ReferenceClip(frames)

    def test_clip_file_with_joint_vectors_of_another_length_rejected(self):
        data = clip_to_dict(_linear_clip())
        data["frames"][1]["q"] = data["frames"][1]["q"][:-1]
        n = len(data["frames"][0]["q"])
        with pytest.raises(ValueError, match=rf"^frames\[1\]\.q has {n - 1} angles, "
                                             rf"frames\[0\]\.q has {n}$"):
            clip_from_dict(data)


def test_window_and_export_match_their_pinned_digest():
    """SHA-256 over `reference_window` at horizons 1 and 5 on a 1,001-point time sweep,
    and over the `clip_to_dict` JSON, of a seeded 40-frame clip. The digest was taken when
    each frame still held its own copies of the clip's arrays."""
    rng, digest = np.random.default_rng(1), hashlib.sha256()
    times = np.cumsum(rng.uniform(0.01, 0.05, 40)).tolist()
    clip = ReferenceClip(tuple(
        ClipFrame(t, random_pose(rng), rng.normal(size=3), rng.normal(size=3), rng.normal(size=4))
        for t in times
    ), hit_times=(times[20],), recovery_times=(times[30],))
    for t in np.linspace(times[0] - 0.2, times[-1] + 0.2, 1001).tolist():
        for horizon in (1, 5):
            window = reference_window(clip, t, horizon)
            digest.update(window.root_deltas.tobytes() + window.joint_deltas.tobytes())
    digest.update(json.dumps(clip_to_dict(clip)).encode())
    assert digest.hexdigest() == (
        "3283426502fba632df224213f413d2ec4576a1ffcb5ff92414175ef872a2d1a0")
