"""Property tests of the rotation kernel and the frame changes built on it.

The reference for a rotated vector is the Hamilton-product sandwich
q * [0, v] * q^-1, computed here independently of `spatial.quat_rotate`.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import finite, poses, unit_quats, vec3
from shuttlekit.goal import ClipFrame, ReferenceClip, pose_delta_in_base, reference_window
from shuttlekit.spatial import (
    _rotvec_between,
    quat_boxminus,
    quat_boxplus,
    quat_conj,
    quat_mul,
    quat_rotate,
    quat_to_matrix,
    to_base_frame,
)

# increments well inside the ball of radius pi, where log(exp(d)) = d
small_rotvecs = vec3.filter(lambda d: np.linalg.norm(d) < 3.0)


def sandwich(q, v):
    return quat_mul(quat_mul(q, np.array([0.0, *v])), quat_conj(q))[1:]


def same_rotation(a, b, tol):
    return min(np.linalg.norm(a - b), np.linalg.norm(a + b)) < tol


@given(unit_quats, unit_quats)
def test_boxplus_undoes_boxminus(a, b):
    assert same_rotation(quat_boxplus(b, quat_boxminus(a, b)), a, 1e-9)


@given(unit_quats, small_rotvecs)
def test_boxminus_undoes_boxplus(q, d):
    assert np.allclose(quat_boxminus(quat_boxplus(q, d), q), d, rtol=0.0, atol=1e-9)


@given(unit_quats, vec3)
def test_quat_rotate_is_the_matrix_product(q, v):
    out = quat_rotate(q, v)
    assert np.allclose(out, quat_to_matrix(q) @ v, rtol=0.0, atol=1e-12)
    assert np.allclose(out, sandwich(q, v), rtol=0.0, atol=1e-12)
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(v), abs=1e-12)


@given(poses, st.lists(vec3, min_size=1, max_size=6))
def test_to_base_frame_rows_inverted_by_pose(base, rows):
    world = np.array(rows)
    points = to_base_frame(world, base, is_point=True)
    vectors = to_base_frame(world, base, is_point=False)
    assert points.shape == vectors.shape == world.shape
    for w, p, v in zip(world, points, vectors):
        assert np.allclose(base.transform_point(p), w, rtol=0.0, atol=1e-12)
        assert np.allclose(base.transform_vector(v), w, rtol=0.0, atol=1e-12)


@given(poses, poses, poses)
def test_pose_delta_is_base_frame_rows(target, current, base):
    rows = np.array([
        target.position - current.position,
        quat_boxminus(target.orientation, current.orientation),
    ])
    expected = to_base_frame(rows, base, is_point=False).ravel()
    assert np.allclose(pose_delta_in_base(target, current, base), expected, rtol=0.0, atol=1e-12)


@st.composite
def clips(draw):
    n_joints = draw(st.integers(0, 3))
    joint_vecs = st.lists(finite, min_size=n_joints, max_size=n_joints).map(np.array)
    frames = []
    t = draw(st.floats(-1.0, 1.0))
    for _ in range(draw(st.integers(1, 6))):
        frames.append(ClipFrame(t, draw(poses), draw(vec3), draw(vec3), draw(joint_vecs)))
        t += draw(st.floats(0.01, 0.5))
    return ReferenceClip(tuple(frames))


def per_frame_window(clip, t, horizon):
    """The reference for reference_window: its rows built frame by frame from the ClipFrames."""
    i = clip.frame_index_at(t)
    last = len(clip) - 1
    base = clip.frames[i]
    futs = [clip.frames[min(i + k, last)] for k in range(1, horizon + 1)]
    base_quat = base.root.orientation.tolist()
    rows = np.array([
        (
            f.root.position - base.root.position,
            _rotvec_between(f.root.orientation.tolist(), base_quat),
            f.root_lin - base.root_lin,
            f.root_ang - base.root_ang,
        )
        for f in futs
    ])
    root_deltas = to_base_frame(rows.reshape(-1, 3), base.root, is_point=False)
    joint_deltas = np.array([f.q - base.q for f in futs])
    return root_deltas.reshape(horizon, 12), joint_deltas


@given(clips(), st.floats(-2.0, 4.0), st.integers(1, 5))
def test_reference_window_matches_per_frame_oracle(clip, t, horizon):
    times = np.array([f.t for f in clip.frames])
    last = len(clip) - 1
    i = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0), last)
    base = clip.frames[i]
    q_inv = quat_conj(base.root.orientation)
    window = reference_window(clip, t, horizon)
    assert window.root_deltas.shape == (horizon, 12)
    assert window.joint_deltas.shape == (horizon, base.q.size)
    for k in range(1, horizon + 1):
        fut = clip.frames[min(i + k, last)]
        expected = np.concatenate([
            sandwich(q_inv, fut.root.position - base.root.position),
            sandwich(q_inv, quat_boxminus(fut.root.orientation, base.root.orientation)),
            sandwich(q_inv, fut.root_lin - base.root_lin),
            sandwich(q_inv, fut.root_ang - base.root_ang),
        ])
        assert np.allclose(window.root_deltas[k - 1], expected, rtol=0.0, atol=1e-12)
        assert np.array_equal(window.joint_deltas[k - 1], fut.q - base.q)
    root_deltas, joint_deltas = per_frame_window(clip, t, horizon)
    assert window.joint_deltas.shape == joint_deltas.shape
    assert window.root_deltas.tobytes() == root_deltas.tobytes()
    assert window.joint_deltas.tobytes() == joint_deltas.tobytes()
    # the clip holds its numbers once: each frame's arrays are read-only views of its tables
    for f, rows, quat, joints in zip(clip.frames, clip._root_rows, clip._quats, clip._joint_rows):
        for frame_array, table_row in ((f.root.position, rows), (f.root.orientation, quat),
                                       (f.root_lin, rows), (f.root_ang, rows), (f.q, joints)):
            assert np.shares_memory(frame_array, table_row) or frame_array.size == 0
    for frame_array in (clip.frames[0].q, clip.frames[0].root_lin, clip.frames[0].root.position):
        with pytest.raises(ValueError, match="read-only"):
            frame_array[...] = 1.0


@given(clips(), st.lists(st.floats(-2.0, 4.0), min_size=1, max_size=6), st.integers(1, 8))
def test_memoized_window_equals_one_from_a_fresh_clip(clip, ts, horizon):
    """At any t, before, inside or past the clip, a memoized window holds the bytes that a
    freshly built clip gives, both arrays are read-only, and a second query returns the same
    object. Each frame's own time is queried too, after the drawn times."""
    for t in ts + [f.t for f in clip.frames]:
        window = reference_window(clip, t, horizon)
        fresh = reference_window(ReferenceClip(clip.frames), t, horizon)
        for memo, built in ((window.root_deltas, fresh.root_deltas),
                            (window.joint_deltas, fresh.joint_deltas)):
            assert memo.shape == built.shape and memo.tobytes() == built.tobytes()
            assert not memo.flags.writeable
        assert reference_window(clip, t, horizon) is window
