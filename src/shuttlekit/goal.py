"""Goal-conditioned state encoding for the striking task.

The goal splits into a Preparation phase (before impact) and a Recovery
phase (after impact), switched by the sign of the time-to-hit. Whichever
target block is irrelevant to the current phase is masked to zero.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spatial import (
    REQUIRED,
    Pose,
    Twist,
    _check,
    _matrix_entries,
    _round_floats,
    _rotvec_between,
    to_base_frame,
)

Array = np.ndarray

# CPython 3.11 does not cache `np.<name>` lookups (numpy defines a module
# __getattr__), about 45 ns each; the per-tick encoder binds its two.
_np_array, _np_zeros = np.array, np.zeros

TTH_LIMIT = 2.0  # seconds; the time-to-hit observation is clipped to [-2, 2]

PHASE_PREPARATION = "preparation"
PHASE_RECOVERY = "recovery"


@dataclass(frozen=True)
class StrikeTarget:
    """Planned impact: when to hit, racket pose at impact, root pose to recover to."""

    hit_time: float
    hit_racket_pose: Pose
    recovery_root_pose: Pose


@dataclass(frozen=True)
class RobotState:
    """Proprioceptive snapshot used by goal encoding and feature assembly."""

    root: Pose
    root_twist: Twist
    q: Array
    qd: Array
    projected_gravity: Array
    last_action: Array
    base_height: float
    feet_contacts: Array

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        qd = np.asarray(self.qd, dtype=np.float64)
        if q.shape != qd.shape:
            raise ValueError("q and qd must have matching length")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "qd", qd)
        object.__setattr__(
            self, "projected_gravity", np.asarray(self.projected_gravity, dtype=np.float64)
        )
        object.__setattr__(self, "last_action", np.asarray(self.last_action, dtype=np.float64))
        object.__setattr__(
            self, "feet_contacts", np.asarray(self.feet_contacts, dtype=np.float64)
        )


class GoalObservation(NamedTuple):
    """Immutable goal record, field order (tth, hit_delta, recovery_delta, phase)."""

    tth: float
    hit_delta: Array       # [position(3), rotation vector(3)] in the base frame
    recovery_delta: Array  # same layout, for the root pose
    phase: str


def time_to_hit(now: float, hit_time: float) -> float:
    """Signed seconds until impact, clipped to [-2, 2]. Positive before impact."""
    tth = float(hit_time) - float(now)
    if tth > TTH_LIMIT:
        return TTH_LIMIT
    if tth < -TTH_LIMIT:
        return -TTH_LIMIT
    return tth


def pose_delta_in_base(target: Pose, current: Pose, base: Pose) -> Array:
    """Pose error target (-) current, re-expressed in the base frame.

    Layout: position difference (3) then rotation-vector difference (3),
    both rotated into the base frame. Invariant under a rigid transform of
    the world frame applied to all three poses. Scalar arithmetic
    throughout; this runs once per control tick.
    """
    # world->base rotation: the transpose of the base matrix
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = _matrix_entries(base.orientation.tolist())
    tpx, tpy, tpz = target.position.tolist()
    cpx, cpy, cpz = current.position.tolist()
    px, py, pz = tpx - cpx, tpy - cpy, tpz - cpz
    vx, vy, vz = _rotvec_between(target.orientation.tolist(), current.orientation.tolist())
    return _np_array((
        r00 * px + r10 * py + r20 * pz,
        r01 * px + r11 * py + r21 * pz,
        r02 * px + r12 * py + r22 * pz,
        r00 * vx + r10 * vy + r20 * vz,
        r01 * vx + r11 * vy + r21 * vz,
        r02 * vx + r12 * vy + r22 * vz,
    ))


def encode_goal(
    state: RobotState, target: StrikeTarget, now: float, racket_pose: Pose
) -> GoalObservation:
    """Assemble the goal observation with phase-dependent masking.

    hit_delta is the racket-pose error to the impact target; recovery_delta
    is the root-pose error to the recovery target. While preparing
    (tth >= 0) the recovery block is zeroed; while recovering (tth < 0) the
    hit block is zeroed. racket_pose is the current racket pose in the world.
    """
    tth = time_to_hit(now, target.hit_time)
    if tth >= 0.0:
        hit_delta = pose_delta_in_base(target.hit_racket_pose, racket_pose, state.root)
        recovery_delta = _np_zeros(6)
        phase = PHASE_PREPARATION
    else:
        hit_delta = _np_zeros(6)
        recovery_delta = pose_delta_in_base(target.recovery_root_pose, state.root, state.root)
        phase = PHASE_RECOVERY
    return GoalObservation(tth, hit_delta, recovery_delta, phase)


def _read_only(values) -> Array:
    a = np.array(values, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ClipFrame:
    """One reference-motion frame. Its arrays, the root pose's included, are
    read-only float64 copies of the inputs, so a clip's stacked table
    cannot go stale."""

    t: float
    root: Pose
    root_lin: Array
    root_ang: Array
    q: Array

    def __post_init__(self):
        root = self.root
        object.__setattr__(
            self, "root", Pose._of_rows(_read_only(root.position), _read_only(root.orientation))
        )
        object.__setattr__(self, "root_lin", _read_only(self.root_lin))
        object.__setattr__(self, "root_ang", _read_only(self.root_ang))
        object.__setattr__(self, "q", _read_only(self.q))


@dataclass(frozen=True)
class ReferenceClip:
    """Reference motion: root states and joint vectors over time, with
    annotated hit and recovery instants.

    The frames are stacked once, at construction: an (F, 12) table of
    [position, 0, 0, 0, linear velocity, angular velocity] rows, the
    orientations as float tuples and an (F, n) joint table. The frames'
    arrays are read-only, so the table always matches them.
    """

    frames: tuple[ClipFrame, ...]
    hit_times: tuple[float, ...] = ()
    recovery_times: tuple[float, ...] = ()

    def __post_init__(self):
        frames = tuple(self.frames)
        times = tuple(f.t for f in frames)
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValueError("frame times must be strictly increasing")
        for i, f in enumerate(frames[1:], start=1):
            if f.q.shape != frames[0].q.shape:
                raise ValueError(f"frames[{i}].q has {f.q.size} angles, "
                                 f"frames[0].q has {frames[0].q.size}")
        root_rows = np.zeros((len(frames), 12))
        for k, f in enumerate(frames):
            root_rows[k, :3] = f.root.position
            root_rows[k, 6:9] = f.root_lin
            root_rows[k, 9:] = f.root_ang
        joint_rows = np.array([f.q for f in frames]) if frames else np.empty((0, 0))
        root_rows.flags.writeable = joint_rows.flags.writeable = False
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "_times", times)
        object.__setattr__(self, "_root_rows", root_rows)
        object.__setattr__(self, "_root_quats", tuple(f.root.orientation.tolist() for f in frames))
        object.__setattr__(self, "_joint_rows", joint_rows)
        object.__setattr__(self, "hit_times", tuple(float(t) for t in self.hit_times))
        object.__setattr__(self, "recovery_times", tuple(float(t) for t in self.recovery_times))

    def __len__(self) -> int:
        return len(self.frames)

    def frame_index_at(self, t: float) -> int:
        """Index of the last frame at or before t (clamped to [0, len-1])."""
        i = bisect.bisect_right(self._times, t) - 1
        return min(max(i, 0), len(self.frames) - 1)


@dataclass(frozen=True)
class ReferenceWindow:
    """Per-future-frame deltas relative to the query frame, in its base frame.

    root_deltas rows: [dpos(3), drot(3), dlin(3), dang(3)]; joint_deltas
    rows hold the joint-angle differences.
    """

    root_deltas: Array   # (H, 12)
    joint_deltas: Array  # (H, n)


def reference_window(clip: ReferenceClip, t: float, horizon: int) -> ReferenceWindow:
    """Differences between the frame at t and the next `horizon` frames.

    Queries past the end of the clip repeat the last frame, so the deltas
    saturate instead of extrapolating.
    """
    if len(clip) == 0:
        raise ValueError("reference clip is empty")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    i = clip.frame_index_at(t)
    futs = np.arange(i + 1, i + 1 + horizon)  # taken in "clip" mode: past the end, the last row
    quats, last = clip._root_quats, len(clip) - 1
    base_quat = quats[i]
    # world-frame rows [dpos, drot, dlin, dang] per future frame, rotated at once
    rows = clip._root_rows.take(futs, axis=0, mode="clip")
    rows -= clip._root_rows[i]
    rows[:, 3:6] = [
        _rotvec_between(quats[min(k, last)], base_quat) for k in range(i + 1, i + 1 + horizon)
    ]
    root_deltas = to_base_frame(rows.reshape(-1, 3), clip.frames[i].root, is_point=False)
    joint_deltas = clip._joint_rows.take(futs, axis=0, mode="clip")
    joint_deltas -= clip._joint_rows[i]
    return ReferenceWindow(root_deltas.reshape(horizon, 12), joint_deltas)


# ---------------------------------------------------------------------------
# Clip file format


CLIP_FRAME = {
    "t": (REQUIRED, float), "root_pos": (REQUIRED, (3,)), "root_quat": (REQUIRED, (4,)),
    "root_lin": (REQUIRED, (3,)), "root_ang": (REQUIRED, (3,)), "q": (REQUIRED, [float]),
}
CLIP = {
    "frames": (REQUIRED, [CLIP_FRAME]),
    "annotations": ({}, {"hit_times": ([], [float]), "recovery_times": ([], [float])}),
}


def clip_from_dict(data) -> ReferenceClip:
    clip = _check(data, CLIP)
    frames = tuple(
        ClipFrame(f["t"], Pose(f["root_pos"], f["root_quat"]), f["root_lin"], f["root_ang"], f["q"])
        for f in clip["frames"]
    )
    ann = clip["annotations"]
    return ReferenceClip(frames, tuple(ann["hit_times"]), tuple(ann["recovery_times"]))


def clip_to_dict(clip: ReferenceClip) -> dict:
    return {
        "frames": [
            {
                "t": f.t,
                "root_pos": f.root.position.tolist(),
                "root_quat": f.root.orientation.tolist(),
                "root_lin": f.root_lin.tolist(),
                "root_ang": f.root_ang.tolist(),
                "q": f.q.tolist(),
            }
            for f in clip.frames
        ],
        "annotations": {
            "hit_times": list(clip.hit_times),
            "recovery_times": list(clip.recovery_times),
        },
    }


def save_clip(clip: ReferenceClip, path) -> None:
    with open(path, "w") as f:
        json.dump(_round_floats(clip_to_dict(clip)), f, indent=2)
        f.write("\n")
