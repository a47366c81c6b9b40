"""Goal-conditioned state encoding for the striking task.

The goal splits into a Preparation phase (before impact) and a Recovery
phase (after impact), switched by the sign of the time-to-hit. Whichever
target block is irrelevant to the current phase is masked to zero.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spatial import (
    REQUIRED,
    Pose,
    Twist,
    _check,
    _matrix_entries,
    _record,
    _round_floats,
    _rotvec_between,
    _value,
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

    def __post_init__(self):
        object.__setattr__(self, "hit_time", _value(self.hit_time, float, "hit_time"))


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
        for name in ("q", "qd", "projected_gravity", "last_action", "feet_contacts"):
            value = np.asarray(getattr(self, name), dtype=np.float64)
            if not all(map(math.isfinite, value.ravel().tolist())):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.q.shape != self.qd.shape:
            raise ValueError("q and qd must have matching length")
        object.__setattr__(self, "base_height", _value(self.base_height, float, "base_height"))


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
    if tth != tth:  # NaN fails both clamps
        raise ValueError(f"time to hit is NaN: now={now}, hit_time={hit_time}")
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


@dataclass(frozen=True)
class ClipFrame:
    """One reference-motion frame. In a `ReferenceClip` its arrays, the root
    pose's included, are read-only views of the clip's tables."""

    t: float
    root: Pose
    root_lin: Array
    root_ang: Array
    q: Array


@dataclass(frozen=True)
class ReferenceClip:
    """Reference motion: root states and joint vectors over time, with
    annotated hit and recovery instants.

    The frames are stacked once, at construction, into read-only tables: an
    (F, 12) table of [position, 0, 0, 0, linear velocity, angular velocity]
    rows, an (F, 4) table of orientations, their rotation matrices as an
    (F, 3, 3) stack and an (F, n) joint table. The tables are the clip's only
    copy of the numbers: its frames are rebuilt as views of their rows.
    `reference_window` memoizes its read-only windows here, one per (frame, horizon).
    """

    frames: tuple[ClipFrame, ...]
    hit_times: tuple[float, ...] = ()
    recovery_times: tuple[float, ...] = ()

    def __post_init__(self):
        frames = tuple(self.frames)
        times = tuple(f.t for f in frames)
        if not all(t1 < t2 for t1, t2 in zip(times, times[1:])):  # NaN fails too
            raise ValueError("frame times must be strictly increasing")
        if frames and np.ndim(frames[0].q) != 1:
            raise ValueError(f"frames[0].q must have one dimension, "
                             f"got shape {np.shape(frames[0].q)}")
        for i, f in enumerate(frames[1:], start=1):
            if np.shape(f.q) != np.shape(frames[0].q):
                raise ValueError(f"frames[{i}].q has {np.size(f.q)} angles, "
                                 f"frames[0].q has {np.size(frames[0].q)}")
        root_rows = np.zeros((len(frames), 12))
        for k, f in enumerate(frames):
            for name in ("root_lin", "root_ang"):
                if np.shape(getattr(f, name)) != (3,):
                    raise ValueError(f"frames[{k}].{name} must have shape (3,), "
                                     f"got {np.shape(getattr(f, name))}")
            root_rows[k, :3], root_rows[k, 6:] = f.root.position, (*f.root_lin, *f.root_ang)
        quats = np.array([f.root.orientation for f in frames], dtype=np.float64).reshape(-1, 4)
        # each frame's orientation matrix R: `rows @ R` applies R^T, world->base, to each row
        to_base = np.array([_matrix_entries(q) for q in quats.tolist()]).reshape(-1, 3, 3)
        joint_rows = np.array([f.q for f in frames], dtype=np.float64)
        # the poses are checked already; one test per table, a frame named only on failure
        for name, table in (("root_lin", root_rows[:, 6:9]), ("root_ang", root_rows[:, 9:]),
                            ("q", joint_rows)):
            if not np.isfinite(table).all():
                k = next(k for k, row in enumerate(table) if not np.isfinite(row).all())
                raise ValueError(f"frames[{k}].{name} has non-finite values")
        for table in (root_rows, quats, to_base, joint_rows):
            table.flags.writeable = False
        vars(self).update(
            frames=tuple(ClipFrame(f.t, _record(Pose, r[:3], o), r[6:9], r[9:], q)
                         for f, r, o, q in zip(frames, root_rows, quats, joint_rows)),
            hit_times=tuple(map(float, self.hit_times)),
            recovery_times=tuple(map(float, self.recovery_times)),
            _times=times, _root_rows=root_rows, _quats=quats, _to_base=to_base,
            _joint_rows=joint_rows, _windows={},
        )

    def __len__(self) -> int:
        return len(self.frames)

    def frame_index_at(self, t: float) -> int:
        """Index of the last frame at or before t (clamped to [0, len-1]). A NaN t raises."""
        if t != t:
            raise ValueError(f"t must not be NaN, got {t}")
        i = bisect.bisect_right(self._times, t) - 1
        return min(max(i, 0), len(self.frames) - 1)


@dataclass(frozen=True)
class ReferenceWindow:
    """Per-future-frame deltas relative to the query frame, in its base frame.

    root_deltas rows: [dpos(3), drot(3), dlin(3), dang(3)]; joint_deltas
    rows hold the joint-angle differences. Both arrays are read-only: the
    clip memoizes the window and returns it to every later query of its key.
    """

    root_deltas: Array   # (H, 12)
    joint_deltas: Array  # (H, n)


def reference_window(clip: ReferenceClip, t: float, horizon: int) -> ReferenceWindow:
    """Differences between the frame at t and the next `horizon` frames.

    Queries past the end of the clip repeat the last frame, so the deltas
    saturate instead of extrapolating. The clip memoizes each (frame, horizon) window.
    """
    if len(clip) == 0:
        raise ValueError("reference clip is empty")
    if not isinstance(horizon, (int, np.integer)) or isinstance(horizon, bool) or horizon < 1:
        raise ValueError(f"horizon must be a positive int, got {horizon!r}")
    i = clip.frame_index_at(t)
    if (i, horizon) in clip._windows:
        return clip._windows[i, horizon]
    futs = np.arange(i + 1, i + 1 + horizon)  # taken in "clip" mode: past the end, the last row
    base_quat = clip._quats[i].tolist()
    # world-frame rows [dpos, drot, dlin, dang] per future frame, rotated at once
    rows = clip._root_rows.take(futs, axis=0, mode="clip")
    rows -= clip._root_rows[i]
    rows[:, 3:6] = [_rotvec_between(q, base_quat)
                    for q in clip._quats.take(futs, axis=0, mode="clip").tolist()]
    root_deltas = rows.reshape(-1, 3) @ clip._to_base[i]
    joint_deltas = clip._joint_rows.take(futs, axis=0, mode="clip")
    joint_deltas -= clip._joint_rows[i]
    root_deltas.flags.writeable = joint_deltas.flags.writeable = False
    return clip._windows.setdefault(
        (i, horizon), ReferenceWindow(root_deltas.reshape(horizon, 12), joint_deltas))


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
    rows, quats, joints = clip._root_rows.tolist(), clip._quats.tolist(), clip._joint_rows.tolist()
    return {
        "frames": [{"t": f.t, "root_pos": r[:3], "root_quat": o, "root_lin": r[6:9],
                    "root_ang": r[9:], "q": q}
                   for f, r, o, q in zip(clip.frames, rows, quats, joints)],
        "annotations": {"hit_times": list(clip.hit_times),
                        "recovery_times": list(clip.recovery_times)},
    }


def save_clip(clip: ReferenceClip, path) -> None:
    with open(path, "w") as f:
        json.dump(_round_floats(clip_to_dict(clip)), f, indent=2)
        f.write("\n")
