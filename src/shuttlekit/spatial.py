"""Rigid-body math shared by every other module.

Quaternions are scalar-first ``[w, x, y, z]`` and kept canonical
(unit norm, w >= 0) so orientation comparisons are unambiguous.
Orientation errors are expressed as rotation vectors (axis * angle).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

Array = np.ndarray

# Inputs are rejected beyond this norm error; values are renormalized
# afterwards so stored quaternions stay unit to ~1e-16.
QUAT_NORM_TOL = 1e-6

_EPS = 1e-12


def _vec3(v, name: str = "vector") -> Array:
    try:
        out = np.asarray(v, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must hold numbers: {exc}") from exc
    if out.shape != (3,):
        raise ValueError(f"{name} must have shape (3,), got {out.shape}")
    if not all(map(math.isfinite, out.tolist())):
        raise ValueError(f"{name} has non-finite components")
    return out


def _quat(q, name: str = "quaternion") -> Array:
    out = np.asarray(q, dtype=np.float64)
    if out.shape != (4,):
        raise ValueError(f"{name} must have shape (4,), got {out.shape}")
    n = np.linalg.norm(out)
    if abs(n - 1.0) > QUAT_NORM_TOL:
        raise ValueError(f"{name} is not unit norm (|q| = {n})")
    return out / n


def quat_identity() -> Array:
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_canonical(q: Array) -> Array:
    """Resolve the double cover: flip sign so the scalar part is >= 0."""
    return -q if q[0] < 0.0 else q


def quat_mul(q1: Array, q2: Array) -> Array:
    """Hamilton product q1 * q2 (scalar-first)."""
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def quat_conj(q: Array) -> Array:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_rotate(q: Array, v: Array) -> Array:
    """Rotate 3-vector v by unit quaternion q."""
    return quat_to_matrix(q) @ v


def _matrix_entries(q) -> tuple:
    """Row-major rotation-matrix entries of a unit [w, x, y, z] float sequence."""
    w, x, y, z = q
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    return (
        1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy),
        2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx),
        2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy),
    )


def quat_to_matrix(q: Array) -> Array:
    return np.array(_matrix_entries(np.asarray(q, dtype=np.float64).tolist())).reshape(3, 3)


def quat_from_rotvec(w: Array) -> Array:
    """Exponential map: rotation vector (axis * angle, rad) to quaternion."""
    w = np.asarray(w, dtype=np.float64)
    angle = np.linalg.norm(w)
    half = 0.5 * angle
    # sin(half)/angle, stable at angle -> 0 (limit 1/2)
    scale = 0.5 * np.sinc(half / np.pi)
    return quat_canonical(np.array([np.cos(half), *(scale * w)]))


def _rotvec_between(ref, cur) -> tuple:
    """Rotation vector log(ref * cur^-1), angle in [0, pi], of two unit
    [w, x, y, z] float sequences."""
    tw, tx, ty, tz = ref
    cw, cx, cy, cz = cur
    rw = tw * cw + tx * cx + ty * cy + tz * cz
    rx = -tw * cx + tx * cw - ty * cz + tz * cy
    ry = -tw * cy + tx * cz + ty * cw - tz * cx
    rz = -tw * cz - tx * cy + ty * cx + tz * cw
    s = math.sqrt(rx * rx + ry * ry + rz * rz)
    scale = 2.0 if s < _EPS else 2.0 * math.atan2(s, abs(rw)) / s
    if rw < 0.0:  # the canonical (w >= 0) quaternion is -r, whose log is negated
        scale = -scale
    return scale * rx, scale * ry, scale * rz


def quat_boxminus(ref: Array, cur: Array) -> Array:
    """Rotation vector taking cur to ref: log(ref * cur^-1).

    Both inputs must be unit quaternions; the result magnitude is the
    geodesic angle between them, in [0, pi].
    """
    ref = _quat(ref, "ref")
    cur = _quat(cur, "cur")
    return np.array(_rotvec_between(ref.tolist(), cur.tolist()))


def quat_boxplus(q: Array, delta: Array) -> Array:
    """Apply a rotation-vector increment: exp(delta) * q.

    Inverse of quat_boxminus: quat_boxplus(cur, quat_boxminus(ref, cur))
    recovers ref (up to sign canonicalization).
    """
    q = _quat(q)
    out = quat_mul(quat_from_rotvec(delta), q)
    return quat_canonical(out / np.linalg.norm(out))


@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotation (unit quaternion, scalar-first) then translation."""

    position: Array
    orientation: Array

    def __post_init__(self):
        pos = _vec3(self.position, "position")
        q = _quat(self.orientation, "orientation")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "orientation", quat_canonical(q))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.zeros(3), quat_identity())

    def rotation_matrix(self) -> Array:
        return quat_to_matrix(self.orientation)

    def transform_point(self, p: Array) -> Array:
        return quat_rotate(self.orientation, np.asarray(p, dtype=np.float64)) + self.position

    def transform_vector(self, v: Array) -> Array:
        return quat_rotate(self.orientation, np.asarray(v, dtype=np.float64))

    def compose(self, other: "Pose") -> "Pose":
        """self applied after other: (self * other)(x) = self(other(x))."""
        return Pose(
            self.transform_point(other.position),
            quat_mul(self.orientation, other.orientation),
        )


@dataclass(frozen=True)
class Twist:
    """Spatial velocity: linear (m/s) and angular (rad/s) parts."""

    linear: Array
    angular: Array

    def __post_init__(self):
        object.__setattr__(self, "linear", _vec3(self.linear, "linear"))
        object.__setattr__(self, "angular", _vec3(self.angular, "angular"))

    @staticmethod
    def zero() -> "Twist":
        return Twist(np.zeros(3), np.zeros(3))


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by center and full edge lengths."""

    center: Array
    size: Array

    def __post_init__(self):
        center = _vec3(self.center, "center")
        size = _vec3(self.size, "size")
        if np.any(size < 0):
            raise ValueError("box size must be non-negative")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "size", size)

    def contains(self, p: Array):
        """One (3,) point -> bool, or (k, 3) rows -> (k,) bools; the boundary is inside."""
        p = np.asarray(p, dtype=np.float64)
        if p.ndim not in (1, 2) or p.shape[-1] != 3:
            raise ValueError(f"expected shape (3,) or (k, 3), got {p.shape}")
        inside = np.all(np.abs(p - self.center) <= 0.5 * self.size, axis=-1)
        return bool(inside) if p.ndim == 1 else inside


def to_base_frame(world_vec: Array, base: Pose, is_point: bool) -> Array:
    """Re-express world-frame quantities in the base frame.

    `world_vec` is one (3,) vector or (k, 3) rows of them. Points are
    translated then rotated; free vectors (velocities, gravity) are only
    rotated.
    """
    v = np.asarray(world_vec, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] != 3:
        raise ValueError(f"expected shape (3,) or (k, 3), got {v.shape}")
    if is_point:
        v = v - base.position
    # rows times R is R^T applied to each row: the world->base rotation
    return v @ quat_to_matrix(base.orientation)


@dataclass(frozen=True)
class Joint:
    """Revolute joint: fixed offset from the parent frame, then rotation about axis."""

    name: str
    parent: int  # index of parent joint, -1 for the root
    offset: Pose
    axis: Array
    limits: tuple[float, float]

    def __post_init__(self):
        axis = _vec3(self.axis, "axis")
        n = np.linalg.norm(axis)
        if n < _EPS:
            raise ValueError(f"joint {self.name!r} has zero rotation axis")
        object.__setattr__(self, "axis", axis / n)
        lo, hi = self.limits
        if not lo < hi:
            raise ValueError(f"joint {self.name!r} limits must satisfy lo < hi")
        object.__setattr__(self, "limits", (float(lo), float(hi)))


@dataclass(frozen=True)
class EndEffector:
    """Named fixed frame rigidly attached to a joint frame."""

    name: str
    parent: int
    offset: Pose


@dataclass(frozen=True)
class KinematicChain:
    """Serial/tree chain of revolute joints with named end-effector frames."""

    joints: tuple[Joint, ...]
    end_effectors: tuple[EndEffector, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "joints", tuple(self.joints))
        object.__setattr__(self, "end_effectors", tuple(self.end_effectors))
        names = set()
        for i, j in enumerate(self.joints):
            if not -1 <= j.parent < i:
                raise ValueError(
                    f"joint {j.name!r} parent {j.parent} breaks topological order"
                )
            if j.name in names:
                raise ValueError(f"duplicate frame name {j.name!r}")
            names.add(j.name)
        for ee in self.end_effectors:
            if not -1 <= ee.parent < len(self.joints):
                raise ValueError(f"end effector {ee.name!r} has invalid parent")
            if ee.name in names:
                raise ValueError(f"duplicate frame name {ee.name!r}")
            names.add(ee.name)

    @property
    def n_joints(self) -> int:
        return len(self.joints)

    def joint_limits(self) -> Array:
        """Limits as a (n, 2) array of [lo, hi] rows."""
        return np.array([j.limits for j in self.joints])

    def end_effector_names(self) -> tuple[str, ...]:
        return tuple(ee.name for ee in self.end_effectors)

    def clamp(self, q: Array) -> Array:
        lims = self.joint_limits()
        return np.clip(np.asarray(q, dtype=np.float64), lims[:, 0], lims[:, 1])


def forward_kinematics(chain: KinematicChain, root: Pose, q) -> dict[str, Pose]:
    """World pose of every joint and end-effector frame.

    Frame pose of joint j: parent_pose * offset * Rot(axis, q_j).
    """
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (chain.n_joints,):
        raise ValueError(
            f"expected {chain.n_joints} joint angles, got shape {q.shape}"
        )
    if not np.all(np.isfinite(q)):
        raise ValueError("joint angles must be finite")
    poses: list[Pose] = []
    out: dict[str, Pose] = {}
    for i, joint in enumerate(chain.joints):
        parent = root if joint.parent < 0 else poses[joint.parent]
        rot = quat_mul(parent.orientation, joint.offset.orientation)
        pose = Pose(parent.transform_point(joint.offset.position),
                    quat_mul(rot, quat_from_rotvec(joint.axis * q[i])))
        poses.append(pose)
        out[joint.name] = pose
    for ee in chain.end_effectors:
        parent = root if ee.parent < 0 else poses[ee.parent]
        out[ee.name] = parent.compose(ee.offset)
    return out


def _round_floats(obj):
    """Limit every float to 9 significant digits for reproducible output."""
    if isinstance(obj, float):
        return float(format(obj, ".9g")) if math.isfinite(obj) else obj
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def chain_from_dict(data: Mapping) -> KinematicChain:
    joints = tuple(
        Joint(
            name=j["name"],
            parent=int(j["parent"]),
            offset=Pose(np.asarray(j["offset_pos"]), np.asarray(j["offset_quat"])),
            axis=np.asarray(j["axis"]),
            limits=(float(j["limits"][0]), float(j["limits"][1])),
        )
        for j in data["joints"]
    )
    end_effectors = tuple(
        EndEffector(
            name=e["name"],
            parent=int(e["parent"]),
            offset=Pose(np.asarray(e["offset_pos"]), np.asarray(e["offset_quat"])),
        )
        for e in data.get("end_effectors", [])
    )
    return KinematicChain(joints, end_effectors)


def chain_to_dict(chain: KinematicChain) -> dict:
    return {
        "joints": [
            {
                "name": j.name,
                "parent": j.parent,
                "offset_pos": j.offset.position.tolist(),
                "offset_quat": j.offset.orientation.tolist(),
                "axis": j.axis.tolist(),
                "limits": list(j.limits),
            }
            for j in chain.joints
        ],
        "end_effectors": [
            {
                "name": e.name,
                "parent": e.parent,
                "offset_pos": e.offset.position.tolist(),
                "offset_quat": e.offset.orientation.tolist(),
            }
            for e in chain.end_effectors
        ],
    }


def load_chain(path) -> KinematicChain:
    with open(path) as f:
        return chain_from_dict(json.load(f))
