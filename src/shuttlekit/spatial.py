"""Rigid-body math, and the file-format helpers shared by every other module.

Quaternions are scalar-first ``[w, x, y, z]`` and kept canonical
(unit norm, w >= 0) so orientation comparisons are unambiguous.
Orientation errors are expressed as rotation vectors (axis * angle).

Every JSON input is read by `_load_json`, each object in it by `_check`
against a key table, and every CSV input by `_csv_records`, by the cell index
each header name resolves to; every float written goes through `_round9`, and
every CSV row through `_write_csv`: the input and the output side of each format.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

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
    n = math.sqrt(out @ out)  # np.linalg.norm's sum, without its dispatch
    if not abs(n - 1.0) <= QUAT_NORM_TOL:  # NaN fails too
        raise ValueError(f"{name} is not unit norm (|q| = {n})")
    return out / n


def _record(cls, *values):
    """An instance of the frozen dataclass `cls` holding `values` in field order, exactly as
    given, with no `__post_init__`: each value must already be what that check stores. Only
    for records that hold their fields and nothing derived from them."""
    record = object.__new__(cls)
    vars(record).update(zip(cls.__dataclass_fields__, values))
    return record


def quat_identity() -> Array:
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_canonical(q: Array) -> Array:
    """Resolve the double cover: flip sign so the scalar part is >= 0."""
    return -q if q[0] < 0.0 else q


def _quat_product(a, b) -> tuple:
    """Hamilton product a * b of two [w, x, y, z] sequences, as a tuple."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def quat_mul(q1: Array, q2: Array) -> Array:
    """Hamilton product q1 * q2 (scalar-first)."""
    return np.array(_quat_product(q1, q2))


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
    """Serial/tree chain of revolute joints with named end-effector frames. `frame_rows`
    maps each frame name to its FK row: the joints, then the end effectors."""

    joints: tuple[Joint, ...]
    end_effectors: tuple[EndEffector, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "joints", tuple(self.joints))
        object.__setattr__(self, "end_effectors", tuple(self.end_effectors))
        n, rows, table = len(self.joints), {}, []
        for i, f in enumerate(self.joints + self.end_effectors):
            if not -1 <= f.parent < min(i, n):
                raise ValueError(f"joint {f.name!r} parent {f.parent} breaks topological order"
                                 if i < n else f"end effector {f.name!r} has invalid parent")
            if f.name in rows:
                raise ValueError(f"duplicate frame name {f.name!r}")
            rows[f.name] = i
            # what forward_kinematics reads of the frame, as floats; no axis on an end effector
            table.append((f.parent, tuple(f.offset.position.tolist()),
                          tuple(f.offset.orientation.tolist()),
                          tuple(f.axis.tolist()) if i < n else None))
        object.__setattr__(self, "frame_rows", rows)
        object.__setattr__(self, "_fk_table", tuple(table))

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


class FramePoses(Mapping):
    """World poses of a chain's frames, by frame name, held as rows in `chain.frame_rows`
    order: `positions` (F, 3) and `orientations` (F, 4), both read-only. `fk[name]` is
    the `Pose` of that row, built only when a caller asks for it."""

    def __init__(self, rows: Mapping[str, int], positions: Array, orientations: Array):
        positions.flags.writeable = orientations.flags.writeable = False
        self._rows, self.positions, self.orientations = rows, positions, orientations

    def __getitem__(self, name: str) -> Pose:
        i = self._rows[name]
        return _record(Pose, self.positions[i], self.orientations[i])

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


def forward_kinematics(chain: KinematicChain, root: Pose, q) -> FramePoses:
    """World pose of every joint and end-effector frame.

    Frame pose of joint j: parent_pose * offset * Rot(axis, q_j). Each row holds what a
    `Pose` of its frame's floats stores: a finite position, a unit orientation with w >= 0.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (chain.n_joints,):
        raise ValueError(
            f"expected {chain.n_joints} joint angles, got shape {q.shape}"
        )
    angles = q.tolist()
    if not all(map(math.isfinite, angles)):
        raise ValueError("joint angles must be finite")
    base = (tuple(root.position.tolist()), tuple(root.orientation.tolist()))
    frames: list[tuple] = []
    for i, (parent, (x, y, z), quat, axis) in enumerate(chain._fk_table):
        (px, py, pz), rot = base if parent < 0 else frames[parent]
        m = _matrix_entries(rot)  # the parent frame applied after the offset
        origin = (m[0] * x + m[1] * y + m[2] * z + px, m[3] * x + m[4] * y + m[5] * z + py,
                  m[6] * x + m[7] * y + m[8] * z + pz)
        rot = _quat_product(rot, quat)
        if axis is not None:  # a joint turns by its angle about its axis
            half, (ax, ay, az) = 0.5 * angles[i], axis
            s = math.sin(half)
            rot = _quat_product(rot, (math.cos(half), s * ax, s * ay, s * az))
        frames.append((origin, rot))
    positions = np.array([origin for origin, _ in frames]).reshape(-1, 3)
    if not np.isfinite(positions).all():
        raise ValueError("position has non-finite components")
    quats = np.array([rot for _, rot in frames]).reshape(-1, 4)
    quats /= np.sqrt(quats[:, None, :] @ quats[:, :, None])[:, 0]  # `_quat`'s q @ q, by row
    np.negative(quats, out=quats, where=quats[:, :1] < 0.0)
    return FramePoses(chain.frame_rows, positions, quats)


def _load_json(path, build):
    """`build` applied to the JSON value in the file at `path`. A ValueError from
    the parse or from `build` is raised again with the file's path in front."""
    try:
        with open(path) as f:
            return build(json.load(f))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _csv_records(path, columns, read) -> list:
    """`read(cells, at)` of each row of the CSV file at `path`, `at` mapping each header name
    to its cell index (a repeated name to its last); the header must name every one of
    `columns`, in any order. `read` returns the record and the numbers it read; a row with a
    cell too many or too few, a bad cell or a non-finite number names the file and row."""
    with open(path, newline="") as f:
        rows = csv.reader(f)
        header = next(rows, [])
        at = {name: i for i, name in enumerate(header)}
        missing = [c for c in columns if c not in at]
        if missing:
            raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
        records = []
        for k, cells in enumerate(filter(None, rows), start=1):  # blank lines hold no row
            if len(cells) != len(header):
                raise ValueError(f"{path}: row {k} has {len(cells)} cells, expected {len(header)}")
            try:
                record, numbers = read(cells, at)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: row {k}: {exc}") from exc
            if not all(map(math.isfinite, numbers)):
                raise ValueError(f"{path}: row {k} has a non-finite value")
            records.append(record)
    return records


def _write_csv(path, columns, rows) -> None:
    """Write the header `columns`, then each row of numbers at 9 significant digits."""
    with open(path, "w") as f:
        f.write(",".join(columns) + "\n")
        for row in np.asarray(rows, dtype=np.float64).tolist():
            f.write(",".join(format(v, ".9g") for v in row) + "\n")


def _round9(v: float) -> float:
    """`v` at 9 significant digits, the one rule for reproducible output (NaN, inf stay)."""
    return float(format(v, ".9g"))


def _round_floats(obj):
    """`_round9` applied to every float in nested dicts, lists and tuples."""
    if isinstance(obj, float):
        return _round9(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


# A key table maps each key of a JSON object to (default, kind). The default is
# REQUIRED, None (the key reads as None when absent or null) or the value an
# absent key takes. The kinds: float, POSITIVE or NON_NEGATIVE, a finite number;
# int, an integer; bool and str; a tuple of strings, one of them; a tuple of
# ints, finite numbers of that shape as an array; a key table, a nested object,
# where null reads as absent; [kind], a list; {str: kind}, an object of free
# keys. A number or integer may be given as a string, never as true or false.
REQUIRED = object()
POSITIVE, NON_NEGATIVE = "positive", "non-negative"


def _check(table, spec: dict, name: str = "") -> dict:
    """The values of the JSON object `table`, at key path `name`, under the key
    table `spec`. A ValueError names the offending key path, such as `frames[1].t`."""
    if not isinstance(table, dict):
        what = f"{name} must be an object" if name else "top level must be a JSON object"
        raise ValueError(f"{what}, got {type(table).__name__}")
    for key in table:
        if key not in spec:
            path = f"{name}.{key}" if name else key
            raise ValueError(f"key {path!r} is unknown (known: {', '.join(spec)})")
    values = {}
    for key, (default, kind) in spec.items():
        path = f"{name}.{key}" if name else key
        value = table.get(key)
        if value is None and (key not in table or default is None
                              or isinstance(kind, dict) and str not in kind):
            if default is REQUIRED:
                raise ValueError(f"{path} is missing")
            value = default
        values[key] = None if value is None and default is None else _value(value, kind, path)
    return values


def _value(value, kind, name: str):
    """`value` checked, and converted, as the key-table kind `kind` says."""
    if isinstance(kind, dict) and str not in kind:
        return _check(value, kind, name)
    if isinstance(kind, (dict, list)):
        if not isinstance(value, type(kind)):
            what = "an object" if isinstance(kind, dict) else "a list"
            raise ValueError(f"{name or 'top level'} must be {what}, got {type(value).__name__}")
        if isinstance(kind, dict):
            return {key: _value(v, kind[str], f"{name}.{key}") for key, v in value.items()}
        return [_value(v, kind[0], f"{name}[{i}]") for i, v in enumerate(value)]
    if isinstance(kind, tuple) and isinstance(kind[0], int):
        return _numbers(value, kind, name)
    if isinstance(kind, tuple) or kind in (str, bool):
        if value in kind if isinstance(kind, tuple) else isinstance(value, kind):
            return value
        what = {str: "a string", bool: "true or false"}.get(kind, f"one of {kind}")
        raise ValueError(f"{name} must be {what}, got {value!r}")
    what = "an integer" if kind is int else "a number"
    if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    try:
        value = int(value) if kind is int else float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be {what}: {exc}") from exc
    if kind is not int and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if kind == POSITIVE and not value > 0 or kind == NON_NEGATIVE and not value >= 0:
        raise ValueError(f"{name} must be {kind}, got {value}")
    return value


def _numbers(value, shape: tuple, name: str) -> Array:
    """`value` as finite floats of `shape`; a JSON true/false is not a number."""
    if any(isinstance(v, bool) for v in np.asarray(value, dtype=object).ravel()):
        raise ValueError(f"{name} must hold numbers, got {value!r}")
    try:
        out = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must hold numbers: {exc}") from exc
    if out.shape != shape or not all(map(math.isfinite, out.ravel().tolist())):
        raise ValueError(f"{name} must be finite numbers of shape {shape}")
    return out


JOINT = {
    "name": (REQUIRED, str), "parent": (REQUIRED, int), "offset_pos": (REQUIRED, (3,)),
    "offset_quat": (REQUIRED, (4,)), "axis": (REQUIRED, (3,)), "limits": (REQUIRED, (2,)),
}
END_EFFECTOR = {key: JOINT[key] for key in ("name", "parent", "offset_pos", "offset_quat")}
CHAIN = {"joints": (REQUIRED, [JOINT]), "end_effectors": ([], [END_EFFECTOR])}


def chain_from_dict(data: Mapping) -> KinematicChain:
    chain = _check(data, CHAIN)
    joints = tuple(Joint(j["name"], j["parent"], Pose(j["offset_pos"], j["offset_quat"]),
                         j["axis"], tuple(j["limits"])) for j in chain["joints"])
    end_effectors = tuple(
        EndEffector(e["name"], e["parent"], Pose(e["offset_pos"], e["offset_quat"]))
        for e in chain["end_effectors"])
    return KinematicChain(joints, end_effectors)


def chain_to_dict(chain: KinematicChain) -> dict:
    def frame(f) -> dict:  # the keys a joint and an end effector share
        return {"name": f.name, "parent": f.parent, "offset_pos": f.offset.position.tolist(),
                "offset_quat": f.offset.orientation.tolist()}

    return {"joints": [{**frame(j), "axis": j.axis.tolist(), "limits": list(j.limits)}
                       for j in chain.joints],
            "end_effectors": [frame(e) for e in chain.end_effectors]}


def load_chain(path) -> KinematicChain:
    return _load_json(path, chain_from_dict)
