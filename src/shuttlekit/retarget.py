"""Optimization-based motion retargeting onto a kinematic chain.

Each frame is solved as a damped least-squares problem over the root pose
and joint angles (root orientation updated through rotation-vector
increments), warm-started from the previous solved frame and tied to it by
a smoothness residual; only the iterates LM steps start from get analytic
Jacobian rows, built from what their residual pass kept. Morphological scales
(one global, one per segment) can be solved jointly on the first frame and
are then held fixed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence

import numpy as np

from .goal import ClipFrame, ReferenceClip
from .spatial import (
    CHAIN,
    NON_NEGATIVE,
    POSITIVE,
    REQUIRED,
    KinematicChain,
    Pose,
    _check,
    _matrix_entries,
    _numbers,
    _quat,
    _rotvec_between,
    _value,
    _vec3,
    chain_from_dict,
    forward_kinematics,
    load_chain,
    quat_boxminus,
    quat_boxplus,
)

Array = np.ndarray

TERM_ORDER = ("global", "local", "ee_rotation", "collision", "limit", "smooth")

LOCAL_SCALE_BOUNDS = (0.5, 2.0)
GLOBAL_SCALE_BOUNDS = (0.1, 10.0)
_LM_MAX_ITERS = 200
_LM_REL_TOL = 1e-8  # stop once an accepted step lowers the cost by less than this fraction


@dataclass(frozen=True)
class RetargetWeights:
    global_pos: float = 1.0
    local_shape: float = 1.0
    ee_rotation: float = 1.0
    collision: float = 1.0
    joint_limit: float = 1.0
    smoothness: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _value(getattr(self, f.name), NON_NEGATIVE, f.name))

    def for_term(self, term: str) -> float:
        return getattr(self, fields(self)[TERM_ORDER.index(term)].name)  # fields in TERM_ORDER


@dataclass(frozen=True)
class CollisionSphere:
    frame: str
    offset: Array
    radius: float

    def __post_init__(self):
        on = f"on frame {self.frame!r}"
        object.__setattr__(self, "offset", _vec3(self.offset, f"collision sphere offset {on}"))
        radius = _value(self.radius, POSITIVE, f"collision sphere radius {on}")
        object.__setattr__(self, "radius", radius)


@dataclass(frozen=True)
class KeypointFrame:
    """Per-frame targets: named keypoint positions and frame orientations (4 numbers each)."""

    t: float
    keypoints: dict[str, Array]
    rotations: dict[str, Array] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "t", _value(self.t, float, "t"))
        keypoints = {k: _vec3(v, f"keypoint {k!r}") for k, v in self.keypoints.items()}
        object.__setattr__(self, "keypoints", keypoints)
        rotations = {k: _numbers(v, (4,), f"rotations.{k}") for k, v in self.rotations.items()}
        object.__setattr__(self, "rotations", rotations)


@dataclass(frozen=True)
class RetargetProblem:
    chain: KinematicChain
    keypoint_map: dict[str, str]  # keypoint name -> chain frame name
    frames: tuple[KeypointFrame, ...]
    segments: tuple[tuple[str, str], ...] = ()
    weights: RetargetWeights = field(default_factory=RetargetWeights)
    collision_spheres: tuple[CollisionSphere, ...] = ()
    optimize_scales: bool = False
    fix_root: bool = False  # keep the init root pose, solve joints only

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        object.__setattr__(self, "segments", tuple(tuple(s) for s in self.segments))
        object.__setattr__(self, "collision_spheres", tuple(self.collision_spheres))
        for i, kf in enumerate(self.frames):
            if i and not kf.t > self.frames[i - 1].t:
                raise ValueError(
                    f"frame times must be strictly increasing: frame {i} has t = {kf.t} "
                    f"after t = {self.frames[i - 1].t}"
                )
        rows = self.chain.frame_rows
        for kp, frame in self.keypoint_map.items():
            if frame not in rows:
                raise ValueError(f"keypoint_map.{kp} names no chain frame")
        for i, kf in enumerate(self.frames):
            for kp in kf.keypoints:
                if kp not in self.keypoint_map:
                    raise ValueError(f"frames[{i}].keypoints.{kp} has no mapping in keypoint_map")
            for name in kf.rotations:
                if name not in rows:
                    raise ValueError(f"frames[{i}].rotations.{name} names no chain frame")
        for i, seg in enumerate(self.segments):
            if len(seg) != 2 or not set(seg) <= self.keypoint_map.keys():
                raise ValueError(f"segments[{i}] must be a pair of mapped keypoints, got {seg}")
        for i, sphere in enumerate(self.collision_spheres):
            if sphere.frame not in rows:
                raise ValueError(f"collision_spheres[{i}].frame names no chain frame")
        # what the residuals and their Jacobian need of the problem alone, built once, each
        # frame by its FK row; a frame is moved by the root's six increments and its ancestors
        object.__setattr__(self, "_rotation_targets", tuple(
            tuple((rows[name], _quat(kf.rotations[name], f"frames[{i}].rotations.{name}").tolist())
                  for name in sorted(kf.rotations)) for i, kf in enumerate(self.frames)))
        segs, spheres = self.segments, self.collision_spheres
        chain_frames, n = self.chain.joints + self.chain.end_effectors, self.chain.n_joints
        moved_by = np.ones((len(chain_frames), 6 + n))
        for i, frame in enumerate(chain_frames):
            moved_by[i, 6:] = 0.0 if frame.parent < 0 else moved_by[frame.parent, 6:]
            if i < n:  # a joint's own angle moves its frame
                moved_by[i, 6 + i] = 1.0
        object.__setattr__(self, "_moved_by", moved_by)
        object.__setattr__(self, "_axes", np.reshape([j.axis for j in chain_frames[:n]], (n, 3)).T)
        object.__setattr__(self, "_sphere_rows", np.array([rows[s.frame] for s in spheres], int))
        object.__setattr__(self, "_sphere_offsets", np.reshape([s.offset for s in spheres],
                                                               (-1, 3)))
        object.__setattr__(self, "_limits", self.chain.joint_limits().T)
        object.__setattr__(self, "_adjacent_segments", tuple(
            (i, j) for i in range(len(segs)) for j in range(i + 1, len(segs))
            if len(set(segs[i]) & set(segs[j])) == 1
        ))
        pairs = [(i, j) for i in range(len(spheres)) for j in range(i + 1, len(spheres))
                 if spheres[i].frame != spheres[j].frame]
        object.__setattr__(self, "_sphere_pairs", np.array(pairs, int).reshape(-1, 2).T)  # (2, P)
        object.__setattr__(self, "_pair_radii", np.array(
            [spheres[i].radius + spheres[j].radius for i, j in pairs]))
        object.__setattr__(self, "_sqrt_weights", np.sqrt([self.weights.for_term(t)
                                                          for t in TERM_ORDER]))


@dataclass(frozen=True)
class RetargetSolution:
    root_poses: tuple[Pose, ...]
    joint_angles: Array  # (frames, n_joints)
    global_scale: float = 1.0
    local_scales: Array = field(default_factory=lambda: np.ones(0))

    def __post_init__(self):
        object.__setattr__(self, "root_poses", tuple(self.root_poses))
        q = np.asarray(self.joint_angles, dtype=np.float64)
        if q.ndim == 1:
            q = q[None, :]
        if len(self.root_poses) != q.shape[0]:
            raise ValueError("one root pose per frame of joint angles required")
        if not np.isfinite(q).all():
            i = int(np.flatnonzero(~np.isfinite(q).all(axis=1))[0])
            raise ValueError(f"joint_angles of frame {i} must be finite, got {q[i].tolist()}")
        object.__setattr__(self, "joint_angles", q)
        scales = np.asarray(self.local_scales, dtype=np.float64)
        for name, scale in (("global_scale", self.global_scale), *(
                (f"local_scales[{i}]", v) for i, v in enumerate(scales.ravel().tolist()))):
            if not 0.0 < scale < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {scale}")
        object.__setattr__(self, "local_scales", scales)

    @property
    def n_frames(self) -> int:
        return len(self.root_poses)


@dataclass(frozen=True)
class ResidualReport:
    """Unweighted residual blocks keyed by cost term."""

    blocks: dict[str, Array]


def _angle_between(u: Array, v: Array) -> Optional[tuple[float, float, float]]:
    """The angle between u and v and their norms; None if either is shorter than 1e-9."""
    nu, nv = math.sqrt(u.dot(u)), math.sqrt(v.dot(v))  # numpy's norm, bit for bit
    if nu < 1e-9 or nv < 1e-9:
        return None
    return float(np.arccos(min(max(u.dot(v) / (nu * nv), -1.0), 1.0))), nu, nv


@dataclass(frozen=True)
class _FrameTargets:
    """One frame's targets in residual order, each term's rows stacked, and the row weights
    of each row layout its residual passes have met."""

    keypoints: tuple  # FK rows (k,) and target positions (k, 3), by keypoint name
    segments: tuple  # segment indices and FK rows of a and of b (m,), targets a - b (m, 3)
    angles: tuple  # (i, j, target angle) of adjacent segments at segment rows i and j
    rotations: tuple  # (FK row, unit target quaternion as floats), by frame name
    row_weights: dict = field(default_factory=dict)  # term bounds -> each row's weight


def _frame_targets(p: RetargetProblem, frame: int) -> _FrameTargets:
    kps, rows, kmap = p.frames[frame].keypoints, p.chain.frame_rows, p.keypoint_map
    segs = [(si, a, b) for si, (a, b) in enumerate(p.segments) if a in kps and b in kps]
    at = {si: r for r, (si, _, _) in enumerate(segs)}  # segment index -> its row
    ends = np.array([(si, rows[kmap[a]], rows[kmap[b]]) for si, a, b in segs], int)
    vectors = np.reshape([kps[a] - kps[b] for _, a, b in segs], (-1, 3))
    angles = [(at[i], at[j], _angle_between(vectors[at[i]], vectors[at[j]]))
              for i, j in p._adjacent_segments if i in at and j in at]
    names = sorted(kps)
    return _FrameTargets(
        (np.array([rows[kmap[kp]] for kp in names], int),
         np.reshape([kps[kp] for kp in names], (-1, 3))),
        (*ends.reshape(-1, 3).T, vectors),
        tuple((i, j, a[0]) for i, j, a in angles if a is not None),
        p._rotation_targets[frame],
    )


@dataclass
class _FrameIterate:
    root: Pose
    q: Array
    g_scale: float
    l_scales: Array
    with_scales: bool
    with_root: bool = True

    def dim(self) -> int:
        base = (6 if self.with_root else 0) + self.q.size
        return base + 1 + self.l_scales.size if self.with_scales else base

    def apply(self, delta: Array) -> "_FrameIterate":
        n, k, root = self.q.size, 6 if self.with_root else 0, self.root
        if k:
            root = Pose(root.position + delta[:3], quat_boxplus(root.orientation, delta[3:6]))
        q = self.q + delta[k : k + n]
        g_scale, l_scales = self.g_scale, self.l_scales
        if self.with_scales:
            g_scale = float(np.clip(self.g_scale + delta[k + n], *GLOBAL_SCALE_BOUNDS))
            l_scales = np.clip(self.l_scales + delta[k + n + 1 :], *LOCAL_SCALE_BOUNDS)
        return _FrameIterate(root, q, g_scale, l_scales, self.with_scales, self.with_root)


def _skew(v: Array) -> Array:
    """[v]x of each (..., 3) row of v, as (..., 3, 3): [v]x w = v x w."""
    if v.ndim == 1:  # one vector: its entries, with no index arrays
        x, y, z = v.tolist()
        return np.array(((0.0, -z, y), (z, 0.0, -x), (-y, x, 0.0)))
    out = np.zeros(v.shape + (3,))
    out[..., [2, 0, 1], [1, 2, 0]] = v
    out[..., [1, 2, 0], [2, 0, 1]] = -v
    return out


def _cross(a: Array, b: Array) -> Array:
    """a x b of each column of two (3, m) arrays, in numpy's cross-product arithmetic."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return np.array((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))


def _so3_inverse_jacobian(phi: Array, side: float) -> Array:
    """J_r^-1(phi) for side +1 and J_l^-1(phi) for side -1 (Sola et al. 2018, "A micro
    Lie theory"): to first order, log(exp(phi) exp(e)) = phi + J_r^-1 e and
    log(exp(e) exp(phi)) = phi + J_l^-1 e."""
    theta = math.sqrt(float(phi @ phi))
    k = _skew(phi)
    coef = (1.0 / 12.0 if theta < 1e-4 else
            1.0 / theta**2 - (1.0 + math.cos(theta)) / (2.0 * theta * math.sin(theta)))
    return np.eye(3) + 0.5 * side * k + coef * (k @ k)


def _residuals(
    p: RetargetProblem, it: _FrameIterate, tg: _FrameTargets, prev: Optional[tuple[Pose, Array]]
) -> tuple[Array, ResidualReport, tuple]:
    """The weighted residuals at `it`, their unweighted blocks, and what `_jacobian`
    reads of this pass. One FK call; the terms, in TERM_ORDER, each written in one
    stacked pass over its rows except the few angle and rotation rows:

    global: FK keypoint minus globally scaled target position.
    local:  segment vectors vs scaled target segment vectors, plus the
            angle between adjacent segments vs the target angle (no row
            while either segment is shorter than 1e-9).
    ee_rotation: rotation-vector error log(R_target R^T) of targeted frame orientations.
    collision: pairwise hinge max(0, r_i + r_j - distance).
    limit: hinge beyond each joint's [lo, hi].
    smooth: finite difference of root pose and joints vs the previous
            frame (empty on frame 0).

    `tg` and `p` name every chain frame by its FK row (`chain.frame_rows`), which
    indexes FK's `positions` and `orientations` and `p._moved_by`, the columns that move it.
    """
    n, root, q = it.q.size, it.root, it.q
    fk = forward_kinematics(p.chain, root, q)
    pos, quats = fk.positions, fk.orientations
    (kp_rows, kp_targets), (seg, a, b, seg_targets) = tg.keypoints, tg.segments
    n_rows = (3 * (kp_rows.size + a.size + len(tg.rotations)) + len(tg.angles)
              + p._pair_radii.size + n + (0 if prev is None else 6 + n))
    res = np.empty(n_rows)
    row, bounds = 3 * kp_rows.size, [0]  # each term's first row, then the end
    res[:row] = (pos[kp_rows] - it.g_scale * kp_targets).ravel()  # global
    bounds.append(row)
    vectors = pos[a] - pos[b]  # local: segment vectors
    res[row : row + 3 * a.size] = (
        vectors - (it.l_scales[seg] * it.g_scale)[:, None] * seg_targets).ravel()
    row += 3 * a.size
    angles = []  # (row, segment row i, segment row j, angle, |u|, |v|) of each angle row
    for i, j, ang_tg in tg.angles:  # local: the angle between segments u and v
        angle = _angle_between(vectors[i], vectors[j])
        if angle is None:
            continue  # no row: the rows after it move up, and the unused ones are trimmed
        angles.append((row, i, j, *angle))
        res[row] = angle[0] - ang_tg
        row += 1
    bounds.append(row)
    for f, q_tg in tg.rotations:  # ee_rotation
        res[row : row + 3] = _rotvec_between(q_tg, quats[f].tolist())
        row += 3
    bounds.append(row)
    centers, hinges = None, None  # hinges: the active pairs, their center gaps and distances
    if p._pair_radii.size:  # collision
        # spatial's one matrix formula; the stacked matmul keeps quat_to_matrix(q) @ offset's bits
        mats = np.reshape([_matrix_entries(r) for r in quats[p._sphere_rows].tolist()], (-1, 3, 3))
        centers = (mats @ p._sphere_offsets[:, :, None])[:, :, 0] + pos[p._sphere_rows]
        first, second = p._sphere_pairs
        d = centers[first] - centers[second]
        dist = np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0, 0]
        hinge = res[row : row + dist.size] = np.maximum(0.0, p._pair_radii - dist)
        active = np.flatnonzero((hinge > 0.0) & d.any(axis=1))  # in contact, centers apart
        hinges = (active, d[active], dist[active]) if active.size else None
        row += dist.size
    bounds.append(row)
    lo, hi = p._limits  # limit
    res[row : row + n] = np.maximum(0.0, lo - q) + np.maximum(0.0, q - hi)
    row += n
    bounds.append(row)
    if prev is not None:  # smooth
        prev_root, prev_q = prev
        res[row : row + 3] = root.position - prev_root.position
        res[row + 3 : row + 6] = quat_boxminus(root.orientation, prev_root.orientation)
        res[row + 6 : row + 6 + n] = q - prev_q
        row += 6 + n
    bounds.append(row)

    res = res[:row]
    report = ResidualReport({t: res[i:j] for t, i, j in zip(TERM_ORDER, bounds, bounds[1:])})
    if not np.all(np.isfinite(res)):
        bad = [t for t in TERM_ORDER if not np.all(np.isfinite(report.blocks[t]))]
        raise ValueError(f"non-finite residuals in terms: {bad}")
    weights = tg.row_weights.get(layout := tuple(bounds))
    if weights is None:  # a row layout this frame has not met: angle rows drop out
        weights = tg.row_weights[layout] = np.repeat(p._sqrt_weights, np.diff(layout))
    return res * weights, report, (pos, quats, res, vectors, angles, centers, hinges, bounds,
                                   weights)


def _jacobian(p: RetargetProblem, it: _FrameIterate, tg: _FrameTargets, kept: tuple) -> Array:
    """The derivative of `_residuals`' weighted residuals in `it.apply`'s increment, built
    from what that pass kept at `it`, term by term in TERM_ORDER, each in one stacked pass
    over its rows except the few angle and rotation rows.

    Each pose column is a twist: a turn w and the velocity v0 of the world origin, so a
    point p carried along moves by v0 + w x p. Joint k turns about its world axis a_k
    through its origin o_k (Murray, Li & Sastry 1994, 3.4), the root increment about the
    root.
    """
    pos, quats, res, vectors, angles, centers, hinges, bounds, weights = kept
    n, q, k0 = it.q.size, it.q, 6 if it.with_root else 0  # k0: the first joint column
    n_pose, dim = k0 + n, it.dim()
    w, v = quats[:n, 0], quats[:n, 1:].T
    twice = 2.0 * _cross(v, p._axes)  # a_k = q axis_k q^-1, column by column
    axes = p._axes + w * twice + _cross(v, twice)
    turn, origin = np.zeros((3, n_pose)), np.zeros((3, n_pose))
    turn[:, k0:], origin[:, k0:] = axes, _cross(pos[:n].T, axes)
    if k0:
        turn[:, 3:6], origin[:, :3], origin[:, 3:6] = np.eye(3), np.eye(3), _skew(it.root.position)
    moved_by = p._moved_by[:, 6 - k0 :]

    def carried(points: Array, frames) -> Array:
        """(m, 3, n_pose) columns of (m, 3) points carried by the frames at rows `frames`."""
        return (origin - _skew(points) @ turn) * moved_by[frames][:, None, :]

    frame_cols = carried(pos, slice(None))
    (kp_rows, kp_targets), (seg, a, b, seg_targets) = tg.keypoints, tg.segments
    jac = np.zeros((res.size, dim))
    jac[: bounds[1], :n_pose] = frame_cols[kp_rows].reshape(-1, n_pose)  # global
    segment_cols = frame_cols[a] - frame_cols[b]  # local: segment vectors
    local = jac[bounds[1] : bounds[1] + 3 * a.size].reshape(a.size, 3, dim)
    local[:, :, :n_pose] = segment_cols
    if it.with_scales:
        jac[: bounds[1], n_pose] = -kp_targets.ravel()
        local[:, :, n_pose] = -it.l_scales[seg, None] * seg_targets
        local[np.arange(a.size), :, n_pose + 1 + seg] = -it.g_scale * seg_targets
    for row, i, j, angle, nu, nv in angles:  # local: the angle between segments u and v
        sin = math.sin(angle)
        if sin >= 1e-12:  # below, the angle has no derivative
            c, u, v = math.cos(angle), vectors[i] / nu, vectors[j] / nv
            jac[row, :n_pose] = -((v - c * u) / nu @ segment_cols[i]
                                  + (u - c * v) / nv @ segment_cols[j]) / sin
    for row, (f, _) in zip(range(bounds[2], bounds[3], 3), tg.rotations):  # ee_rotation
        jac[row : row + 3, :n_pose] = (-_so3_inverse_jacobian(res[row : row + 3], 1.0)
                                       @ (turn * moved_by[f]))
    if hinges is not None:  # collision
        active, d, dist = hinges
        sphere_cols = carried(centers, p._sphere_rows)
        first, second = p._sphere_pairs[:, active]
        jac[bounds[3] + active, :n_pose] = (
            (-d / dist[:, None])[:, None, :] @ (sphere_cols[first] - sphere_cols[second]))[:, 0]
    (lo, hi), diag = p._limits, np.arange(n)  # limit
    jac[bounds[4] + diag, k0 + diag] = np.where(q < lo, -1.0, np.where(q > hi, 1.0, 0.0))
    if (row := bounds[5]) < bounds[6]:  # smooth
        jac[row + 6 + diag, k0 + diag] = 1.0
        if k0:
            jac[row : row + 3, :3] = np.eye(3)
            jac[row + 3 : row + 6, 3:6] = _so3_inverse_jacobian(res[row + 3 : row + 6], -1.0)
    return jac * weights[:, None]


def evaluate_residuals(p: RetargetProblem, x: RetargetSolution, frame: int) -> ResidualReport:
    """Raw residual blocks of one frame, in TERM_ORDER; `_residuals` states each term."""
    if not 0 <= frame < len(p.frames):
        raise ValueError(f"frame index {frame} out of range")
    if frame >= x.n_frames:
        raise ValueError("solution has no state for the requested frame")
    prev = (x.root_poses[frame - 1], x.joint_angles[frame - 1]) if frame > 0 else None
    n_seg = len(p.segments)  # a segment that `x` gives no scale has scale 1
    it = _FrameIterate(x.root_poses[frame], x.joint_angles[frame], x.global_scale,
                       np.concatenate((x.local_scales, np.ones(n_seg)))[:n_seg], False)
    return _residuals(p, it, _frame_targets(p, frame), prev)[1]


def _solve_frame(
    p: RetargetProblem, it: _FrameIterate, tg: _FrameTargets, prev: Optional[tuple[Pose, Array]]
) -> tuple[_FrameIterate, ResidualReport, list[float]]:
    """Levenberg-Marquardt over one frame's increment vector.

    Returns the final iterate, the residual report evaluated at it, and the frame's cost
    trace: the cost at the start, then the cost after each accepted step. Each LM pass
    builds the Jacobian of the iterate it starts from, so no trial that ends as rejected or
    final gets one; a trial is final once it converged or used up _LM_MAX_ITERS.
    """
    lam, done = 1e-3, False
    r, report, kept = _residuals(p, it, tg, prev)
    trace = [float(np.dot(r, r))]
    eye = np.eye(it.dim())
    while not done and len(trace) <= _LM_MAX_ITERS:  # each pass accepts one step or ends
        jac = _jacobian(p, it, tg, kept)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        cost = trace[-1]
        while lam <= 1e12:
            try:
                delta = np.linalg.solve(jtj + lam * eye, -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = it.apply(delta)
            r_trial, trial_report, trial_kept = _residuals(p, trial, tg, prev)
            trial_cost = float(np.dot(r_trial, r_trial))
            if trial_cost < cost:
                done = cost - trial_cost < _LM_REL_TOL * max(cost, 1e-30)
                it, r, report, kept = trial, r_trial, trial_report, trial_kept
                trace.append(trial_cost)
                lam = max(lam / 10.0, 1e-12)
                break
            lam *= 10.0
        else:  # no damping gave a lower cost
            done = True
    return it, report, trace


@np.errstate(over="ignore")  # a cost that overflows reads inf, which callers check
def solve_retarget(
    p: RetargetProblem, init: RetargetSolution, cost_trace: Optional[list] = None
) -> tuple[RetargetSolution, dict[str, float]]:
    """Sequential per-frame damped least-squares fit.

    Frame 0 starts from `init` (and solves the scales too when
    optimize_scales is set); every later frame warm-starts from its
    predecessor, with the smoothness residual tying them together. Joint
    angles are clamped into their limits on output; the reported per-term
    costs are evaluated at the converged pre-clamp states. When given,
    cost_trace gets one list per solved frame: its starting cost, then the
    cost after each accepted LM step.
    """
    if len(p.frames) == 0:
        raise ValueError("problem has no frames")
    n_seg = len(p.segments)
    l_scales = init.local_scales
    if l_scales.size == 0:
        l_scales = np.ones(n_seg)
    if l_scales.size != n_seg:
        raise ValueError("init local_scales must match the segment count")
    targets = [_frame_targets(p, frame) for frame in range(len(p.frames))]

    it = _FrameIterate(init.root_poses[0], init.joint_angles[0], init.global_scale,
                       l_scales.copy(), p.optimize_scales, not p.fix_root)
    roots: list[Pose] = []
    joints: list[Array] = []
    costs = {t: 0.0 for t in TERM_ORDER}
    prev: Optional[tuple[Pose, Array]] = None
    for frame, tg in enumerate(targets):
        if p.fix_root and frame < init.n_frames:
            it.root = init.root_poses[frame]
        it, report, trace = _solve_frame(p, it, tg, prev)
        if cost_trace is not None:
            cost_trace.append(trace)
        roots.append(it.root)
        joints.append(it.q)
        for t, block in report.blocks.items():
            costs[t] += p.weights.for_term(t) * float(np.dot(block, block))
        prev = (it.root, it.q)
        it = replace(it, with_scales=False)
    costs["total"] = sum(costs[t] for t in TERM_ORDER)
    clamped = np.stack([p.chain.clamp(q) for q in joints])
    solution = RetargetSolution(tuple(roots), clamped, it.g_scale, it.l_scales)
    return solution, costs


def _foot_heights(
    sol: RetargetSolution, chain: KinematicChain, feet_frames: Optional[Sequence[str]]
) -> Array:
    """(frames, feet) heights of the feet frames: those named, else the end effectors
    whose names hold 'foot' or 'ankle'."""
    names = list(feet_frames) if feet_frames is not None else [
        n for n in chain.end_effector_names() if "foot" in n.lower() or "ankle" in n.lower()]
    if not names:
        raise ValueError("no feet frames found on the chain")
    rows = [chain.frame_rows[name] for name in names]
    return np.array([forward_kinematics(chain, root, q).positions[rows, 2]
                     for root, q in zip(sol.root_poses, sol.joint_angles)]).reshape(-1, len(rows))


def align_to_ground(
    sol: RetargetSolution,
    chain: KinematicChain,
    feet_frames: Optional[Sequence[str]] = None,
) -> RetargetSolution:
    """Shift the whole clip vertically so the lowest foot sample sits at z = 0."""
    shift = float(np.min(_foot_heights(sol, chain, feet_frames)))
    roots = tuple(Pose(r.position - np.array([0.0, 0.0, shift]), r.orientation)
                  for r in sol.root_poses)
    return replace(sol, root_poses=roots)


def extract_contacts(
    sol: RetargetSolution,
    chain: KinematicChain,
    threshold: float,
    feet_frames: Optional[Sequence[str]] = None,
) -> Array:
    """Per-frame binary foot contacts: 1 where foot height < threshold."""
    threshold = _value(threshold, POSITIVE, "threshold")
    return (_foot_heights(sol, chain, feet_frames) < threshold).astype(int)


def solution_to_clip(
    sol: RetargetSolution,
    times: Sequence[float],
    hit_times: Sequence[float] = (),
    recovery_times: Sequence[float] = (),
) -> ReferenceClip:
    """Convert a solved motion to the reference-clip format.

    Root velocities are central finite differences (one-sided at the ends,
    zero for a one-frame clip).
    """
    times = np.asarray(times, dtype=np.float64)
    if times.size != sol.n_frames:
        raise ValueError("need one timestamp per frame")
    n, poses = sol.n_frames, sol.root_poses
    lo, hi = np.maximum(np.arange(n) - 1, 0), np.minimum(np.arange(n) + 1, n - 1)
    dt = (times[hi] - times[lo])[:, None]
    positions = np.array([pose.position for pose in poses]).reshape(n, 3)
    turns = np.array([quat_boxminus(poses[b].orientation, poses[a].orientation)
                      for a, b in zip(lo.tolist(), hi.tolist())]).reshape(n, 3)
    lin, ang = (np.divide(d, dt, out=np.zeros_like(d), where=dt > 0)
                for d in (positions[hi] - positions[lo], turns))
    frames = map(ClipFrame, times.tolist(), poses, lin, ang, sol.joint_angles)
    return ReferenceClip(tuple(frames), tuple(hit_times), tuple(recovery_times))


# ---------------------------------------------------------------------------
# File formats


FRAME = {  # racket_quat targets the orientation of the problem's racket_frame
    "t": (REQUIRED, float), "keypoints": (REQUIRED, {str: (3,)}),
    "rotations": ({}, {str: (4,)}), "racket_quat": (None, (4,)),
}
SPHERE = {"frame": (REQUIRED, str), "offset": (REQUIRED, (3,)), "radius": (REQUIRED, POSITIVE)}
INIT = {  # absent joint angles start mid-range
    "q": (None, [float]), "root_pos": ((0.0, 0.0, 0.0), (3,)),
    "root_quat": ((1.0, 0.0, 0.0, 0.0), (4,)),
}
PROBLEM = {
    "chain": (None, CHAIN), "chain_file": (None, str),
    "keypoint_map": (REQUIRED, {str: str}), "frames": (REQUIRED, [FRAME]),
    "segments": ([], [[str]]),
    "weights": ({}, {f.name: (f.default, NON_NEGATIVE) for f in fields(RetargetWeights)}),
    "collision_spheres": ([], [SPHERE]), "racket_frame": (None, str),
    "optimize_scales": (False, bool), "fix_root": (False, bool), "init": ({}, INIT),
}


def problem_from_dict(
    data, base_dir: str = "", chain: Optional[KinematicChain] = None
) -> tuple[RetargetProblem, RetargetSolution]:
    """The problem the JSON object `data` holds, and the initial guess its `init` key
    gives. A `chain_file` is read relative to `base_dir`; `chain` serves a problem
    that names no chain."""
    v = _check(data, PROBLEM)
    if v["chain"] is not None:
        chain = chain_from_dict(v["chain"])
    elif v["chain_file"] is not None:
        chain = load_chain(os.path.join(base_dir, v["chain_file"]))
    elif chain is None:
        raise ValueError("the problem sets neither 'chain' nor 'chain_file', and no chain is given")
    frames = []
    for i, f in enumerate(v["frames"]):
        if f["racket_quat"] is not None:
            if v["racket_frame"] is None:
                raise ValueError(f"frames[{i}].racket_quat is set but no racket_frame is")
            f["rotations"][v["racket_frame"]] = f["racket_quat"]
        frames.append(KeypointFrame(f["t"], f["keypoints"], f["rotations"]))
    problem = RetargetProblem(
        chain, v["keypoint_map"], tuple(frames), v["segments"], RetargetWeights(**v["weights"]),
        tuple(CollisionSphere(**s) for s in v["collision_spheres"]),
        v["optimize_scales"], v["fix_root"],
    )
    init, lims = v["init"], chain.joint_limits()
    q0 = (0.5 * (lims[:, 0] + lims[:, 1]) if init["q"] is None
          else _numbers(init["q"], (chain.n_joints,), "init.q"))
    root = Pose(init["root_pos"], _quat(init["root_quat"], "init.root_quat"))
    n = len(frames)
    return problem, RetargetSolution(
        (root,) * n, np.tile(q0, (n, 1)), local_scales=np.ones(len(problem.segments))
    )
