"""Optimization-based motion retargeting onto a kinematic chain.

Each frame is solved as a damped least-squares problem over the root pose
and joint angles (root orientation updated through rotation-vector
increments), warm-started from the previous solved frame and tied to it by
a smoothness residual. One pass over the cost terms writes each term's
residual rows and analytic Jacobian rows together. Morphological scales
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
    _numbers,
    _quat,
    _rotvec_between,
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
            w = getattr(self, f.name)
            if not 0.0 <= w < math.inf:
                raise ValueError(f"weights key {f.name!r} must be finite and non-negative, got {w}")

    def for_term(self, term: str) -> float:
        return {
            "global": self.global_pos,
            "local": self.local_shape,
            "ee_rotation": self.ee_rotation,
            "collision": self.collision,
            "limit": self.joint_limit,
            "smooth": self.smoothness,
        }[term]


@dataclass(frozen=True)
class CollisionSphere:
    frame: str
    offset: Array
    radius: float

    def __post_init__(self):
        object.__setattr__(
            self, "offset", _vec3(self.offset, f"collision sphere offset on frame {self.frame!r}")
        )
        if not 0.0 < self.radius < math.inf:
            raise ValueError(
                f"collision sphere radius on frame {self.frame!r} must be positive and finite, "
                f"got {self.radius}"
            )


@dataclass(frozen=True)
class KeypointFrame:
    """Per-frame targets: named keypoint positions and frame orientations."""

    t: float
    keypoints: dict[str, Array]
    rotations: dict[str, Array] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self,
            "keypoints",
            {k: _vec3(v, f"keypoint {k!r}") for k, v in self.keypoints.items()},
        )
        object.__setattr__(
            self,
            "rotations",
            {k: np.asarray(v, dtype=np.float64) for k, v in self.rotations.items()},
        )


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
            if not math.isfinite(kf.t):
                raise ValueError(f"frame {i} has a non-finite time t = {kf.t}")
            if i and not kf.t > self.frames[i - 1].t:
                raise ValueError(
                    f"frame times must be strictly increasing: frame {i} has t = {kf.t} "
                    f"after t = {self.frames[i - 1].t}"
                )
        frame_names = {j.name for j in self.chain.joints}
        frame_names.update(self.chain.end_effector_names())
        for kp, frame in self.keypoint_map.items():
            if frame not in frame_names:
                raise ValueError(f"keypoint_map.{kp} names no chain frame")
        for i, kf in enumerate(self.frames):
            for kp in kf.keypoints:
                if kp not in self.keypoint_map:
                    raise ValueError(f"frames[{i}].keypoints.{kp} has no mapping in keypoint_map")
            for name in kf.rotations:
                if name not in frame_names:
                    raise ValueError(f"frames[{i}].rotations.{name} names no chain frame")
        for i, seg in enumerate(self.segments):
            if len(seg) != 2 or not set(seg) <= self.keypoint_map.keys():
                raise ValueError(f"segments[{i}] must be a pair of mapped keypoints, got {seg}")
        for i, sphere in enumerate(self.collision_spheres):
            if sphere.frame not in frame_names:
                raise ValueError(f"collision_spheres[{i}].frame names no chain frame")
        object.__setattr__(self, "_rotation_targets", tuple(
            tuple((name, _quat(kf.rotations[name], f"frames[{i}].rotations.{name}").tolist())
                  for name in sorted(kf.rotations)) for i, kf in enumerate(self.frames)))
        # what the residuals and their Jacobian need of the problem alone, built once;
        # a frame is moved by the root's six increments and by its ancestor joints
        segs, spheres = self.segments, self.collision_spheres
        chain_frames, n = self.chain.joints + self.chain.end_effectors, self.chain.n_joints
        moved_by = np.ones((len(chain_frames), 6 + n))
        for i, frame in enumerate(chain_frames):
            moved_by[i, 6:] = 0.0 if frame.parent < 0 else moved_by[frame.parent, 6:]
            if i < n:  # a joint's own angle moves its frame
                moved_by[i, 6 + i] = 1.0
        object.__setattr__(self, "_frame_index", {f.name: i for i, f in enumerate(chain_frames)})
        object.__setattr__(self, "_moved_by", moved_by)
        object.__setattr__(self, "_axes", np.array([j.axis for j in chain_frames[:n]]).reshape(n, 3))
        object.__setattr__(self, "_limits", self.chain.joint_limits().T)
        object.__setattr__(self, "_adjacent_segments", tuple(
            (i, j) for i in range(len(segs)) for j in range(i + 1, len(segs))
            if len(set(segs[i]) & set(segs[j])) == 1
        ))
        object.__setattr__(self, "_sphere_pairs", tuple(
            (i, j, spheres[i].radius + spheres[j].radius)
            for i in range(len(spheres)) for j in range(i + 1, len(spheres))
            if spheres[i].frame != spheres[j].frame
        ))
        object.__setattr__(self, "_sqrt_weights", tuple(
            np.sqrt(self.weights.for_term(t)) for t in TERM_ORDER
        ))


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
        object.__setattr__(self, "joint_angles", q)
        scales = np.asarray(self.local_scales, dtype=np.float64)
        if self.global_scale <= 0 or np.any(scales <= 0):
            raise ValueError("scales must be positive")
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
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < 1e-9 or nv < 1e-9:
        return None
    return float(np.arccos(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))), nu, nv


@dataclass(frozen=True)
class _FrameTargets:
    """One frame's targets in residual order."""

    keypoints: tuple  # (chain frame, target position), by keypoint name
    segments: dict  # segment index -> (chain frame a, chain frame b, target a - b)
    angles: tuple  # (segment i, segment j, target angle) of adjacent segments
    rotations: tuple  # (chain frame, unit target quaternion as floats), by frame name


def _frame_targets(p: RetargetProblem, frame: int) -> _FrameTargets:
    kf = p.frames[frame]
    segments = {
        si: (p.keypoint_map[a], p.keypoint_map[b], kf.keypoints[a] - kf.keypoints[b])
        for si, (a, b) in enumerate(p.segments)
        if a in kf.keypoints and b in kf.keypoints
    }
    angles = [
        (i, j, _angle_between(segments[i][2], segments[j][2]))
        for i, j in p._adjacent_segments if i in segments and j in segments
    ]
    return _FrameTargets(
        tuple((p.keypoint_map[kp], kf.keypoints[kp]) for kp in sorted(kf.keypoints)),
        segments,
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
        n = self.q.size
        root = self.root
        k = 0
        if self.with_root:
            root = Pose(
                self.root.position + delta[:3],
                quat_boxplus(self.root.orientation, delta[3:6]),
            )
            k = 6
        q = self.q + delta[k : k + n]
        g_scale, l_scales = self.g_scale, self.l_scales
        if self.with_scales:
            g_scale = float(np.clip(self.g_scale + delta[k + n], *GLOBAL_SCALE_BOUNDS))
            l_scales = np.clip(
                self.l_scales + delta[k + n + 1 :], *LOCAL_SCALE_BOUNDS
            )
        return _FrameIterate(root, q, g_scale, l_scales, self.with_scales, self.with_root)


def _skew(v: Array) -> Array:
    """[v]x of each (..., 3) row of v, as (..., 3, 3): [v]x w = v x w."""
    out = np.zeros(v.shape + (3,))
    out[..., [2, 0, 1], [1, 2, 0]] = v
    out[..., [1, 2, 0], [2, 0, 1]] = -v
    return out


def _so3_inverse_jacobian(phi: Array, side: float) -> Array:
    """J_r^-1(phi) for side +1 and J_l^-1(phi) for side -1 (Sola et al. 2018, "A micro
    Lie theory"): to first order, log(exp(phi) exp(e)) = phi + J_r^-1 e and
    log(exp(e) exp(phi)) = phi + J_l^-1 e."""
    theta = math.sqrt(float(phi @ phi))
    k = _skew(phi)
    coef = (1.0 / 12.0 if theta < 1e-4 else
            1.0 / theta**2 - (1.0 + math.cos(theta)) / (2.0 * theta * math.sin(theta)))
    return np.eye(3) + 0.5 * side * k + coef * (k @ k)


def _linearize(
    p: RetargetProblem, it: _FrameIterate, tg: _FrameTargets,
    prev: Optional[tuple[Pose, Array]], jacobian: bool = True,
) -> tuple[Array, ResidualReport, Optional[Array]]:
    """The weighted residuals at `it`, their unweighted blocks and, when `jacobian` is
    set, their derivative in `it.apply`'s increment (else None). One pass over the
    terms, in TERM_ORDER, writes each term's residual rows and Jacobian rows together:

    global: FK keypoint minus globally scaled target position.
    local:  segment vectors vs scaled target segment vectors, plus the
            angle between adjacent segments vs the target angle (no row
            while either segment is shorter than 1e-9).
    ee_rotation: rotation-vector error log(R_target R^T) of targeted frame orientations.
    collision: pairwise hinge max(0, r_i + r_j - distance).
    limit: hinge beyond each joint's [lo, hi].
    smooth: finite difference of root pose and joints vs the previous
            frame (empty on frame 0).

    Each pose column is a twist: a turn w and the velocity v0 of the world origin, so a
    point p carried along moves by v0 + w x p. Joint k turns about its world axis a_k
    through its origin o_k (Murray, Li & Sastry 1994, 3.4), the root increment about the
    root; a frame is moved only by the columns `p._moved_by` gives it.
    """
    n, index, root, q = it.q.size, p._frame_index, it.root, it.q
    poses = list(forward_kinematics(p.chain, root, q).values())  # in `p._frame_index` order
    pos = np.array([f.position for f in poses])
    rows = (3 * (len(tg.keypoints) + len(tg.segments) + len(tg.rotations)) + len(tg.angles)
            + len(p._sphere_pairs) + n + (0 if prev is None else 6 + n))
    res, jac = np.empty(rows), None
    k0 = 6 if it.with_root else 0  # the first joint column
    n_pose = k0 + n
    if jacobian:
        quats = np.array([f.orientation for f in poses[:n]]).reshape(n, 4)
        twice = 2.0 * np.cross(quats[:, 1:], p._axes)  # a_k = q axis_k q^-1, row by row
        axes = p._axes + quats[:, :1] * twice + np.cross(quats[:, 1:], twice)
        turn, origin = np.zeros((3, n_pose)), np.zeros((3, n_pose))
        turn[:, k0:], origin[:, k0:] = axes.T, np.cross(pos[:n], axes).T
        if k0:
            turn[:, 3:6], origin[:, :3], origin[:, 3:6] = np.eye(3), np.eye(3), _skew(root.position)
        moved_by = p._moved_by[:, 6 - k0 :]

        def carried(points: Array, frames) -> Array:
            """(m, 3, n_pose) columns of (m, 3) points carried by the given frames."""
            return (origin - _skew(points) @ turn) * moved_by[frames][:, None, :]

        frame_cols = carried(pos, slice(None))
        jac = np.zeros((rows, it.dim()))

    row, bounds = 0, [0]  # each term's first row, then the end
    for name, target in tg.keypoints:  # global
        res[row : row + 3] = pos[index[name]] - it.g_scale * target
        if jacobian:
            jac[row : row + 3, :n_pose] = frame_cols[index[name]]
            if it.with_scales:
                jac[row : row + 3, n_pose] = -target
        row += 3
    bounds.append(row)
    segments = {}  # segment index -> (FK segment vector, its Jacobian rows)
    for si, (a, b, vec_tg) in tg.segments.items():  # local: segment vectors
        u = pos[index[a]] - pos[index[b]]
        segments[si] = u, frame_cols[index[a]] - frame_cols[index[b]] if jacobian else None
        s_l = it.l_scales[si] if si < it.l_scales.size else 1.0
        res[row : row + 3] = u - s_l * it.g_scale * vec_tg
        if jacobian:
            jac[row : row + 3, :n_pose] = segments[si][1]
            if it.with_scales:
                jac[row : row + 3, n_pose] = -it.l_scales[si] * vec_tg
                jac[row : row + 3, n_pose + 1 + si] = -it.g_scale * vec_tg
        row += 3
    for i, j, ang_tg in tg.angles:  # local: the angle between segments u and v
        (u, ju), (v, jv) = segments[i], segments[j]
        angle = _angle_between(u, v)
        if angle is None:
            continue  # no row: the rows after it move up, and the unused ones are trimmed
        angle, nu, nv = angle
        res[row] = angle - ang_tg
        sin = math.sin(angle)
        if jacobian and sin >= 1e-12:  # below, the angle has no derivative
            c, u, v = math.cos(angle), u / nu, v / nv
            jac[row, :n_pose] = -((v - c * u) / nu @ ju + (u - c * v) / nv @ jv) / sin
        row += 1
    bounds.append(row)
    for name, q_tg in tg.rotations:  # ee_rotation
        res[row : row + 3] = _rotvec_between(q_tg, poses[index[name]].orientation.tolist())
        if jacobian:
            jac[row : row + 3, :n_pose] = (-_so3_inverse_jacobian(res[row : row + 3], 1.0)
                                           @ (turn * moved_by[index[name]]))
        row += 3
    bounds.append(row)
    if p._sphere_pairs:  # collision
        frames = [index[s.frame] for s in p.collision_spheres]
        centers = np.array([poses[f].transform_point(s.offset)
                            for f, s in zip(frames, p.collision_spheres)])
        sphere_cols = carried(centers, frames) if jacobian else None
        for i, j, radii in p._sphere_pairs:
            d = centers[i] - centers[j]
            dist = float(np.linalg.norm(d))
            res[row] = max(0.0, radii - dist)
            if jacobian and res[row] > 0.0 and d.any():
                jac[row, :n_pose] = -d / dist @ (sphere_cols[i] - sphere_cols[j])
            row += 1
    bounds.append(row)
    lo, hi = p._limits  # limit
    diag = np.arange(n)
    res[row : row + n] = np.maximum(0.0, lo - q) + np.maximum(0.0, q - hi)
    if jacobian:
        jac[row + diag, k0 + diag] = np.where(q < lo, -1.0, np.where(q > hi, 1.0, 0.0))
    row += n
    bounds.append(row)
    if prev is not None:  # smooth
        prev_root, prev_q = prev
        res[row : row + 3] = root.position - prev_root.position
        res[row + 3 : row + 6] = quat_boxminus(root.orientation, prev_root.orientation)
        res[row + 6 : row + 6 + n] = q - prev_q
        if jacobian:
            jac[row + 6 + diag, k0 + diag] = 1.0
            if k0:
                jac[row : row + 3, :3] = np.eye(3)
                jac[row + 3 : row + 6, 3:6] = _so3_inverse_jacobian(res[row + 3 : row + 6], -1.0)
        row += 6 + n
    bounds.append(row)

    res = res[:row]
    report = ResidualReport({t: res[a:b] for t, a, b in zip(TERM_ORDER, bounds, bounds[1:])})
    if not np.all(np.isfinite(res)):
        bad = [t for t in TERM_ORDER if not np.all(np.isfinite(report.blocks[t]))]
        raise ValueError(f"non-finite residuals in terms: {bad}")
    weights = np.repeat(p._sqrt_weights, [b - a for a, b in zip(bounds, bounds[1:])])
    if jacobian:
        jac = jac[:row] * weights[:, None]
    return res * weights, report, jac


def evaluate_residuals(
    p: RetargetProblem, x: RetargetSolution, frame: int
) -> ResidualReport:
    """Raw residual blocks of one frame, in TERM_ORDER; `_linearize` states each term."""
    if not 0 <= frame < len(p.frames):
        raise ValueError(f"frame index {frame} out of range")
    if frame >= x.n_frames:
        raise ValueError("solution has no state for the requested frame")
    prev = (x.root_poses[frame - 1], x.joint_angles[frame - 1]) if frame > 0 else None
    it = _FrameIterate(x.root_poses[frame], x.joint_angles[frame], x.global_scale,
                       x.local_scales, False)
    return _linearize(p, it, _frame_targets(p, frame), prev, jacobian=False)[1]


def _solve_frame(
    p: RetargetProblem,
    it: _FrameIterate,
    tg: _FrameTargets,
    prev: Optional[tuple[Pose, Array]],
    cost_trace: Optional[list] = None,
) -> tuple[_FrameIterate, ResidualReport]:
    """Levenberg-Marquardt over one frame's increment vector.

    Returns the final iterate and the residual report evaluated at it. Every trial is
    linearized with its Jacobian, which the next step uses if the trial is accepted.
    """
    lam = 1e-3
    r, report, jac = _linearize(p, it, tg, prev)
    cost = float(np.dot(r, r))
    if cost_trace is not None:
        cost_trace.append(cost)
    dim = it.dim()
    for _ in range(_LM_MAX_ITERS):
        jtj = jac.T @ jac
        jtr = jac.T @ r
        while lam <= 1e12:
            try:
                delta = np.linalg.solve(jtj + lam * np.eye(dim), -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = it.apply(delta)
            r_trial, trial_report, trial_jac = _linearize(p, trial, tg, prev)
            trial_cost = float(np.dot(r_trial, r_trial))
            if trial_cost < cost:
                converged = cost - trial_cost < _LM_REL_TOL * max(cost, 1e-30)
                it, r, cost, report, jac = trial, r_trial, trial_cost, trial_report, trial_jac
                if cost_trace is not None:
                    cost_trace.append(cost)
                lam = max(lam / 10.0, 1e-12)
                if converged:
                    return it, report
                break
            lam *= 10.0
        else:  # no damping gave a lower cost
            return it, report
    return it, report


def solve_retarget(
    p: RetargetProblem,
    init: RetargetSolution,
    cost_trace: Optional[list] = None,
) -> tuple[RetargetSolution, dict[str, float]]:
    """Sequential per-frame damped least-squares fit.

    Frame 0 starts from `init` (and solves the scales too when
    optimize_scales is set); every later frame warm-starts from its
    predecessor, with the smoothness residual tying them together. Joint
    angles are clamped into their limits on output; the reported per-term
    costs are evaluated at the converged pre-clamp states. When given,
    cost_trace collects one list of accepted costs per frame.
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

    it = _FrameIterate(
        root=init.root_poses[0],
        q=init.joint_angles[0].copy(),
        g_scale=init.global_scale,
        l_scales=l_scales.copy(),
        with_scales=p.optimize_scales,
        with_root=not p.fix_root,
    )
    roots: list[Pose] = []
    joints: list[Array] = []
    costs = {t: 0.0 for t in TERM_ORDER}
    prev: Optional[tuple[Pose, Array]] = None
    for frame, tg in enumerate(targets):
        if p.fix_root and frame < init.n_frames:
            it.root = init.root_poses[frame]
        frame_trace: Optional[list] = None
        if cost_trace is not None:
            frame_trace = []
            cost_trace.append(frame_trace)
        it, report = _solve_frame(p, it, tg, prev, cost_trace=frame_trace)
        roots.append(it.root)
        joints.append(it.q.copy())
        for t, block in report.blocks.items():
            costs[t] += p.weights.for_term(t) * float(np.dot(block, block))
        prev = (it.root, it.q.copy())
        it = _FrameIterate(
            it.root, it.q.copy(), it.g_scale, it.l_scales, False, not p.fix_root
        )
    costs["total"] = sum(costs[t] for t in TERM_ORDER)
    clamped = np.stack([p.chain.clamp(q) for q in joints])
    solution = RetargetSolution(tuple(roots), clamped, it.g_scale, it.l_scales)
    return solution, costs


def _feet_frame_names(
    chain: KinematicChain, feet_frames: Optional[Sequence[str]]
) -> list[str]:
    if feet_frames is not None:
        names = list(feet_frames)
    else:
        names = [
            n
            for n in chain.end_effector_names()
            if "foot" in n.lower() or "ankle" in n.lower()
        ]
    if not names:
        raise ValueError("no feet frames found on the chain")
    return names


def _foot_heights(
    sol: RetargetSolution, chain: KinematicChain, names: Sequence[str]
) -> Array:
    heights = np.empty((sol.n_frames, len(names)))
    for i in range(sol.n_frames):
        fk = forward_kinematics(chain, sol.root_poses[i], sol.joint_angles[i])
        for k, name in enumerate(names):
            heights[i, k] = fk[name].position[2]
    return heights


def align_to_ground(
    sol: RetargetSolution,
    chain: KinematicChain,
    feet_frames: Optional[Sequence[str]] = None,
) -> RetargetSolution:
    """Shift the whole clip vertically so the lowest foot sample sits at z = 0."""
    names = _feet_frame_names(chain, feet_frames)
    shift = float(np.min(_foot_heights(sol, chain, names)))
    roots = tuple(
        Pose(r.position - np.array([0.0, 0.0, shift]), r.orientation)
        for r in sol.root_poses
    )
    return replace(sol, root_poses=roots)


def extract_contacts(
    sol: RetargetSolution,
    chain: KinematicChain,
    threshold: float,
    feet_frames: Optional[Sequence[str]] = None,
) -> Array:
    """Per-frame binary foot contacts: 1 where foot height < threshold."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    names = _feet_frame_names(chain, feet_frames)
    heights = _foot_heights(sol, chain, names)
    return (heights < threshold).astype(int)


def solution_to_clip(
    sol: RetargetSolution,
    times: Sequence[float],
    hit_times: Sequence[float] = (),
    recovery_times: Sequence[float] = (),
) -> ReferenceClip:
    """Convert a solved motion to the reference-clip format.

    Root velocities are computed by central finite differences (one-sided
    at the ends).
    """
    times = np.asarray(times, dtype=np.float64)
    if times.size != sol.n_frames:
        raise ValueError("need one timestamp per frame")
    n = sol.n_frames
    frames = []
    for i in range(n):
        lo, hi = max(i - 1, 0), min(i + 1, n - 1)
        dt = times[hi] - times[lo]
        if dt <= 0:
            lin = np.zeros(3)
            ang = np.zeros(3)
        else:
            lin = (sol.root_poses[hi].position - sol.root_poses[lo].position) / dt
            ang = (
                quat_boxminus(
                    sol.root_poses[hi].orientation, sol.root_poses[lo].orientation
                )
                / dt
            )
        frames.append(
            ClipFrame(
                t=float(times[i]),
                root=sol.root_poses[i],
                root_lin=lin,
                root_ang=ang,
                q=sol.joint_angles[i],
            )
        )
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
