"""Optimization-based motion retargeting onto a kinematic chain.

Each frame is solved as a damped least-squares problem over the root pose
and joint angles (root orientation updated through rotation-vector
increments), warm-started from the previous solved frame and tied to it by
a smoothness residual. Morphological scales (one global, one per segment)
can be solved jointly on the first frame and are then held fixed.
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
                raise ValueError(f"keypoint {kp!r} maps to unknown frame {frame!r}")
        for i, seg in enumerate(self.segments):
            if len(seg) != 2 or not set(seg) <= self.keypoint_map.keys():
                raise ValueError(f"segments[{i}] must be a pair of mapped keypoints, got {seg}")
        for sphere in self.collision_spheres:
            if sphere.frame not in frame_names:
                raise ValueError(f"collision sphere on unknown frame {sphere.frame!r}")
        # what the residuals need of the problem alone, built once
        segs, spheres = self.segments, self.collision_spheres
        object.__setattr__(self, "_frame_names", frame_names)
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

    def stacked(self) -> Array:
        return np.concatenate([self.blocks[t] for t in TERM_ORDER])


def _angle_between(u: Array, v: Array) -> Optional[float]:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < 1e-9 or nv < 1e-9:
        return None
    return float(np.arccos(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0)))


@dataclass(frozen=True)
class _FrameTargets:
    """One frame's targets in residual order, checked against the problem."""

    keypoints: tuple  # (chain frame, target position), by keypoint name
    segments: dict  # segment index -> (chain frame a, chain frame b, target a - b)
    angles: tuple  # (segment i, segment j, target angle) of adjacent segments
    rotations: tuple  # (chain frame, unit target quaternion as floats), by frame name


def _frame_targets(p: RetargetProblem, frame: int) -> _FrameTargets:
    kf = p.frames[frame]
    for kp in kf.keypoints:
        if kp not in p.keypoint_map:
            raise ValueError(f"keypoint {kp!r} has no mapping onto the chain")
    rotations = []
    for name in sorted(kf.rotations):
        if name not in p._frame_names:
            raise ValueError(f"rotation target on unknown frame {name!r}")
        rotations.append((name, _quat(kf.rotations[name], f"rotation target {name!r}").tolist()))
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
        tuple(a for a in angles if a[2] is not None),
        tuple(rotations),
    )


def _frame_blocks(
    p: RetargetProblem, tg: _FrameTargets, root: Pose, q: Array, g_scale: float,
    l_scales: Array, prev: Optional[tuple[Pose, Array]],
) -> ResidualReport:
    fk = forward_kinematics(p.chain, root, q)
    g_block = [fk[name].position - g_scale * target for name, target in tg.keypoints]
    g_res = np.concatenate(g_block) if g_block else np.zeros(0)

    l_block = []
    seg_fk: dict[int, Array] = {}
    for si, (a, b, vec_tg) in tg.segments.items():
        seg_fk[si] = vec_fk = fk[a].position - fk[b].position
        s_l = l_scales[si] if si < l_scales.size else 1.0
        l_block.append(vec_fk - s_l * g_scale * vec_tg)
    for i, j, ang_tg in tg.angles:
        ang_fk = _angle_between(seg_fk[i], seg_fk[j])
        if ang_fk is not None:
            l_block.append(np.array([ang_fk - ang_tg]))
    l_res = np.concatenate(l_block) if l_block else np.zeros(0)

    r_res = np.array([
        _rotvec_between(q_tg, fk[name].orientation.tolist()) for name, q_tg in tg.rotations
    ]).ravel()

    centers = [fk[s.frame].transform_point(s.offset) for s in p.collision_spheres]
    c_res = np.array([
        max(0.0, radii - float(np.linalg.norm(centers[i] - centers[j])))
        for i, j, radii in p._sphere_pairs
    ])

    lo, hi = p._limits
    lim_res = np.maximum(0.0, lo - q) + np.maximum(0.0, q - hi)

    if prev is None:
        s_res = np.zeros(0)
    else:
        prev_root, prev_q = prev
        s_res = np.concatenate(
            [
                root.position - prev_root.position,
                quat_boxminus(root.orientation, prev_root.orientation),
                q - prev_q,
            ]
        )

    return ResidualReport(dict(zip(TERM_ORDER, (g_res, l_res, r_res, c_res, lim_res, s_res))))


def evaluate_residuals(
    p: RetargetProblem, x: RetargetSolution, frame: int
) -> ResidualReport:
    """Raw residual blocks of one frame, in fixed term order.

    global: FK keypoint minus globally scaled target position.
    local:  segment vectors vs scaled target segment vectors, plus the
            angle between adjacent segments vs the target angle.
    ee_rotation: rotation-vector error of targeted frame orientations.
    collision: pairwise hinge max(0, r_i + r_j - distance).
    limit: hinge beyond each joint's [lo, hi].
    smooth: finite difference of root pose and joints vs the previous
            frame (empty on frame 0).
    """
    if not 0 <= frame < len(p.frames):
        raise ValueError(f"frame index {frame} out of range")
    if frame >= x.n_frames:
        raise ValueError("solution has no state for the requested frame")
    prev = None
    if frame > 0:
        prev = (x.root_poses[frame - 1], x.joint_angles[frame - 1])
    return _frame_blocks(p, _frame_targets(p, frame), x.root_poses[frame],
                         x.joint_angles[frame], x.global_scale, x.local_scales, prev)


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


def _weighted_residuals(
    p: RetargetProblem,
    it: _FrameIterate,
    tg: _FrameTargets,
    prev: Optional[tuple[Pose, Array]],
) -> tuple[Array, ResidualReport]:
    report = _frame_blocks(p, tg, it.root, it.q, it.g_scale, it.l_scales, prev)
    stacked = report.stacked()
    if not np.all(np.isfinite(stacked)):
        bad = [t for t in TERM_ORDER if not np.all(np.isfinite(report.blocks[t]))]
        raise ValueError(f"non-finite residuals in terms: {bad}")
    weighted = [w * report.blocks[t] for w, t in zip(p._sqrt_weights, TERM_ORDER)]
    return np.concatenate(weighted), report


def _solve_frame(
    p: RetargetProblem,
    it: _FrameIterate,
    tg: _FrameTargets,
    prev: Optional[tuple[Pose, Array]],
    cost_trace: Optional[list] = None,
) -> tuple[_FrameIterate, ResidualReport]:
    """Levenberg-Marquardt over one frame's increment vector.

    Returns the final iterate and the residual report evaluated at it.
    """
    h = 1e-6
    lam = 1e-3
    r, report = _weighted_residuals(p, it, tg, prev)
    cost = float(np.dot(r, r))
    if cost_trace is not None:
        cost_trace.append(cost)
    dim = it.dim()
    for _ in range(_LM_MAX_ITERS):
        jac = np.zeros((r.size, dim))
        for k in range(dim):
            dplus = np.zeros(dim)
            dplus[k] = h
            r_plus = _weighted_residuals(p, it.apply(dplus), tg, prev)[0]
            dplus[k] = -h
            r_minus = _weighted_residuals(p, it.apply(dplus), tg, prev)[0]
            jac[:, k] = (r_plus - r_minus) / (2.0 * h)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        accepted = False
        while lam <= 1e12:
            try:
                delta = np.linalg.solve(jtj + lam * np.eye(dim), -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = it.apply(delta)
            r_trial, trial_report = _weighted_residuals(p, trial, tg, prev)
            trial_cost = float(np.dot(r_trial, r_trial))
            if trial_cost < cost:
                converged = cost - trial_cost < _LM_REL_TOL * max(cost, 1e-30)
                it, r, cost, report = trial, r_trial, trial_cost, trial_report
                if cost_trace is not None:
                    cost_trace.append(cost)
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                if converged:
                    return it, report
                break
            lam *= 10.0
        if not accepted:
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
    data, base_dir=None, chain: Optional[KinematicChain] = None
) -> RetargetProblem:
    """The problem the JSON object `data` holds; `chain` serves one that names none."""
    return _problem_and_init(data, base_dir, chain)[0]


def _problem_and_init(data, base_dir=None, chain: Optional[KinematicChain] = None):
    """problem_from_dict's problem, and the initial guess its `init` key gives."""
    v = _check(data, PROBLEM)
    if v["chain"] is not None:
        chain = chain_from_dict(v["chain"])
    elif v["chain_file"] is not None:
        path = v["chain_file"] if base_dir is None else os.path.join(base_dir, v["chain_file"])
        try:
            chain = load_chain(path)
        except ValueError as exc:
            raise ValueError(f"chain_file {path}: {exc}") from exc
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
    try:
        root = Pose(init["root_pos"], init["root_quat"])
    except ValueError as exc:
        raise ValueError(f"init.root_quat: {exc}") from exc
    n = len(frames)
    return problem, RetargetSolution(
        (root,) * n, np.tile(q0, (n, 1)), local_scales=np.ones(len(problem.segments))
    )
