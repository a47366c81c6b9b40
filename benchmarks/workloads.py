"""The four benchmark workloads and their input generators.

Each workload builds all of its inputs from the seed in its constructor
(the timed set-up), then runs numbered units. A unit is one op, except in
retarget_clip, where one unit solves a short clip of `unit_ops` frames.
Unit `i` depends only on the seed and `i` (and, in control_loop, on the
units before it), so two runs with one seed do the same work in the same
order. Every unit checks its own outputs and returns how many of its ops
failed. The library is reached only through public functions of its
modules.

The first `count_units` units form the count window: the counters a
workload reports (planned share, NIS, LM iterations, bytes written, ...)
come from that window only, so they repeat exactly at a fixed seed
however many units a run manages to time.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil

import numpy as np

from shuttlekit import amp, cli, estimator, goal, retarget, reward, scenario, shuttle
from shuttlekit.spatial import (
    Box,
    EndEffector,
    Joint,
    KinematicChain,
    Pose,
    Twist,
    chain_to_dict,
    forward_kinematics,
    quat_from_rotvec,
    quat_identity,
)

DT = 0.005  # 200 Hz, the flight model's physics rate
PARAMS = shuttle.ShuttleParams(mass=0.005, drag_coeff=0.001)
COURT = shuttle.CourtGeometry(1.55, 3.0, 3.2, 9.0, -2.6, 2.6)

def humanoid_chain() -> KinematicChain:
    """16 revolute joints on a tree: waist, two 4-joint legs, two arms, a wrist."""
    ident = quat_identity()
    x, y, z = np.eye(3)

    def joint(name, parent, offset, axis, limits=(-2.0, 2.0)):
        return Joint(name, parent, Pose(np.array(offset, dtype=float), ident), axis, limits)

    joints = (
        joint("waist_yaw", -1, [0.0, 0.0, 0.1], z),
        joint("l_hip_pitch", -1, [0.0, 0.1, -0.05], y),
        joint("l_hip_roll", 1, [0.0, 0.0, 0.0], x, (-0.2, 0.6)),
        joint("l_knee", 2, [0.0, 0.0, -0.42], y, (0.0, 2.4)),
        joint("l_ankle_pitch", 3, [0.0, 0.0, -0.40], y, (-1.0, 1.0)),
        joint("r_hip_pitch", -1, [0.0, -0.1, -0.05], y),
        joint("r_hip_roll", 5, [0.0, 0.0, 0.0], x, (-0.6, 0.2)),
        joint("r_knee", 6, [0.0, 0.0, -0.42], y, (0.0, 2.4)),
        joint("r_ankle_pitch", 7, [0.0, 0.0, -0.40], y, (-1.0, 1.0)),
        joint("l_shoulder_pitch", 0, [0.0, 0.2, 0.35], y),
        joint("l_shoulder_roll", 9, [0.0, 0.0, 0.0], x, (-0.5, 2.5)),
        joint("l_elbow", 10, [0.0, 0.0, -0.28], y, (-2.4, 0.0)),
        joint("r_shoulder_pitch", 0, [0.0, -0.2, 0.35], y),
        joint("r_shoulder_roll", 12, [0.0, 0.0, 0.0], x, (-2.5, 0.5)),
        joint("r_elbow", 13, [0.0, 0.0, -0.28], y, (-2.4, 0.0)),
        joint("r_wrist", 14, [0.0, 0.0, -0.25], z),
    )
    end_effectors = (
        EndEffector("head", 0, Pose(np.array([0.0, 0.0, 0.55]), ident)),
        EndEffector("left_ankle", 4, Pose(np.array([0.05, 0.0, -0.06]), ident)),
        EndEffector("right_ankle", 8, Pose(np.array([0.05, 0.0, -0.06]), ident)),
        EndEffector("left_hand", 11, Pose(np.array([0.0, 0.0, -0.25]), ident)),
        EndEffector("right_hand", 15, Pose(np.array([0.0, 0.0, -0.05]), ident)),
        EndEffector("racket", 15, Pose(np.array([0.02, 0.0, -0.45]), ident)),
    )
    return KinematicChain(joints, end_effectors)


def _interior_q(chain: KinematicChain, phase: np.ndarray) -> np.ndarray:
    """Joint angles inside the limits, moving smoothly with `phase` (one per joint)."""
    lims = chain.joint_limits()
    mid = 0.5 * (lims[:, 0] + lims[:, 1])
    half = 0.5 * (lims[:, 1] - lims[:, 0])
    return mid + 0.4 * half * np.sin(phase)


class Workload:
    name = ""
    why = ""
    unit_ops = 1      # ops per unit
    count_units = 1   # units in the count window
    block_units = 1   # units per traced/untraced block in the traced run

    def run_unit(self, i: int) -> int:
        """Run unit i; return the number of its ops that failed their check."""
        raise NotImplementedError

    def extra_metrics(self) -> dict:
        """Workload-specific end-to-end metrics: name -> (value, unit)."""
        return {}

    def window_metrics(self) -> dict:
        """Counters from the count window: name -> (value, unit)."""
        return {}

    def correct(self) -> bool:
        """Run-level output check, on top of the per-op checks."""
        return True

    def report_lines(self) -> list[str]:
        return []

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------


class Interception(Workload):
    name = "interception"
    why = (
        "serve synthesis, truth flight and the EKF do over 95% of the work: "
        "the flight-kernel and filter path, with no goal, reward, amp or FK work"
    )
    count_units = 24
    block_units = 4

    OBS_SECONDS = 0.5      # measured part of each flight
    POST_HIT_SECONDS = 0.3
    NOISE_STD = 0.005      # 5 mm measurement noise
    POOL = 256             # targets per volume
    PLAN_TOLERANCE = 0.02  # criterion 8: plan within 2 cm of the true flight
    MARGIN = 0.05          # reach beyond the target volume allowed to the planner

    # demonstrated strike points (position, seconds after the serve) that the
    # seeded manifold expansion densifies into targets
    DEMOS = (
        ((0.2, 0.1, 1.1), 1.0),
        ((-0.3, -0.1, 1.15), 1.2),
        ((0.5, 0.05, 1.05), 1.1),
        ((-0.1, 0.15, 1.2), 1.3),
    )

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        dataset = [(np.array(p), t) for p, t in self.DEMOS]
        easy = scenario.expand_manifold(dataset, 0.6, 0.3, self.POOL, "easy", seed)
        hard = scenario.expand_manifold(dataset, 1.2, 0.3, self.POOL, "hard", seed + 1)
        self.targets = []
        for pe, ph in zip(easy.points, hard.points):
            self.targets.append((pe, self._criteria(easy.volume)))
            self.targets.append((ph, self._criteria(hard.volume)))
        self.serve = scenario.ServeConfig(
            origin=np.array([6.0, 0.0, 2.0]), origin_jitter=np.array([0.5, 0.5, 0.3])
        )
        self.noise = estimator.NoiseConfig.isotropic(
            process_psd=1e-4, measurement_std=self.NOISE_STD
        )
        self.planned = 0
        self.within = 0
        self.served = 0
        self._serve_one(0, record=False)  # warm-up

    def _criteria(self, volume: Box) -> estimator.HitCriteria:
        lo = volume.center[2] - 0.5 * volume.size[2] - self.MARGIN
        hi = volume.center[2] + 0.5 * volume.size[2] + self.MARGIN
        reach = Box(volume.center, volume.size + 2 * self.MARGIN)
        return estimator.HitCriteria(height_band=(lo, hi), volume=reach)

    def _serve_one(self, i: int, record: bool) -> int:
        rng = np.random.default_rng([self.seed, 2, i])
        target, criteria = self.targets[i % len(self.targets)]
        launch = scenario.serve_trajectory(target, COURT, PARAMS, rng, self.serve)
        t_hit = target.time_offset
        n_total = int(math.ceil((t_hit + self.POST_HIT_SECONDS) / DT))
        s = launch
        truth = np.empty((n_total + 1, 3))
        truth[0] = s.position
        for k in range(n_total):
            s = shuttle.step(s, PARAMS, DT)
            truth[k + 1] = s.position
        times = np.arange(n_total + 1) * DT

        n_obs = int(self.OBS_SECONDS / DT) + 1
        zs = truth[:n_obs] + rng.normal(0.0, self.NOISE_STD, (n_obs, 3))
        prior = estimator.EkfBelief(
            np.concatenate([zs[0], (zs[1] - zs[0]) / DT]), np.diag([0.01] * 3 + [25.0] * 3)
        )
        belief, _ = estimator.track_measurements(times[:n_obs], zs, prior, PARAMS, self.noise)
        t_last = times[n_obs - 1]
        traj = estimator.predict_trajectory(
            belief, PARAMS, DT, horizon=t_hit + self.POST_HIT_SECONDS - t_last, t0=t_last
        )
        plan = estimator.select_hit_point(traj, criteria)

        ok = False
        if plan is not None:
            k = plan.hit_time / DT
            k0 = min(int(k), n_total)
            frac = k - k0
            k1 = min(k0 + 1, n_total)
            true_point = truth[k0] * (1.0 - frac) + truth[k1] * frac
            ok = bool(np.linalg.norm(plan.hit_racket_pose.position - true_point) < self.PLAN_TOLERANCE)
        if record:
            self.served += 1
            self.planned += plan is not None
            self.within += ok
        return 0 if ok else 1

    def run_unit(self, i: int) -> int:
        return self._serve_one(i, record=True)

    def extra_metrics(self) -> dict:
        return {
            "plan_within_2cm_frac": (self.within / max(self.planned, 1), "ratio"),
        }

    def correct(self) -> bool:
        # criterion 8's acceptance levels: 90% planned, 95% of plans within 2 cm
        return (
            self.planned >= 0.9 * max(self.served, 1)
            and self.within >= 0.95 * max(self.planned, 1)
        )


# ---------------------------------------------------------------------------


class ControlLoop(Workload):
    name = "control_loop"
    why = (
        "per-tick calls of an RL training loop: per-call overhead in shuttle.step, "
        "goal, reward and amp, with the discriminator update setting the tail"
    )
    N_ENVS = 8
    ROUNDS_PER_ROLLOUT = 32          # 8 envs x 32 rounds = 256 observations per update
    HISTORY = 3
    HORIZON = 5                      # reference-window frames
    TABLE = 200                      # simulator motion-table length
    LEARNING_RATE = 1e-3
    count_units = N_ENVS * ROUNDS_PER_ROLLOUT * 8  # eight rollouts
    block_units = N_ENVS * ROUNDS_PER_ROLLOUT      # one rollout

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.chain = humanoid_chain()
        n = self.chain.n_joints
        self.amp_cfg = amp.AmpConfig(history_length=self.HISTORY)
        self.reward_cfg = reward.RewardConfig(
            hit_weights=[0.6, 0.4], hit_scales=[0.05, 0.2],
            rec_weights=[0.5, 0.5], rec_scales=[0.1, 0.3],
            sigma_time=0.5, epsilon=0.02,
        )
        self.term_cfg = reward.TerminationConfig(0.5, 0.8, 1.0)
        self.quality_cfg = reward.HitQualityConfig(speed_scale=20.0)
        self.table = scenario.RandomizationTable()

        # simulator output, one cycle of body motion: states, racket and end effectors
        freq = rng.uniform(0.8, 1.2, n)
        offset = rng.uniform(0.0, 2 * np.pi, n)
        self.motion = []
        for k in range(self.TABLE):
            th = 2 * np.pi * k / self.TABLE
            root = Pose(
                np.array([0.2 * np.sin(th), 0.1 * np.sin(2 * th), 0.9]),
                quat_from_rotvec(np.array([0.0, 0.05 * np.sin(th), 0.2 * np.sin(th)])),
            )
            q = _interior_q(self.chain, freq * th + offset)
            state = goal.RobotState(
                root=root,
                root_twist=Twist(np.array([0.2 * np.cos(th), 0.2 * np.cos(2 * th), 0.0]),
                                 np.array([0.0, 0.0, 0.2 * np.cos(th)])),
                q=q,
                qd=0.4 * freq * np.cos(freq * th + offset),
                projected_gravity=np.array([0.0, 0.0, -1.0]),
                last_action=0.1 * np.sin(q),
                base_height=0.9,
                feet_contacts=np.array([1.0, 1.0]),
            )
            racket = Pose(
                np.array([0.3 + 0.1 * np.sin(th), -0.3, 1.1 + 0.1 * np.cos(th)]),
                quat_from_rotvec(np.array([0.0, 0.1 * np.sin(th), 0.0])),
            )
            ee_poses = {
                "left_ankle": Pose(root.position + [0.0, 0.1, -0.85], root.orientation),
                "right_ankle": Pose(root.position + [0.0, -0.1, -0.85], root.orientation),
                "left_hand": Pose(root.position + [0.1 * np.cos(th), 0.3, 0.3], root.orientation),
                "right_hand": Pose(racket.position - [0.0, 0.0, 0.4], root.orientation),
            }
            ee_vels = {name: np.array([0.3 * np.cos(th + j), 0.1, 0.0])
                       for j, name in enumerate(amp.DEFAULT_EE_ORDER)}
            self.motion.append((state, racket, ee_poses, ee_vels))
        self.racket_twist = Twist(np.array([3.0, 0.0, 0.5]), np.array([0.0, 0.0, 0.5]))

        # reference clip at 30 fps over one motion cycle
        clip_frames = []
        for f in range(0, self.TABLE, 5):
            state = self.motion[f][0]
            clip_frames.append(goal.ClipFrame(
                t=f / 150.0, root=state.root, root_lin=state.root_twist.linear,
                root_ang=state.root_twist.angular, q=state.q,
            ))
        self.clip = goal.ReferenceClip(tuple(clip_frames))
        self.clip_seconds = clip_frames[-1].t

        # discriminator and its reference ("real") batch
        frames = [amp.frame_features(s, ee, ev, self.chain) for s, _, ee, ev in self.motion]
        width = len(frames[0])
        batch = self.N_ENVS * self.ROUNDS_PER_ROLLOUT
        picks = rng.integers(0, self.TABLE, batch)
        self.real = np.stack([
            amp.assemble_history([frames[(k - j) % self.TABLE] for j in range(self.HISTORY)][::-1],
                                 self.amp_cfg).features
            for k in picks
        ])
        self.mlp = amp.mlp_init([width * self.HISTORY, 256, 128, 1], rng)
        self.fake = np.empty((batch, width * self.HISTORY))
        self.round_obs = np.empty((self.N_ENVS, width * self.HISTORY))

        self.envs = []
        for e in range(self.N_ENVS):
            rng_e = np.random.default_rng([seed, 3, e])
            env = self._reset({"rng": rng_e, "k": int(rng_e.integers(self.TABLE))})
            # envs start part-way through their first episode, so resets and
            # impacts are spread over the run
            env["t"] = float(rng_e.uniform(0.0, env["end"]))
            env["prev_tth"] = goal.time_to_hit(env["t"], env["target"].hit_time)
            self.envs.append(env)
        self.w_impacts = 0
        self.w_updates = 0
        self.w_resets = 0
        for i in range(self.N_ENVS):  # warm-up round
            self._tick(i, record=False)

    def _reset(self, env: dict) -> dict:
        """New episode: randomized dynamics, a serve and its strike target."""
        rng = env["rng"]
        env["rand"] = scenario.sample_randomization(self.table, rng)
        hit_time = float(rng.uniform(0.8, 1.3))
        env["end"] = hit_time + scenario.sample_rhythm_interval(rng)
        origin = np.array([6.0, 0.0, 2.0]) + rng.uniform(-0.3, 0.3, 3)
        aim = np.array([0.3, -0.3, 1.1]) + rng.uniform(-0.2, 0.2, 3)
        v0 = (aim - origin) / hit_time + np.array([0.0, 0.0, 0.5 * PARAMS.gravity * hit_time])
        env["shuttle"] = shuttle.ShuttleState(origin, v0, v0 / np.linalg.norm(v0))
        env["target"] = goal.StrikeTarget(
            hit_time=hit_time,
            hit_racket_pose=Pose(aim, quat_identity()),
            recovery_root_pose=Pose(np.array([0.0, 0.0, 0.9]), quat_identity()),
        )
        env["t"] = 0.0
        env["prev_tth"] = goal.TTH_LIMIT
        env["buffer"] = []
        env["d"] = 0.0
        return env

    def _tick(self, i: int, record: bool) -> int:
        e = i % self.N_ENVS
        env = self.envs[e]
        cfg = self.reward_cfg
        ok = True
        env["shuttle"] = shuttle.step(env["shuttle"], PARAMS, DT)
        state, racket, ee_poses, ee_vels = self.motion[env["k"] % self.TABLE]
        now = env["t"]
        obs = goal.encode_goal(state, env["target"], now, racket_pose=racket)
        t_clip = now % self.clip_seconds
        window = goal.reference_window(self.clip, t_clip, self.HORIZON)
        hit = [obs.hit_delta[:3], obs.hit_delta[3:]]
        rec = [obs.recovery_delta[:3], obs.recovery_delta[3:]]
        rewards = (
            reward.hit_tracking_reward(hit, obs.tth, cfg),
            reward.recovery_tracking_reward(rec, obs.tth, cfg),
            reward.sparse_hit_tracking_reward(hit, obs.tth, cfg),
            reward.style_reward(env["d"]),
        )
        ref_root = self.clip.frames[self.clip.frame_index_at(t_clip)].root
        term = reward.termination_check(state, ref_root, self.term_cfg)
        frame = amp.frame_features(state, ee_poses, ee_vels, self.chain)
        buf = env["buffer"]
        buf.append(frame)
        if len(buf) > self.HISTORY:
            del buf[0]
        history = amp.assemble_history(buf, self.amp_cfg)

        # goal masking is exclusive and every reward is finite and in range
        if obs.tth >= 0.0:
            ok &= obs.phase == goal.PHASE_PREPARATION and not np.any(obs.recovery_delta)
        else:
            ok &= obs.phase == goal.PHASE_RECOVERY and not np.any(obs.hit_delta)
        ok &= all(math.isfinite(r) and 0.0 <= r <= 1.0 for r in rewards)
        ok &= bool(np.all(np.isfinite(window.root_deltas)))
        ok &= bool(np.all(np.isfinite(history.features)))

        if env["prev_tth"] >= 0.0 > obs.tth:  # the racket meets the shuttle
            incoming = shuttle.ShuttleState(
                racket.position, env["shuttle"].velocity, env["shuttle"].axis
            )
            out = shuttle.racket_impact(incoming, racket, self.racket_twist, PARAMS)
            flight = shuttle.simulate_to_ground(out, PARAMS, DT, t_max=5.0)
            if flight.landing is None:
                ok = False
            else:
                result = shuttle.lands_in_court(flight.landing.point, flight.trajectory, COURT)
                quality = reward.hit_quality_reward(
                    result, float(np.linalg.norm(out.velocity)), self.quality_cfg
                )
                ok &= 0.0 <= quality <= 1.0
                if record:
                    self.w_impacts += 1
        env["prev_tth"] = obs.tth
        env["t"] = now + DT
        env["k"] += 1

        self.round_obs[e] = history.features
        if e == self.N_ENVS - 1:  # a round of ticks: score every env's window
            d = amp.disc_forward_batch(self.mlp, self.round_obs)
            ok &= bool(np.all(np.isfinite(d)))
            for env_j, dj in zip(self.envs, d):
                env_j["d"] = float(dj)
            rnd = (i // self.N_ENVS) % self.ROUNDS_PER_ROLLOUT
            self.fake[rnd * self.N_ENVS:(rnd + 1) * self.N_ENVS] = self.round_obs
            if rnd == self.ROUNDS_PER_ROLLOUT - 1:  # a rollout: one discriminator step
                loss = amp.disc_loss_and_grads(self.mlp, self.real, self.fake, self.amp_cfg)
                ok &= math.isfinite(loss.loss)
                lr = self.LEARNING_RATE
                self.mlp = amp.Mlp(
                    tuple(w - lr * g for w, g in zip(self.mlp.weights, loss.weight_grads)),
                    tuple(b - lr * g for b, g in zip(self.mlp.biases, loss.bias_grads)),
                )
                if record:
                    self.w_updates += 1

        if term.terminate or env["t"] >= env["end"]:
            self._reset(env)
            if record:
                self.w_resets += 1
        return 0 if ok else 1

    def run_unit(self, i: int) -> int:
        return self._tick(i, record=i < self.count_units)

    def window_metrics(self) -> dict:
        return {
            "control_loop.impacts": (self.w_impacts, "count"),
            "control_loop.resets": (self.w_resets, "count"),
            "control_loop.disc_updates": (self.w_updates, "count"),
        }


# ---------------------------------------------------------------------------


class RetargetClip(Workload):
    name = "retarget_clip"
    why = (
        "finite-difference LM over forward kinematics does almost all the work; "
        "the only workload where FK runs"
    )
    CLIP_FRAMES = 2
    N_CLIPS = 24
    FPS = 30.0
    KEYPOINT_NOISE = 0.001  # 1 mm marker noise
    FIT_LIMIT_MM = 5.0      # a clip whose keypoint RMS exceeds this failed
    unit_ops = CLIP_FRAMES
    count_units = 3
    block_units = 1

    KEYPOINTS = (
        "head", "left_ankle", "right_ankle", "left_hand", "right_hand", "racket",
        "l_knee", "r_knee", "l_elbow", "r_elbow", "l_shoulder_pitch",
        "r_shoulder_pitch", "l_hip_pitch", "r_hip_pitch",
    )
    SEGMENTS = (
        ("l_shoulder_pitch", "l_elbow"), ("l_elbow", "left_hand"),
        ("r_shoulder_pitch", "r_elbow"), ("r_elbow", "right_hand"),
        ("l_hip_pitch", "l_knee"), ("l_knee", "left_ankle"),
    )

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.chain = chain = humanoid_chain()
        n = chain.n_joints
        kmap = {k: k for k in self.KEYPOINTS}
        spheres = tuple(
            retarget.CollisionSphere(frame, np.zeros(3), r)
            for frame, r in (("right_hand", 0.08), ("head", 0.12), ("l_knee", 0.08), ("r_knee", 0.08))
        )
        weights = retarget.RetargetWeights(smoothness=0.2)
        # the take is one fixed motion; the seed draws the marker noise and
        # the clip a run starts with
        take = np.random.default_rng(0)
        freq = take.uniform(1.0, 3.0, n)
        offset = take.uniform(0.0, 2 * np.pi, n)
        self.first_clip = int(rng.integers(self.N_CLIPS))

        def pose_at(t):
            root = Pose(
                np.array([0.3 * np.sin(t), 0.1 * np.sin(2 * t), 1.0]),
                quat_from_rotvec(np.array([0.0, 0.0, 0.3 * np.sin(t)])),
            )
            return root, _interior_q(chain, freq * t + offset)

        self.clips = []
        for c in range(self.N_CLIPS):
            frames = []
            for f in range(c * self.CLIP_FRAMES, (c + 1) * self.CLIP_FRAMES):
                t = f / self.FPS
                root, q = pose_at(t)
                fk = forward_kinematics(chain, root, q)
                frames.append(retarget.KeypointFrame(
                    t=t,
                    keypoints={k: fk[k].position + rng.normal(0.0, self.KEYPOINT_NOISE, 3)
                               for k in self.KEYPOINTS},
                    rotations={"racket": fk["racket"].orientation},
                ))
            problem = retarget.RetargetProblem(
                chain, kmap, tuple(frames), segments=self.SEGMENTS,
                weights=weights, collision_spheres=spheres,
            )
            # warm start from the true pose one frame before the clip, as a
            # solver running through the whole take would have it
            root0, q0 = pose_at((c * self.CLIP_FRAMES - 1) / self.FPS)
            init = retarget.RetargetSolution(
                (root0,) * self.CLIP_FRAMES,
                np.tile(q0, (self.CLIP_FRAMES, 1)),
                local_scales=np.ones(len(self.SEGMENTS)),
            )
            self.clips.append((problem, init, [fr.t for fr in frames]))
        self.sq_sum = 0.0
        self.sq_count = 0
        self.w_accepted = 0
        # warm-up: the first frame of clip 0 on its own
        problem, init, _ = self.clips[0]
        first = retarget.RetargetProblem(
            chain, kmap, problem.frames[:1], segments=self.SEGMENTS,
            weights=weights, collision_spheres=spheres,
        )
        warm = retarget.RetargetSolution(init.root_poses[:1], init.joint_angles[:1],
                                         local_scales=init.local_scales)
        retarget.solve_retarget(first, warm)

    def run_unit(self, i: int) -> int:
        problem, init, times = self.clips[(self.first_clip + i) % self.N_CLIPS]
        trace: list = []
        sol, costs = retarget.solve_retarget(problem, init, cost_trace=trace)
        grounded = retarget.align_to_ground(sol, self.chain)
        contacts = retarget.extract_contacts(grounded, self.chain, threshold=0.03)
        clip = retarget.solution_to_clip(grounded, times)
        residuals = np.concatenate([
            retarget.evaluate_residuals(problem, sol, f).blocks["global"]
            for f in range(sol.n_frames)
        ])
        sq = float(np.dot(residuals, residuals))
        self.sq_sum += sq
        self.sq_count += residuals.size
        rms_mm = 1000.0 * math.sqrt(sq / residuals.size)
        if i < self.count_units:
            self.w_accepted += sum(len(t) - 1 for t in trace)
        ok = (
            math.isfinite(costs["total"])
            and rms_mm < self.FIT_LIMIT_MM
            and len(clip) == self.CLIP_FRAMES
            and contacts.shape == (self.CLIP_FRAMES, 2)
        )
        return 0 if ok else self.CLIP_FRAMES

    def extra_metrics(self) -> dict:
        rms = 1000.0 * math.sqrt(self.sq_sum / max(self.sq_count, 1))
        return {"fit_rms_mm": (rms, "mm")}

    def window_metrics(self) -> dict:
        return {"retarget.lm_accepted_iters": (self.w_accepted, "count")}


# ---------------------------------------------------------------------------


class CliFiles(Workload):
    name = "cli_files"
    why = (
        "the cli layer and its CSV/JSON formats: argument parsing, config "
        "loading, file parsing and byte-stable output writing"
    )
    COMMANDS = ("simulate", "track", "expand", "score", "retarget")
    EXPAND_COUNT = 6000
    EPISODE_ROWS = 12000
    count_units = 10   # two cycles of the five commands
    block_units = 5

    OUTPUTS = {
        "simulate": ("trajectory.csv", "landing.json"),
        "track": ("filter_log.csv", "strike_target.json"),
        "expand": ("manifold.json",),
        "score": ("metrics.json",),
        "retarget": ("motion_clip.json", "cost_report.json"),
    }

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = os.path.join(workdir, f"{self.name}-{os.getpid()}")
        if os.path.isdir(self.dir):
            shutil.rmtree(self.dir)
        os.makedirs(self.dir)
        rng = np.random.default_rng([seed, 1])
        write = self._write
        write("params.json", _json({"mass": 0.005, "drag_coeff": 0.001}))
        write("court.json", _json({
            "net_height": 1.55, "net_x": 3.0, "x_min": 3.2, "x_max": 9.0,
            "y_min": -2.6, "y_max": 2.6,
        }))
        write("config.json", _json({
            "params": "params.json",
            "court": "court.json",
            "seed": seed,
            "sim": {"dt": DT, "t_max": 10.0},
            "track": {"process_psd": 1e-4, "measurement_std": 0.005,
                      "initial_vel_var": 25.0, "height_band": [1.0, 1.3], "horizon": 3.0},
            "expand": {"radius": 0.4, "time_jitter": 0.3, "center": [0.0, 0.0, 1.1]},
        }))

        # simulate: a high clear from the far baseline
        state = {"position": [6.0, float(rng.uniform(-0.2, 0.2)), 2.0],
                 "velocity": [float(rng.uniform(-6.2, -5.8)), float(rng.uniform(-0.2, 0.2)),
                              float(rng.uniform(6.8, 7.2))]}
        write("state.json", _json(state))

        # track: noisy measurements of a clear until it falls back to 1.8 m
        flight = shuttle.simulate_to_ground(
            shuttle.ShuttleState(np.array(state["position"]), np.array(state["velocity"])),
            PARAMS, dt=DT, t_max=10.0,
        ).trajectory
        apex = int(np.argmax(flight.positions[:, 2]))
        n_meas = apex + int(np.argmax(flight.positions[apex:, 2] < 1.8))
        zs = flight.positions[:n_meas] + rng.normal(0.0, 0.005, (n_meas, 3))
        lines = ["t,x,y,z"] + [
            ",".join(format(v, ".12g") for v in (t, *p))
            for t, p in zip(flight.times[:n_meas], zs)
        ]
        write("meas.csv", "\n".join(lines) + "\n")

        # expand: a handful of demonstrated strike points
        write("dataset.json", _json([
            {"pos": [float(rng.uniform(-0.6, 0.6)), float(rng.uniform(-0.1, 0.1)),
                     float(rng.uniform(1.0, 1.2))], "t": float(rng.uniform(1.0, 1.3)), "src": k}
            for k in range(6)
        ]))

        # score: a long episode log, a fifth of the serves missed
        rows = ["serve_id,intercepted,dx,dy,dz,landing,in_bounds,cleared_net,speed"]
        hit = rng.random(self.EPISODE_ROWS) > 0.2
        off = rng.normal(0.0, 0.05, (self.EPISODE_ROWS, 3))
        flags = rng.random((self.EPISODE_ROWS, 3)) > 0.3
        speed = rng.uniform(5.0, 30.0, self.EPISODE_ROWS)
        for k in range(self.EPISODE_ROWS):
            if hit[k]:
                land, inb, clear = (int(v) for v in flags[k])
                rows.append(f"{k},1,{off[k, 0]:.9g},{off[k, 1]:.9g},{off[k, 2]:.9g},"
                            f"{land},{inb},{clear},{speed[k]:.9g}")
            else:
                rows.append(f"{k},0,,,,0,0,0,0")
        write("episodes.csv", "\n".join(rows) + "\n")

        # retarget: a 4-joint arm with root markers, three frames of noisy keypoints
        arm = _arm_chain()
        names = ("shoulder", "elbow", "wrist", "hand", "hip_l", "hip_r")
        frames = []
        for f in range(3):
            q = np.array([0.4, -0.3, 0.2, 0.1]) + 0.05 * f + rng.normal(0.0, 0.05, 4)
            fk = forward_kinematics(arm, Pose.identity(), q)
            frames.append({"t": f / 30.0, "keypoints": {
                f"kp_{n}": (fk[n].position + rng.normal(0.0, 0.002, 3)).tolist() for n in names}})
        write("problem.json", _json({
            "chain": chain_to_dict(arm),
            "keypoint_map": {f"kp_{n}": n for n in names},
            "frames": frames,
        }))

        config = os.path.join(self.dir, "config.json")
        self.argv = {}
        for cmd, inp, extra in (
            ("simulate", "state.json", []),
            ("track", "meas.csv", []),
            ("expand", "dataset.json", ["--count", str(self.EXPAND_COUNT), "--mode", "hard"]),
            ("score", "episodes.csv", []),
            ("retarget", "problem.json", []),
        ):
            out = os.path.join(self.dir, "out", cmd)
            self.argv[cmd] = (
                [cmd, "--config", config, "--out", out, *extra, os.path.join(self.dir, inp)],
                [os.path.join(out, f) for f in self.OUTPUTS[cmd]],
            )
        self.w_bytes = 0
        # warm-up: one call of each command; its outputs are the reference bytes
        self.reference = {}
        for cmd in self.COMMANDS:
            code, data = self._call(cmd)
            if code != 0:
                raise RuntimeError(f"warm-up `{cmd}` exited with {code}")
            self.reference[cmd] = data

    def _write(self, name: str, text: str) -> None:
        with open(os.path.join(self.dir, name), "w") as f:
            f.write(text)

    def _call(self, cmd: str):
        argv, outputs = self.argv[cmd]
        code = cli.main(argv)
        data = []
        for path in outputs:
            with open(path, "rb") as f:
                data.append(f.read())
        return code, data

    def run_unit(self, i: int) -> int:
        cmd = self.COMMANDS[i % len(self.COMMANDS)]
        code, data = self._call(cmd)
        if i < self.count_units:
            self.w_bytes += sum(len(d) for d in data)
        return 0 if code == 0 and data == self.reference[cmd] else 1

    def window_metrics(self) -> dict:
        return {"cli.bytes_written": (self.w_bytes, "bytes")}

    def report_lines(self) -> list[str]:
        return [
            f"digest {cmd} {hashlib.sha256(b''.join(self.reference[cmd])).hexdigest()[:16]}"
            for cmd in self.COMMANDS
        ]

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _json(data) -> str:
    return json.dumps(data, indent=1) + "\n"


def _arm_chain() -> KinematicChain:
    ident = quat_identity()
    joints = (
        Joint("shoulder", -1, Pose(np.array([0.0, 0.0, 1.0]), ident), np.array([0.0, 0.0, 1.0]), (-2.5, 2.5)),
        Joint("elbow", 0, Pose(np.array([0.4, 0.0, 0.0]), ident), np.array([0.0, 1.0, 0.0]), (-2.0, 2.0)),
        Joint("wrist", 1, Pose(np.array([0.35, 0.0, 0.0]), ident), np.array([1.0, 0.0, 0.0]), (-1.5, 1.5)),
        Joint("hand_yaw", 2, Pose(np.array([0.05, 0.0, 0.0]), ident), np.array([0.0, 0.0, 1.0]), (-1.5, 1.5)),
    )
    end_effectors = (
        EndEffector("hand", 3, Pose(np.array([0.08, 0.06, 0.02]), ident)),
        EndEffector("hip_l", -1, Pose(np.array([0.0, 0.1, 0.9]), ident)),
        EndEffector("hip_r", -1, Pose(np.array([0.0, -0.1, 0.9]), ident)),
    )
    return KinematicChain(joints, end_effectors)


WORKLOADS = {w.name: w for w in (Interception, ControlLoop, RetargetClip, CliFiles)}
