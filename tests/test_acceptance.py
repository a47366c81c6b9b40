"""Acceptance suite: one test per release criterion.

Each test exercises its criterion at the stated tolerance, measures wall
time against the stated budget, and prints a single PASS/FAIL line
(visible with `pytest -s` or on failure).
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from conftest import arm_chain, random_pose
from shuttlekit import amp, estimator, goal, retarget, reward, scenario, shuttle
from shuttlekit.cli import main as cli_main
from shuttlekit.spatial import (
    Box,
    Pose,
    Twist,
    chain_to_dict,
    forward_kinematics,
    quat_from_rotvec,
    quat_identity,
)

PARAMS = shuttle.ShuttleParams(mass=0.005, drag_coeff=0.001)
DRAG_FREE = shuttle.ShuttleParams(mass=0.005, drag_coeff=0.0)


class Criterion:
    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget = budget_s
        self.failures = []
        self.t0 = time.perf_counter()

    def check(self, label, ok):
        if not ok:
            self.failures.append(label)

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        over_budget = self.budget is not None and elapsed >= self.budget
        status = "FAIL" if (self.failures or over_budget) else "PASS"
        budget = f" / budget {self.budget:g}s" if self.budget is not None else ""
        print(f"ACCEPTANCE {self.number} {self.name}: {status} ({elapsed:.2f}s{budget})")
        assert not self.failures, f"failed checks: {self.failures}"
        if self.budget is not None:
            assert elapsed < self.budget, f"runtime {elapsed:.2f}s over budget"


def test_criterion_1_physics():
    c = Criterion(1, "physics", 1.0)

    s = shuttle.ShuttleState(np.array([0.0, 0.0, 50.0]), np.array([5.0, 3.0, 10.0]))
    e0 = shuttle.mechanical_energy(s, DRAG_FREE)
    for _ in range(1000):
        s = shuttle.step(s, DRAG_FREE, 0.005)
    drift = abs(shuttle.mechanical_energy(s, DRAG_FREE) - e0) / abs(e0)
    c.check("drag-free energy drift < 1e-6 over 1000 steps", drift < 1e-6)

    def endpoint(dt, t_end=0.32):
        st = shuttle.ShuttleState(np.array([0.0, 0.0, 10.0]), np.array([8.0, 0.0, 6.0]))
        for _ in range(int(round(t_end / dt))):
            st = shuttle.step(st, PARAMS, dt)
        return st.position

    ref = endpoint(1e-5)
    e1 = np.linalg.norm(endpoint(0.01) - ref)
    e2 = np.linalg.norm(endpoint(0.005) - ref)
    order = math.log2(e1 / e2)
    c.check(f"integration order >= 3.8 (measured {order:.2f})", order >= 3.8)
    c.finish()


def test_criterion_2_estimator():
    c = Criterion(2, "estimator", 5.0)
    rng = np.random.default_rng(101)

    # transition Jacobian against central differences, 1e-5 relative
    worst = 0.0
    for _ in range(10):
        mean = rng.normal(size=6) * np.array([1, 1, 1, 5, 5, 5])
        f = estimator.transition_jacobian(mean, PARAMS, 0.005)
        fd = np.zeros((6, 6))
        h = 1e-6
        for k in range(6):
            plus, minus = mean.copy(), mean.copy()
            plus[k] += h
            minus[k] -= h
            fp = shuttle._rk4_step(plus.tolist(), PARAMS, 0.005)
            fm = shuttle._rk4_step(minus.tolist(), PARAMS, 0.005)
            fd[:, k] = (np.array(fp) - np.array(fm)) / (2 * h)
        worst = max(worst, float(np.max(np.abs(f - fd)) / np.max(np.abs(fd))))
    c.check(f"Jacobian matches finite differences (worst {worst:.2e})", worst < 1e-5)

    # noiseless 50-step track ends under 1 mm position error
    s = shuttle.ShuttleState(np.array([0.0, 0.0, 3.0]), np.array([4.0, 1.0, 5.0]))
    truth = [np.concatenate([s.position, s.velocity])]
    for _ in range(50):
        s = shuttle.step(s, PARAMS, 0.005)
        truth.append(np.concatenate([s.position, s.velocity]))
    tiny = estimator.NoiseConfig.isotropic(process_psd=1e-8, measurement_std=1e-4)
    b = estimator.EkfBelief(
        truth[0] + np.array([0.2, -0.2, 0.1, 1.0, -1.0, 0.5]),
        np.diag([0.25] * 3 + [4.0] * 3),
    )
    for k in range(1, 51):
        b = estimator.ekf_predict(b, PARAMS, tiny, 0.005)
        b, _ = estimator.ekf_update(b, truth[k][:3], tiny)
    final_err = float(np.linalg.norm(b.mean[:3] - truth[50][:3]))
    c.check(f"noiseless 50-step track < 1 mm (got {final_err*1e3:.4f} mm)", final_err < 1e-3)

    # NIS consistency over 1000 noisy updates: chi-square(3) mean within 15%
    s = shuttle.ShuttleState(np.array([0.0, 0.0, 30.0]), np.array([3.0, -1.0, 8.0]))
    truth = [s.position.copy()]
    for _ in range(1000):
        s = shuttle.step(s, PARAMS, 0.005)
        truth.append(s.position.copy())
    sigma = 0.005
    noise = estimator.NoiseConfig.isotropic(process_psd=1e-4, measurement_std=sigma)
    b = estimator.EkfBelief(
        np.concatenate([truth[0], [3.0, -1.0, 8.0]]),
        np.diag([sigma**2] * 3 + [0.01] * 3),
    )
    nis_values = []
    for k in range(1, 1001):
        b = estimator.ekf_predict(b, PARAMS, noise, 0.005)
        b, st = estimator.ekf_update(b, truth[k] + rng.normal(0, sigma, 3), noise)
        nis_values.append(st.nis)
    mean_nis = float(np.mean(nis_values))
    c.check(
        f"mean NIS within 15% of 3 (got {mean_nis:.3f})",
        3.0 * 0.85 < mean_nis < 3.0 * 1.15,
    )
    c.finish()


def test_criterion_3_goal_encoding():
    rng = np.random.default_rng(202)
    # inputs prepared outside the timed region; the root, targets, and
    # racket poses are disjoint so no unmasked delta is exactly zero
    poses = [random_pose(rng) for _ in range(256)]
    rackets = [random_pose(rng) for _ in range(256)]
    targets = [
        goal.StrikeTarget(0.0, poses[i], poses[(i + 7) % 256]) for i in range(256)
    ]
    state = goal.RobotState(
        root=random_pose(rng),
        root_twist=Twist.zero(),
        q=np.zeros(2),
        qd=np.zeros(2),
        projected_gravity=np.array([0.0, 0.0, -1.0]),
        last_action=np.zeros(2),
        base_height=0.8,
        feet_contacts=np.ones(2),
    )
    nows = rng.uniform(-3.0, 3.0, 100_000)

    c = Criterion(3, "goal encoding", 1.0)
    c.check("tth clips exactly to +2", goal.time_to_hit(0.0, 3.5) == 2.0)
    c.check("tth clips exactly to -2", goal.time_to_hit(5.0, 0.0) == -2.0)
    c.check("tth exact inside the range", goal.time_to_hit(0.25, 1.0) == 0.75)

    bad = 0
    for i in range(100_000):
        obs = goal.encode_goal(
            state, targets[i % 256], now=nows[i], racket_pose=rackets[(i + 11) % 256]
        )
        # any() over the listed floats equals ndarray.any() (NaN counts as
        # nonzero, -0.0 as zero) at a fraction of its per-call cost
        hit_zero = not any(obs.hit_delta.tolist())
        rec_zero = not any(obs.recovery_delta.tolist())
        if hit_zero == rec_zero:
            bad += 1
        elif rec_zero != (obs.tth >= 0.0):
            bad += 1
    c.check(f"exactly one masked block matching tth sign ({bad} violations)", bad == 0)
    c.finish()


def test_criterion_4_rewards():
    c = Criterion(4, "rewards", 1.0)
    cfg = reward.RewardConfig(
        hit_weights=[0.6, 0.4], hit_scales=[0.5, 0.25],
        rec_weights=[1.0, 0.5], rec_scales=[0.3, 0.2],
        sigma_time=0.5, epsilon=0.05,
    )
    zero2 = [np.zeros(3), np.zeros(6)]
    c.check(
        "zero-error hit reward equals the weight sum",
        reward.hit_tracking_reward(zero2, 0.0, cfg) == pytest.approx(1.0, abs=1e-12),
    )
    c.check(
        "zero-error recovery reward equals the weight sum",
        reward.recovery_tracking_reward(zero2, -0.1, cfg)
        == pytest.approx(1.5, abs=1e-12),
    )
    c.check("style(1) = 1", reward.style_reward(1.0) == 1.0)
    c.check("style(-1) = 0", reward.style_reward(-1.0) == 0.0)
    c.check("style(0) = 0.75", reward.style_reward(0.0) == 0.75)
    c.check(
        "windowed reward zero outside |tth| < epsilon",
        reward.sparse_hit_tracking_reward(zero2, 0.05, cfg) == 0.0
        and reward.sparse_hit_tracking_reward(zero2, 0.2, cfg) == 0.0
        and reward.sparse_hit_tracking_reward(zero2, 0.049, cfg) > 0.0,
    )

    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(10_000):
        deltas = [rng.normal(size=3), rng.normal(size=6)]
        tth = float(rng.uniform(-2.0, 2.0))
        # independent direct-formula recomputation
        expected_hit = math.exp(-abs(tth) / 0.5) * (
            0.6 * math.exp(-float(np.dot(deltas[0], deltas[0])) / 0.5)
            + 0.4 * math.exp(-float(np.dot(deltas[1], deltas[1])) / 0.25)
        )
        got = reward.hit_tracking_reward(deltas, tth, cfg)
        worst = max(worst, abs(got - expected_hit))
        rec = [rng.normal(size=4), rng.normal(size=2)]
        expected_rec = 0.0 if tth >= 0 else (
            1.0 * math.exp(-float(np.dot(rec[0], rec[0])) / 0.3)
            + 0.5 * math.exp(-float(np.dot(rec[1], rec[1])) / 0.2)
        )
        worst = max(worst, abs(reward.recovery_tracking_reward(rec, tth, cfg) - expected_rec))
    c.check(f"10^4 random draws match the formula oracle (worst {worst:.2e})", worst < 1e-12)
    c.finish()


def test_criterion_5_amp():
    rng = np.random.default_rng(404)
    cfg = amp.AmpConfig(history_length=5, grad_penalty_weight=2.5)
    c = Criterion(5, "amp discriminator", 10.0)

    worst_param = 0.0
    worst_input = 0.0
    h = 1e-6
    for _ in range(100):
        m = amp.mlp_init([4, 5, 1], rng)
        m = amp.Mlp(m.weights, tuple(rng.normal(0, 0.2, b.shape) for b in m.biases))
        real = [rng.normal(size=4) for _ in range(2)]
        fake = [rng.normal(size=4) for _ in range(2)]

        g = amp.grad_wrt_input(m, real[0])
        for k in range(4):
            xp, xm = real[0].copy(), real[0].copy()
            xp[k] += h
            xm[k] -= h
            fd = (amp.disc_forward(m, xp) - amp.disc_forward(m, xm)) / (2 * h)
            worst_input = max(worst_input, abs(g[k] - fd) / max(abs(fd), 1e-6))

        res = amp.disc_loss_and_grads(m, real, fake, cfg)

        def loss_with(weights, biases):
            return amp.disc_loss_and_grads(
                amp.Mlp(tuple(weights), tuple(biases)), real, fake, cfg
            ).loss

        for li in range(len(m.weights)):
            w = m.weights[li]
            for i in range(w.shape[0]):
                for j in range(w.shape[1]):
                    wp = [a.copy() for a in m.weights]
                    wm = [a.copy() for a in m.weights]
                    wp[li][i, j] += h
                    wm[li][i, j] -= h
                    fd = (loss_with(wp, m.biases) - loss_with(wm, m.biases)) / (2 * h)
                    err = abs(res.weight_grads[li][i, j] - fd) / max(abs(fd), 1e-6)
                    worst_param = max(worst_param, err)
            for i in range(m.biases[li].shape[0]):
                bp = [a.copy() for a in m.biases]
                bm = [a.copy() for a in m.biases]
                bp[li][i] += h
                bm[li][i] -= h
                fd = (loss_with(m.weights, bp) - loss_with(m.weights, bm)) / (2 * h)
                err = abs(res.bias_grads[li][i] - fd) / max(abs(fd), 1e-6)
                worst_param = max(worst_param, err)
    c.check(f"input gradients vs FD, 100 nets (worst {worst_input:.2e})", worst_input < 1e-4)
    c.check(f"parameter gradients vs FD, 100 nets (worst {worst_param:.2e})", worst_param < 1e-4)

    # exact global minimum: D(real)=1, D(fake)=-1, flat gradient on real
    u, b0 = 1.0, 1.0
    t0 = math.tanh(b0)
    s = math.tanh(2 * u + b0) + math.tanh(b0 - 2 * u)
    w = 2.0 / (2 * t0 - s)
    bias_out = -1.0 - w * s
    perfect = amp.Mlp(
        (np.array([[u], [-u]]), np.array([[w, w]])),
        (np.array([b0, b0]), np.array([bias_out])),
    )
    out = amp.disc_loss_and_grads(perfect, [np.array([0.0])], [np.array([2.0])], cfg)
    c.check(f"loss exactly 0 at the optimum (got {out.loss:.2e})", out.loss < 1e-12)
    c.finish()


def test_criterion_6_retargeting():
    c = Criterion(6, "retargeting", 10.0)
    chain = arm_chain()
    names = ("shoulder", "elbow", "wrist", "hand", "hip_l", "hip_r")

    root = Pose(np.array([0.1, -0.2, 0.05]), quat_from_rotvec([0.05, -0.1, 0.3]))
    true_q = np.array([0.7, -0.5, 0.9])
    fk = forward_kinematics(chain, root, true_q)
    problem = retarget.RetargetProblem(
        chain=chain,
        keypoint_map={f"kp_{n}": n for n in names},
        frames=(
            retarget.KeypointFrame(0.0, {f"kp_{n}": fk[n].position for n in names}),
        ),
    )
    init = retarget.RetargetSolution((Pose.identity(),), np.zeros((1, 3)))
    trace = []
    solution, costs = retarget.solve_retarget(problem, init, cost_trace=trace)
    q_err = float(np.max(np.abs(solution.joint_angles[0] - true_q)))
    c.check(f"round-trip joint recovery < 1e-4 rad (got {q_err:.2e})", q_err < 1e-4)

    monotone = all(
        b <= a for frame in trace for a, b in zip(frame, frame[1:])
    )
    c.check("accepted-iteration cost non-increasing", monotone)

    # joint-limit clamping on a 1-joint instance vs a fine grid search
    from shuttlekit.spatial import EndEffector, Joint, KinematicChain

    ident = quat_identity()
    one = KinematicChain(
        (Joint("j", -1, Pose(np.zeros(3), ident), np.array([0.0, 0.0, 1.0]), (-1.0, 1.0)),),
        (EndEffector("tip", 0, Pose(np.array([1.0, 0.0, 0.0]), ident)),),
    )
    beyond = forward_kinematics(one, Pose.identity(), np.array([1.2]))
    prob1 = retarget.RetargetProblem(
        chain=one,
        keypoint_map={"tip": "tip"},
        frames=(retarget.KeypointFrame(0.0, {"tip": beyond["tip"].position}),),
        weights=retarget.RetargetWeights(joint_limit=10.0),
        fix_root=True,
    )
    sol1, costs1 = retarget.solve_retarget(
        prob1, retarget.RetargetSolution((Pose.identity(),), np.zeros((1, 1)))
    )

    def cost_at(qv):
        sraw = retarget.RetargetSolution((Pose.identity(),), np.array([[qv]]))
        rep = retarget.evaluate_residuals(prob1, sraw, 0)
        return sum(
            prob1.weights.for_term(t) * float(np.dot(rep.blocks[t], rep.blocks[t]))
            for t in retarget.TERM_ORDER
        )

    grid = np.linspace(-1.0, 1.0, 4001)
    oracle_q = grid[int(np.argmin([cost_at(g) for g in grid]))]
    c.check(
        f"clamped joint equals grid-search optimum (got {sol1.joint_angles[0,0]}, oracle {oracle_q})",
        sol1.joint_angles[0, 0] == 1.0 and oracle_q == 1.0,
    )
    c.check("limit cost positive at the constrained optimum", costs1["limit"] > 0.0)
    c.finish()


def test_criterion_7_scenario():
    c = Criterion(7, "scenario", 5.0)
    dataset = [
        (np.array([0.2, 0.1, 1.1]), 1.0),
        (np.array([-0.3, -0.1, 1.15]), 1.2),
        (np.array([0.5, 0.0, 1.05]), 0.9),
    ]
    center = (0.0, 0.0, 1.1)
    for mode, size, radius in (
        ("easy", (2.0, 0.4, 0.3), 0.4),
        ("hard", (4.0, 1.0, 0.3), 0.8),
    ):
        manifold = scenario.expand_manifold(
            dataset, radius=radius, time_jitter=0.5, count=10_000,
            mode=mode, seed=45, center=center,
        )
        volume = scenario.strike_volume(mode, center)
        inside = sum(volume.contains(p.position) for p in manifold.points)
        c.check(f"{mode} manifold 100% inside {size} volume", inside == 10_000)

    rng = np.random.default_rng(505)
    rhythm = np.array([scenario.sample_rhythm_interval(rng) for _ in range(100_000)])
    c.check(
        "rhythm samples 100% inside [1, 6] s",
        bool((rhythm >= 1.0).all() and (rhythm <= 6.0).all()),
    )
    ks = stats.kstest(rhythm[:20_000], stats.uniform(loc=1.0, scale=5.0).cdf)
    c.check(f"rhythm KS uniformity p > 0.01 (p = {ks.pvalue:.3f})", ks.pvalue > 0.01)

    table = scenario.RandomizationTable()
    ranges = table.ranges()
    violations = 0
    for _ in range(100_000):
        draw = scenario.sample_randomization(table, rng)
        for name, value in draw.items():
            lo, hi = ranges[name]
            if not lo <= value <= hi:
                violations += 1
    c.check(f"10^5 randomization draws inside declared ranges ({violations} out)", violations == 0)
    c.finish()


def test_criterion_8_end_to_end():
    c = Criterion(8, "end-to-end interception", 30.0)
    rng = np.random.default_rng(606)
    params = shuttle.ShuttleParams(mass=0.005, drag_coeff=0.001)
    dataset = [
        (np.array([0.2, 0.1, 1.1]), 1.0),
        (np.array([-0.3, -0.1, 1.15]), 1.2),
    ]
    manifold = scenario.expand_manifold(
        dataset, radius=0.6, time_jitter=0.4, count=500,
        mode="easy", seed=77, center=(0.0, 0.0, 1.1),
    )
    court = shuttle.CourtGeometry(1.55, 3.0, 3.2, 9.0, -2.6, 2.6)
    serve_cfg = scenario.ServeConfig(
        origin=np.array([6.0, 0.0, 2.0]), origin_jitter=np.array([0.5, 0.5, 0.3])
    )
    noise = estimator.NoiseConfig.isotropic(process_psd=1e-4, measurement_std=0.005)
    volume = Box(np.array([0.0, 0.0, 1.1]), np.array([2.0, 0.4, 0.3]))
    criteria = estimator.HitCriteria(height_band=(0.95, 1.25), volume=volume)
    dt = 0.005
    sigma = 0.005

    planned = 0
    within = 0
    for pt in manifold.points:
        launch = scenario.serve_trajectory(pt, court, params, rng, serve_cfg)
        t_hit = pt.time_offset
        n_total = int(np.ceil((t_hit + 0.3) / dt))
        state = launch.position.tolist() + launch.velocity.tolist()
        true_positions = [state[:3]]
        for _ in range(n_total):
            state = shuttle._rk4_step(state, params, dt)
            true_positions.append(state[:3])
        true_positions = np.array(true_positions)
        times = np.arange(len(true_positions)) * dt

        n_obs = int(0.5 / dt) + 1
        zs = true_positions[:n_obs] + rng.normal(0, sigma, (n_obs, 3))
        vel0 = (zs[1] - zs[0]) / dt
        prior = estimator.EkfBelief(
            np.concatenate([zs[0], vel0]), np.diag([0.01] * 3 + [25.0] * 3)
        )
        belief, _ = estimator.track_measurements(times[:n_obs], zs, prior, params, noise)
        traj = estimator.predict_trajectory(
            belief, params, dt, horizon=t_hit + 0.3 - times[n_obs - 1], t0=times[n_obs - 1]
        )
        target = estimator.select_hit_point(traj, criteria)
        if target is None:
            continue
        planned += 1
        k = target.hit_time / dt
        k0 = int(k)
        frac = k - k0
        k1 = min(k0 + 1, len(true_positions) - 1)
        truth = true_positions[k0] * (1 - frac) + true_positions[k1] * frac
        if np.linalg.norm(target.hit_racket_pose.position - truth) < 0.02:
            within += 1

    rate = within / max(planned, 1)
    c.check(
        f"95% of 500 serves planned within 2 cm ({within}/{planned} = {rate:.1%})",
        planned >= 450 and rate >= 0.95,
    )
    c.finish()


def test_criterion_9_cli_determinism(tmp_path):
    c = Criterion(9, "cli determinism", None)

    (tmp_path / "params.json").write_text(json.dumps({"mass": 0.005, "drag_coeff": 0.001}))
    (tmp_path / "court.json").write_text(json.dumps({
        "net_height": 1.55, "net_x": 3.0,
        "x_min": 3.2, "x_max": 9.0, "y_min": -2.6, "y_max": 2.6,
    }))
    (tmp_path / "chain.json").write_text(json.dumps(chain_to_dict(arm_chain())))
    (tmp_path / "config.json").write_text(json.dumps({
        "params": "params.json",
        "court": "court.json",
        "chain": "chain.json",
        "seed": 9,
        "out_dir": "out",
        "track": {"process_psd": 1e-4, "measurement_std": 0.0001,
                  "height_band": [1.0, 1.3], "horizon": 3.0},
        "expand": {"radius": 0.4, "time_jitter": 0.3, "center": [0.0, 0.0, 1.1]},
    }))
    config = str(tmp_path / "config.json")

    (tmp_path / "state.json").write_text(json.dumps(
        {"position": [0.0, 0.0, 2.0], "velocity": [3.0, 0.0, 2.0]}
    ))
    flight = shuttle.simulate_to_ground(
        shuttle.ShuttleState(np.array([6.0, 0.0, 2.0]), np.array([-5.5, 0.0, 4.0])),
        shuttle.ShuttleParams(mass=0.005, drag_coeff=0.001), dt=0.005, t_max=5.0,
    )
    lines = ["t,x,y,z"]
    for t, p in zip(flight.trajectory.times[:101], flight.trajectory.positions[:101]):
        lines.append(",".join(format(v, ".12g") for v in (t, *p)))
    (tmp_path / "meas.csv").write_text("\n".join(lines) + "\n")

    chain = arm_chain()
    names = ("shoulder", "elbow", "wrist", "hand", "hip_l", "hip_r")
    fk = forward_kinematics(chain, Pose.identity(), np.array([0.4, -0.3, 0.2]))
    (tmp_path / "problem.json").write_text(json.dumps({
        "chain_file": "chain.json",
        "keypoint_map": {f"kp_{n}": n for n in names},
        "frames": [{"t": 0.0, "keypoints": {f"kp_{n}": fk[n].position.tolist() for n in names}}],
    }))
    (tmp_path / "dataset.json").write_text(json.dumps(
        [{"pos": [0.2, 0.1, 1.1], "t": 1.0, "src": 0}]
    ))
    (tmp_path / "episodes.csv").write_text(
        "serve_id,intercepted,dx,dy,dz,landing,in_bounds,cleared_net,speed\n"
        "0,1,0.1,0,0,1,1,1,8\n"
        "1,0,,,,0,0,0,0\n"
    )

    commands = {
        "simulate": (["simulate", "--config", config, str(tmp_path / "state.json")],
                     ["trajectory.csv", "landing.json"]),
        "track": (["track", "--config", config, str(tmp_path / "meas.csv")],
                  ["filter_log.csv", "strike_target.json"]),
        "retarget": (["retarget", "--config", config, str(tmp_path / "problem.json")],
                     ["motion_clip.json", "cost_report.json"]),
        "expand": (["expand", "--config", config, "--count", "100",
                    str(tmp_path / "dataset.json")], ["manifold.json"]),
        "score": (["score", "--config", config, str(tmp_path / "episodes.csv")],
                  ["metrics.json"]),
    }
    for name, (args, outputs) in commands.items():
        code_a = cli_main(args)
        first = {f: (tmp_path / "out" / f).read_bytes() for f in outputs}
        code_b = cli_main(args)
        second = {f: (tmp_path / "out" / f).read_bytes() for f in outputs}
        c.check(f"{name} exits 0", code_a == 0 and code_b == 0)
        c.check(f"{name} outputs byte-identical", first == second)
    c.finish()
