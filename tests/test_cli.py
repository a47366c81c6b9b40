import json

import numpy as np
import pytest

from conftest import arm_chain
from shuttlekit.cli import main
from shuttlekit.shuttle import ShuttleParams, ShuttleState, simulate_to_ground
from shuttlekit.spatial import Pose, chain_to_dict, forward_kinematics, quat_identity

PARAMS = {"mass": 0.005, "drag_coeff": 0.001}
COURT = {
    "net_height": 1.55, "net_x": 3.0,
    "x_min": 3.2, "x_max": 9.0, "y_min": -2.6, "y_max": 2.6,
}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "params.json").write_text(json.dumps(PARAMS))
    (tmp_path / "court.json").write_text(json.dumps(COURT))
    (tmp_path / "chain.json").write_text(json.dumps(chain_to_dict(arm_chain())))
    config = {
        "params": "params.json",
        "court": "court.json",
        "chain": "chain.json",
        "seed": 7,
        "out_dir": "out",
        "sim": {"dt": 0.005, "t_max": 10.0},
        "track": {
            "process_psd": 1e-4,
            "measurement_std": 0.0001,
            "height_band": [1.0, 1.3],
            "horizon": 3.0,
        },
        "expand": {"radius": 0.4, "time_jitter": 0.3, "center": [0.0, 0.0, 1.1]},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path


def _run(workdir, *args):
    return main(["--config", str(workdir / "config.json"), *args])


class TestSimulate:
    def test_drop_lands_cleanly(self, workdir):
        state_path = workdir / "state.json"
        state_path.write_text(json.dumps({"position": [0, 0, 2.0], "velocity": [3.0, 0, 2.0]}))
        code = main(["simulate", "--config", str(workdir / "config.json"), str(state_path)])
        assert code == 0
        rows = (workdir / "out" / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "t,x,y,z,vx,vy,vz"
        assert len(rows) >= 2
        landing = json.loads((workdir / "out" / "landing.json").read_text())
        assert landing["landed"] is True

    def test_timeout_exits_two(self, workdir):
        config = json.loads((workdir / "config.json").read_text())
        config["sim"]["t_max"] = 0.01
        (workdir / "config.json").write_text(json.dumps(config))
        state_path = workdir / "state.json"
        state_path.write_text(json.dumps({"position": [0, 0, 10.0], "velocity": [0, 0, 0]}))
        code = main(["simulate", "--config", str(workdir / "config.json"), str(state_path)])
        assert code == 2
        landing = json.loads((workdir / "out" / "landing.json").read_text())
        assert landing["landed"] is False

    def test_bad_state_file_exits_one(self, workdir):
        missing = workdir / "nope.json"
        code = main(["simulate", "--config", str(workdir / "config.json"), str(missing)])
        assert code == 1

    def test_missing_config_reference_exits_one(self, workdir):
        config = json.loads((workdir / "config.json").read_text())
        config["params"] = "absent.json"
        bad = workdir / "bad_config.json"
        bad.write_text(json.dumps(config))
        state_path = workdir / "state.json"
        state_path.write_text(json.dumps({"position": [0, 0, 2.0], "velocity": [0, 0, 0]}))
        assert main(["simulate", "--config", str(bad), str(state_path)]) == 1

    def test_non_finite_flight_exits_one_without_output(self, workdir, capsys):
        state_path = workdir / "state.json"
        state_path.write_text(json.dumps({"position": [0, 0, 2.0], "velocity": [1e200, 0, 1e200]}))
        code = main(["simulate", "--config", str(workdir / "config.json"), str(state_path)])
        assert code == 1
        assert "error: flight state stopped being finite at t = " in capsys.readouterr().err
        assert not (workdir / "out" / "trajectory.csv").exists()

    @pytest.mark.parametrize("config, message", [
        ({"sim": [1]}, "error: config sim must be an object"),
        ([1], "must be a JSON object"),
    ])
    def test_config_of_wrong_shape_exits_one(self, workdir, capsys, config, message):
        (workdir / "config.json").write_text(json.dumps(config))
        state_path = workdir / "state.json"
        state_path.write_text(json.dumps({"position": [0, 0, 2.0], "velocity": [0, 0, 0]}))
        code = main(["simulate", "--config", str(workdir / "config.json"), str(state_path)])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_list_t_max_exits_one(self, workdir, capsys):
        config = json.loads((workdir / "config.json").read_text())
        config["sim"]["t_max"] = [1.0]
        (workdir / "config.json").write_text(json.dumps(config))
        state_path = workdir / "state.json"
        state_path.write_text(json.dumps({"position": [0, 0, 2.0], "velocity": [0, 0, 0]}))
        code = main(["simulate", "--config", str(workdir / "config.json"), str(state_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: config sim.t_max must be a number")

    def test_rerun_byte_identical(self, workdir):
        state_path = workdir / "state.json"
        state_path.write_text(json.dumps({"position": [0, 0, 2.0], "velocity": [3.0, 0, 2.0]}))
        args = ["simulate", "--config", str(workdir / "config.json"), str(state_path)]
        assert main(args) == 0
        first = (workdir / "out" / "trajectory.csv").read_bytes()
        first_landing = (workdir / "out" / "landing.json").read_bytes()
        assert main(args) == 0
        assert (workdir / "out" / "trajectory.csv").read_bytes() == first
        assert (workdir / "out" / "landing.json").read_bytes() == first_landing


def _write_measurements(workdir, t_obs=0.5):
    """Noise-free 200 Hz samples of a synthetic serve toward the robot."""
    params = ShuttleParams(**PARAMS)
    s0 = ShuttleState(np.array([6.0, 0.0, 2.0]), np.array([-5.5, 0.0, 4.0]))
    flight = simulate_to_ground(s0, params, dt=0.005, t_max=5.0)
    lines = ["t,x,y,z"]
    n = int(t_obs / 0.005) + 1
    for t, p in zip(flight.trajectory.times[:n], flight.trajectory.positions[:n]):
        lines.append(",".join(format(v, ".12g") for v in (t, *p)))
    path = workdir / "measurements.csv"
    path.write_text("\n".join(lines) + "\n")
    return path, flight


class TestTrack:
    def test_noiseless_target_matches_truth(self, workdir):
        meas, flight = _write_measurements(workdir)
        code = main(["track", "--config", str(workdir / "config.json"), str(meas)])
        assert code == 0
        target = json.loads((workdir / "out" / "strike_target.json").read_text())
        t_hit = target["hit_time"]
        planned = np.array(target["hit_racket_pose"]["position"])
        # truth: interpolate the simulated flight at the planned time
        times = flight.trajectory.times
        k = int(np.searchsorted(times, t_hit)) - 1
        frac = (t_hit - times[k]) / (times[k + 1] - times[k])
        truth = flight.trajectory.positions[k] * (1 - frac) + flight.trajectory.positions[k + 1] * frac
        assert np.linalg.norm(planned - truth) < 0.01
        assert 1.0 <= planned[2] <= 1.3
        log_lines = (workdir / "out" / "filter_log.csv").read_text().splitlines()
        assert log_lines[0] == "t,mx,my,mz,mvx,mvy,mvz,nis"

    def test_empty_measurements_exit_one(self, workdir):
        path = workdir / "empty.csv"
        path.write_text("t,x,y,z\n")
        assert main(["track", "--config", str(workdir / "config.json"), str(path)]) == 1

    def test_non_finite_measurement_exits_one(self, workdir, capsys):
        path = workdir / "bad.csv"
        path.write_text("t,x,y,z\n0.0,6.0,0.0,2.0\n0.005,nan,0.0,2.02\n0.01,5.94,0.0,2.04\n")
        assert main(["track", "--config", str(workdir / "config.json"), str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.csv: row 2 " in err
        assert not (workdir / "out" / "filter_log.csv").exists()

    def test_singular_innovation_exits_one(self, workdir, capsys):
        config = json.loads((workdir / "config.json").read_text())
        config["track"].update(initial_pos_var=0.0, measurement_std=0.0)
        (workdir / "config.json").write_text(json.dumps(config))
        meas, _ = _write_measurements(workdir)
        assert main(["track", "--config", str(workdir / "config.json"), str(meas)]) == 1
        assert capsys.readouterr().err == "error: singular innovation covariance\n"

    def test_unreachable_band_exits_three(self, workdir):
        config = json.loads((workdir / "config.json").read_text())
        config["track"]["height_band"] = [8.0, 9.0]
        (workdir / "config.json").write_text(json.dumps(config))
        meas, _ = _write_measurements(workdir)
        code = main(["track", "--config", str(workdir / "config.json"), str(meas)])
        assert code == 3
        assert json.loads((workdir / "out" / "strike_target.json").read_text()) == {}

    def test_string_latency_reads_as_number(self, workdir):
        meas, _ = _write_measurements(workdir)
        args = ["track", "--config", str(workdir / "config.json"), str(meas)]
        outputs = []
        for latency in (0.01, "0.01"):
            config = json.loads((workdir / "config.json").read_text())
            config["track"]["latency"] = latency
            (workdir / "config.json").write_text(json.dumps(config))
            assert main(args) == 0
            outputs.append([(workdir / "out" / f).read_bytes()
                            for f in ("filter_log.csv", "strike_target.json")])
        assert outputs[0] == outputs[1]

    def test_null_process_psd_exits_one(self, workdir, capsys):
        config = json.loads((workdir / "config.json").read_text())
        config["track"]["process_psd"] = None
        (workdir / "config.json").write_text(json.dumps(config))
        meas, _ = _write_measurements(workdir)
        assert main(["track", "--config", str(workdir / "config.json"), str(meas)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config track.process_psd must be a number")

    def test_nan_latency_exits_one(self, workdir, capsys):
        config = json.loads((workdir / "config.json").read_text())
        config["track"]["latency"] = float("nan")
        (workdir / "config.json").write_text(json.dumps(config))
        meas, _ = _write_measurements(workdir)
        assert main(["track", "--config", str(workdir / "config.json"), str(meas)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: timestamps shifted by latency nan")
        assert not (workdir / "out" / "filter_log.csv").exists()

    def test_rerun_byte_identical(self, workdir):
        meas, _ = _write_measurements(workdir)
        args = ["track", "--config", str(workdir / "config.json"), str(meas)]
        assert main(args) == 0
        first = (workdir / "out" / "filter_log.csv").read_bytes()
        target = (workdir / "out" / "strike_target.json").read_bytes()
        assert main(args) == 0
        assert (workdir / "out" / "filter_log.csv").read_bytes() == first
        assert (workdir / "out" / "strike_target.json").read_bytes() == target


def _retarget_problem(workdir):
    chain = arm_chain()
    names = ("shoulder", "elbow", "wrist", "hand", "hip_l", "hip_r")
    frames = []
    for k, q in enumerate(np.linspace([0.0, 0.0, 0.0], [0.6, -0.4, 0.3], 3)):
        fk = forward_kinematics(chain, Pose(np.zeros(3), quat_identity()), q)
        frames.append(
            {"t": 0.1 * k, "keypoints": {f"kp_{n}": fk[n].position.tolist() for n in names}}
        )
    problem = {
        "chain_file": "chain.json",
        "keypoint_map": {f"kp_{n}": n for n in names},
        "weights": {"smoothness": 0.0},
        "frames": frames,
    }
    path = workdir / "problem.json"
    path.write_text(json.dumps(problem))
    return path


class TestRetarget:
    def test_round_trip_cost_small(self, workdir):
        path = _retarget_problem(workdir)
        code = main(["retarget", "--config", str(workdir / "config.json"), str(path)])
        assert code == 0
        report = json.loads((workdir / "out" / "cost_report.json").read_text())
        assert set(report) == {"global", "local", "ee_rotation", "collision",
                               "limit", "smooth", "total"}
        assert report["total"] < 1e-8
        clip = json.loads((workdir / "out" / "motion_clip.json").read_text())
        assert len(clip["frames"]) == 3

    def test_missing_keypoint_mapping_exits_one(self, workdir):
        path = _retarget_problem(workdir)
        data = json.loads(path.read_text())
        del data["keypoint_map"]["kp_hand"]
        path.write_text(json.dumps(data))
        assert main(["retarget", "--config", str(workdir / "config.json"), str(path)]) == 1

    def test_unknown_weights_key_exits_one(self, workdir, capsys):
        path = _retarget_problem(workdir)
        data = json.loads(path.read_text())
        data["weights"]["global"] = 2.0
        path.write_text(json.dumps(data))
        assert main(["retarget", "--config", str(workdir / "config.json"), str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown weights key") and "'global'" in err

    def test_non_number_weight_exits_one(self, workdir, capsys):
        path = _retarget_problem(workdir)
        data = json.loads(path.read_text())
        data["weights"]["global_pos"] = [1]
        path.write_text(json.dumps(data))
        assert main(["retarget", "--config", str(workdir / "config.json"), str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: weights key 'global_pos' must be a number")

    def test_numeric_string_weight_reads_as_number(self, workdir):
        path = _retarget_problem(workdir)
        args = ["retarget", "--config", str(workdir / "config.json"), str(path)]
        outputs = []
        for weight in (0.5, "0.5"):
            data = json.loads(path.read_text())
            data["weights"]["global_pos"] = weight
            path.write_text(json.dumps(data))
            assert main(args) == 0
            outputs.append([(workdir / "out" / f).read_bytes()
                            for f in ("motion_clip.json", "cost_report.json")])
        assert outputs[0] == outputs[1]

    def test_two_coordinate_keypoint_exits_one(self, workdir, capsys):
        path = _retarget_problem(workdir)
        data = json.loads(path.read_text())
        data["frames"][1]["keypoints"]["kp_hand"] = [0.1, 0.2]
        path.write_text(json.dumps(data))
        assert main(["retarget", "--config", str(workdir / "config.json"), str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: keypoint 'kp_hand' must have shape (3,)")

    def test_two_coordinate_sphere_offset_exits_one(self, workdir, capsys):
        path = _retarget_problem(workdir)
        data = json.loads(path.read_text())
        data["collision_spheres"] = [{"frame": "hand", "offset": [0.0, 0.0], "radius": 0.05}]
        path.write_text(json.dumps(data))
        assert main(["retarget", "--config", str(workdir / "config.json"), str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: collision sphere offset on frame 'hand' must have shape")

    def test_rerun_byte_identical(self, workdir):
        path = _retarget_problem(workdir)
        args = ["retarget", "--config", str(workdir / "config.json"), str(path)]
        assert main(args) == 0
        clip = (workdir / "out" / "motion_clip.json").read_bytes()
        report = (workdir / "out" / "cost_report.json").read_bytes()
        assert main(args) == 0
        assert (workdir / "out" / "motion_clip.json").read_bytes() == clip
        assert (workdir / "out" / "cost_report.json").read_bytes() == report


def _dataset(workdir):
    data = [
        {"pos": [0.2, 0.1, 1.1], "t": 1.0, "src": 0},
        {"pos": [-0.3, -0.1, 1.15], "t": 1.2, "src": 1},
    ]
    path = workdir / "dataset.json"
    path.write_text(json.dumps(data))
    return path


class TestExpand:
    def test_emits_count_points_in_volume(self, workdir):
        path = _dataset(workdir)
        code = main(["expand", "--config", str(workdir / "config.json"), str(path),
                     "--mode", "easy", "--count", "200"])
        assert code == 0
        points = json.loads((workdir / "out" / "manifold.json").read_text())
        assert len(points) == 200
        center = np.array([0.0, 0.0, 1.1])
        size = np.array([2.0, 0.4, 0.3])
        for p in points:
            assert np.all(np.abs(np.array(p["pos"]) - center) <= size / 2 + 1e-12)

    def test_unreachable_volume_exits_three(self, workdir, capsys):
        config = json.loads((workdir / "config.json").read_text())
        config["expand"]["radius"] = 0.0
        (workdir / "config.json").write_text(json.dumps(config))
        path = workdir / "far.json"
        path.write_text(json.dumps([{"pos": [40.0, 0.0, 1.1], "t": 1.0, "src": 0}]))
        code = main(["expand", "--config", str(workdir / "config.json"), str(path),
                     "--count", "3"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: could not place a sample")
        assert not (workdir / "out" / "manifold.json").exists()

    def test_seed_flag_controls_output(self, workdir):
        path = _dataset(workdir)
        base = ["expand", "--config", str(workdir / "config.json"), str(path), "--count", "50"]
        assert main([*base, "--seed", "1"]) == 0
        first = (workdir / "out" / "manifold.json").read_bytes()
        assert main([*base, "--seed", "1"]) == 0
        assert (workdir / "out" / "manifold.json").read_bytes() == first
        assert main([*base, "--seed", "2"]) == 0
        assert (workdir / "out" / "manifold.json").read_bytes() != first


class TestScore:
    def test_metrics_values(self, workdir):
        path = workdir / "episodes.csv"
        path.write_text(
            "serve_id,intercepted,dx,dy,dz,landing,in_bounds,cleared_net,speed\n"
            "0,1,0.1,0,0,1,1,1,8\n"
            "1,1,0,0.2,0,1,0,1,9\n"
            "2,0,,,,0,0,0,0\n"
            "3,1,0,0,0,1,1,1,7\n"
        )
        code = main(["score", "--config", str(workdir / "config.json"), str(path)])
        assert code == 0
        metrics = json.loads((workdir / "out" / "metrics.json").read_text())
        assert metrics["SR"] == 0.75
        assert metrics["MSE"] == pytest.approx((0.01 + 0.04 + 0.0) / 3)
        assert metrics["IBR"] == pytest.approx((1.0 - 0.25 + 0.0 + 1.0) / 4)

    def test_out_flag_overrides_config(self, workdir, tmp_path):
        path = workdir / "episodes.csv"
        path.write_text(
            "serve_id,intercepted,dx,dy,dz,landing,in_bounds,cleared_net,speed\n"
            "0,1,0,0,0,1,1,1,8\n"
        )
        other = tmp_path / "elsewhere"
        code = main(["score", "--config", str(workdir / "config.json"),
                     "--out", str(other), str(path)])
        assert code == 0
        assert (other / "metrics.json").exists()

    def test_log_env_var_accepted(self, workdir, monkeypatch):
        monkeypatch.setenv("SHUTTLEKIT_LOG", "debug")
        path = workdir / "episodes.csv"
        path.write_text(
            "serve_id,intercepted,dx,dy,dz,landing,in_bounds,cleared_net,speed\n"
            "0,1,0,0,0,1,1,1,8\n"
        )
        assert main(["score", "--config", str(workdir / "config.json"), str(path)]) == 0


def _floats_in(path):
    """Every number written to a CSV or JSON output file, as floats."""
    if path.suffix == ".csv":
        rows = path.read_text().splitlines()[1:]
        return [float(v) for row in rows for v in row.split(",") if v]
    out = []

    def walk(x):
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)
        elif isinstance(x, (int, float)) and not isinstance(x, bool):
            out.append(float(x))

    walk(json.loads(path.read_text()))
    return out


def test_every_output_float_has_nine_significant_digits(workdir):
    state = workdir / "state.json"
    state.write_text(json.dumps({"position": [0, 0, 2.0], "velocity": [3.0, 0.1, 2.0]}))
    meas, _ = _write_measurements(workdir)
    episodes = workdir / "episodes.csv"
    episodes.write_text(
        "serve_id,intercepted,dx,dy,dz,landing,in_bounds,cleared_net,speed\n"
        "0,1,0.1,0.0333333333333333,0,1,1,1,8.123456789123\n"
        "1,0,,,,0,0,0,0\n"
    )
    commands = (
        ("simulate", state),
        ("track", meas),
        ("retarget", _retarget_problem(workdir)),
        ("expand", _dataset(workdir), "--count", "20"),
        ("score", episodes),
    )
    for name, *args in commands:
        assert main([name, "--config", str(workdir / "config.json"), *map(str, args)]) == 0
    outputs = sorted((workdir / "out").iterdir())
    assert {p.name for p in outputs} == {
        "trajectory.csv", "landing.json", "filter_log.csv", "strike_target.json",
        "motion_clip.json", "cost_report.json", "manifold.json", "metrics.json",
    }
    for path in outputs:
        values = _floats_in(path)
        assert values, path.name
        for x in values:
            assert float(format(x, ".9g")) == x, (path.name, x)
