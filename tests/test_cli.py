import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import arm_chain, finite, poses, vec3
from shuttlekit import cli, goal, retarget, scenario, shuttle, spatial
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
    return _populate(tmp_path)


def _populate(tmp_path):
    """A run config and the params, court and chain files it names."""
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
        ({"sim": [1]}, "sim must be an object"),
        ([1], "must be a JSON object"),
    ])
    def test_config_of_wrong_shape_exits_one(self, workdir, capsys, config, message):
        (workdir / "config.json").write_text(json.dumps(config))
        state_path = workdir / "state.json"
        state_path.write_text(json.dumps({"position": [0, 0, 2.0], "velocity": [0, 0, 0]}))
        code = main(["simulate", "--config", str(workdir / "config.json"), str(state_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {workdir / 'config.json'}: ") and message in err, err

    def test_list_t_max_exits_one(self, workdir, capsys):
        config = json.loads((workdir / "config.json").read_text())
        config["sim"]["t_max"] = [1.0]
        (workdir / "config.json").write_text(json.dumps(config))
        state_path = workdir / "state.json"
        state_path.write_text(json.dumps({"position": [0, 0, 2.0], "velocity": [0, 0, 0]}))
        code = main(["simulate", "--config", str(workdir / "config.json"), str(state_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: {workdir / 'config.json'}: sim.t_max must be a number")

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
        assert err.startswith(
            f"error: {workdir / 'config.json'}: track.process_psd must be a number")

    def test_nan_latency_exits_one(self, workdir, capsys):
        config = json.loads((workdir / "config.json").read_text())
        config["track"]["latency"] = float("nan")
        (workdir / "config.json").write_text(json.dumps(config))
        meas, _ = _write_measurements(workdir)
        assert main(["track", "--config", str(workdir / "config.json"), str(meas)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: {workdir / 'config.json'}: track.latency must be finite, got nan")
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
        assert err.startswith(f"error: {path}: key 'weights.global' is unknown")

    def test_non_number_weight_exits_one(self, workdir, capsys):
        path = _retarget_problem(workdir)
        data = json.loads(path.read_text())
        data["weights"]["global_pos"] = [1]
        path.write_text(json.dumps(data))
        assert main(["retarget", "--config", str(workdir / "config.json"), str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: weights.global_pos must be a number")

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
        assert err.startswith(f"error: {path}: frames[1].keypoints.kp_hand must be finite numbers "
                              "of shape (3,)")

    def test_two_coordinate_sphere_offset_exits_one(self, workdir, capsys):
        path = _retarget_problem(workdir)
        data = json.loads(path.read_text())
        data["collision_spheres"] = [{"frame": "hand", "offset": [0.0, 0.0], "radius": 0.05}]
        path.write_text(json.dumps(data))
        assert main(["retarget", "--config", str(workdir / "config.json"), str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: collision_spheres[0].offset must be finite numbers")

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


# ---------------------------------------------------------------------------
# Boundary checks: bad config values and file cells exit 1 with a message that
# names the key, the row or the entry, before anything is written.

EPISODES = (
    "serve_id,intercepted,dx,dy,dz,landing,in_bounds,cleared_net,speed\n"
    "0,1,0.1,0,0,1,1,1,8\n"
    "1,0,,,,0,0,0,0\n"
)


def _patch_config(workdir, **top):
    config = json.loads((workdir / "config.json").read_text())
    for key, value in top.items():
        if isinstance(value, dict):
            config.setdefault(key, {}).update(value)
        else:
            config[key] = value
    (workdir / "config.json").write_text(json.dumps(config))


def _input_for(workdir, command):
    if command == "track":
        return _write_measurements(workdir)[0]
    if command == "expand":
        return _dataset(workdir)
    path = workdir / "episodes.csv"
    path.write_text(EPISODES)
    return path


def _exit_one(workdir, capsys, command, path):
    code = main([command, "--config", str(workdir / "config.json"), str(path)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (workdir / "out").exists()
    return err


class TestNonFiniteInputs:
    @pytest.mark.parametrize("command, section, key", [
        ("expand", "expand", "time_jitter"),
        ("score", "score", "fault_weight"),
        ("track", "track", "process_psd"),
        ("track", "track", "horizon"),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_config_number_exits_one(self, workdir, capsys, command, section,
                                                key, value):
        _patch_config(workdir, **{section: {key: value}})
        err = _exit_one(workdir, capsys, command, _input_for(workdir, command))
        assert err.startswith(
            f"error: {workdir / 'config.json'}: {section}.{key} must be finite, got {value}")

    def test_nan_dataset_time_exits_one(self, workdir, capsys):
        path = workdir / "dataset.json"
        path.write_text(json.dumps([{"pos": [0.2, 0.1, 1.1], "t": 1.0},
                                    {"pos": [0.0, 0.0, 1.1], "t": float("nan")}]))
        err = _exit_one(workdir, capsys, "expand", path)
        assert err.startswith(f"error: {path}: [1].t must be finite, got nan")

    def test_nan_dataset_position_exits_one(self, workdir, capsys):
        path = workdir / "dataset.json"
        path.write_text(json.dumps([{"pos": [0.0, float("nan"), 1.1], "t": 1.0}]))
        err = _exit_one(workdir, capsys, "expand", path)
        assert err.startswith(f"error: {path}: [0].pos must be finite numbers of shape (3,)")

    @pytest.mark.parametrize("row", ["0,1,nan,0,0,1,1,1,8", "0,1,0.1,0,0,1,1,1,-inf"],
                             ids=["nan-offset", "inf-speed"])
    def test_non_finite_episode_cell_exits_one(self, workdir, capsys, row):
        path = workdir / "episodes.csv"
        path.write_text(EPISODES.replace("0,1,0.1,0,0,1,1,1,8", row))
        err = _exit_one(workdir, capsys, "score", path)
        assert err.startswith(f"error: {path}: row 1 has a non-finite value")


    def test_overflowing_offset_exits_one_without_a_warning(self, workdir, capsys):
        path = workdir / "episodes.csv"
        path.write_text(EPISODES.replace("0,1,0.1,", "0,1,1e200,"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = _exit_one(workdir, capsys, "score", path)
        assert err.startswith(f"error: {path}: metrics overflow (MSE inf"), err
        assert not caught, [str(w.message) for w in caught]

    @pytest.mark.parametrize("key, command", [("mass", "simulate"), ("drag_coeff", "track")])
    def test_non_finite_shuttle_param_names_it(self, workdir, capsys, key, command):
        (workdir / "params.json").write_text(json.dumps({**PARAMS, key: float("nan")}))
        if command == "simulate":
            path = workdir / "state.json"
            path.write_text(json.dumps({"position": [0, 0, 2.0], "velocity": [3.0, 0, 2.0]}))
        else:
            path = _input_for(workdir, command)
        err = _exit_one(workdir, capsys, command, path)
        assert err.startswith(
            f"error: {workdir / 'params.json'}: {key} must be finite, got nan"
        ), err

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["frames"][1].update(t=float("nan")), "frames[1].t must be finite, got nan"),
        (lambda d: d.update(collision_spheres=[
            {"frame": "hand", "offset": [0.0, 0.0, 0.0], "radius": float("nan")}]),
         "collision_spheres[0].radius must be finite, got nan"),
        (lambda d: d["weights"].update(global_pos=float("nan")),
         "weights.global_pos must be finite, got nan"),
    ], ids=["frame-t", "sphere-radius", "weight"])
    def test_non_finite_retarget_value_names_it(self, workdir, capsys, edit, message):
        path = _retarget_problem(workdir)
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        err = _exit_one(workdir, capsys, "retarget", path)
        assert err.startswith(f"error: {path}: {message}"), err


class TestMalformedInputs:
    @pytest.mark.parametrize("top, key", [
        ({"seed": "abc"}, "seed "),
        ({"seed": None}, "seed "),
        ({"seed": 7.9}, "seed "),
        ({"seed": True}, "seed "),
        ({"chain": 5}, "chain "),
        ({"out_dir": 5}, "out_dir "),
        ({"parmas": "params.json"}, "key 'parmas' is unknown"),
        ({"reward": {"sigma_time": 0.5}}, "key 'reward' is unknown"),
        ({"amp": {"history_length": 5}}, "key 'amp' is unknown"),
    ], ids=["seed-abc", "seed-null", "seed-fraction", "seed-true", "chain-int", "out_dir-int", "parmas", "reward", "amp"])
    def test_bad_top_level_value_names_it(self, workdir, capsys, top, key):
        _patch_config(workdir, **top)
        err = _exit_one(workdir, capsys, "score", _input_for(workdir, "score"))
        assert err.startswith(f"error: {workdir / 'config.json'}: {key}")

    def test_integer_string_seed_is_read(self, workdir):
        _patch_config(workdir, seed="7")
        assert cli.load_run_config(str(workdir / "config.json")).seed == 7

    @pytest.mark.parametrize("track, key", [
        ({"height_band": 5}, "track.height_band"),
        ({"height_band": [1.0]}, "track.height_band"),
        ({"volume": {"center": [0.0, 0.0, 1.1]}}, "track.volume.size"),
        ({"measurement_cov": [["a"] * 3] * 3}, "track.measurement_cov"),
        ({"initial_pos_var": -0.01}, "track.initial_pos_var must be non-negative, got"),
        ({"initial_vel_var": -1.0}, "track.initial_vel_var must be non-negative, got"),
        ({"preference": "latest"}, "track.preference must be one of"),
        ({"procss_psd": 1e-4}, "key 'track.procss_psd' is unknown"),
        ({"volume": {"center": [0.0, 0.0], "size": [2.0, 0.4, 0.3]}}, "track.volume.center"),
        ({"volume": {"center": [0.0, 0.0, 1.1], "size": [2.0, 0.4, 0.3], "extent": 1.0}},
         "key 'track.volume.extent' is unknown"),
        ({"horizon": 10**400}, "track.horizon must be a number:"),
        ({"height_band": [1.0, 10**400]}, "track.height_band must hold numbers:"),
        ({"height_band": [True, 1.3]}, "track.height_band must hold numbers, got"),
    ], ids=["band-scalar", "band-one-number", "volume-no-size", "cov-strings", "pos-var-negative",
            "vel-var-negative", "preference-latest", "procss_psd", "volume-center-2d",
            "volume-extra-key", "horizon-huge-int", "band-huge-int", "band-true"])
    def test_bad_track_value_names_it(self, workdir, capsys, track, key):
        _patch_config(workdir, track=track)
        err = _exit_one(workdir, capsys, "track", _input_for(workdir, "track"))
        assert err.startswith(f"error: {workdir / 'config.json'}: {key} ")

    @pytest.mark.parametrize("track, message", [
        ({"height_band": [1.3, 1.0]}, "track.height_band: height band must satisfy lo < hi"),
        ({"volume": {"center": [0.0, 0.0, 1.1], "size": [-1.0, 0.4, 0.3]}},
         "track.volume.size: box size must be non-negative"),
        ({"measurement_cov": [[1.0, 0, 0], [0, -1.0, 0], [0, 0, 1.0]]},
         "track.measurement_cov: measurement_cov must be finite and symmetric PSD"),
    ], ids=["band-reversed", "volume-negative-size", "cov-indefinite"])
    def test_track_value_the_library_rejects_writes_nothing(self, workdir, capsys, track,
                                                             message):
        _patch_config(workdir, track=track)
        state = workdir / "state.json"
        state.write_text(json.dumps({"position": [0, 0, 2.0], "velocity": [3.0, 0, 2.0]}))
        inputs = {"simulate": state, "retarget": _retarget_problem(workdir)}
        for command in ("simulate", "track", "retarget", "expand", "score"):
            path = inputs.get(command) or _input_for(workdir, command)
            err = _exit_one(workdir, capsys, command, path)
            assert err == f"error: {workdir / 'config.json'}: {message}\n", command

    @pytest.mark.parametrize("state, message", [
        ({"velocity": [3.0, 0, 2.0]}, "position is missing"),
        ({"position": [0, 0, 2.0]}, "velocity is missing"),
        ({"position": [0, "x", 2.0], "velocity": [3.0, 0, 2.0]},
         "position must hold numbers: could not convert string to float: 'x'"),
        ({"position": [0, 0, 2.0], "velocity": [3.0, {}, 2.0]}, "velocity must hold numbers"),
        ({"position": [0, 0, 2.0], "velocity": [3.0, 0, 2.0], "axis": [1.0, 1.0, 0]},
         "axis must be unit norm"),
        ([0, 0, 2.0], "top level must be a JSON object, got list"),
        ({"position": [True, 0, 2.0], "velocity": [3.0, 0, 2.0]},
         "position must hold numbers, got [True, 0, 2.0]"),
        ({"position": [0, 0, 2.0], "velocity": [3.0, False, 2.0]},
         "velocity must hold numbers, got [3.0, False, 2.0]"),
        ({"position": [0, 0, 2.0], "velocity": [3.0, 0, 2.0], "axis": [True, 0, 0]},
         "axis must hold numbers, got [True, 0, 0]"),
        ({"position": [0, 0], "velocity": [3.0, 0, 2.0]},
         "position must be finite numbers of shape (3,)"),
    ], ids=["no-position", "no-velocity", "position-string", "velocity-object", "axis-not-unit",
            "list", "position-true", "velocity-false", "axis-true", "position-short"])
    def test_bad_state_file_names_the_file_and_key(self, workdir, capsys, state, message):
        path = workdir / "state.json"
        path.write_text(json.dumps(state))
        err = _exit_one(workdir, capsys, "simulate", path)
        assert err.startswith(f"error: {path}: {message}"), err

    def test_null_axis_reads_as_no_axis(self, workdir):
        path = workdir / "state.json"
        path.write_text(json.dumps({"position": [0, 0, 2.0], "velocity": [3.0, 0, 2.0],
                                    "axis": None}))
        assert main(["simulate", "--config", str(workdir / "config.json"), str(path)]) == 0

    @pytest.mark.parametrize("init, message", [
        ({"q": ["x", 0, 0]}, "init.q[0] must be a number: could not convert string to float"),
        ({"q": [0.1, 0.2]}, "init.q must be finite numbers of shape (3,)"),
        ({"q": [0.1, True, 0.2]}, "init.q[1] must be a number, got True"),
        ({"root_pos": [0, 0]}, "init.root_pos must be finite numbers of shape (3,)"),
        ({"root_pos": [0, "x", 0]}, "init.root_pos must hold numbers"),
        ({"root_quat": [1, 0, 0]}, "init.root_quat must be finite numbers of shape (4,)"),
        ({"root_quat": [1, 0, False, 0]}, "init.root_quat must hold numbers, got"),
        ({"root_quat": [2, 0, 0, 0]}, "init.root_quat is not unit norm (|q| = 2.0)"),
        ([0.1, 0.2, 0.3], "init must be an object, got list"),
    ], ids=["q-string", "q-short", "q-true", "root-pos-short", "root-pos-string",
            "root-quat-short", "root-quat-false", "root-quat-not-unit", "init-list"])
    def test_bad_retarget_init_names_the_file_and_key(self, workdir, capsys, monkeypatch, init,
                                                      message):
        path = _retarget_problem(workdir)
        data = json.loads(path.read_text())
        data["init"] = init
        path.write_text(json.dumps(data))

        def no_solve(*args, **kwargs):
            raise AssertionError("a frame was solved before the init was checked")

        monkeypatch.setattr(retarget, "solve_retarget", no_solve)
        err = _exit_one(workdir, capsys, "retarget", path)
        assert err.startswith(f"error: {path}: {message}"), err

    @pytest.mark.parametrize("command", ["simulate", "track"])
    def test_command_without_params_exits_one_before_output(self, workdir, capsys, command):
        config = json.loads((workdir / "config.json").read_text())
        del config["params"]
        (workdir / "config.json").write_text(json.dumps(config))
        path = workdir / "state.json"
        path.write_text(json.dumps({"position": [0, 0, 2.0], "velocity": [3.0, 0, 2.0]}))
        if command == "track":
            path = _input_for(workdir, command)
        err = _exit_one(workdir, capsys, command, path)
        assert err == f"error: {command} needs a 'params' file in the run config\n"

    @pytest.mark.parametrize("key, value", [
        ("dt", 0), ("dt", -0.005), ("horizon", 0), ("horizon", -1.0),
    ])
    def test_non_positive_track_step_or_horizon_writes_nothing(self, workdir, capsys, key,
                                                               value):
        _patch_config(workdir, track={key: value})
        err = _exit_one(workdir, capsys, "track", _input_for(workdir, "track"))
        assert err.startswith(
            f"error: {workdir / 'config.json'}: track.{key} must be positive, got {float(value)}")

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["frames"][1].pop("t"), "frames[1].t is missing"),
        (lambda d: d["frames"][1].update(t="abc"),
         "frames[1].t must be a number: could not convert string to float: 'abc'"),
        (lambda d: d["frames"][2].update(t=0.1),
         "frame times must be strictly increasing: frame 2 has t = 0.1 after t = 0.1"),
        (lambda d: d["frames"][2].update(t=0.05),
         "frame times must be strictly increasing: frame 2 has t = 0.05 after t = 0.1"),
    ], ids=["no-t", "t-abc", "t-repeated", "t-decreasing"])
    def test_bad_retarget_frame_time_names_the_frame(self, workdir, capsys, monkeypatch, edit,
                                                    message):
        path = _retarget_problem(workdir)
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))

        def no_solve(*args, **kwargs):
            raise AssertionError("a frame was solved before the frame times were checked")

        monkeypatch.setattr(retarget, "solve_retarget", no_solve)
        err = _exit_one(workdir, capsys, "retarget", path)
        assert err.startswith(f"error: {path}: {message}"), err

    @pytest.mark.parametrize("line, message", [
        ("0.005,abc,0.0,2.02", "row 2: could not convert string to float: 'abc'"),
        ("0.005,5.97,2.02", "row 2 has 3 cells, expected 4"),
    ], ids=["cell-abc", "three-cells"])
    def test_bad_measurement_row_names_it(self, workdir, capsys, line, message):
        path = workdir / "meas.csv"
        path.write_text(f"t,x,y,z\n0.0,6.0,0.0,2.0\n{line}\n0.01,5.94,0.0,2.04\n")
        err = _exit_one(workdir, capsys, "track", path)
        assert err.startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("text, message", [
        (EPISODES.replace("1,0,,,,", "1,x,,,,"), "row 2: invalid literal"),
        (EPISODES.replace("0,1,0.1,", "0,1,,"), "row 1: could not convert string to float"),
        ("serve_id,intercepted,dx,dy,dz,landing,in_bounds,cleared_net\n0,0,,,,0,0,0\n",
         "missing column(s) speed"),
    ], ids=["intercepted-x", "empty-offset", "no-speed-column"])
    def test_bad_episode_row_names_it(self, workdir, capsys, text, message):
        path = workdir / "episodes.csv"
        path.write_text(text)
        err = _exit_one(workdir, capsys, "score", path)
        assert err.startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("entries, message", [
        ([{"pos": [0.2, 0.1, 1.1], "t": 1.0}, {"pos": [0.0, 1.1], "t": 1.0}],
         "[1].pos must be finite numbers of shape (3,)"),
        ([{"pos": [0.2, 0.1, 1.1], "t": 1.0}, {"pos": [0.0, 0.0, 1.1]}], "[1].t is missing"),
    ], ids=["two-coordinate-pos", "no-t"])
    def test_bad_dataset_entry_names_it(self, workdir, capsys, entries, message):
        path = workdir / "dataset.json"
        path.write_text(json.dumps(entries))
        err = _exit_one(workdir, capsys, "expand", path)
        assert message in err


# A value of the wrong kind for every key in the table and, where the key is
# bounded, one just outside its bound. The whole config is checked before any
# command runs, so `score` stops on a bad `sim` or `track` value too.
def _bad_values(default, bound):
    if isinstance(bound, dict):
        return [5]  # a nested table given as a number
    if isinstance(default, str):
        return [5, "sideways"]
    if isinstance(default, float):
        return [[1.0], True] + {cli.POSITIVE: [0.0], cli.NON_NEGATIVE: [-1e-9]}.get(bound, [])
    return ["abc", True]


TABLE_CASES = [
    pytest.param(section, key, value, id=f"{section}.{key}-{value!r}")
    for section, spec in cli.SECTIONS.items()
    for key, (default, bound) in spec.items()
    for value in _bad_values(default, bound)
]


@pytest.mark.parametrize("section, key, value", TABLE_CASES)
def test_bad_table_value_exits_one_before_any_command(workdir, capsys, section, key, value):
    _patch_config(workdir, **{section: {key: value}})
    code = main(["score", "--config", str(workdir / "config.json"),
                 str(_input_for(workdir, "score"))])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith(f"error: {workdir / 'config.json'}: {section}.{key} "), err
    assert not (workdir / "out").exists()


def test_readme_lists_every_config_key():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("### Run config keys", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"^\| `([a-z_.]+)` \|", section, flags=re.M)
    expected = [k for k in cli.TOP_LEVEL if k not in cli.SECTIONS]
    for name, spec in cli.SECTIONS.items():
        for key, (_, bound) in spec.items():
            expected.append(f"{name}.{key}")
            if isinstance(bound, dict):
                expected += [f"{name}.{key}.{sub}" for sub in bound]
    assert sorted(listed) == sorted(expected)


def _key_paths(kind, prefix=""):
    """(key path, required) of every key a loader's key table declares, in README's
    notation; a nested table that is itself a documented format is not expanded."""
    if isinstance(kind, list):
        yield from _key_paths(kind[0], prefix + "[]")
    elif isinstance(kind, dict) and str not in kind and not (prefix and kind is spatial.CHAIN):
        for key, (default, sub) in kind.items():
            path = f"{prefix}.{key}" if prefix else key
            yield path, default is spatial.REQUIRED
            yield from _key_paths(sub, path)


@pytest.mark.parametrize("title, table", [
    ("Initial-state JSON", cli.STATE),
    ("Shuttle params JSON", shuttle.PARAMS),
    ("Chain JSON", spatial.CHAIN),
    ("Reference clip JSON", goal.CLIP),
    ("Retarget problem JSON", retarget.PROBLEM),
    ("Manifold JSON", [scenario.MANIFOLD_POINT]),
])
def test_readme_lists_every_json_input_key(title, table):
    text = (Path(__file__).parents[1] / "README.md").read_text()
    formats = text.split("## File formats", 1)[1].split("\n## ", 1)[0]
    entry = formats.split(f"- **{title}**", 1)[1].split("\n- ", 1)[0]
    keys = re.search(r"Keys: (.*?)\.(?:\s|$)", entry, flags=re.S).group(1)
    listed = [(key, bold == "**") for bold, key in re.findall(r"(\*\*)?`([^`]+)`", keys)]
    assert sorted(listed) == sorted(_key_paths(table))


# ---------------------------------------------------------------------------
# CLI behaviour on generated inputs

near = st.floats(-0.5, 0.5)
wide = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def expand_and_score_inputs(draw):
    """A dataset, an episode log and expand.time_jitter / score.fault_weight.

    Every number is finite except, in about half of the examples, one of
    them, which is NaN or +-Infinity. Finite numbers are mostly small; the
    dataset points sit around the default easy strike volume.
    """
    n_points, n_rows = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    values = [draw(st.one_of(near, near, near, wide)) for _ in range(4 * (n_points + n_rows) + 2)]
    non_finite_at = draw(st.integers(-len(values), len(values) - 1))
    if non_finite_at >= 0:
        values[non_finite_at] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    dataset = [{"pos": [values[4 * i], values[4 * i + 1], values[4 * i + 2] + 1.1],
                "t": values[4 * i + 3], "src": i} for i in range(n_points)]
    rows, read = [], []  # read: the episode numbers the loader parses
    for k in range(n_rows):
        dx, dy, dz, speed = values[4 * (n_points + k):4 * (n_points + k) + 4]
        hit, land, inb, clear = (int(draw(st.booleans())) for _ in range(4))
        offset = [repr(dx), repr(dy), repr(dz)] if hit else ["", "", ""]
        rows.append(",".join([str(k), str(hit), *offset, str(land), str(inb), str(clear),
                              repr(speed)]))
        read += [dx, dy, dz, speed] if hit else [speed]
    return dataset, rows, read, abs(values[-2]), values[-1]


def _numbers_in(x):
    if isinstance(x, dict):
        return [v for key in x for v in _numbers_in(x[key])]
    if isinstance(x, list):
        return [v for item in x for v in _numbers_in(item)]
    return [x] if isinstance(x, float) else []


@settings(max_examples=50)
@given(expand_and_score_inputs())
def test_cli_on_generated_inputs_stops_non_finite_numbers_at_the_boundary(inputs):
    dataset, rows, read, time_jitter, fault_weight = inputs
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        config = d / "config.json"
        config.write_text(json.dumps({"expand": {"radius": 0.4, "time_jitter": time_jitter},
                                      "score": {"fault_weight": fault_weight}}))
        (d / "dataset.json").write_text(json.dumps(dataset))
        (d / "episodes.csv").write_text("\n".join([EPISODES.splitlines()[0], *rows]) + "\n")
        expand_values = [v for p in dataset for v in (*p["pos"], p["t"])] + [time_jitter]
        for command, args, given_values in (
            ("expand", [d / "dataset.json", "--count", "5"], expand_values),
            ("score", [d / "episodes.csv"], read + [fault_weight]),
        ):
            out = d / command
            argv = [command, "--config", str(config), "--out", str(out), *map(str, args)]
            runs = []
            for _ in range(2):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 1, 3), (command, code)
                runs.append([p.read_bytes() for p in sorted(out.iterdir())] if out.exists() else [])
                if code != 0:
                    assert err.getvalue().startswith("error: "), (command, err.getvalue())
                    assert not runs[-1], command  # nothing written
                    break
            if not all(map(math.isfinite, given_values)):
                assert code == 1, (command, code)
            if code != 0:
                continue
            assert runs[0] == runs[1], command
            for data in runs[0]:
                written = json.loads(data)
                numbers = _numbers_in(written)
                if command == "score" and written["SR"] == 0.0:
                    assert math.isnan(written["MSE"])  # documented: no interception, no MSE
                    numbers.remove(written["MSE"])
                assert all(map(math.isfinite, numbers)), (command, written)


# ---------------------------------------------------------------------------
# JSON inputs: every file is read by one key-table checker, so a `true` for a
# number or an unknown key exits 1 naming the file and the key path.

STATE = {"position": [0, 0, 2.0], "velocity": [3.0, 0, 2.0], "axis": [1.0, 0.0, 0.0]}
DATASET = [{"pos": [0.2, 0.1, 1.1], "t": 1.0, "src": 0},
           {"pos": [-0.3, -0.1, 1.15], "t": 1.2, "src": 1}]


def _full_problem():
    """A two-frame retarget problem that sets every key but `chain_file`."""
    chain = arm_chain()
    names = ("shoulder", "elbow", "wrist", "hand", "hip_l", "hip_r")
    frames = []
    for k, q in enumerate(np.linspace([0.0, 0.0, 0.0], [0.3, -0.2, 0.1], 2)):
        fk = forward_kinematics(chain, Pose.identity(), q)
        frames.append({
            "t": 0.1 * k,
            "keypoints": {f"kp_{n}": fk[n].position.tolist() for n in names},
            "rotations": {"elbow": fk["elbow"].orientation.tolist()},
            "racket_quat": fk["hand"].orientation.tolist(),
        })
    return {
        "chain": chain_to_dict(chain),
        "keypoint_map": {f"kp_{n}": n for n in names},
        "segments": [["kp_shoulder", "kp_elbow"], ["kp_elbow", "kp_wrist"]],
        "weights": {"smoothness": 0.0, "collision": 2.0},
        "collision_spheres": [{"frame": "hand", "offset": [0.0, 0.0, 0.0], "radius": 0.05}],
        "racket_frame": "hand",
        "optimize_scales": False,
        "fix_root": False,
        "init": {"q": [0.1, -0.1, 0.0], "root_pos": [0.0, 0.0, 0.0],
                 "root_quat": [1.0, 0.0, 0.0, 0.0]},
        "frames": frames,
    }


# the run config with every key set
CONFIG = {
    "params": "params.json", "court": "court.json", "chain": "chain.json", "seed": 7,
    "out_dir": "out", "sim": {"dt": 0.005, "t_max": 10.0},
    "track": {
        "process_psd": 1e-4, "measurement_std": 0.0001,
        "measurement_cov": [[1e-8, 0.0, 0.0], [0.0, 1e-8, 0.0], [0.0, 0.0, 1e-8]],
        "initial_pos_var": 0.01, "initial_vel_var": 1.0, "latency": 0.0, "horizon": 3.0,
        "dt": 0.005, "height_band": [1.0, 1.3], "preference": "earliest",
        "volume": {"center": [0.0, 0.0, 1.1], "size": [2.0, 0.4, 0.3]},
    },
    "expand": {"radius": 0.4, "time_jitter": 0.3, "center": [0.0, 0.0, 1.1]},
    "score": {"in_bounds_weight": 1.0, "fault_weight": 0.25},
}

# format -> (file, valid content, the command that reads it, that command's input)
JSON_INPUTS = {
    "config": ("config.json", CONFIG, "score", "episodes.csv"),
    "state": ("state.json", STATE, "simulate", "state.json"),
    "params": ("params.json", {**PARAMS, "axis_damping": 0.0, "gravity": 9.81,
                               "restitution_head": 0.85, "restitution_skirt": 0.5},
               "simulate", "state.json"),
    "chain": ("chain.json", chain_to_dict(arm_chain()), "score", "episodes.csv"),
    "problem": ("problem.json", _full_problem(), "retarget", "problem.json"),
    "dataset": ("dataset.json", DATASET, "expand", "dataset.json"),
}


def _run_json_input(d, fmt, content, text=None):
    """Exit code and stderr of the command that reads `fmt`, with `content` (or the
    raw `text`) in that file and every other input valid, in the work directory `d`."""
    _populate(d)
    (d / "episodes.csv").write_text(EPISODES)
    for name, valid, _, _ in JSON_INPUTS.values():
        (d / name).write_text(json.dumps(valid))
    name, _, command, path = JSON_INPUTS[fmt]
    (d / name).write_text(json.dumps(content) if text is None else text)
    extra = ["--count", "5"] if command == "expand" else []
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(d / "config.json"), str(d / path), *extra])
    return code, err.getvalue()


def _exits_one_naming(d, fmt, err, key_path):
    name = d / JSON_INPUTS[fmt][0]
    assert err.startswith(f"error: {name}: "), err
    assert err.count("\n") == 1 and key_path in err, err
    assert not (d / "out").exists()


@pytest.mark.parametrize("fmt", JSON_INPUTS)
def test_valid_json_inputs_setting_every_key_run(tmp_path, fmt):
    code, err = _run_json_input(tmp_path, fmt, JSON_INPUTS[fmt][1])
    assert code == 0, err


@pytest.mark.parametrize("fmt, edit, key_path", [
    ("params", lambda d: d.update(mass=True), "mass must be a number, got True"),
    ("params", lambda d: d.update(axsi_damping=5), "key 'axsi_damping' is unknown"),
    ("state", lambda d: d.update(axsi=[0.6, 0.8, 0]), "key 'axsi' is unknown"),
    ("dataset", lambda d: d[1].update(t=True), "[1].t must be a number, got True"),
    ("dataset", lambda d: d[1].update(scr=3), "key '[1].scr' is unknown"),
    ("problem", lambda d: d.update(optimize_scales="false"), "optimize_scales must be true or"),
    ("problem", lambda d: d.update(optimise_scales=True), "key 'optimise_scales' is unknown"),
    ("chain", lambda d: d["joints"][1].update(parent=0.7), "joints[1].parent must be an integer"),
    ("chain", lambda d: d["joints"][1].update(limits=[True, 2.0]), "joints[1].limits must hold"),
    ("problem", lambda d: d["frames"][0]["rotations"].update(nope=[1.0, 0.0, 0.0, 0.0]),
     "frames[0].rotations.nope names no chain frame"),
    ("problem", lambda d: d["frames"][1]["keypoints"].update(kp_extra=[0.0, 0.0, 1.0]),
     "frames[1].keypoints.kp_extra has no mapping in keypoint_map"),
    ("problem", lambda d: d["frames"][0]["rotations"].update(elbow=[2.0, 0.0, 0.0, 0.0]),
     "frames[0].rotations.elbow is not unit norm (|q| = 2.0)"),
    ("problem", lambda d: d["keypoint_map"].update(kp_hand="nope"),
     "keypoint_map.kp_hand names no chain frame"),
    ("problem", lambda d: d["collision_spheres"][0].update(frame="nope"),
     "collision_spheres[0].frame names no chain frame"),
    ("config", lambda d: d["track"].update(horizon=True), "track.horizon must be a number"),
], ids=["params-mass-true", "params-axsi_damping", "state-axsi", "dataset-t-true", "dataset-scr",
        "problem-optimize_scales-string", "problem-optimise_scales", "chain-parent-fraction",
        "chain-limits-true", "problem-rotation-frame", "problem-keypoint-name",
        "problem-rotation-not-unit", "problem-keypoint-frame", "problem-sphere-frame",
        "config-horizon-true"])
def test_json_input_defect_exits_one_naming_the_file_and_key(tmp_path, fmt, edit, key_path):
    content = json.loads(json.dumps(JSON_INPUTS[fmt][1]))
    edit(content)
    code, err = _run_json_input(tmp_path, fmt, content)
    assert code == 1, err
    _exits_one_naming(tmp_path, fmt, err, key_path)


@pytest.mark.parametrize("fmt", JSON_INPUTS)
def test_truncated_json_input_exits_one_naming_the_file(tmp_path, fmt):
    code, err = _run_json_input(tmp_path, fmt, None, json.dumps(JSON_INPUTS[fmt][1])[:-5])
    assert code == 1, err
    _exits_one_naming(tmp_path, fmt, err, "Expecting")


def test_chain_file_defect_names_the_problem_then_the_chain_file(tmp_path):
    problem = {**_full_problem(), "chain_file": "arm.json"}
    chain = problem.pop("chain")
    chain["joints"][1]["parent"] = 0.7
    (tmp_path / "arm.json").write_text(json.dumps(chain))
    code, err = _run_json_input(tmp_path, "problem", problem)
    assert code == 1, err
    _exits_one_naming(tmp_path, "problem", err,
                      f"problem.json: {tmp_path / 'arm.json'}: joints[1].parent must be an integer")


def _mutations(x, path=()):
    """(path, "true") of every number in the JSON value x, (path, "key") of every object."""
    if isinstance(x, dict):
        yield path, "key"
        for key, v in x.items():
            yield from _mutations(v, path + (key,))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _mutations(v, path + (i,))
    elif isinstance(x, (int, float)) and not isinstance(x, bool):
        yield path, "true"


def _key_path(path):
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" if i else p
                   for i, p in enumerate(path))


MUTATIONS = [(fmt, *m) for fmt, (_, valid, _, _) in JSON_INPUTS.items() for m in _mutations(valid)]


@settings(max_examples=120)
@given(st.sampled_from(MUTATIONS))
def test_true_for_a_number_or_an_unknown_key_exits_one_naming_it(mutation):
    fmt, path, change = mutation
    content = json.loads(json.dumps(JSON_INPUTS[fmt][1]))
    parent = content
    for p in path[:-1]:
        parent = parent[p]
    if change == "true":
        parent[path[-1]] = True
        while isinstance(path[-1], int):  # a number inside a vector: the error names its key
            path = path[:-1]
    else:
        (parent[path[-1]] if path else content)["zz_unknown"] = 1.0
        path += ("zz_unknown",)
    with tempfile.TemporaryDirectory() as d:
        code, err = _run_json_input(Path(d), fmt, content)
        assert code == 1, err
        _exits_one_naming(Path(d), fmt, err, _key_path(path))


# Round trips: what a writer writes, its loader reads back unchanged.

UNIT_KEYS = {"axis", "offset_quat", "root_quat"}  # renormalized by their constructors


def _assert_same(a, b, key=None):
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            _assert_same(a[k], b[k], k)
    elif isinstance(a, list):
        assert len(a) == len(b), key
        for x, y in zip(a, b):
            _assert_same(x, y, key)
    elif key in UNIT_KEYS:
        assert math.isclose(a, b, rel_tol=1e-15, abs_tol=1e-300), (key, a, b)
    else:
        assert a == b and type(a) is type(b), (key, a, b)


@st.composite
def chains(draw):
    n = draw(st.integers(1, 4))
    axes = vec3.filter(lambda a: np.linalg.norm(a) > 0.1)
    limits = st.tuples(finite, finite).filter(lambda lim: lim[0] < lim[1])
    joints = [spatial.Joint(f"j{i}", draw(st.integers(-1, i - 1)), draw(poses), draw(axes),
                            draw(limits)) for i in range(n)]
    ees = [spatial.EndEffector(f"e{k}", draw(st.integers(-1, n - 1)), draw(poses))
           for k in range(draw(st.integers(0, 3)))]
    return spatial.KinematicChain(joints, ees)


@st.composite
def clips(draw):
    n, dof = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    t, frames = draw(finite), []
    for _ in range(n):
        q = draw(st.lists(finite, min_size=dof, max_size=dof))
        frames.append(goal.ClipFrame(t, draw(poses), draw(vec3), draw(vec3), np.array(q)))
        t += draw(st.floats(0.01, 1.0))
    times = st.lists(finite, max_size=3)
    return goal.ReferenceClip(tuple(frames), tuple(draw(times)), tuple(draw(times)))


def _nine_digits(x):
    return float(format(x, ".9g"))


@st.composite
def manifolds(draw):
    volume = scenario.strike_volume("hard")
    inside = st.floats(-0.45, 0.45).map(float)
    points = [
        scenario.ManifoldPoint(
            np.array([_nine_digits(c + draw(inside) * s)
                      for c, s in zip(volume.center.tolist(), volume.size.tolist())]),
            _nine_digits(draw(finite)), draw(st.integers(0, 5)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return scenario.StrikeManifold(tuple(points), "hard", volume)


@given(chains())
def test_chain_dict_round_trip(chain):
    data = chain_to_dict(chain)
    _assert_same(chain_to_dict(spatial.chain_from_dict(data)), data)


@given(clips())
def test_clip_dict_round_trip(clip):
    data = goal.clip_to_dict(clip)
    _assert_same(goal.clip_to_dict(goal.clip_from_dict(data)), data)


@given(manifolds())
def test_manifold_file_round_trip(manifold):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "manifold.json"
        scenario.save_manifold(manifold, path)
        loaded = scenario.load_manifold_points(path)
    assert len(loaded) == len(manifold.points)
    for a, b in zip(loaded, manifold.points):
        assert a.position.tobytes() == b.position.tobytes()
        assert (a.time_offset, a.source) == (b.time_offset, b.source)
