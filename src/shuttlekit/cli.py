"""Batch command-line front end.

Subcommands wire the library into file-to-file pipelines:

    simulate  initial-state JSON -> trajectory CSV + landing JSON
    track     measurement CSV   -> filter log CSV + strike target JSON
    retarget  problem JSON      -> motion clip JSON + cost report JSON
    expand    dataset JSON      -> strike manifold JSON
    score     episode CSV       -> metrics JSON

Exit codes: 0 success, 1 bad config or input (a numerical failure of the
filter included), 2 simulation timeout, 3 infeasible plan or target
volume. All numeric output is written at 9 significant digits so a rerun
with the same config and seed is byte-identical. Set
SHUTTLEKIT_LOG=debug|info|warning to control verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import estimator, goal, retarget, scenario, shuttle
from .spatial import Box, Pose, _round_floats, load_chain

log = logging.getLogger("shuttlekit")

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_TIMEOUT = 2
EXIT_INFEASIBLE = 3


class ConfigError(ValueError):
    pass


def _write_json(data, path) -> None:
    with open(path, "w") as f:
        json.dump(_round_floats(data), f, indent=2, sort_keys=True)
        f.write("\n")


@dataclass
class RunConfig:
    """Parsed run configuration plus resolved asset objects."""

    seed: int = 0
    out_dir: str = "."
    params: Optional[shuttle.ShuttleParams] = None
    chain: Optional[object] = None
    sim: Optional[dict] = None
    track: Optional[dict] = None
    expand: Optional[dict] = None
    score: Optional[dict] = None


def load_run_config(path: Optional[str]) -> RunConfig:
    """Load the run config, resolving and parsing every referenced file.

    A path entry that does not exist or does not parse is a config error.
    """
    cfg = RunConfig()
    if path is None:
        return cfg
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    base = os.path.dirname(os.path.abspath(path))

    def resolve(key, loader):
        if key not in data:
            return None
        if not isinstance(data[key], str):
            raise ConfigError(f"config {key} must be a file path, got {data[key]!r}")
        ref = os.path.join(base, data[key])
        if not os.path.exists(ref):
            raise ConfigError(f"config references missing file: {ref}")
        try:
            return loader(ref)
        except Exception as exc:
            raise ConfigError(f"cannot parse {ref}: {exc}") from exc

    cfg.params = resolve("params", shuttle.load_params)
    cfg.chain = resolve("chain", load_chain)
    try:
        cfg.seed = int(data.get("seed", 0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config seed must be an integer: {exc}") from exc
    cfg.out_dir = data.get("out_dir", ".")
    if not isinstance(cfg.out_dir, str):
        raise ConfigError(f"config out_dir must be a directory path, got {cfg.out_dir!r}")
    if not os.path.isabs(cfg.out_dir):
        cfg.out_dir = os.path.join(base, cfg.out_dir)
    for name in ("sim", "track", "expand", "score"):
        section = data.get(name, {})
        if section is not None and not isinstance(section, dict):
            raise ConfigError(f"config {name} must be an object")
        setattr(cfg, name, section)
    return cfg


def _float(cfg: RunConfig, section: str, key: str, default: float) -> float:
    try:
        value = float((getattr(cfg, section) or {}).get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config {section}.{key} must be a number: {exc}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"config {section}.{key} must be finite, got {value}")
    return value


def _numbers(table: dict, where: str, key: str, shape: tuple, default=None) -> np.ndarray:
    """table[key] as a finite float array of the given shape; `where` names the table."""
    if key not in table and default is None:
        raise ConfigError(f"config {where}.{key} is missing")
    try:
        value = np.asarray(table.get(key, default), dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config {where}.{key} must hold numbers: {exc}") from exc
    if value.shape != shape or not np.isfinite(value).all():
        raise ConfigError(f"config {where}.{key} must be finite numbers of shape {shape}")
    return value


def _require(value, what: str):
    if value is None:
        raise ConfigError(f"this command needs {what} in the run config")
    return value


def cmd_simulate(cfg: RunConfig, state_path: str, out_dir: str) -> int:
    params = _require(cfg.params, "a 'params' file")
    with open(state_path) as f:
        raw = json.load(f)
    state = shuttle.ShuttleState(
        position=np.asarray(raw["position"]),
        velocity=np.asarray(raw["velocity"]),
        axis=np.asarray(raw["axis"]) if "axis" in raw else None,
    )
    dt = _float(cfg, "sim", "dt", shuttle.DEFAULT_DT)
    t_max = _float(cfg, "sim", "t_max", 10.0)
    result = shuttle.simulate_to_ground(state, params, dt=dt, t_max=t_max)
    shuttle.save_trajectory_csv(result.trajectory, os.path.join(out_dir, "trajectory.csv"))
    if result.landing is None:
        _write_json({"landed": False}, os.path.join(out_dir, "landing.json"))
        log.info("airborne timeout after %.3f s", t_max)
        return EXIT_TIMEOUT
    _write_json(
        {
            "landed": True,
            "time": result.landing.time,
            "point": result.landing.point.tolist(),
        },
        os.path.join(out_dir, "landing.json"),
    )
    return EXIT_OK


def _pose_to_dict(pose: Pose) -> dict:
    return {
        "position": pose.position.tolist(),
        "orientation": pose.orientation.tolist(),
    }


def cmd_track(cfg: RunConfig, measurements_path: str, out_dir: str) -> int:
    params = _require(cfg.params, "a 'params' file")
    track = cfg.track or {}
    times, zs = estimator.load_measurements_csv(measurements_path)
    if "measurement_cov" in track:
        r = _numbers(track, "track", "measurement_cov", (3, 3))
        noise = estimator.NoiseConfig(_float(cfg, "track", "process_psd", 1.0), r)
    else:
        noise = estimator.NoiseConfig.isotropic(
            _float(cfg, "track", "process_psd", 1.0),
            _float(cfg, "track", "measurement_std", 0.005),
        )
    vel0 = np.zeros(3)
    if len(times) > 1 and times[1] > times[0]:
        vel0 = (zs[1] - zs[0]) / (times[1] - times[0])
    prior = estimator.EkfBelief(
        np.concatenate([zs[0], vel0]),
        np.diag(
            [_float(cfg, "track", "initial_pos_var", 0.01)] * 3
            + [_float(cfg, "track", "initial_vel_var", 1.0)] * 3
        ),
    )
    latency = _float(cfg, "track", "latency", 0.0)
    horizon = _float(cfg, "track", "horizon", 2.0)
    dt = _float(cfg, "track", "dt", shuttle.DEFAULT_DT)
    for key, value in (("horizon", horizon), ("dt", dt)):
        if value <= 0:
            raise ConfigError(f"config track.{key} must be positive, got {value}")
    volume = None
    if "volume" in track:
        if not isinstance(track["volume"], dict):
            raise ConfigError("config track.volume must be an object with center and size")
        volume = Box(
            _numbers(track["volume"], "track.volume", "center", (3,)),
            _numbers(track["volume"], "track.volume", "size", (3,)),
        )
    criteria = estimator.HitCriteria(
        height_band=tuple(_numbers(track, "track", "height_band", (2,), (1.0, 1.3)).tolist()),
        volume=volume,
        preference=track.get("preference", "earliest"),
    )
    belief, rows = estimator.track_measurements(
        times, zs, prior, params, noise, latency=latency
    )
    estimator.save_filter_log_csv(rows, os.path.join(out_dir, "filter_log.csv"))

    traj = estimator.predict_trajectory(
        belief, params, dt, horizon, t0=float(times[-1] - latency)
    )
    target = estimator.select_hit_point(traj, criteria)
    target_path = os.path.join(out_dir, "strike_target.json")
    if target is None:
        _write_json({}, target_path)
        log.info("no feasible hit point in the predicted trajectory")
        return EXIT_INFEASIBLE
    _write_json(
        {
            "hit_time": target.hit_time,
            "hit_racket_pose": _pose_to_dict(target.hit_racket_pose),
            "recovery_root_pose": _pose_to_dict(target.recovery_root_pose),
        },
        target_path,
    )
    return EXIT_OK


def cmd_retarget(cfg: RunConfig, problem_path: str, out_dir: str) -> int:
    with open(problem_path) as f:
        data = json.load(f)
    override = None
    if "chain" not in data and "chain_file" not in data:
        if cfg.chain is None:
            raise ConfigError("problem has no chain and the run config defines none")
        override = cfg.chain
    problem = retarget.problem_from_dict(
        data,
        base_dir=os.path.dirname(os.path.abspath(problem_path)),
        chain=override,
    )
    init_raw = data.get("init", {})
    lims = problem.chain.joint_limits()
    q0 = np.asarray(init_raw.get("q", 0.5 * (lims[:, 0] + lims[:, 1])))
    root0 = Pose(
        np.asarray(init_raw.get("root_pos", [0.0, 0.0, 0.0])),
        np.asarray(init_raw.get("root_quat", [1.0, 0.0, 0.0, 0.0])),
    )
    init = retarget.RetargetSolution(
        (root0,) * len(problem.frames),
        np.tile(q0, (len(problem.frames), 1)),
        local_scales=np.ones(len(problem.segments)),
    )
    solution, costs = retarget.solve_retarget(problem, init)
    times = [f.t for f in problem.frames]
    clip = retarget.solution_to_clip(solution, times)
    goal.save_clip(clip, os.path.join(out_dir, "motion_clip.json"))
    _write_json(costs, os.path.join(out_dir, "cost_report.json"))
    return EXIT_OK


def cmd_expand(
    cfg: RunConfig, dataset_path: str, mode: str, count: int, seed: int, out_dir: str
) -> int:
    points = scenario.load_manifold_points(dataset_path)
    if not points:
        raise ConfigError("dataset is empty")
    expand = cfg.expand or {}
    manifold = scenario.expand_manifold(
        [(p.position, p.time_offset) for p in points],
        radius=_float(cfg, "expand", "radius", 0.3),
        time_jitter=_float(cfg, "expand", "time_jitter", 0.5),
        count=count,
        mode=mode,
        seed=seed,
        center=tuple(_numbers(expand, "expand", "center", (3,), scenario.DEFAULT_VOLUME_CENTER)),
    )
    scenario.save_manifold(manifold, os.path.join(out_dir, "manifold.json"))
    return EXIT_OK


def cmd_score(cfg: RunConfig, episode_path: str, out_dir: str) -> int:
    logs = scenario.load_episode_csv(episode_path)
    if not logs:
        raise ConfigError("episode log is empty")
    metrics = scenario.evaluate_episodes(
        logs,
        in_bounds_weight=_float(cfg, "score", "in_bounds_weight", 1.0),
        fault_weight=_float(cfg, "score", "fault_weight", 0.25),
    )
    # MSE is NaN, by definition, only when no serve was intercepted
    if not (math.isfinite(metrics.ibr) and (math.isfinite(metrics.mse) or metrics.sr == 0.0)):
        raise ValueError(f"{episode_path}: metrics overflow (MSE {metrics.mse}, IBR {metrics.ibr})")
    _write_json(
        {"SR": metrics.sr, "MSE": metrics.mse, "IBR": metrics.ibr},
        os.path.join(out_dir, "metrics.json"),
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="run config JSON")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", help="output directory")

    parser = argparse.ArgumentParser(prog="shuttlekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="fly a shuttle to the ground")
    p.add_argument("state", help="initial state JSON")

    p = sub.add_parser("track", parents=[common], help="filter measurements, plan a strike")
    p.add_argument("measurements", help="measurement CSV (t,x,y,z)")

    p = sub.add_parser("retarget", parents=[common], help="fit a chain to keypoint targets")
    p.add_argument("problem", help="retargeting problem JSON")

    p = sub.add_parser("expand", parents=[common], help="densify strike targets")
    p.add_argument("dataset", help="dataset JSON ([{pos, t, src}])")
    p.add_argument("--mode", choices=("easy", "hard"), default="easy")
    p.add_argument("--count", type=int, default=1000)

    p = sub.add_parser("score", parents=[common], help="compute SR / MSE / IBR")
    p.add_argument("episodes", help="episode log CSV")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("SHUTTLEKIT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config)
        seed = args.seed if args.seed is not None else cfg.seed
        out_dir = args.out or cfg.out_dir
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.state, out_dir)
        if args.command == "track":
            return cmd_track(cfg, args.measurements, out_dir)
        if args.command == "retarget":
            return cmd_retarget(cfg, args.problem, out_dir)
        if args.command == "expand":
            return cmd_expand(cfg, args.dataset, args.mode, args.count, seed, out_dir)
        if args.command == "score":
            return cmd_score(cfg, args.episodes, out_dir)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, OSError, json.JSONDecodeError, ValueError, KeyError,
            TypeError, estimator.NumericalFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except scenario.InfeasibleTargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
