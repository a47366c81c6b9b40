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
from .spatial import (
    NON_NEGATIVE, POSITIVE, REQUIRED, Box, Pose, _check, _load_json, _round_floats, load_chain,
)

log = logging.getLogger("shuttlekit")

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_TIMEOUT = 2
EXIT_INFEASIBLE = 3


def _write_json(data, path) -> None:
    with open(path, "w") as f:
        json.dump(_round_floats(data), f, indent=2, sort_keys=True)
        f.write("\n")


# The run config's key tables, as `spatial._check` reads them: section -> key ->
# (default, kind). The library constructors hold the checks no kind can state.
SECTIONS = {
    "sim": {"dt": (shuttle.DEFAULT_DT, POSITIVE), "t_max": (10.0, float)},
    "track": {
        "process_psd": (1.0, NON_NEGATIVE),
        "measurement_std": (0.005, float),
        "measurement_cov": (None, (3, 3)),
        "initial_pos_var": (0.01, NON_NEGATIVE),
        "initial_vel_var": (1.0, NON_NEGATIVE),
        "latency": (0.0, float),
        "horizon": (2.0, POSITIVE),
        "dt": (shuttle.DEFAULT_DT, POSITIVE),
        "height_band": ((1.0, 1.3), (2,)),
        "volume": (None, {"center": (REQUIRED, (3,)), "size": (REQUIRED, (3,))}),
        "preference": ("earliest", ("earliest", "apex")),
    },
    "expand": {
        "radius": (0.3, NON_NEGATIVE),
        "time_jitter": (0.5, NON_NEGATIVE),
        "center": (scenario.DEFAULT_VOLUME_CENTER, (3,)),
    },
    "score": {"in_bounds_weight": (1.0, float), "fault_weight": (0.25, float)},
}
# "court" is accepted and ignored: the cli_files benchmark config and the criterion 9
# fixture still pass it. It goes with the next change to the benchmark.
TOP_LEVEL = {
    "params": (None, str), "chain": (None, str), "seed": (0, int), "out_dir": (".", str),
    "court": (None, str), **{name: ({}, spec) for name, spec in SECTIONS.items()},
}
# the simulate input
STATE = {"position": (REQUIRED, (3,)), "velocity": (REQUIRED, (3,)), "axis": (None, (3,))}


@dataclass
class RunConfig:
    """The checked run config: resolved assets, section values, and `track`'s built objects."""

    sections: dict
    noise: estimator.NoiseConfig
    criteria: estimator.HitCriteria
    seed: int = 0
    out_dir: str = "."
    params: Optional[shuttle.ShuttleParams] = None
    chain: Optional[object] = None


def load_run_config(path: Optional[str]) -> RunConfig:
    """Load and check the whole run config against TOP_LEVEL, then load the params
    and chain files it names; without a path every section takes its defaults."""
    values, noise, criteria = (_config_from_dict({}) if path is None
                               else _load_json(path, _config_from_dict))
    base = "" if path is None else os.path.dirname(os.path.abspath(path))
    params, chain = (None if values[key] is None else load(os.path.join(base, values[key]))
                     for key, load in (("params", shuttle.load_params), ("chain", load_chain)))
    return RunConfig({name: values[name] for name in SECTIONS}, noise, criteria,
                     values["seed"], os.path.join(base, values["out_dir"]), params, chain)


def _config_from_dict(data) -> tuple:
    """The run config's checked values, and the filter noise and strike criteria its
    `track` section builds."""
    values = _check(data, TOP_LEVEL)
    # the library constructors hold the checks no kind can state
    track, volume = values["track"], values["track"]["volume"]
    key = "measurement_std" if track["measurement_cov"] is None else "measurement_cov"
    try:
        noise = (estimator.NoiseConfig.isotropic(track["process_psd"], track["measurement_std"])
                 if key == "measurement_std"
                 else estimator.NoiseConfig(track["process_psd"], track["measurement_cov"]))
        key = "volume.size"
        box = None if volume is None else Box(volume["center"], volume["size"])
        key = "height_band"
        criteria = estimator.HitCriteria(
            tuple(track["height_band"].tolist()), box, track["preference"])
    except ValueError as exc:
        raise ValueError(f"track.{key}: {exc}") from exc
    return values, noise, criteria


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace, out_dir: str) -> int:
    state = _load_json(args.input, lambda data: shuttle.ShuttleState(**_check(data, STATE)))
    sim = cfg.sections["sim"]
    result = shuttle.simulate_to_ground(state, cfg.params, dt=sim["dt"], t_max=sim["t_max"])
    os.makedirs(out_dir, exist_ok=True)  # only once the command has something to write
    shuttle.save_trajectory_csv(result.trajectory, os.path.join(out_dir, "trajectory.csv"))
    if result.landing is None:
        _write_json({"landed": False}, os.path.join(out_dir, "landing.json"))
        log.info("airborne timeout after %.3f s", sim["t_max"])
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


def cmd_track(cfg: RunConfig, args: argparse.Namespace, out_dir: str) -> int:
    track = cfg.sections["track"]
    times, zs = estimator.load_measurements_csv(args.input)
    vel0 = np.zeros(3)
    if len(times) > 1 and times[1] > times[0]:
        vel0 = (zs[1] - zs[0]) / (times[1] - times[0])
    prior = estimator.EkfBelief(
        np.concatenate([zs[0], vel0]),
        np.diag([track["initial_pos_var"]] * 3 + [track["initial_vel_var"]] * 3),
    )
    latency = track["latency"]
    belief, rows = estimator.track_measurements(
        times, zs, prior, cfg.params, cfg.noise, latency=latency
    )
    traj = estimator.predict_trajectory(
        belief, cfg.params, track["dt"], track["horizon"], t0=float(times[-1] - latency)
    )
    os.makedirs(out_dir, exist_ok=True)
    estimator.save_filter_log_csv(rows, os.path.join(out_dir, "filter_log.csv"))

    target = estimator.select_hit_point(traj, cfg.criteria)
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


def cmd_retarget(cfg: RunConfig, args: argparse.Namespace, out_dir: str) -> int:
    problem_path = args.input
    base = os.path.dirname(os.path.abspath(problem_path))
    # the run config's chain serves a problem that names none
    problem, init = _load_json(
        problem_path, lambda data: retarget.problem_from_dict(data, base, cfg.chain))
    try:
        solution, costs = retarget.solve_retarget(problem, init)
    except ValueError as exc:  # e.g. an LM step that overflows a pose
        raise ValueError(f"{problem_path}: {exc}") from exc
    overflow = [f"{t} {c}" for t, c in costs.items() if not math.isfinite(c)]
    if overflow:
        raise ValueError(f"{problem_path}: cost overflows ({', '.join(overflow)})")
    times = [f.t for f in problem.frames]
    clip = retarget.solution_to_clip(solution, times)
    os.makedirs(out_dir, exist_ok=True)
    goal.save_clip(clip, os.path.join(out_dir, "motion_clip.json"))
    _write_json(costs, os.path.join(out_dir, "cost_report.json"))
    return EXIT_OK


def cmd_expand(cfg: RunConfig, args: argparse.Namespace, out_dir: str) -> int:
    points = scenario.load_manifold_points(args.input)
    expand = cfg.sections["expand"]
    manifold = scenario.expand_manifold(
        [(p.position, p.time_offset) for p in points],
        radius=expand["radius"],
        time_jitter=expand["time_jitter"],
        count=args.count,
        mode=args.mode,
        seed=cfg.seed if args.seed is None else args.seed,
        center=tuple(expand["center"]),
    )
    os.makedirs(out_dir, exist_ok=True)
    scenario.save_manifold(manifold, os.path.join(out_dir, "manifold.json"))
    return EXIT_OK


def cmd_score(cfg: RunConfig, args: argparse.Namespace, out_dir: str) -> int:
    logs = scenario.load_episode_csv(args.input)
    metrics = scenario.evaluate_episodes(
        logs,
        in_bounds_weight=cfg.sections["score"]["in_bounds_weight"],
        fault_weight=cfg.sections["score"]["fault_weight"],
    )
    # MSE is NaN, by definition, only when no serve was intercepted
    if not (math.isfinite(metrics.ibr) and (math.isfinite(metrics.mse) or metrics.sr == 0.0)):
        raise ValueError(f"{args.input}: metrics overflow (MSE {metrics.mse}, IBR {metrics.ibr})")
    os.makedirs(out_dir, exist_ok=True)
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
    # built at each call, so a command runs whatever `cmd_<name>` is bound to now
    for name, run, needs_params, help_, input_name, input_help in (
        ("simulate", cmd_simulate, True, "fly a shuttle to the ground",
         "state", "initial-state JSON"),
        ("track", cmd_track, True, "filter measurements, plan a strike",
         "measurements", "measurement CSV (t,x,y,z)"),
        ("retarget", cmd_retarget, False, "fit a chain to keypoint targets",
         "problem", "retargeting problem JSON"),
        ("expand", cmd_expand, False, "densify strike targets",
         "dataset", "dataset JSON ([{pos, t, src}])"),
        ("score", cmd_score, False, "compute SR / MSE / IBR", "episodes", "episode log CSV"),
    ):
        p = sub.add_parser(name, parents=[common], help=help_)
        p.add_argument("input", metavar=input_name, help=input_help)
        if name == "expand":
            p.add_argument("--mode", choices=("easy", "hard"), default="easy")
            p.add_argument("--count", type=int, default=1000)
        p.set_defaults(run=run, needs_params=needs_params)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("SHUTTLEKIT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config)
        if cfg.params is None and args.needs_params:
            raise ValueError(f"{args.command} needs a 'params' file in the run config")
        return args.run(cfg, args, args.out or cfg.out_dir)
    except (OSError, ValueError, KeyError, TypeError, estimator.NumericalFailureError,
            scenario.InfeasibleTargetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        infeasible = isinstance(exc, scenario.InfeasibleTargetError)
        return EXIT_INFEASIBLE if infeasible else EXIT_BAD_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
