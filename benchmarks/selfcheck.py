"""Check the benchmark itself.

    python3 benchmarks/selfcheck.py [--seconds S]

For every workload this runs, each as its own process:
  * the untraced run, and checks that its JSON names exactly the
    end-to-end metrics of BENCHMARK.json, with their units;
  * the traced run twice at one seed, and checks that it names exactly the
    per-layer metrics of BENCHMARK.json and that every counter (unit
    `count` or `bytes`, and the ratios built from counts) repeats exactly;
  * a run with one library output deliberately corrupted, and checks that
    the workload's output check counts the ops as failed.
Exits non-zero, naming each problem, when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEED = 3

# Per-layer metrics that must repeat exactly at a fixed seed besides the
# `count` and `bytes` ones: they are built from counted outcomes or from
# deterministic filter outputs in the count window.
EXACT = {
    "estimator.planned_frac", "estimator.nis_mean", "estimator.nis_outside_95_frac",
    "retarget.fk_calls_per_accepted_iter",
}

# One corrupted library output per workload, run in the benchmark process
# before the workload starts. Each must make the workload's own check fail.
CORRUPTIONS = {
    # plans land 5 cm off the true flight
    "interception": """
from shuttlekit import estimator, spatial
_pick = estimator.select_hit_point
def select_hit_point(traj, criteria):
    t = _pick(traj, criteria)
    if t is None:
        return t
    off = spatial.Pose(t.hit_racket_pose.position + [0.05, 0.0, 0.0], t.hit_racket_pose.orientation)
    return type(t)(t.hit_time, off, t.recovery_root_pose)
estimator.select_hit_point = select_hit_point
""",
    # the recovery block is no longer masked while preparing
    "control_loop": """
from shuttlekit import goal
_encode = goal.encode_goal
def encode_goal(*args, **kwargs):
    g = _encode(*args, **kwargs)
    return type(g)(g.tth, g.hit_delta, g.recovery_delta + 0.1, g.phase)
goal.encode_goal = encode_goal
""",
    # solved joint angles drift from the fit
    "retarget_clip": """
from shuttlekit import retarget
_solve = retarget.solve_retarget
def solve_retarget(p, init, cost_trace=None):
    sol, costs = _solve(p, init, cost_trace=cost_trace)
    return type(sol)(sol.root_poses, sol.joint_angles + 0.3, sol.global_scale, sol.local_scales), costs
retarget.solve_retarget = solve_retarget
""",
    # every trajectory file ends with a different line
    "cli_files": """
from shuttlekit import shuttle
_save = shuttle.save_trajectory_csv
_calls = [0]
def save_trajectory_csv(traj, path):
    _save(traj, path)
    _calls[0] += 1
    with open(path, "a") as f:
        f.write(f"{_calls[0]}\\n")
shuttle.save_trajectory_csv = save_trajectory_csv
""",
}


def run(workload: str, trace: int, seconds: float, corrupt: str = "") -> dict:
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", str(seconds),
            "--trace", str(trace)]
    if corrupt:
        code = (
            "import sys\n"
            f"sys.path[:0] = [{HERE!r}, {os.path.join(ROOT, 'src')!r}]\n"
            "import run\n" + corrupt +
            f"sys.exit(run.main({argv!r}))\n"
        )
        cmd = [sys.executable, "-c", code]
    else:
        cmd = [sys.executable, RUN, *argv]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for w in (x["name"] for x in spec["workloads"]):
        plain = run(w, 0, args.seconds)
        expect(set(plain) == {"correct", "attempted", "failed", "metrics"},
               f"{w}: result has exactly correct/attempted/failed/metrics")
        expect(plain["correct"] and plain["failed"] == 0, f"{w}: untraced run correct")
        expect({k: v["unit"] for k, v in plain["metrics"].items()} == e2e,
               f"{w}: untraced run prints every end-to-end metric with its unit")
        expect(all(v["value"] > 0 for v in plain["metrics"].values()),
               f"{w}: end-to-end metrics are non-zero")

        first, second = run(w, 1, args.seconds), run(w, 1, args.seconds)
        expect({k: v["unit"] for k, v in first["metrics"].items()} == layer,
               f"{w}: traced run prints every per-layer metric with its unit")
        counters = sorted(
            k for k, unit in layer.items() if unit in ("count", "bytes") or k in EXACT
        )
        differ = [k for k in counters
                  if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        expect(not differ, f"{w}: {len(counters)} counters repeat exactly {differ or ''}")
        accounted = first["metrics"]["trace.accounted_frac"]["value"]
        expect(abs(accounted - 1.0) < 1e-9,
               f"{w}: span self times add up to the traced op time ({accounted:.12f})")

        bad = run(w, 0, args.seconds, corrupt=CORRUPTIONS[w])
        expect(bad["failed"] > 0 and not bad["correct"],
               f"{w}: corrupted output counted as failed ({bad['failed']}/{bad['attempted']})")

    print("selfcheck " + ("passed" if not problems else f"FAILED: {len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
