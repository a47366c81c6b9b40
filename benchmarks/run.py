"""shuttlekit benchmark: one workload per process, metrics on stdout.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: interception, control_loop, retarget_clip, cli_files (see
workloads.py for what an op is in each and why the workload exists). The
library is imported from `src/` beside this directory.

A run builds its inputs from --seed (the set-up, done SETUP_REPEATS times;
`setup_s` is the median), then runs ops for --seconds of wall time and
checks each op's outputs. Op and set-up times are rescaled to a reference
host speed measured by hostspeed.probe() between windows of ops; the
report lines give the raw rate and the factor.

--trace 0 wraps nothing; its JSON (the last stdout line) holds the
end-to-end metrics. --trace 1 first traces the workload's count window, then
alternates untraced and traced blocks; its JSON holds the per-layer metrics:
counts from the count window, self seconds per traced op, and the tracing
overhead from the blocks. Its spans are written to .bench_out/ at the end.
Lines before the JSON give the environment (two runs are comparable only
when it matches), every end-to-end metric with its unit, op_ms_tail with its
percentile and sample count, and the workload-specific metrics.

Seeds: develop a change on DEV_SEED; confirm a claim on CONFIRM_SEED, which
must not be used while the change is being written.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: every workload is a single-threaded load of small
# matrices, and more threads only add scheduling noise. Set before numpy
# loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
from tracing import ROOT_SPAN, Tracer, self_times  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DEV_SEED = 1
CONFIRM_SEED = 7919

SETUP_REPEATS = 5
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10
# chi-square(3) 2.5% and 97.5% quantiles: the two-sided 95% NIS band
NIS_BAND = (0.215795, 9.348404)

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics of the traced run, printed for every workload (zero
# where the workload does not reach the layer).
CALLS = (
    "shuttle.step", "shuttle.simulate_to_ground", "estimator.ekf_predict",
    "estimator.ekf_update", "scenario.serve_trajectory", "scenario.sample_randomization",
    "goal.encode_goal", "goal.reference_window", "reward.hit_quality_reward",
    "amp.disc_loss_and_grads", "spatial.forward_kinematics",
)
SELF = (
    "shuttle.step", "shuttle.simulate_to_ground",
    "estimator.track_measurements", "estimator.ekf_predict", "estimator.transition_jacobian",
    "estimator.ekf_update", "estimator.predict_trajectory", "estimator.select_hit_point",
    "scenario.serve_trajectory", "scenario.sample_randomization", "scenario.expand_manifold",
    "goal.encode_goal", "goal.reference_window",
    "reward.hit_tracking_reward", "reward.recovery_tracking_reward",
    "reward.sparse_hit_tracking_reward", "reward.termination_check", "reward.style_reward",
    "amp.frame_features", "amp.assemble_history", "amp.disc_forward_batch",
    "amp.disc_loss_and_grads",
    "spatial.forward_kinematics",
    "retarget.solve_retarget", "retarget.align_to_ground", "retarget.extract_contacts",
)
CLI_SELF = {  # metric prefix -> span
    "cli.main": "cli.main",
    "cli.simulate": "cli.cmd_simulate",
    "cli.track": "cli.cmd_track",
    "cli.expand": "cli.cmd_expand",
    "cli.score": "cli.cmd_score",
    "cli.retarget": "cli.cmd_retarget",
}
WINDOW_COUNTERS = (  # filled by the workloads' window_metrics()
    ("retarget.lm_accepted_iters", "count"),
    ("cli.bytes_written", "bytes"),
    ("control_loop.impacts", "count"),
    ("control_loop.resets", "count"),
    ("control_loop.disc_updates", "count"),
)
PER_LAYER = (
    [(f"{n}.calls", "count") for n in CALLS]
    + [(f"{n}.self_s", "s/op") for n in SELF]
    + [(f"{n}.self_s", "s/op") for n in CLI_SELF]
    + [
        ("cli.io.self_s", "s/op"),
        ("shuttle.simulate_to_ground.samples", "count"),
        ("scenario.serve_trajectory.infeasible", "count"),
        ("estimator.planned_frac", "ratio"),
        ("estimator.nis_mean", "1"),
        ("estimator.nis_outside_95_frac", "ratio"),
        ("retarget.fk_calls_per_accepted_iter", "count"),
    ]
    + list(WINDOW_COUNTERS)
    + [
        ("trace.overhead_frac", "ratio"),
        ("trace.accounted_frac", "ratio"),
        ("trace.harness_frac", "ratio"),
        ("failed_frac", "ratio"),
        ("op_ms_tail", "ms"),
        ("plan_within_2cm_frac", "ratio"),
        ("fit_rms_mm", "mm"),
    ]
)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict form of its build config
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
    }


def percentile_tail(samples):
    """(percentile, value, samples beyond) for the highest ladder percentile
    with at least TAIL_MIN_BEYOND samples beyond it; None if there is none."""
    lat = np.asarray(samples)
    best = None
    for p in TAIL_LADDER:
        value = float(np.percentile(lat, p))
        beyond = int(np.sum(lat > value))
        if beyond >= TAIL_MIN_BEYOND:
            best = (p, value, beyond)
    return best


class Runner:
    """Runs units, counting ops and failed ops; a unit that raises failed."""

    def __init__(self, workload):
        self.w = workload
        self.ops = 0
        self.failed = 0
        self.errors = 0

    def unit(self, fn, i):
        try:
            failed = fn(i)
        except Exception:
            failed = self.w.unit_ops
            self.errors += 1
            if self.errors <= 3:
                print(f"unit {i} raised:\n{traceback.format_exc()}", file=sys.stderr)
        self.ops += self.w.unit_ops
        self.failed += min(failed, self.w.unit_ops)


def setup(cls, seed, workdir):
    """Build the workload SETUP_REPEATS times; return the last and the rescaled times."""
    times = []
    w = None
    for _ in range(SETUP_REPEATS):
        if w is not None:
            w.close()
        before = hostspeed.probe()
        t0 = time.perf_counter()
        w = cls(seed, workdir)
        elapsed = time.perf_counter() - t0
        times.append(elapsed * hostspeed.scale(before, hostspeed.probe()))
    return w, times


def run_untraced(w, seconds):
    """Run units for `seconds`, probing the host speed between windows.

    Returns the runner, per-op latencies in ms at the reference host speed,
    and the raw and rescaled seconds spent in ops.
    """
    runner = Runner(w)
    lat = []
    raw_s = scaled_s = 0.0
    clock = time.perf_counter
    t_end = clock() + seconds
    i = 0
    before = hostspeed.probe()
    while True:
        window_lat = []
        window_s = 0.0
        t_window = clock()
        while True:
            t0 = clock()
            runner.unit(w.run_unit, i)
            t1 = clock()
            i += 1
            window_s += t1 - t0
            window_lat.append(1000.0 * (t1 - t0) / w.unit_ops)
            if t1 - t_window >= hostspeed.PROBE_EVERY_S or t1 >= t_end:
                break
        after = hostspeed.probe()
        scale = hostspeed.scale(before, after)
        lat.extend(x * scale for x in window_lat)
        raw_s += window_s
        scaled_s += window_s * scale
        before = after
        if t1 >= t_end:
            return runner, lat, raw_s, scaled_s


def run_traced(w, seconds, tracer):
    """Count window traced, then alternating untraced / traced blocks.

    Returns the runner, the raw per-op latencies of the untraced blocks,
    the number of spans in the count window, and {traced?: [ops, seconds]}
    over the blocks, with each block's seconds at the reference host speed.
    """
    runner = Runner(w)
    traced_unit = tracer.wrap(ROOT_SPAN, w.run_unit)
    blocks = {True: [0, 0.0], False: [0, 0.0]}
    block = [0, 0.0]  # ops and seconds of the current block
    untraced_lat = []
    window_end = 0
    clock = time.perf_counter
    t_end = clock() + seconds
    installed = False
    before = 0.0
    i = 0
    while True:
        in_window = i < w.count_units
        traced = in_window or ((i - w.count_units) // w.block_units) % 2 == 1
        if traced != installed:
            if i > w.count_units:  # close the block that just ended
                after = hostspeed.probe()
                blocks[installed][0] += block[0]
                blocks[installed][1] += block[1] * hostspeed.scale(before, after)
                before = after
            elif i == w.count_units:
                before = hostspeed.probe()
            block = [0, 0.0]
            tracer.install() if traced else tracer.uninstall()
            installed = traced
        t0 = clock()
        runner.unit(traced_unit if traced else w.run_unit, i)
        t1 = clock()
        i += 1
        if i == w.count_units:
            window_end = len(tracer)
        if not in_window:
            block[0] += w.unit_ops
            block[1] += t1 - t0
            if not traced:
                untraced_lat.append(1000.0 * (t1 - t0) / w.unit_ops)
        if t1 >= t_end and i >= w.count_units:
            break
    if installed:
        tracer.uninstall()
    return runner, untraced_lat, window_end, blocks


def per_layer_metrics(w, tracer, window_end, blocks, runner, untraced_lat) -> dict:
    name, parent, start, end = tracer.arrays()
    self_t = self_times(parent, start, end)
    ids = {n: k for k, n in enumerate(tracer.names)}
    self_by_name = np.bincount(name, weights=self_t, minlength=len(ids))
    calls_window = np.bincount(name[:window_end], minlength=len(ids))
    is_root = name == ids[ROOT_SPAN]
    traced_ops = int(np.sum(is_root)) * w.unit_ops
    op_time = float(np.sum((end - start)[is_root]))

    def window_spans(n):
        return np.flatnonzero(name[:window_end] == ids[n]) if n in ids else []

    def self_per_op(*spans):
        return sum(float(self_by_name[ids[n]]) for n in spans if n in ids) / traced_ops

    m = {f"{n}.calls": int(calls_window[ids[n]]) if n in ids else 0 for n in CALLS}
    m.update({f"{n}.self_s": self_per_op(n) for n in SELF})
    m.update({f"{metric}.self_s": self_per_op(n) for metric, n in CLI_SELF.items()})
    m["cli.io.self_s"] = self_per_op(*(n for n in ids if ".save_" in n or ".load_" in n))

    m["shuttle.simulate_to_ground.samples"] = int(
        sum(tracer.observed[k] for k in window_spans("shuttle.simulate_to_ground"))
    )
    m["scenario.serve_trajectory.infeasible"] = sum(
        int(k) in tracer.raised for k in window_spans("scenario.serve_trajectory")
    )
    picks = [tracer.observed[k] for k in window_spans("estimator.select_hit_point")]
    m["estimator.planned_frac"] = sum(picks) / len(picks) if picks else 0.0
    nis = [tracer.observed[k] for k in window_spans("estimator.track_measurements")]
    nis = np.concatenate(nis) if nis else np.zeros(0)
    m["estimator.nis_mean"] = float(np.mean(nis)) if nis.size else 0.0
    m["estimator.nis_outside_95_frac"] = (
        float(np.mean((nis < NIS_BAND[0]) | (nis > NIS_BAND[1]))) if nis.size else 0.0
    )

    m.update({n: 0 for n, _ in WINDOW_COUNTERS})
    m.update({n: v for n, (v, _) in w.window_metrics().items()})
    # residual evaluations (FK calls under solve_retarget) per accepted LM step
    fk_in_solve = 0
    if "retarget.solve_retarget" in ids:
        solve = ids["retarget.solve_retarget"]
        for k in window_spans("spatial.forward_kinematics"):
            p = parent[k]
            while p >= 0 and name[p] != solve:
                p = parent[p]
            fk_in_solve += int(p >= 0)
    accepted = m["retarget.lm_accepted_iters"]
    m["retarget.fk_calls_per_accepted_iter"] = fk_in_solve / accepted if accepted else 0.0

    (t_ops, t_sec), (u_ops, u_sec) = blocks[True], blocks[False]
    m["trace.overhead_frac"] = 1.0 - (t_ops / t_sec) / (u_ops / u_sec) if t_ops and u_ops else 0.0
    # every span sits under an op span, so all self times add up to op time
    m["trace.accounted_frac"] = float(np.sum(self_t)) / op_time
    m["trace.harness_frac"] = float(np.sum(self_t[is_root])) / op_time

    m["failed_frac"] = runner.failed / runner.ops
    tail = percentile_tail(untraced_lat) if untraced_lat else None
    m["op_ms_tail"] = tail[1] if tail else 0.0
    extra = {n: v for n, (v, _) in w.extra_metrics().items()}
    m["plan_within_2cm_frac"] = extra.get("plan_within_2cm_frac", 0.0)
    m["fit_rms_mm"] = extra.get("fit_rms_mm", 0.0)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "shuttlekit", "__init__.py")):
        print(f"error: no shuttlekit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    print(f"# workload {cls.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"# why: {cls.why}")
    print("# env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    w = None
    try:
        w, setup_times = setup(cls, args.seed, out_dir)
        if args.trace:
            tracer = Tracer()
            runner, lat, window_end, blocks = run_traced(w, args.seconds, tracer)
            metrics = per_layer_metrics(w, tracer, window_end, blocks, runner, lat)
            tracer.save(os.path.join(out_dir, f"spans-{cls.name}.npz"))
            units = dict(PER_LAYER)
        else:
            runner, lat, raw_s, scaled_s = run_untraced(w, args.seconds)
            metrics = {
                "setup_s": float(np.median(setup_times)),
                "ops_per_s": runner.ops / scaled_s,
                "op_ms_p50": float(np.median(lat)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
            print(f"# host time factor {raw_s / scaled_s:.4g} (op time here / at the "
                  f"reference speed); raw ops_per_s {runner.ops / raw_s:.6g}")
            for name, unit in END_TO_END:
                print(f"metric {name} = {metrics[name]:.6g} {unit}")
            tail = percentile_tail(lat)
            if tail:
                p, value, beyond = tail
                print(f"metric op_ms_tail = {value:.6g} ms (p{p:g}; {beyond} of {len(lat)} "
                      "samples beyond)")
            else:
                print(f"metric op_ms_tail omitted: {len(lat)} samples")
            print(f"metric failed_frac = {runner.failed / runner.ops:.6g} ratio")
            for name, (value, unit) in w.extra_metrics().items():
                print(f"metric {name} = {value:.6g} {unit}")
        for line in w.report_lines():
            print(f"# {line}")
        correct = runner.failed == 0 and w.correct()
    finally:
        if w is not None:
            w.close()
    print(json.dumps({
        "correct": bool(correct),
        "attempted": runner.ops,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
