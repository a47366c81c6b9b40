"""In-memory span recorder for the traced benchmark run.

`Tracer.install()` replaces each listed public library function with a
wrapper at every module attribute that binds it, so a call made inside the
library (for example `track_measurements` -> `ekf_predict`, or the LM
residuals -> `forward_kinematics`) is recorded with its parent span. Each
span holds a name id, a start, an end and the index of its parent span;
spans stay in flat arrays until the run ends. `uninstall()` puts the
original functions back. The untraced run never constructs a Tracer.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# Public functions that get a span, by defining module. Names missing from
# the library are skipped, so a later change that removes one still runs.
TRACED = {
    "shuttle": (
        "step", "simulate_to_ground", "racket_impact", "lands_in_court",
        "save_trajectory_csv", "load_params", "load_court",
    ),
    "estimator": (
        "track_measurements", "ekf_predict", "ekf_update", "transition_jacobian",
        "predict_trajectory", "select_hit_point", "load_measurements_csv",
        "save_filter_log_csv",
    ),
    "scenario": (
        "serve_trajectory", "sample_randomization", "sample_rhythm_interval",
        "expand_manifold", "evaluate_episodes", "save_manifold",
        "load_manifold_points", "load_episode_csv",
    ),
    "goal": ("encode_goal", "reference_window", "save_clip"),
    "reward": (
        "hit_tracking_reward", "recovery_tracking_reward",
        "sparse_hit_tracking_reward", "termination_check", "style_reward",
        "hit_quality_reward",
    ),
    "amp": ("frame_features", "assemble_history", "disc_forward_batch", "disc_loss_and_grads"),
    "spatial": ("forward_kinematics", "load_chain"),
    "retarget": (
        "solve_retarget", "evaluate_residuals", "align_to_ground",
        "extract_contacts", "solution_to_clip", "problem_from_dict",
    ),
    "cli": (
        "main", "load_run_config", "cmd_simulate", "cmd_track", "cmd_retarget",
        "cmd_expand", "cmd_score",
    ),
}

MODULES = tuple(TRACED)

# What a span keeps of its function's result, for counters measured at the
# layer boundary.
OBSERVE = {
    "shuttle.simulate_to_ground": lambda r: len(r.trajectory),
    "estimator.select_hit_point": lambda r: r is not None,
    "estimator.track_measurements": lambda r: r[1][:, 7].copy(),  # NIS column
}

ROOT_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised: set[int] = set()             # spans that ended in an exception
        self.observed: dict[int, object] = {}     # span -> OBSERVE value
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, raised, observed = self._stack, self.raised, self.observed
        observe = OBSERVE.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[i] = clock()
                stack.pop()
                raised.add(i)
                raise
            ends[i] = clock()
            stack.pop()
            if observe is not None:
                observed[i] = observe(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function at each shuttlekit attribute bound to it."""
        mods = {m: importlib.import_module(f"shuttlekit.{m}") for m in MODULES}
        wrappers = {}
        for mod_name, fn_names in TRACED.items():
            for fn_name in fn_names:
                fn = getattr(mods[mod_name], fn_name, None)
                if fn is not None:
                    wrappers[id(fn)] = self.wrap(f"{mod_name}.{fn_name}", fn)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and callable(value):
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self):
        """(name, parent, start, end) as numpy arrays."""
        return (
            np.array(self.name, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )

    def save(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent, start=start, end=end
        )


def self_times(parent, start, end):
    """Span duration minus the time its direct children cover."""
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered
