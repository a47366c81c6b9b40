"""Host-speed probe used to rescale measured times.

The shared host's speed drifts by up to 2x within seconds as other tenants
load the cores, and no statistic over one run's own op times removes that
drift. A timed run therefore calls `probe()` every PROBE_EVERY_S and
rescales the op times between two probes by `scale(before, after)`: the
times a host would give on which the probe takes REFERENCE_S. The probe is
benchmark-owned work shaped like the library's (validated frozen
dataclasses, small numpy vectors, 6x6 solves, float arithmetic, dicts) and
calls no library code, so a change to the library cannot move it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

PROBE_EVERY_S = 0.5
REFERENCE_S = 0.006


@dataclass(frozen=True)
class _Frame:
    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.position, dtype=np.float64)
        q = np.asarray(self.orientation, dtype=np.float64)
        if p.shape != (3,) or q.shape != (4,) or not np.all(np.isfinite(p)):
            raise ValueError("malformed probe frame")
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "orientation", q / np.linalg.norm(q))


def probe() -> float:
    """Seconds one fixed slice of work takes right now."""
    t0 = time.perf_counter()
    eye3 = np.eye(3)
    v = np.arange(3.0)
    acc = 0.0
    for k in range(300):
        v = (eye3 * (1.0 + 1e-3 * k)) @ v + 1.0
        v = v / np.linalg.norm(v)
        acc += float(v[0]) + math.sqrt(k)
    table = {k: (k, str(k)) for k in range(300)}
    frame = _Frame(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))
    c, s = math.cos(0.01), math.sin(0.01)
    m = np.eye(6) + 0.01
    for k in range(60):
        w, x, y, z = frame.orientation
        frame = _Frame(
            frame.position + 1e-3 * k,
            np.array([w * c - x * s, w * s + x * c, y * c + z * s, z * c - y * s]),
        )
        m = 0.5 * (m @ m.T) / np.trace(m) + np.eye(6)
        acc += float(np.linalg.solve(m, np.ones(6))[0])
        acc += sum(math.sqrt(j) for j in range(20))
    if not math.isfinite(acc) or len(table) != 300:
        raise RuntimeError("host probe computed garbage")
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two probes to the reference speed."""
    return REFERENCE_S / (0.5 * (before + after))
