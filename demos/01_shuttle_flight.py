"""Shuttle flight basics: drag, terminal speed, landing, and impact.

Run from the repository root:  python3 demos/01_shuttle_flight.py
"""

import os
import tempfile

import numpy as np

from shuttlekit.shuttle import (
    CourtGeometry,
    ShuttleParams,
    ShuttleState,
    Twist,
    lands_in_court,
    mechanical_energy,
    racket_impact,
    save_trajectory_csv,
    simulate_to_ground,
    step,
)
from shuttlekit.spatial import Pose, quat_from_rotvec

params = ShuttleParams(mass=0.005, drag_coeff=0.001, axis_damping=4.0)
drag_free = ShuttleParams(mass=0.005, drag_coeff=0.0)

print("== terminal speed ==")
print(f"sqrt(m g / k) = {params.terminal_speed():.2f} m/s")

print("\n== drag shortens the carry ==")
launch_vel = np.array([12.0, 0.0, 8.0])
launch = ShuttleState(np.array([0.0, 0.0, 1.0]), launch_vel,
                      axis=launch_vel / np.linalg.norm(launch_vel))
for name, p in (("drag-free", drag_free), ("with drag", params)):
    flight = simulate_to_ground(launch, p, dt=0.005, t_max=10.0)
    x_land = flight.landing.point[0]
    print(f"{name:>10}: lands at x = {x_land:6.2f} m after {flight.landing.time:.2f} s")

print("\n== energy bookkeeping over 1000 steps ==")
s = ShuttleState(np.array([0.0, 0.0, 30.0]), np.array([5.0, 2.0, 9.0]))
e0 = mechanical_energy(s, drag_free)
sd = ShuttleState(s.position, s.velocity)
ed0 = mechanical_energy(sd, params)
for _ in range(1000):
    s = step(s, drag_free, 0.005)
    sd = step(sd, params, 0.005)
print(f"drag-free relative drift: {abs(mechanical_energy(s, drag_free) - e0) / e0:.2e}")
print(f"with drag, energy fell by {ed0 - mechanical_energy(sd, params):.3f} J (monotone)")

print("\n== racket impact ==")
incoming_vel = np.array([-6.0, 0.0, -2.0])
incoming = ShuttleState(np.array([0.05, 0.0, 1.2]), incoming_vel,
                        axis=incoming_vel / np.linalg.norm(incoming_vel))
racket = Pose(np.array([0.0, 0.0, 1.2]), quat_from_rotvec([0.0, -0.3, 0.0]))
swing = Twist(np.array([4.0, 0.0, 1.0]), np.zeros(3))
returned = racket_impact(incoming, racket, swing, params)
print(f"incoming velocity {incoming.velocity}, returned {np.round(returned.velocity, 3)}")

print("\n== does the return land in? ==")
court = CourtGeometry(net_height=1.55, net_x=2.0, x_min=2.5, x_max=8.5,
                      y_min=-2.6, y_max=2.6)
flight = simulate_to_ground(returned, params, dt=0.005, t_max=10.0)
verdict = lands_in_court(flight.landing.point, flight.trajectory, court)
print(f"landing point {np.round(flight.landing.point, 2)}, "
      f"in bounds: {verdict.in_bounds}, cleared net: {verdict.cleared_net}")

with tempfile.TemporaryDirectory() as out_dir:
    out_path = os.path.join(out_dir, "return_flight.csv")
    save_trajectory_csv(flight.trajectory, out_path)
    print(f"trajectory written to {out_path} ({os.path.getsize(out_path)} bytes, removed on exit)")
