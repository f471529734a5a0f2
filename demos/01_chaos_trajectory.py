"""Simulate the lightly damped double-well oscillator in its chaotic regime.

The CHAOS_A02 preset drives the double-well system q'' = q - q^3 - 0.05 q'
with forcing 0.2*cos(1.1 t) from rest.  This script integrates it, prints a
few summary statistics of the attractor, and writes the trajectory as CSV.
"""

import pathlib

import numpy as np

from duffinglab import integrate, preset

pr = preset("CHAOS_A02")
traj = integrate(pr.model, pr.s0, pr.integration)

t, q, p = traj.t, traj.q, traj.p
print(f"integrated {t.size} states up to t = {t[-1]:g}")
print(f"displacement range: [{q.min():.3f}, {q.max():.3f}]")
print(f"velocity range:     [{p.min():.3f}, {p.max():.3f}]")
print(f"time in the right-hand well: {np.mean(q > 0) * 100:.1f}%")

out = pathlib.Path(__file__).with_suffix(".csv")
header = "t,x,v"
np.savetxt(out, np.column_stack([t, q, p]), delimiter=",",
           header=header, comments="")
print(f"wrote {out}")
