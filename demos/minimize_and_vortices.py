"""Minimize the cell energy and locate the vortices of the minimizer.

Starts the nonlinear conjugate gradient solver from the vortex-lattice
trial state at b = 0.05, N = 16, then detects vortex balls, classifies
the N unit-flux squares, and measures how uniformly the vortices spread.
"""

from glcell.analysis import aggregate_tiles, r0
from glcell.energy import energy
from glcell.grid import build_grid
from glcell.minimize import SolverSettings, init_state, minimize
from glcell.trial import build_trial, trial_config
from glcell.vortices import classify_squares, find_balls

b, N = 0.05, 16

cfg = trial_config(b, N)
res = minimize(init_state("trial", cfg), b, SolverSettings())
print(f"converged = {res.converged} after {res.iterations} iterations")
print(f"G = {res.breakdown.total:.5f}  (g = {res.density:.5f})")

grid = build_grid(cfg)
g_trial = energy(build_trial(b, N, grid), b).total
print(f"trial upper bound G = {g_trial:.5f}")

balls = find_balls(res.field, b)
print(f"\n{len(balls)} vortex balls:")
for ball in balls:
    print(f"  center ({ball.center[0]:+.3f}, {ball.center[1]:+.3f})"
          f"  radius {ball.radius:.3f}  degree {ball.degree:+d}")

reports = classify_squares(res.field, b)
n_good = sum(r.good for r in reports)
print(f"\ngood squares: {n_good}/{N}")
for r in reports:
    if not r.good:
        print(f"  bad square {r.index}: energy {r.energy:.3f}")

agg = aggregate_tiles(res, M=4, b=b, balls=balls)
print(f"\nvortex distribution vs uniform: relative distance "
      f"{agg.relative_distance:.4f} (scale r0 = {r0(b, res.density):.3f})")
