"""Walk through the explicit vortex-lattice trial state.

Assembles the trial field for a 4x4 vortex lattice, compares its energy
density against the leading prediction b*|log sqrt(b)| - 1/2 per unit flux,
and counts its vortices by the boundary winding.
"""

from glcell.energy import energy
from glcell.grid import TWO_PI, build_grid
from glcell.trial import build_trial, predicted_density, trial_config
from glcell.vortices import cell_boundary_loop, winding

b, N = 0.04, 16

cfg = trial_config(b, N)
grid = build_grid(cfg)
print(f"cell: R = {grid.R:.4f}, n = {grid.n}, h = {grid.h:.5f}")

field = build_trial(b, N, grid)
per_flux = energy(field, b).total / (TWO_PI * N)
print(f"trial energy density  = {per_flux:.5f}")
print(f"predicted density     = {predicted_density(b):.5f}")

# each unit of flux carries one vortex: the boundary winding counts all N
w = winding(field, cell_boundary_loop(grid.n))
print(f"boundary winding = {w} (N = {N})")
