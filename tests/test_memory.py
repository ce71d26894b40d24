"""Memory contract of the field stages outside the NCG loop.

Each stage holds its inputs, its result and at most one full-size scratch
array.  The bounds are the traced peak above the bytes live before the call,
in units of one complex field, at n = 568 (b = 0.02, N = 16), where one field
is 5.16 MB.  The whole-array forms these stages replaced read 4.52 (trial),
3.02 (energy), 2.00 (read), 1.00 (write) and 1.50 (coverage); the per-axis
candidate pairing that the dual distance's class kernels replaced read 0.39
at depth 6.
"""

import tracemalloc

import pytest

from glcell.energy import energy
from glcell.grid import build_grid
from glcell.snapshot import read_snapshot, write_snapshot
from glcell.trial import build_trial, trial_config
from glcell.vortices import (coverage_gaps, find_balls, lipschitz_dual_distance,
                             uniform_measure, vorticity, vorticity_measure)

B, N = 0.02, 16


def traced_peak(fn, *args):
    """(fn(*args), peak traced bytes during the call above those live before it)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def grid():
    g = build_grid(trial_config(B, N))
    assert g.n == 568
    return g


@pytest.fixture(scope="module")
def trial(grid):
    return build_trial(B, N, grid)


def field_units(peak, field):
    return peak / field.u.nbytes


def test_build_trial_peak(grid):
    f, peak = traced_peak(build_trial, B, N, grid)
    assert field_units(peak, f) <= 2.2


def test_energy_peak(trial):
    _, peak = traced_peak(energy, trial, B)
    assert field_units(peak, trial) <= 1.7


def test_write_snapshot_peak(trial, tmp_path):
    _, peak = traced_peak(write_snapshot, tmp_path / "f.glc", trial, B)
    assert field_units(peak, trial) <= 0.25


def test_read_snapshot_peak(trial, tmp_path):
    p = tmp_path / "f.glc"
    write_snapshot(p, trial, B)
    (back, _), peak = traced_peak(read_snapshot, p)
    assert field_units(peak, trial) <= 1.25
    assert back.u.tobytes() == trial.u.tobytes()


def test_coverage_gaps_peak(trial):
    balls = find_balls(trial, B)
    _, peak = traced_peak(coverage_gaps, trial, balls, B)
    assert field_units(peak, trial) <= 0.75


def test_lattice_dual_distance_peak(trial):
    # the class kernels are built in blocks of at most _ATOM_CHUNK entries:
    # the depth-0 kernel built whole would take 2.6 MB, 0.50 of a field
    mu = vorticity_measure(vorticity(trial))
    half = trial.grid.R / 2
    domain = (-half, half, -half, half)
    _, peak = traced_peak(lipschitz_dual_distance, mu, uniform_measure(domain, 1.0), domain, 6)
    assert field_units(peak, trial) <= 0.12
