"""Ginzburg-Landau cell problem on a magnetic-periodic square.

Minimizes the cell energy over fields with magnetic-periodic boundary
conditions, builds explicit vortex-lattice trial states, detects and
classifies vortices, and verifies the small-b asymptotics of the bulk
energy density g(b).

The functions `energy.energy` and `minimize.minimize` are not re-exported
here, so that `glcell.energy` and `glcell.minimize` name the submodules.
"""

from .analysis import (
    AnalysisError,
    SweepReport,
    TileAggregate,
    aggregate_tiles,
    build_sweep,
    density_profile_check,
    potential_check,
    r0,
    run_sweep,
    sweep_to_csv,
    sweep_to_json,
)
from .energy import (
    DiscreteField,
    EnergyBreakdown,
    EnergyError,
    covariant_differences,
    density_moments,
    gradient,
)
from .grid import (
    CellConfig,
    ConfigError,
    Grid,
    WrapRule,
    build_grid,
    link_phases,
    wrap_value,
)
from .minimize import (
    GCurvePoint,
    MinimizationError,
    MinimizationResult,
    SolverSettings,
    estimate_g,
    init_state,
)
from .snapshot import SnapshotError, read_snapshot, write_snapshot
from .trial import (
    PhaseField,
    TrialError,
    build_phase,
    build_trial,
    predicted_density,
    trial_config,
)
from .vortices import (
    DiscreteMeasure,
    LatticeMeasure,
    MeasureDistanceReport,
    SquareReport,
    VortexBall,
    VortexError,
    VorticityField,
    cell_boundary_loop,
    classify_squares,
    find_balls,
    lipschitz_dual_distance,
    vorticity,
    winding,
)

__version__ = "0.1.0"
