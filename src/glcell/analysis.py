"""Sweeps over b, derivative brackets, error functional, tiling aggregation.

The bulk energy density g(b) is concave and increasing, so secant slopes
bracket the derivative: (g(b+d) - g(b))/d <= g'(b) <= (g(b) - g(b-d))/d.
All remainder estimates are controlled by the explicit error functional
r0(b) = max(|log b|^{-1/2}, |(g(b)+1/2)/(b|log b|) - 1/2|, log|log b|/|log b|).
aggregate_tiles emulates the macroscopic vortex-distribution statement by
tiling a synthetic square domain with scaled copies of one cell result and
comparing the resulting normalized vortex measure with the Lebesgue measure
in the Lipschitz-dual metric.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .energy import DiscreteField, density_moments
from .grid import CellConfig
from .minimize import GCurvePoint, MinimizationResult, SolverSettings, estimate_g
from .trial import trial_config
from .vortices import (
    DiscreteMeasure,
    MeasureDistanceReport,
    find_balls,
    lipschitz_dual_distance,
    uniform_measure,
)

TWO_PI = 2.0 * math.pi


class AnalysisError(ValueError):
    pass


def r0(b: float, g_value: float) -> float:
    """Error functional: max of the three explicit remainder terms."""
    if not (0.0 < b < 1.0):
        raise AnalysisError(f"b out of range: {b}")
    log_b = abs(math.log(b))
    if b * log_b == 0.0:
        raise AnalysisError("b|log b| vanishes")
    t1 = log_b ** (-0.5)
    t2 = abs((g_value + 0.5) / (b * log_b) - 0.5)
    t3 = math.log(log_b) / log_b
    return max(t1, t2, t3)


def potential_check(field: DiscreteField, b: float) -> dict:
    """Mean of (1 - |u|^2)^2 against the budget b|log b|."""
    _, _, mpot = density_moments(field)
    budget = b * abs(math.log(b))
    return {
        "value": mpot,
        "budget": budget,
        "ratio": mpot / budget,
        "pass": mpot <= budget,
    }


def density_profile_check(field: DiscreteField) -> dict:
    """Extremes and spread of |u|; a non-constant profile witness."""
    absu = np.abs(field.u)
    return {
        "min": float(np.min(absu)),
        "max": float(np.max(absu)),
        "variance": float(np.var(absu)),
    }


@dataclass
class SweepReport:
    """g(b) estimates over increasing b.  Each point carries its r0 and
    acceptance flags and, where build_sweep found one, its g'(b) bracket."""

    points: list[GCurvePoint]

    def __post_init__(self):
        bs = [p.b for p in self.points]
        if bs != sorted(bs) or len(set(bs)) != len(bs):
            raise AnalysisError("sweep points must have strictly increasing b")

    @property
    def brackets(self) -> dict:
        """b -> (lower, upper, midpoint) at each point with a bracket."""
        return {p.b: (p.d_lower, p.d_upper, 0.5 * (p.d_lower + p.d_upper))
                for p in self.points if p.d_lower is not None}


def build_sweep(points: list[GCurvePoint]) -> SweepReport:
    """A report on sorted copies of points, each given its r0 and flags.

    A point whose neighbours lie at one distance d on both sides gets the
    secant bracket d_lower = (g(b+d) - g(b))/d <= g'(b) <= (g(b) - g(b-d))/d
    = d_upper, which g's concavity makes a lower and an upper bound; noisy
    estimates may violate the ordering slightly, which is flagged beyond
    1e-3 rather than hidden.  The caller's points are not changed.
    """
    points = sorted((replace(p, flags=list(p.flags)) for p in points), key=lambda p: p.b)
    rep = SweepReport(points=points)  # the order is checked before any r0
    for p in points:
        p.r0 = r0(p.b, p.g_est)
        ratio = (p.g_est + 0.5) / (0.5 * p.b * abs(math.log(p.b)))
        if not (0.6 <= ratio <= 1.4):
            p.flags.append("asymptotic ratio outside [0.6, 1.4]")
    for lo, p, hi in zip(points, points[1:], points[2:]):
        delta = p.b - lo.b
        if abs(delta - (hi.b - p.b)) <= 1e-12:
            p.d_lower = (hi.g_est - p.g_est) / delta
            p.d_upper = (p.g_est - lo.g_est) / delta
            if p.d_lower > p.d_upper + 1e-3:
                p.flags.append("bracket ordering violated beyond noise")
    if len(points) == 1:
        points[0].flags.append("insufficient points for derivative bracket")
    return rep


def sweep_configs(b_values: list[float], N: int, samples_per_core: int = 8) -> list[CellConfig]:
    """The sweep's cells in increasing b, all on the grid of the smallest b,
    the finest, after every b is checked and a repeated b rejected."""
    if not b_values:
        raise AnalysisError("sweep needs at least one b value")
    n = max(trial_config(b, N, samples_per_core=samples_per_core).n for b in b_values)
    if len(set(b_values)) < len(b_values):
        raise AnalysisError(f"sweep b values must not repeat, got {b_values}")
    return [CellConfig(b=b, N=N, n=n) for b in sorted(b_values)]


def run_sweep(
    b_values: list[float],
    N: int,
    settings: SolverSettings | None = None,
    samples_per_core: int = 8,
) -> SweepReport:
    """Estimate g at each b and assemble the report.

    Every b uses the resolution demanded by the smallest b, so
    discretization systematics largely cancel in the secant slopes.  The
    middle b (index (len - 1) // 2 in increasing order) is the anchor,
    solved cold from the trial state.  Every other point starts from the
    anchor's solution when that lies below its own trial state, through the
    half-grid cascade with the preconditioner conjugated by the phase of the
    anchor's even sites and then of the prolonged answer (estimate_g), which
    is continuation with a fixed topology: no point depends on another warm
    point.  The report's points keep no `solution`.
    """
    configs = sweep_configs(b_values, N, samples_per_core)
    mid = (len(configs) - 1) // 2
    anchor = estimate_g(configs[mid], settings)
    start, points = anchor.solution, []
    for i, config in enumerate(configs):
        point = anchor if i == mid else estimate_g(config, settings, start)
        point.solution = None  # a report keeps no fields: each goes before the next solve
        points.append(point)
    return build_sweep(points)


_CSV_COLUMNS = [
    "b", "N", "n", "g_est", "g_trial", "d_lower", "d_upper", "pot", "r0",
    "zeta", "iterations", "stop_reason", "flags",
]


def sweep_rows(report: SweepReport) -> list[dict]:
    return [{
        "b": p.b,
        "N": p.N,
        "n": p.n,
        "g_est": p.g_est,
        "g_trial": p.g_trial,
        "d_lower": p.d_lower,
        "d_upper": p.d_upper,
        "pot": p.potential_moment,
        "r0": p.r0,
        "zeta": p.zeta,
        "iterations": p.iterations,
        "stop_reason": p.stop_reason,
        "flags": ";".join(p.flags),
    } for p in report.points]


def sweep_to_csv(report: SweepReport) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in sweep_rows(report):
        writer.writerow(row)
    return buf.getvalue()


def sweep_to_json(report: SweepReport) -> str:
    """The CSV rows plus, per point, its init, restart count, half-grid solve
    (null on an odd grid) and wall time, which sweep.csv leaves out (its
    columns stay fixed, and it does not depend on timing)."""
    payload = {
        "points": [dict(row, start=p.start, restarts=p.restarts,
                        coarse=p.coarse.record() if p.coarse else None, wall_s=p.wall_s)
                   for row, p in zip(sweep_rows(report), report.points)],
        "brackets": {repr(b): list(v) for b, v in report.brackets.items()},
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


@dataclass
class TileAggregate:
    """M x M scaled copies of one cell result on a synthetic square domain."""

    M: int
    b: float
    epsilon: float
    ell: float                    # tile side, ell = epsilon * sqrt(2 pi N / b)
    N: int
    per_tile_degree: int          # vortex degree sum per tile
    target_per_tile: float        # b ell^2 / (2 pi epsilon^2) = N
    deviation: float              # |per_tile_degree - target|
    distance: MeasureDistanceReport
    relative_distance: float      # distance estimate per unit total mass


def aggregate_tiles(
    cell_result: MinimizationResult | DiscreteField,
    M: int,
    b: float,
    epsilon: float | None = None,
    ell: float | None = None,
    dictionary_depth: int = 6,
    balls=None,
) -> TileAggregate:
    """Tile a synthetic domain with the cell's vortices; compare to Lebesgue.

    The tile side ell and the vortex-scale epsilon are linked through
    ell = epsilon * sqrt(2 pi N / b), which makes the quantization constraint
    ell^2 in (2 pi / b) epsilon^2 * integers hold with integer exactly N.
    By default epsilon is chosen so the whole domain is the unit square.
    The vortex measure carries weight 2 pi epsilon^2 / b per unit degree;
    both measures are normalized by the domain mass before comparison.
    """
    fld = cell_result.field if isinstance(cell_result, MinimizationResult) else cell_result
    grid = fld.grid
    N = grid.N
    if ell is not None and epsilon is not None:
        quantum = b * ell**2 / (TWO_PI * epsilon**2)
        if abs(quantum - round(quantum)) > 1e-9 or round(quantum) < 1:
            raise AnalysisError(
                f"quantization violated: b ell^2/(2 pi eps^2) = {quantum} not a positive integer"
            )
    elif epsilon is not None:
        ell = epsilon * math.sqrt(TWO_PI * N / b)
    else:
        ell = 1.0 / M  # unit-square domain
        epsilon = ell * math.sqrt(b / (TWO_PI * N))
    if balls is None:
        balls = find_balls(fld, b)
    degree_sum = sum(ball.degree for ball in balls)
    target = b * ell**2 / (TWO_PI * epsilon**2)

    L = M * ell
    scale = ell / grid.R
    atom_weight = TWO_PI * epsilon**2 / b
    # one replica of every ball per tile, in (tile row, tile column, ball) order
    centers = scale * np.array([ball.center for ball in balls]).reshape(-1, 2)
    origins = (np.arange(M) + 0.5) * ell
    pts = np.empty((M, M, len(balls), 2))
    pts[..., 0] = origins[:, None, None] + centers[:, 0]
    pts[..., 1] = origins[None, :, None] + centers[:, 1]
    degrees = np.array([ball.degree for ball in balls], dtype=float)
    domain_mass = L * L
    mu_v = DiscreteMeasure(
        points=pts.reshape(-1, 2),
        weights=np.tile(atom_weight * degrees, M * M) / domain_mass,
    )
    mu_leb = uniform_measure((0.0, L, 0.0, L), 1.0 / domain_mass)
    dist = lipschitz_dual_distance(mu_v, mu_leb, (0.0, L, 0.0, L), dictionary_depth)
    return TileAggregate(
        M=M, b=b, epsilon=epsilon, ell=ell, N=N,
        per_tile_degree=degree_sum,
        target_per_tile=target,
        deviation=abs(degree_sum - target),
        distance=dist,
        relative_distance=dist.estimate,
    )
