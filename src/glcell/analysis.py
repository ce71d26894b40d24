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
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .energy import DiscreteField, density_moments
from .grid import CellConfig, ConfigError
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


def derivative_bracket(sweep, b: float, delta: float) -> tuple[float, float, float]:
    """(lower, upper, midpoint) secant bracket of g'(b) from sweep points.

    Concavity makes the forward slope a lower and the backward slope an
    upper bound; noisy estimates may violate the ordering slightly, which
    callers should flag rather than hide.
    """
    points = sweep.points if isinstance(sweep, SweepReport) else list(sweep)
    values = {}
    for p in points:
        values[round(p.b, 12)] = p.g_est
    try:
        g_lo = values[round(b - delta, 12)]
        g_mid = values[round(b, 12)]
        g_hi = values[round(b + delta, 12)]
    except KeyError as exc:
        raise AnalysisError(f"missing sweep point near b={exc.args[0]}") from exc
    lower = (g_hi - g_mid) / delta
    upper = (g_mid - g_lo) / delta
    return lower, upper, 0.5 * (lower + upper)


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
    """g(b) estimates over increasing b, with brackets and acceptance flags."""

    points: list[GCurvePoint]
    brackets: dict = field(default_factory=dict)   # b -> (lower, upper, mid)
    r0_values: dict = field(default_factory=dict)  # b -> r0
    flags: dict = field(default_factory=dict)      # b -> list of strings

    def __post_init__(self):
        bs = [p.b for p in self.points]
        if bs != sorted(bs) or len(set(bs)) != len(bs):
            raise AnalysisError("sweep points must have strictly increasing b")


def build_sweep(points: list[GCurvePoint]) -> SweepReport:
    """Assemble a report from raw g-curve points: brackets, r0, flags."""
    points = sorted(points, key=lambda p: p.b)
    rep = SweepReport(points=points)
    for p in points:
        rep.r0_values[p.b] = r0(p.b, p.g_est)
        flags = list(p.flags)
        ratio = (p.g_est + 0.5) / (0.5 * p.b * abs(math.log(p.b)))
        if not (0.6 <= ratio <= 1.4):
            flags.append("asymptotic ratio outside [0.6, 1.4]")
        rep.flags[p.b] = flags
    for i in range(1, len(points) - 1):
        b = points[i].b
        d_lo = b - points[i - 1].b
        d_hi = points[i + 1].b - b
        if abs(d_lo - d_hi) <= 1e-12:
            lower, upper, mid = derivative_bracket(rep, b, d_lo)
            rep.brackets[b] = (lower, upper, mid)
            points[i].d_lower, points[i].d_upper = lower, upper
            if lower > upper + 1e-3:
                rep.flags[b].append("bracket ordering violated beyond noise")
    if len(points) == 1:
        rep.flags[points[0].b].append("insufficient points for derivative bracket")
    return rep


def run_sweep(
    b_values: list[float],
    N: int,
    settings: SolverSettings | None = None,
    samples_per_core: int = 8,
    jobs: int = 1,
) -> SweepReport:
    """Estimate g at each b and assemble the report.

    Every b uses the resolution demanded by the smallest b, so
    discretization systematics largely cancel in the secant slopes.  The
    middle b (index (len - 1) // 2 in increasing order) is the anchor,
    solved cold from the trial state.  Every other point starts from the
    anchor's solution when that lies below its own trial state, with the
    preconditioner conjugated by the anchor's phase (estimate_g), which is
    continuation with a fixed topology: no point depends on another warm
    point.  With jobs > 1 those points run in that many worker processes,
    capped by the GLCELL_THREADS environment variable; both must be positive
    integers, and the results do not depend on jobs.  The report's points
    keep no `solution`.
    """
    if not b_values:
        raise AnalysisError("sweep needs at least one b value")
    if not isinstance(jobs, numbers.Integral) or jobs < 1:
        raise ConfigError(f"jobs must be a positive integer, got {jobs!r}")
    cap = os.environ.get("GLCELL_THREADS")
    if cap:
        if not (cap.isdigit() and int(cap) >= 1):
            raise ConfigError(f"GLCELL_THREADS must be a positive integer, got {cap!r}")
        jobs = min(jobs, int(cap))
    bs = sorted(b_values)
    n = trial_config(bs[0], N, samples_per_core=samples_per_core).n
    configs = [CellConfig(b=b, N=N, n=n) for b in bs]
    mid = (len(bs) - 1) // 2
    anchor = estimate_g(configs[mid], settings)
    start, anchor.solution = anchor.solution, None
    rest = configs[:mid] + configs[mid + 1:]
    if jobs > 1 and len(rest) > 1:
        # imported here: these modules add ~35 ms to every start-up that
        # never runs a pool (serial sweeps and all other commands)
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            points = list(pool.map(_warm_point, rest, [settings] * len(rest),
                                   [start] * len(rest)))
    else:
        points = [_warm_point(config, settings, start) for config in rest]
    points.insert(mid, anchor)
    return build_sweep(points)


def _warm_point(config: CellConfig, settings: SolverSettings | None,
                start: DiscreteField) -> GCurvePoint:
    """estimate_g from start, without the solution: a report keeps no fields,
    and a worker sends none back."""
    point = estimate_g(config, settings, start)
    point.solution = None
    return point


_CSV_COLUMNS = [
    "b", "N", "n", "g_est", "g_trial", "d_lower", "d_upper", "pot", "r0",
    "zeta", "iterations", "stop_reason", "flags",
]


def sweep_rows(report: SweepReport) -> list[dict]:
    rows = []
    for p in report.points:
        rows.append({
            "b": p.b,
            "N": p.N,
            "n": p.n,
            "g_est": p.g_est,
            "g_trial": p.g_trial,
            "d_lower": p.d_lower,
            "d_upper": p.d_upper,
            "pot": p.potential_moment,
            "r0": report.r0_values.get(p.b),
            "zeta": p.zeta,
            "iterations": p.iterations,
            "stop_reason": p.stop_reason,
            "flags": ";".join(report.flags.get(p.b, [])),
        })
    return rows


def sweep_to_csv(report: SweepReport) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in sweep_rows(report):
        writer.writerow(row)
    return buf.getvalue()


def sweep_to_json(report: SweepReport) -> str:
    """The CSV rows plus, per point, its init, restart count and wall time,
    which sweep.csv leaves out (its columns stay fixed, and it does not depend
    on timing or on jobs)."""
    payload = {
        "points": [dict(row, start=p.start, restarts=p.restarts, wall_s=p.wall_s)
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
    pts = []
    weights = []
    atom_weight = TWO_PI * epsilon**2 / b
    for ti in range(M):
        for tj in range(M):
            ox = (ti + 0.5) * ell
            oy = (tj + 0.5) * ell
            for ball in balls:
                pts.append((ox + scale * ball.center[0], oy + scale * ball.center[1]))
                weights.append(atom_weight * ball.degree)
    domain_mass = L * L
    mu_v = DiscreteMeasure(
        points=np.array(pts) if pts else np.zeros((0, 2)),
        weights=np.array(weights) / domain_mass if weights else np.zeros(0),
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
