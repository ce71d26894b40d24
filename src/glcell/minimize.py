"""Minimization of the cell energy over the magnetic-periodic space.

Preconditioned nonlinear conjugate gradient (Polak-Ribiere+, with restarts)
on the real and imaginary parts of the field, after Antoine, Levitt and Tang,
J. Comput. Phys. 343 (2017).  Along a search direction the energy is an
exact quartic in the step length, so the line search takes the real root of
its cubic derivative with the lowest energy; a step is taken only when its
drop exceeds the rounding of the energy, so the energy falls with every
iteration.  The preconditioner (2b L + 2 sigma h^2)^-1, with L the symbol
of the periodic 5-point Laplacian, is applied by FFT and ignores the
magnetic phases.  estimate_g gives one point of g(b): a single solve, cold
from the vortex-lattice trial state of the given cell, or warm from a nearby
solution of phase phi with P conjugated to phi P conj(phi) (a sweep's
continuation step).  The energy is gauge covariant, so that solve takes the
iterates of NCG on conj(phi) u over phi's gauge transform of the links,
where P fits the covariant Laplacian near the start.

Every solve on an even grid, cold or warm, is nested iteration from full
multigrid (Brandt, Math. Comp. 31, 1977), one level deep: NCG first runs on
the half grid from the start's even sites, where the long-wavelength modes
of the vortex lattice relax at a quarter of the cost; its answer, prolonged
along the fine links, then starts the fine solve with P conjugated by its
phase.  On the half grid a warm solve conjugates P by the phase of its
start's even sites, and a cold one keeps plain P.  Whatever stopped the half
grid, once it has taken a step its answer starts the fine solve; after no
step the fine solve runs from the start, as a direct solve.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .energy import (
    CellOperator,
    DiscreteField,
    EnergyBreakdown,
    _breakdown,
    density_moments,
    energy,
    energy_and_gradient,
    line_quartic,
    redot,
)
from .grid import (
    CellConfig,
    ConfigError,
    WrapRule,
    build_grid,
    check_b,
    check_number,
    coarse_grid,
    connection,
)
from .trial import build_trial

SIGMA = 2.0  # potential shift of the preconditioner, in units of 2 h^2
RESTART_EVERY = 200       # iterations between forced steepest-descent restarts


class MinimizationError(RuntimeError):
    def __init__(self, msg, diagnostics=None):
        super().__init__(msg)
        self.diagnostics = diagnostics or {}


@dataclass
class SolverSettings:
    grad_tol: float = 1e-8          # relative: |grad|*h / max(min(|G|, area), 1)
    max_iter: int = 20000

    def __post_init__(self):
        # check_number rejects bools: a true from a config file would run as 1
        check_number("max_iter", self.max_iter, integral=True)
        if self.max_iter < 0:
            raise ConfigError(f"max_iter must be a non-negative integer, got {self.max_iter!r}")
        check_number("grad_tol", self.grad_tol)
        if not (math.isfinite(self.grad_tol) and self.grad_tol >= 0.0):
            raise ConfigError(f"grad_tol must be finite and non-negative, got {self.grad_tol!r}")


@dataclass(frozen=True)
class CoarseSolve:
    """The half-grid solve that starts every solve on an even grid, a cold
    minimize or a warm sweep point.

    When it took a step (iterations > 0), its answer started the fine solve,
    whatever its stop_reason ("converged", "max_iter" or
    "line_search_failed"), and the result's iterations, restarts and
    operator_evals include its own; otherwise the fine solve ran from the
    init, with the counters of the direct solve.
    """

    n: int
    iterations: int
    stop_reason: str

    def record(self) -> dict:
        return asdict(self)


@dataclass
class MinimizationResult:
    field: DiscreteField
    breakdown: EnergyBreakdown
    iterations: int
    grad_norm: float
    converged: bool
    wall_time: float
    stop_reason: str      # "converged", "max_iter" or "line_search_failed"
    restarts: int         # iterations after the first that stepped on -P grad
    operator_evals: int   # applications of D and its adjoint: the NCG loop's and the energy's
    coarse: CoarseSolve | None = None  # the half-grid solve, on an even grid with a finite start

    @property
    def density(self) -> float:
        return self.breakdown.total / self.field.grid.area


@dataclass
class GCurvePoint:
    """One point of the g(b) record, with diagnostics.  build_sweep sets r0,
    the secant bracket d_lower <= g'(b) <= d_upper and the sweep's flags."""

    b: float
    N: int
    n: int
    g_est: float
    g_trial: float | None = None
    d_lower: float | None = None
    d_upper: float | None = None
    r0: float | None = None
    potential_moment: float | None = None
    zeta: float | None = None
    iterations: int | None = None     # of the minimize run
    stop_reason: str | None = None    # of the same run
    restarts: int | None = None       # of the same run
    coarse: CoarseSolve | None = None  # of the same run, cold or warm
    flags: list = field(default_factory=list)
    start: str = "trial"              # the init: "trial", or "anchor" for a warm start
    wall_s: float | None = None       # wall time of the whole point
    # the minimizer: the start of warm points
    solution: DiscreteField | None = field(default=None, repr=False, compare=False)


def init_state(kind: str, config: CellConfig) -> DiscreteField:
    grid = build_grid(config)
    if kind == "random":
        rng = np.random.default_rng(config.seed)
        mod = rng.random((grid.n, grid.n))
        phase = rng.uniform(0.0, 2.0 * math.pi, (grid.n, grid.n))
        return DiscreteField(u=mod * np.exp(1j * phase), grid=grid,
                             wrap=WrapRule(n=grid.n, N=grid.N))
    if kind == "trial":
        return build_trial(config.b, config.N, grid)
    raise ValueError(f"unknown init kind: {kind}")


def _kinetic_preconditioner(n: int, b: float, h: float) -> np.ndarray:
    """FFT symbol of (2b L + 2 SIGMA h^2)^-1, L = 4 - 2 cos k1 - 2 cos k2."""
    c = np.cos(2.0 * math.pi * np.arange(n) / n)
    lap = 4.0 - 2.0 * c[:, None] - 2.0 * c[None, :]
    return 1.0 / (2.0 * b * lap + 2.0 * SIGMA * h * h)


def _precondition(grad: np.ndarray, symbol: np.ndarray, out: np.ndarray,
                  phase: np.ndarray | None = None) -> np.ndarray:
    """out = ifft2(fft2(grad) * symbol), or phi ifft2(fft2(conj(phi) grad) * symbol)
    for a unit-modulus phase phi, computed in place in out.

    One axis at a time: with out=, numpy's fft2/ifft2 pair took 1.5 to 2.3
    times as long as these four transforms at n = 204 and 360.
    """
    if phase is not None:
        # conj(phi) grad = conj(conj(grad) phi), without a conjugated copy of phi
        np.conjugate(grad, out=out)
        out *= phase
        grad = np.conjugate(out, out=out)
    np.fft.fft(grad, axis=1, out=out)
    np.fft.fft(out, axis=0, out=out)
    out *= symbol
    np.fft.ifft(out, axis=0, out=out)
    np.fft.ifft(out, axis=1, out=out)
    if phase is not None:
        out *= phase
    return out


def _exact_step(slope: float, q2: float, q3: float, q4: float) -> tuple[float, float]:
    """(t, p(t)) for the real critical point t of the quartic
    p(t) = slope t + q2 t^2 + q3 t^3 + q4 t^4 with the lowest value."""
    def p(t):
        return t * (slope + t * (q2 + t * (q3 + t * q4)))

    if not slope < 0.0:
        return 0.0, 0.0
    roots = np.roots([4.0 * q4, 3.0 * q3, 2.0 * q2, slope])
    # the real parts of complex roots are not critical points, but the global
    # minimiser is a real root and no other candidate can undercut it
    t = min((float(r) for r in roots.real), key=p)
    return t, p(t)


def _diverged(msg: str, diagnostics: dict) -> MinimizationError:
    return MinimizationError(f"minimization diverged: {msg}",
                             {"stop_reason": "diverged", **diagnostics})


def _converged(gn: float, val: float, grid, s: SolverSettings) -> bool:
    # every field has G >= -area/2, so the cap only bites far above the
    # minimum, where a huge |G| would otherwise pass any gradient
    return gn * grid.h / max(min(abs(val), grid.area), 1.0) <= s.grad_tol


def _ncg(u: np.ndarray, op: CellOperator, b: float, s: SolverSettings,
         phase: np.ndarray | None = None) -> tuple[int, int, str, float]:
    """The NCG loop from u on op's connection, in place: (iterations,
    restarts, stop reason, |grad| at the final u).  A restart is an iteration
    after the first whose step is taken on -P grad.

    Six complex arrays, u included, are the working set, and no iteration
    allocates another: pg is dead while the next gradient is formed and
    grad_old once beta has used it, and scratch holds c0 = 1 - |u|^2 and a
    real temporary.
    """
    g = op.grid
    grad, grad_old, pg, d, scratch = (np.empty(u.shape, np.complex128) for _ in range(5))
    planes = scratch.view(np.float64).reshape((2,) + u.shape)  # two real planes
    symbol = _kinetic_preconditioner(g.n, b, g.h)

    def evaluate(it):
        val = energy_and_gradient(op, u, b, grad, planes, pg)
        gn = math.sqrt(redot(grad, grad))
        if not (math.isfinite(val) and math.isfinite(gn)):
            raise _diverged("non-finite energy or gradient", {"iteration": it, "value": val})
        return val, gn

    def line_search(slope):
        coeffs = (slope, *line_quartic(op, u, d, planes, b, grad_old))
        if not all(math.isfinite(q) for q in coeffs):
            raise _diverged("non-finite line search coefficients",
                            {"iteration": it, "value": value})
        return _exact_step(*coeffs)

    value, gnorm = evaluate(0)
    it = restarts = 0
    gpg_old = 1.0
    while True:
        if _converged(gnorm, value, g, s):
            reason = "converged"
            break
        if it >= s.max_iter:
            reason = "max_iter"
            break
        it += 1
        pg = _precondition(grad, symbol, pg, phase)
        gpg = redot(grad, pg)
        beta = 0.0
        if it > 1 and it % RESTART_EVERY != 0:
            beta = max(0.0, (gpg - redot(grad_old, pg)) / gpg_old)
        if beta > 0.0:
            d *= beta
            d -= pg
            slope = redot(grad, d)
        if beta == 0.0 or slope >= 0.0:  # restart on -P grad
            beta = 0.0
            np.negative(pg, out=d)
            slope = -gpg
        t, drop = line_search(slope)
        # a drop below the rounding of the energy cannot be told from none
        resolution = np.finfo(float).eps * max(abs(value), 1.0)
        if not drop < -resolution and beta > 0.0:
            beta = 0.0
            np.negative(pg, out=d)
            t, drop = line_search(-gpg)
        if not drop < -resolution:
            reason = "line_search_failed"
            break
        if beta == 0.0 and it > 1:
            restarts += 1
        u += np.multiply(d, t, out=grad_old)
        grad, grad_old = grad_old, grad
        gpg_old = gpg
        value, gnorm = evaluate(it)
    return it, restarts, reason, gnorm


def _solve(fld: DiscreteField, b: float, s: SolverSettings,
           phase: np.ndarray | None = None) -> MinimizationResult:
    """NCG on fld itself, which its callers copy, then the answer's
    compensated energy.

    A phase conjugates the preconditioner, which makes a warm start only (a
    warm solve from its anchor, the fine level of a cascade from the
    prolonged half-grid answer): from the trial state, with its own phase,
    the solve stops on the square-lattice saddle.
    """
    t0 = time.perf_counter()
    fld.u = fld.u.astype(np.complex128, copy=False)
    op = fld.operator()
    it, restarts, reason, gnorm = _ncg(fld.u, op, b, s, phase)
    bd = _breakdown(op, fld.u, b)  # _ncg has checked that u is finite
    return MinimizationResult(
        field=fld,
        breakdown=bd,
        iterations=it,
        grad_norm=gnorm,
        converged=_converged(gnorm, bd.total, fld.grid, s),
        wall_time=time.perf_counter() - t0,
        stop_reason=reason,
        restarts=restarts,
        operator_evals=op.evaluations,
    )


def _prolong(coarse: np.ndarray, grid, wrap: WrapRule) -> np.ndarray:
    """The field on grid, twice as fine as coarse, that coarse prolongs to.

    Even sites keep the coarse values.  Each odd site takes the mean of its
    two neighbours, each transported to it along the fine link between them
    (seam links with their wrap factors): first the odd rows of the even
    columns along axis 0, then the odd columns of every row along axis 1.
    The temporaries are at most half the returned array.
    """
    x, x_seam, y, y_seam = connection(grid, wrap)
    u = np.empty((grid.n, grid.n), np.complex128)
    u[::2, ::2] = coarse
    even = u[:, ::2]
    for odd, behind, ahead, c, seam in ((even[1::2], even[::2], even[2::2], x[::2], x_seam[::2]),
                                        (u[:, 1::2].T, u[:, ::2].T, u[:, 2::2].T, y, y_seam)):
        # odd site k sits between behind[k] and ahead[k], the last one across the seam
        np.multiply(behind, np.conjugate(c), out=odd)
        odd[:-1] += ahead * c
        odd[-1] += behind[0] * seam
        odd *= 0.5
    return u


def minimize(init: DiscreteField, b: float,
             settings: SolverSettings | None = None) -> MinimizationResult:
    """Minimize from init with the plain preconditioner.  A start on an exact
    critical point, such as u = 0 where the gradient vanishes, comes back
    converged after 0 iterations (estimate_g flags g >= -1e-9).

    On an even grid the solve starts with the half-grid cascade of the module
    docstring, and the result's `coarse` records the half-grid run.  When it
    took a step, the fine solve runs from its prolonged answer with P
    conjugated by that answer's phase, and iterations, restarts and
    operator_evals cover both levels; when it took none, the fine solve and
    its counters are those of the direct solve from init.  wall_time covers
    both levels either way.  Each level gets the whole of settings.  An odd
    n, or a non-finite init, solves directly.
    """
    return _cascade(init, b, settings, warm=False)


def _cascade(init: DiscreteField, b: float, settings: SolverSettings | None,
             warm: bool) -> MinimizationResult:
    """minimize's solve; warm (a sweep point from its anchor) also conjugates
    P on the half grid, by the phase of init's even sites, and in a direct
    solve, by init's phase.  A cold half grid keeps plain P: from the square
    trial state a conjugated one stops on the saddle.  A half grid that
    diverges raises its MinimizationError.
    """
    check_b(b)
    s = settings or SolverSettings()
    t0 = time.perf_counter()
    coarse = it = None
    if init.grid.n % 2 == 0 and np.isfinite(init.u).all():
        grid = coarse_grid(init.grid)
        u = init.u[::2, ::2].astype(np.complex128)
        op = CellOperator(grid, replace(init.wrap, n=grid.n))
        it, restarts, reason, _ = _ncg(u, op, b, s, _unit_phase(u) if warm else None)
        coarse = CoarseSolve(grid.n, it, reason)
    if it:
        start = DiscreteField(u=_prolong(u, init.grid, init.wrap), grid=init.grid, wrap=init.wrap)
        del u  # beside a direct solve's arrays, the fine solve holds only the phase
        res = _solve(start, b, s, _unit_phase(start.u))
        res.iterations += it
        res.restarts += restarts
        res.operator_evals += op.evaluations
    else:
        res = _solve(init.copy(), b, s, _unit_phase(init.u) if warm else None)
    res.coarse = coarse
    res.wall_time = time.perf_counter() - t0
    return res


def _unit_phase(u: np.ndarray) -> np.ndarray:
    """phi = u/|u|, and 1 where u = 0."""
    r = np.abs(u)
    return np.divide(u, r, out=np.ones(u.shape, np.complex128), where=r > 0.0)


def estimate_g(config: CellConfig, settings: SolverSettings | None = None,
               start: DiscreteField | None = None) -> GCurvePoint:
    """One point of g(b): minimize once, from the trial state of the cell or
    from `start`.

    start, a field on the config's grid (a sweep's anchor solution), is used
    whenever its energy at b lies below the trial state's; the solve then
    runs minimize's cascade with the preconditioner conjugated on the half
    grid by the phase of start.u[::2, ::2], and, if the half grid takes no
    step, as one direct solve conjugated by phi = start.u/|start.u|.
    start itself is not changed.  Otherwise, and without start, the point is
    the cold solve from the trial state.  `coarse` records the half-grid run
    either way.  g_trial is the energy density of the trial state, an upper
    bound on g.  The point keeps its minimizer as `solution` and the wall
    time of the whole point as `wall_s`.  A MinimizationError reaches the
    caller with its diagnostics.
    """
    t0 = time.perf_counter()
    b = config.b
    init = init_state("trial", config)
    grid = init.grid
    e_trial = energy(init, b).total
    g_trial = e_trial / grid.area
    e_start = None
    if start is not None:
        if (start.grid.n, start.grid.N) != (grid.n, grid.N):
            raise ConfigError(f"start field has n={start.grid.n}, N={start.grid.N}; "
                              f"the point has n={grid.n}, N={grid.N}")
        e_start = energy(start, b).total
    if e_start is not None and e_start < e_trial:
        del init  # the trial state is not needed any more
        res, kind = _cascade(start, b, settings, warm=True), "anchor"
    else:
        res, kind = minimize(init, b, settings), "trial"
    g_est = res.density
    flags = ["likely not converged to ground state"] if g_est >= -1e-9 else []
    _, _, mpot = density_moments(res.field)
    zeta = (g_est + 0.5 + 0.5 * b * math.log(b)) / (b * math.log(b))
    return GCurvePoint(
        b=b, N=config.N, n=grid.n, g_est=g_est, g_trial=g_trial,
        potential_moment=mpot, zeta=zeta, iterations=res.iterations,
        stop_reason=res.stop_reason, restarts=res.restarts, coarse=res.coarse, flags=flags,
        start=kind,
        wall_s=time.perf_counter() - t0,
        solution=res.field,
    )
