"""Vortex detection, square classification, vorticity, measure comparison.

Zeros of the order parameter are located as connected components of
{|u| < threshold}, wrapped periodically across the seams.  Each component is
covered by its minimal enclosing disk, all of them from one batched
support-set iteration; intersecting disks are merged until the collection is
pairwise disjoint, and each ball gets an integer degree from the winding of
u/|u| along one lattice loop that hugs it, all loops wound in one array with
segment sums.  The cell tiles into N congruent squares of area 2*pi, which
are classified good or bad by their local energy, reduced square by square
from one complex buffer, and the vorticity measure mu = curl j + curl A0
always carries total mass 2*pi*N by telescoping.  mu stays on its plaquette lattice
(LatticeMeasure), so its Lipschitz-dual distance groups the tents of each
axis into classes whose windows of atoms are congruent, and evaluates one
kernel per pair of classes for all their tents at once; scattered atoms
(DiscreteMeasure) are paired atom by atom.

Everything here reads the field's own connection: covariant differences go
through its cell operator, and loop values through grid.wrap_value, one
array call per loop (one for all the balls' loops).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .energy import DiscreteField
from .grid import TWO_PI, wrap_value


class VortexError(ValueError):
    pass


@dataclass(frozen=True)
class VortexBall:
    """Disk holding its zeros, and their degree: the winding of u/|u| on
    the one loop that hugs the disk, where |u| >= threshold by construction."""

    center: tuple[float, float]
    radius: float
    degree: int


@dataclass
class SquareReport:
    """One congruent sub-square Q_j of area 2*pi and its vortex bookkeeping."""

    index: int
    bounds: tuple[float, float, float, float]  # (x1_lo, x1_hi, x2_lo, x2_hi)
    energy: float            # b * kinetic + potential restricted to Q_j
    good: bool               # energy / b <= C_star * |log b|
    balls: list = dfield(default_factory=list)
    d_plus: int = 0          # sum of positive degrees of contained balls
    d_minus: int = 0         # sum of |negative degrees|
    d_total: int = 0         # d_plus + d_minus
    radius_total: float = 0.0
    radius_budget_exceeded: bool = False


@dataclass
class VorticityField:
    mu: np.ndarray = dfield(repr=False)  # (n, n) per-plaquette vorticity mass
    total_mass: float = 0.0
    h: float = 0.0
    R: float = 0.0


@dataclass
class DiscreteMeasure:
    """Atoms plus an optional uniform background density on the domain."""

    points: np.ndarray = dfield(repr=False)   # (k, 2)
    weights: np.ndarray = dfield(repr=False)  # (k,)
    uniform_density: float = 0.0

    def __post_init__(self):
        shape = np.shape(self.points)
        if len(shape) != 2 or shape[1] != 2 or np.shape(self.weights) != shape[:1]:
            raise VortexError(
                f"points must be (k, 2) and weights (k,), got {shape} "
                f"and {np.shape(self.weights)}"
            )

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))


@dataclass
class LatticeMeasure:
    """Atoms on the lattice xs x ys, weights[i, j] at (xs[i], ys[j]).  The
    axes need not be sorted or evenly spaced."""

    xs: np.ndarray = dfield(repr=False)       # (nx,)
    ys: np.ndarray = dfield(repr=False)       # (ny,)
    weights: np.ndarray = dfield(repr=False)  # (nx, ny)
    uniform_density = 0.0  # no background: a class constant, not a field

    def __post_init__(self):
        if (np.ndim(self.xs) != 1 or np.ndim(self.ys) != 1
                or np.shape(self.weights) != (np.size(self.xs), np.size(self.ys))):
            raise VortexError(
                f"xs and ys must be vectors and weights (len(xs), len(ys)), got "
                f"{np.shape(self.xs)}, {np.shape(self.ys)} and {np.shape(self.weights)}"
            )

    @property
    def points(self) -> np.ndarray:
        """The (k, 2) atom points in weights.ravel() order, built on each access."""
        X, Y = np.meshgrid(self.xs, self.ys, indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))


@dataclass
class MeasureDistanceReport:
    estimate: float
    dictionary: str
    witness: tuple[float, float, float]  # (center_x, center_y, scale)
    depth: int


def winding(field: DiscreteField, loop) -> int:
    """Winding of u/|u| along a closed lattice path of integer (i, j) pairs.

    loop is a sequence of pairs or a (k, 2) array.  Indices may lie outside
    the fundamental cell; ghost values then pick up the wrap phases, so the
    total winding along the cell boundary counts the quantized flux.
    """
    pts = np.asarray(loop)
    if len(pts) < 3:
        raise VortexError("loop too short")
    if (pts[0] != pts[-1]).any():
        pts = np.vstack([pts, pts[:1]])
    return int(_loop_degrees(wrap_value(field.u, field.wrap, pts[:, 0], pts[:, 1]),
                             np.zeros(1, np.intp))[0])


def _loop_degrees(vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Winding numbers of closed sequences of values, concatenated in vals:
    loop k runs from starts[k] to the next start, and its last value
    repeats its first."""
    if np.min(np.abs(vals)) < 1e-12:
        raise VortexError("degree undefined: loop touches a zero")
    turns = np.angle(vals[1:] / vals[:-1])
    turns[starts[1:] - 1] = 0.0  # the steps from one loop's end to the next loop's start
    w = np.add.reduceat(turns, starts) / TWO_PI
    deg = np.rint(w)
    off = np.abs(w - deg) > 1e-6
    if off.any():
        raise VortexError(f"winding not integral: {w[off][0]}")
    return deg.astype(int)


def cell_boundary_loop(n: int) -> np.ndarray:
    """Counterclockwise lattice loop along the cell boundary (uses ghosts),
    as a (4 n + 1, 2) index array."""
    up = np.arange(n)
    edge, zero = np.full(n, n), np.zeros(n, int)
    i = np.concatenate([up, edge, n - up, zero, [0]])
    j = np.concatenate([zero, up, edge, n - up, [0]])
    return np.column_stack([i, j])


def _torus_delta(p, q, R):
    d = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
    return (d + R / 2.0) % R - R / 2.0


def _runs(first: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index, run): the indices first[k], ..., first[k] + length[k] - 1 of
    every run k, concatenated, and the run each belongs to."""
    run = np.repeat(np.arange(len(length)), length)
    return np.arange(run.size) - (np.cumsum(length) - length - first)[run], run


# the two support points (besides the new one) of the candidate circles in
# _enclosing_disks: diameters to each, then circumcircles through each pair
_CANDIDATES = np.array([[0, 0], [1, 1], [2, 2], [0, 1], [0, 2], [1, 2]])


def _enclosing_disks(points: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimal enclosing disk of every run points[starts[k]:starts[k + 1]]
    at once, as (centers (C, 2), radii (C,)).

    The support-set iteration of Elzinga and Hearn (Management Science 19,
    1972): each run holds the disk of three support points, padded with
    copies of its own points.  While a run has a point farther than
    radius + tol from its centre, its farthest point p joins the support,
    and the new disk is the smallest of the 6 circles through p and one or
    two support points (diameters and circumcircles) that holds all four
    points: p lies outside the old disk, so it is on the minimal disk of
    the four, which passes through one or two of the others.  The radius
    grows at every step, so no support set returns and the iteration ends,
    in a handful of steps for lattice blobs.  tol is 1e-12 times a run's
    largest coordinate (at least 1), so a run's disk does not depend on the
    other runs solved with it.
    """
    run = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(points)))
    tol = 1e-12 * np.maximum(1.0, np.maximum.reduceat(np.abs(points).max(axis=1), starts))
    index = np.arange(len(points))
    support = np.repeat(points[starts, None], 3, axis=1)
    centers, radii = points[starts].copy(), np.zeros(len(starts))
    while True:
        dist = np.hypot(*(points - centers[run]).T)
        top = np.maximum.reduceat(dist, starts)
        far = np.minimum.reduceat(np.where(dist == top[run], index, len(points)), starts)
        k = np.flatnonzero(top > radii + tol)
        if not k.size:
            return centers, radii
        p, q = points[far[k]], support[k]
        e = q - p[:, None]  # the support points relative to p
        a, b = e[:, _CANDIDATES[3:, 0]], e[:, _CANDIDATES[3:, 1]]
        cross = 2.0 * (a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0])
        aa, bb = np.sum(a * a, axis=-1), np.sum(b * b, axis=-1)
        # circumcentre w relative to p: 2 w.a = |a|^2 and 2 w.b = |b|^2
        w = np.stack([b[..., 1] * aa - a[..., 1] * bb, a[..., 0] * bb - b[..., 0] * aa], axis=-1)
        np.divide(w, cross[..., None], out=w, where=cross[..., None] != 0.0)
        offsets = np.concatenate([e / 2.0, w], axis=1)
        r = np.hypot(offsets[..., 0], offsets[..., 1])
        reach = np.hypot(*np.moveaxis(e[:, None] - offsets[:, :, None], -1, 0)).max(axis=2)
        fits = np.concatenate([np.ones_like(cross, bool), cross != 0.0], axis=1)
        fits &= reach <= r + tol[k, None]
        best = np.argmin(np.where(fits, r, np.inf), axis=1)
        pick = np.arange(k.size)
        centers[k] = p + offsets[pick, best]
        radii[k] = r[pick, best]
        support[k] = np.stack([p, *np.moveaxis(q[pick[:, None], _CANDIDATES[best]], 1, 0)], axis=1)


def enclosing_disk(points) -> tuple[tuple[float, float], float]:
    """Minimal enclosing disk of a (k, 2) array of finite points: the
    one-run call of the support-set iteration _enclosing_disks."""
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        raise VortexError("empty point set")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise VortexError(f"points must be a (k, 2) array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise VortexError("non-finite point")
    c, r = _enclosing_disks(arr, np.zeros(1, np.intp))
    return (float(c[0, 0]), float(c[0, 1])), float(r[0])


def _components(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of a boolean mask, periodic across both seams.

    4-connected labelling of the flagged sites by root hooking and pointer
    jumping (Shiloach and Vishkin, J. Algorithms 3, 1982): each round hooks
    the larger of two adjacent roots onto the smaller, then jumps pointers
    until every site points at its root.  A root is never hooked onto a larger
    index, so each component's root is its first site in row-major order.
    Returns (sites, starts): the (k, 2) flagged sites grouped by component,
    components in the order of their first sites and sites in row-major
    order within each, and the index in sites of each component's first site.
    Each site's lower and right neighbour is found by bisection in the
    sorted flat indices of the flagged sites.
    """
    flat = np.flatnonzero(mask)
    if flat.size == 0:
        return np.zeros((0, 2), np.intp), np.zeros(0, np.intp)
    n0, n1 = mask.shape
    i, j = np.divmod(flat, n1)
    # the edges to every site's lower neighbour, then to every right one
    ahead = np.concatenate([(i + 1) % n0 * n1 + j, i * n1 + (j + 1) % n1])
    b = np.searchsorted(flat, ahead) % flat.size  # past the end only when absent
    edge = np.flatnonzero(flat[b] == ahead)
    a, b = edge % flat.size, b[edge]
    parent = np.arange(flat.size)
    while True:
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            break
        # sites joined once stay joined, so their edges need no further rounds
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    order = np.argsort(parent, kind="stable")
    root = parent[order]
    return np.column_stack([i, j])[order], np.flatnonzero(np.diff(root, prepend=-1))


def _component_disks(sites: np.ndarray, starts: np.ndarray, grid) -> tuple[np.ndarray, np.ndarray]:
    """Minimal enclosing disk of every component's sites, each unwrapped
    about its first site, with the centres reduced back into the cell."""
    n, h, R = grid.n, grid.h, grid.R
    comp = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(sites)))
    ref = sites[starts]
    # unwrap indices to the nearest periodic image of the reference site
    d = (sites - ref[comp] + n // 2) % n - n // 2
    wide = np.flatnonzero(np.any(np.maximum.reduceat(d, starts) - np.minimum.reduceat(d, starts)
                                 >= n // 2, axis=1))
    if wide.size:
        # a component this wide may wrap around the torus: no disk in the
        # plane stands for it, and its degree would not be a vortex count
        size = np.diff(starts, append=len(sites))[wide[0]]
        raise VortexError(
            f"a component of {size} sites spans half the cell or more; "
            "it cannot be unwrapped onto one disk (is the threshold above max |u|?)"
        )
    # only the least and greatest column of each row can lie on the minimal
    # circle: a site strictly between them is on the chord that joins them,
    # which is strictly inside every disk holding both ends.  A component's
    # sites are row-major, so each row is one run of them
    row = np.ones(len(sites), dtype=bool)
    row[1:] = sites[1:, 0] != sites[:-1, 0]
    row[starts] = True
    row = np.flatnonzero(row)
    comp = comp[row]
    ends = np.stack([d[row, 0], np.minimum.reduceat(d[:, 1], row),
                     d[row, 0], np.maximum.reduceat(d[:, 1], row)], axis=1).reshape(-1, 2)
    points = -R / 2 + (np.repeat(ref[comp], 2, axis=0) + ends) * h
    centers, radii = _enclosing_disks(points, 2 * np.flatnonzero(np.diff(comp, prepend=-1)))
    return (centers + R / 2.0) % R - R / 2.0, radii


def _merge_pair(c1, r1, c2, r2, R):
    """The smallest disk holding two disks, its centre reduced into the cell."""
    # _torus_delta in Python floats: numpy on 2-tuples costs more
    d = ((c1[0] - c2[0] + R / 2) % R - R / 2, (c1[1] - c2[1] + R / 2) % R - R / 2)
    dist = math.hypot(d[0], d[1])
    if dist + min(r1, r2) <= max(r1, r2):
        return (c1, r1) if r1 >= r2 else (c2, r2)
    t = (dist + r1 - r2) / (2.0 * max(dist, 1e-300))
    c = (c2[0] + t * d[0], c2[1] + t * d[1])
    return ((c[0] + R / 2) % R - R / 2, (c[1] + R / 2) % R - R / 2), (dist + r1 + r2) / 2.0


def _merge_disks(centers, radii, R, clearance) -> tuple[np.ndarray, np.ndarray]:
    """Merge disks that come within clearance of each other on the torus,
    until none do, as (centers (k, 2), radii (k,)).

    A pass pops the disks from the end; each pop is merged into the first
    kept disk it comes within clearance of, or else kept, and passes repeat
    until one merges nothing.  Between two merges the pops
    are tested at once: those before the first that meets a kept disk or an
    earlier pop are all kept.
    """
    c, r = np.asarray(centers, dtype=float), np.asarray(radii, dtype=float)
    merged = True
    while merged:
        merged = False
        kept_c, kept_r, todo_c, todo_r = c[:0], r[:0], c[::-1], r[::-1]
        while len(todo_r):
            m, t = len(kept_r), len(todo_r)
            seq_c, seq_r = np.concatenate([kept_c, todo_c]), np.concatenate([kept_r, todo_r])
            d = (todo_c[:, None] - seq_c + R / 2) % R - R / 2
            meets = np.hypot(d[..., 0], d[..., 1]) < todo_r[:, None] + seq_r + clearance
            meets &= np.arange(m + t) < m + np.arange(t)[:, None]  # kept before the pop
            hit = np.flatnonzero(meets.any(axis=1))
            if not hit.size:
                kept_c, kept_r = seq_c, seq_r
                break
            k, s = hit[0], np.argmax(meets[hit[0]])
            kept_c, kept_r = seq_c[:m + k].copy(), seq_r[:m + k].copy()
            kept_c[s], kept_r[s] = _merge_pair(todo_c[k].tolist(), float(todo_r[k]),
                                               kept_c[s].tolist(), float(kept_r[s]), R)
            todo_c, todo_r = todo_c[k + 1:], todo_r[k + 1:]
            merged = True
        c, r = kept_c, kept_r
    return c, r


def _circle_loops(centers: np.ndarray, radii: np.ndarray, grid) -> tuple[np.ndarray, np.ndarray]:
    """Every ball's closed counterclockwise loop of 8-neighbour lattice
    steps, concatenated as one (K, 2) index array, and the index where each
    loop starts; each loop's last site repeats its first.

    A ball's loop holds the sites nearest the circle of radius radius + h/2
    about its centre at ceil(8 (radius + h/2)/h) angles, repeats dropped.
    Samples lie under h apart per axis, so their sites differ by at most
    one step, and each site is within h/sqrt(2) of the circle.
    """
    h, R = grid.h, grid.R
    rho = radii / h + 0.5
    m = np.ceil(8 * rho).astype(np.intp)
    k, ball = _runs(np.zeros(len(m), np.intp), m)
    # site i + 1j j of each sample, in units of h from the lattice origin
    origin = ((centers + R / 2) / h).view(np.complex128)[:, 0]
    z = np.rint(origin[ball] + rho[ball] * np.exp(1j * (k * (TWO_PI / m)[ball])))
    last = np.cumsum(m) - 1
    nxt = np.arange(1, z.size + 1)
    nxt[last] = last - m + 1
    keep = z != z[nxt]  # the last of each run on one site, cyclically per ball
    z, count = z[keep], np.bincount(ball[keep], minlength=len(m))
    first = np.cumsum(count) - count
    z = np.insert(z, first + count, z[first])  # close every loop
    return z.view(float).reshape(-1, 2).astype(int), first + np.arange(len(m))


def find_balls(
    field: DiscreteField,
    b: float,
    threshold: float = 0.5,
) -> list[VortexBall]:
    """Disjoint vortex balls covering {|u| < threshold}, with degrees.

    The balls are arrays through the pass: every component's minimal
    enclosing disk comes from one batched support-set iteration
    (_component_disks), the disks are merged in a fixed order
    (_merge_disks), and every loop and degree from one concatenated sample
    array with segment sums (_circle_loops, _loop_degrees).  Each degree is
    the winding of u/|u| on the ball's one loop, which hugs it and is clean
    by construction: its sites lie between r - 0.21h and r + 1.21h from the
    centre, the ball's own components within r - h, and every other ball's
    beyond r + 2h, so |u| >= threshold on the loop and the winding counts
    exactly the ball's own zeros.
    """
    g = field.grid
    sites, starts = _components(np.abs(field.u) < threshold)
    if not starts.size:
        return []
    centers, radii = _component_disks(sites, starts, g)
    # clearance h keeps every loop off the support sites, its own and the
    # other balls', which _merge_disks leaves r_i + r_j + h apart
    centers, radii = _merge_disks(centers, radii + g.h, g.R, clearance=g.h)
    loops, loop_starts = _circle_loops(centers, radii, g)
    degrees = _loop_degrees(wrap_value(field.u, field.wrap, loops[:, 0], loops[:, 1]),
                            loop_starts)
    return [VortexBall(center=(x, y), radius=r, degree=d)
            for (x, y), r, d in zip(centers.tolist(), radii.tolist(), degrees.tolist())]


def radius_budget(b: float) -> float:
    return 1.0 / math.log(b) ** 2


def _square_grid(grid):
    k = int(round(math.sqrt(grid.N)))
    if k * k != grid.N:
        raise VortexError(
            f"square decomposition needs N to be a perfect square, got N={grid.N}"
        )
    if grid.n % k != 0:
        raise VortexError(f"n={grid.n} not divisible by sqrt(N)={k}")
    return k, grid.n // k


def classify_squares(
    field: DiscreteField,
    b: float,
    C_star: float = 4.0 * math.pi,
    balls: list[VortexBall] | None = None,
) -> list[SquareReport]:
    """Partition the cell into N squares of area 2*pi and classify them.

    A square is good when its local energy (kinetic + potential/b form)
    stays below C_star * |log b|.  Ball degrees only count toward a square
    when the ball sits inside the inner margin, at distance > sqrt(b) from
    the square boundary; other balls are listed with degree contribution 0.
    Square (si, sj) is number si * k + sj of the k x k squares, and a ball
    is filed in the square that holds its centre.
    """
    g = field.grid
    k, m = _square_grid(g)
    side = g.R / k
    if balls is None:
        balls = find_balls(field, b)
    # b sum |D u|^2 + (h^2/2) sum (1 - |u|^2)^2 per square, from one buffer d:
    # each plane is squared in place and reduced over a (k, m, k, .) view
    op, u = field.operator(), field.u
    d = np.empty(u.shape, np.complex128)
    planes, re = d.view(float), d.real
    kinetic = 0.0
    for axis in (0, 1):
        np.square(op.D_axis(u, axis, d).view(float), out=planes)
        kinetic += planes.reshape(k, m, k, 2 * m).sum(axis=(1, 3))
    np.add(np.square(u.real, out=re), np.square(u.imag, out=d.imag), out=re)
    np.square(np.subtract(1.0, re, out=re), out=re)
    energies = b * kinetic + 0.5 * g.h**2 * re.reshape(k, m, k, m).sum(axis=(1, 3))
    margin = math.sqrt(b)
    budget = radius_budget(b)
    reports = []
    for j_idx, e in enumerate(energies.ravel().tolist()):
        lo1, lo2 = -g.R / 2 + (j_idx // k) * side, -g.R / 2 + (j_idx % k) * side
        reports.append(SquareReport(index=j_idx, bounds=(lo1, lo1 + side, lo2, lo2 + side),
                                    energy=e, good=(e / b) <= C_star * abs(math.log(b))))
    for ball in balls:
        si, sj = (int((x + g.R / 2) // side) % k for x in ball.center)
        rep = reports[si * k + sj]
        rep.balls.append(ball)
        rep.radius_total += ball.radius
        lo1, hi1, lo2, hi2 = rep.bounds
        inside_margin = (
            lo1 + margin < ball.center[0] - ball.radius
            and ball.center[0] + ball.radius < hi1 - margin
            and lo2 + margin < ball.center[1] - ball.radius
            and ball.center[1] + ball.radius < hi2 - margin
        )
        if inside_margin:
            rep.d_plus += max(ball.degree, 0)
            rep.d_minus += max(-ball.degree, 0)
    for rep in reports:
        rep.d_total = rep.d_plus + rep.d_minus
        rep.radius_budget_exceeded = rep.radius_total > budget
    return reports


def coverage_gaps(field: DiscreteField, balls, b: float) -> int:
    """Sites with ||u| - 1| >= b^(1/16), inside the inner square margins,
    not covered by any ball.  Returns the count of uncovered sites.

    Each ball is tested only against the flagged sites in its window, those
    with x within its radius + h on the torus: the sites come sorted by x,
    so a window is at most three runs found by bisection (one per periodic
    image of the ball along x), and memory stays O(sites + window pairs).
    """
    g = field.grid
    k, _ = _square_grid(g)
    side = g.R / k
    margin = math.sqrt(b)
    gap = np.abs(field.u)  # ||u| - 1|, formed in the |u| buffer
    gap -= 1.0
    i, j = np.divmod(np.flatnonzero(np.abs(gap, out=gap) >= b ** (1.0 / 16.0)), g.n)
    x = -g.R / 2 + i * g.h  # row-major sites: x never decreases
    y = -g.R / 2 + j * g.h
    dx1 = (x + g.R / 2) % side
    dx2 = (y + g.R / 2) % side
    inner = np.minimum.reduce([dx1, side - dx1, dx2, side - dx2]) > margin
    x, y = x[inner], y[inner]
    if not balls or not x.size:
        return int(x.size)
    cx, cy = np.array([ball.center for ball in balls]).T
    r = np.array([ball.radius for ball in balls])
    shifts = np.array([-g.R, 0.0, g.R])[:, None]
    lo = np.searchsorted(x, cx - r - g.h + shifts, "left").ravel()
    hi = np.searchsorted(x, cx + r + g.h + shifts, "right").ravel()
    site, window = _runs(lo, hi - lo)
    ball = window % len(r)
    d = np.hypot(_torus_delta(x[site], cx[ball], g.R), _torus_delta(y[site], cy[ball], g.R))
    covered = np.zeros(x.size, dtype=bool)
    covered[site[d <= r[ball]]] = True
    return int(x.size - np.count_nonzero(covered))


def vorticity(field: DiscreteField) -> VorticityField:
    """Vorticity mu = curl j + curl A0 per plaquette; total mass 2*pi*N.

    Every plaquette of the connection, seams and wrap twists included, has
    holonomy h^2 mod 2*pi, so curl A0 adds exactly h^2.  curl j telescopes to
    zero over the periodic cell, so the total is the quantized flux
    R^2 = 2*pi*N for every field.
    """
    g = field.grid
    op, u = field.operator(), field.u
    d = np.empty(u.shape, np.complex128)

    def flux(axis):
        # minus the link flux h j = Im(conj(u) D u) on the links along axis,
        # read in d as Im(u conj(c u(x + h e))): D u = c u(x + h e) - u and
        # Im(conj(u) u) = 0, so the difference is never formed
        op._hop(u, axis, d)
        return np.multiply(u, np.conjugate(d, out=d), out=d).imag

    # circ = h (jx + jy(x + h e1) - jx(x + h e2) - jy), which with f = -h j is
    # fx(x + h e2) - fx + fy - fy(x + h e1), read from one flux plane at a time
    mu = np.empty(u.shape)
    fx = flux(0)
    np.subtract(fx[:, 1:], fx[:, :-1], out=mu[:, :-1])
    np.subtract(fx[:, 0], fx[:, -1], out=mu[:, -1])
    fy = flux(1)
    mu += fy
    mu[:-1] -= fy[1:]
    mu[-1] -= fy[0]
    mu += g.h**2
    return VorticityField(mu=mu, total_mass=math.fsum(np.sum(mu, axis=0)),
                          h=g.h, R=g.R)


def vorticity_measure(vf: VorticityField) -> LatticeMeasure:
    """Vorticity field as atoms at plaquette centres, kept on their lattice:
    weights[i, j] = mu[i, j] at (x[i], x[j]), which shares vf.mu's memory."""
    x = -vf.R / 2 + vf.h * (np.arange(vf.mu.shape[0]) + 0.5)
    return LatticeMeasure(xs=x, ys=x, weights=np.asarray(vf.mu, dtype=float))


def uniform_measure(domain, density: float) -> DiscreteMeasure:
    """Uniform background measure on the rectangular domain (handled exactly)."""
    return DiscreteMeasure(points=np.zeros((0, 2)), weights=np.zeros(0),
                           uniform_density=density)


# block size in _level_pairings: _ATOM_CHUNK scattered atoms at a time, or
# a lattice class kernel in row blocks of at most _ATOM_CHUNK entries; the
# tracemalloc peak of the n=568 dual distance is 0.40 MB for the lattice at
# depth 6, where a depth-0 kernel built whole would take 2.6 MB, and 3.6 MB
# at depth 4 for the same atoms scattered; 2**13 and 2**15 are both slower
# on the lattice
_ATOM_CHUNK = 2**14


def _window_classes(p, c, r):
    """The tents of one sorted axis p as runs of congruent, evenly spaced windows.

    Tent t's window is the run of atoms p[start:start + L] within r[t] + tol
    of c[t], found by bisection; tol is 4 ulps of the largest coordinate, so
    the window holds every atom whose offset p - c[t] rounds inside
    (-r[t], r[t]).  Tents whose windows have the same length, with radii
    and offsets equal to within tol, form a class; a class is split into
    runs of tents whose windows start evenly spaced.  Returns one (tents,
    start, step, offsets, radius) per run, with the offsets and radius of
    its class's first tent.  A tent of radius <= 0 is in no run.
    """
    tol = 4.0 * np.spacing(max(np.abs(c).max(), r.max(), np.abs(p).max(initial=0.0)))
    start = np.searchsorted(p, c - r - tol, "left")
    length = np.searchsorted(p, c + r + tol, "right") - start
    length[r <= 0.0] = 0
    runs = []
    for L in sorted(set(length.tolist()) - {0}):
        tents = np.flatnonzero(length == L)
        offsets = p[start[tents, None] + np.arange(L)] - c[tents, None]
        free = np.ones(len(tents), dtype=bool)
        while free.any():
            k = np.argmax(free)
            same = (free & (np.abs(r[tents] - r[tents[k]]) <= tol)
                    & (np.abs(offsets - offsets[k]).max(axis=1) <= tol))
            free &= ~same
            class_runs = []  # a run ends where the spacing of its starts changes
            for t in tents[same]:
                if class_runs:
                    run = class_runs[-1]
                    step = start[t] - start[run[-1]]
                    if step > 0 and (len(run) == 1 or step == start[run[1]] - start[run[0]]):
                        run.append(t)
                        continue
                class_runs.append([t])
            runs += [(np.array(run), start[run[0]],
                      start[run[1]] - start[run[0]] if len(run) > 1 else 1,
                      offsets[k], r[tents[k]]) for run in class_runs]
    return runs


def _level_pairings(mu, x_lo, y_lo, sx, sy, cx, cy, rx, ry) -> np.ndarray:
    """<mu, tent> for every tent of one dyadic level, as an (nx, nx) array.

    The tent (ii, jj) sits at (cx[ii], cy[jj]) with radius
    min(rx[ii], ry[jj]) <= the cell sides sx and sy.  A LatticeMeasure
    pairs by runs of congruent windows per axis (_window_classes), sorting
    an unsorted axis once (and copying the weights only then).  Each pair
    of an x run and a y run builds one kernel K[i, j] = (min(rx, ry) -
    sqrt(dx[i]**2 + dy[j]**2))_+ of their offsets, in row blocks of at most
    _ATOM_CHUNK entries, and one einsum contracts it with a strided view of
    the weights that holds the window of every tent pair of the two runs.
    A run shares its class's first radius and offsets, which lie within
    tol of each tent's own, and K is 1-Lipschitz in the radius and in the
    offset vector, so a pairing moves by at most (1 + sqrt(2)) tol sum(|w|).
    A depth costs its kernels' entries, the einsum's products (about 4 per
    atom once windows overlap) and a few numpy calls per run pair: 4 runs
    per axis at n=568, depth 4, and 10 at depth 6.  A DiscreteMeasure is
    paired by _scattered_pairings.
    """
    if isinstance(mu, LatticeMeasure):
        xs, ys, w = mu.xs, mu.ys, mu.weights
        if np.any(np.diff(xs) < 0.0):
            order = np.argsort(xs, kind="stable")
            xs, w = xs[order], w[order]
        if np.any(np.diff(ys) < 0.0):
            order = np.argsort(ys, kind="stable")
            ys, w = ys[order], w[:, order]
        sums = np.zeros((len(cx), len(cy)))
        y_runs = _window_classes(ys, cy, ry)
        for ti, i0, di, dx, ri in _window_classes(xs, cx, rx):
            for tj, j0, dj, dy, rj in y_runs:
                s, M = min(ri, rj), len(dy)
                windows = sliding_window_view(w, (len(dx), M))[i0::di, j0::dj][:len(ti), :len(tj)]
                block = np.zeros((len(ti), len(tj)))
                rows = max(1, _ATOM_CHUNK // M)
                for a in range(0, len(dx), rows):
                    kernel = np.add(np.square(dx[a:a + rows, None]), np.square(dy))
                    np.subtract(s, np.sqrt(kernel, out=kernel), out=kernel)
                    np.maximum(kernel, 0.0, out=kernel)
                    block += np.einsum("abij,ij->ab", windows[:, :, a:a + rows], kernel)
                sums[np.ix_(ti, tj)] = block
    elif len(mu.weights):
        sums = _scattered_pairings(mu, x_lo, y_lo, sx, sy, cx, cy, rx, ry)
    else:  # no atoms, only the background, as in uniform_measure
        sums = np.zeros((len(cx), len(cy)))
    if mu.uniform_density:
        # exact cone integral: int (s - |x - c|)_+ dx = pi s^3 / 3
        sums += mu.uniform_density * math.pi * np.minimum.outer(rx, ry) ** 3 / 3.0
    return sums


def _scattered_pairings(mu, x_lo, y_lo, sx, sy, cx, cy, rx, ry) -> np.ndarray:
    """_level_pairings of a DiscreteMeasure's atoms, without its background.

    An atom is paired only with the tent of its own cell or of the
    neighbour on its nearer side, per axis, of those that reach it on both
    axes: radius > sqrt(offset**2) along the axis.  A skipped pair is
    exactly 0, since min(rx, ry) <= sqrt(dx**2) <= sqrt(dx**2 + dy**2) holds
    in floating point too.  The tent grid is padded with a ring of
    zero-radius tents, and a candidate index is clipped onto that ring, so
    an atom at or past the domain edge keeps its outward candidate apart
    from its own cell's tent; the ring reaches no atom and is dropped on
    return.  The candidates are found atom by atom, in blocks of
    _ATOM_CHUNK atoms, and each block is summed into the tents with
    bincount.
    """
    nx = len(cx)
    # ring centres one cell beyond the ends keep every offset finite
    cx_pad = np.concatenate([[cx[0] - sx], cx, [cx[-1] + sx]])
    cy_pad = np.concatenate([[cy[0] - sy], cy, [cy[-1] + sy]])
    rx_pad, ry_pad = np.pad(rx, 1), np.pad(ry, 1)
    sums = np.zeros((nx + 2, nx + 2))

    def candidates(p, lo, side, centres, radii):
        # padded index, radius, squared offset and reach of the own-cell and
        # nearer-neighbour tents along one axis
        f = (p - lo) / side
        own = np.floor(f)
        near = own + np.where(f - own >= 0.5, 1.0, -1.0)
        out = []
        for c in (own, near):
            k = (np.clip(c, -1, nx) + 1).astype(np.intp)
            d2 = (p - centres[k]) ** 2
            out.append((k, radii[k], d2, radii[k] > np.sqrt(d2)))
        return out

    def pair(ri, rj, dx2, dy2, w):
        # (s - |x - c|)_+ w of each atom and its candidate tent, s = min(ri, rj),
        # which is rj itself when no ri is below the largest rj
        term = np.add(dx2, dy2)
        s = rj if ri.min() >= rj.max() else np.minimum(ri, rj)
        np.subtract(s, np.sqrt(term, out=term), out=term)
        np.maximum(term, 0.0, out=term)
        term *= w
        return term

    for start in range(0, len(mu.weights), _ATOM_CHUNK):
        block = slice(start, start + _ATOM_CHUNK)
        w = mu.weights[block]
        xs = candidates(mu.points[block, 0], x_lo, sx, cx_pad, rx_pad)
        ys = candidates(mu.points[block, 1], y_lo, sy, cy_pad, ry_pad)
        for i, ri, dx2, reach_x in xs:
            for j, rj, dy2, reach_y in ys:
                kept = np.flatnonzero(reach_x & reach_y)
                if kept.size == 0:
                    continue
                term = pair(ri[kept], rj[kept], dx2[kept], dy2[kept], w[kept])
                sums += np.bincount(i[kept] * (nx + 2) + j[kept], term,
                                    minlength=(nx + 2) ** 2).reshape(nx + 2, nx + 2)
    return sums[1:-1, 1:-1]


def lipschitz_dual_distance(
    mu_a: DiscreteMeasure | LatticeMeasure,
    mu_b: DiscreteMeasure | LatticeMeasure,
    domain: tuple[float, float, float, float],
    dictionary_depth: int = 6,
) -> MeasureDistanceReport:
    """Lower bound of the Lipschitz-dual distance between two measures.

    The test dictionary holds radial tents f(x) = max(0, s - |x - c|), which
    have Lipschitz constant exactly 1 and compact support, centered on dyadic
    grids over the domain at scales down to side / 2^dictionary_depth.  The
    scale is clamped to the distance to the boundary so supports stay inside
    the open domain; the estimate is monotone in dictionary_depth.

    A tent's radius is at most the side of its dyadic cell, so an atom lies
    in the support of at most 4 tents per depth, and each depth costs
    O(atoms + tents), not O(atoms * tents) (_level_pairings).  Scattered
    atoms are paired with the tents that reach them, per axis the tent of
    the own cell and of the neighbouring cell on the nearer side; a skipped
    pair is exactly 0, since the cone's distance is never below an axis
    offset in floating point.  A LatticeMeasure shares more: per axis,
    tents whose windows of atoms are congruent form a class, and one kernel
    per pair of classes serves all their tent pairs: at n=568 each of
    depths 0..6 builds at most 10 x 10 kernels.  The witness is the first
    tent in (depth, ii, jj) order within 1e-12 relative of the maximum, or
    (0, 0, 0) when every pairing is 0.
    """
    if dictionary_depth < 0:
        raise VortexError("empty dictionary")
    for mu in (mu_a, mu_b):
        coords = (mu.xs, mu.ys) if isinstance(mu, LatticeMeasure) else (mu.points,)
        if not (all(np.isfinite(c).all() for c in coords) and np.isfinite(mu.weights).all()
                and math.isfinite(mu.uniform_density)):
            raise VortexError("measure has a non-finite atom point, weight or density")
    x_lo, x_hi, y_lo, y_hi = domain
    Lx, Ly = x_hi - x_lo, y_hi - y_lo
    levels = []  # (values, cx, cy, s) per depth
    count = 0
    for depth in range(dictionary_depth + 1):
        nx = 2**depth
        sx, sy = Lx / nx, Ly / nx
        cx = x_lo + (np.arange(nx) + 0.5) * sx
        cy = y_lo + (np.arange(nx) + 0.5) * sy
        # the radius separates by axis: s[ii, jj] = min(rx[ii], ry[jj])
        rx = np.minimum(np.minimum(cx - x_lo, x_hi - cx), min(sx, sy))
        ry = np.minimum(np.minimum(cy - y_lo, y_hi - cy), min(sx, sy))
        s = np.minimum.outer(rx, ry)
        valid = s > 0.0
        if not valid.any():
            continue
        count += int(np.count_nonzero(valid))
        pa, pb = (_level_pairings(mu, x_lo, y_lo, sx, sy, cx, cy, rx, ry) for mu in (mu_a, mu_b))
        levels.append((np.where(valid, np.abs(pa - pb), 0.0), cx, cy, s))
    if count == 0:
        raise VortexError("empty dictionary")
    best = max(float(val.max()) for val, *_ in levels)
    # the first tent within 1e-12 relative of the maximum: mirror tents that
    # tie to rounding would otherwise swap with the summation order
    tie = (1.0 - 1e-12) * best
    val, cx, cy, s = next(lv for lv in levels if lv[0].max() >= tie)
    ii, jj = np.unravel_index(np.argmax(val >= tie), val.shape)
    witness = ((float(cx[ii]), float(cy[jj]), float(s[ii, jj])) if best > 0.0
               else (0.0, 0.0, 0.0))
    return MeasureDistanceReport(
        estimate=best,
        dictionary=f"radial tents, dyadic depths 0..{dictionary_depth}, {count} elements",
        witness=witness,
        depth=dictionary_depth,
    )
