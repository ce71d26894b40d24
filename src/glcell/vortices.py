"""Vortex detection, square classification, vorticity, measure comparison.

Zeros of the order parameter are located as connected components of
{|u| < threshold}, wrapped periodically across the seams.  Each component is
covered by its minimal enclosing disk; intersecting disks are merged until
the collection is pairwise disjoint, and each ball gets an integer degree
from the winding of u/|u| along one lattice loop that hugs it.  The cell tiles
into N congruent squares of area 2*pi which are classified good or bad by
their local energy, and the vorticity measure mu = curl j + curl A0 always
carries total mass 2*pi*N by telescoping.  mu stays on its plaquette lattice
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
    return _loop_degree(wrap_value(field.u, field.wrap, pts[:, 0], pts[:, 1]))


def _loop_degree(vals: np.ndarray) -> int:
    """Winding number of the closed sequence of values vals (vals[-1] == vals[0])."""
    if np.min(np.abs(vals)) < 1e-12:
        raise VortexError("degree undefined: loop touches a zero")
    total = float(np.sum(np.angle(vals[1:] / vals[:-1])))
    w = total / TWO_PI
    deg = int(round(w))
    if abs(w - deg) > 1e-6:
        raise VortexError(f"winding not integral: {w}")
    return deg


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


def _circumcircle(a, b, c):
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-14:
        # collinear: fall back to the diameter of the extreme pair
        pts = [a, b, c]
        best = None
        for i in range(3):
            for j in range(i + 1, 3):
                dist = math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
                if best is None or dist > best[0]:
                    mid = ((pts[i][0] + pts[j][0]) / 2, (pts[i][1] + pts[j][1]) / 2)
                    best = (dist, mid)
        return best[1], best[0] / 2.0
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay)
          + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx)
          + (cx**2 + cy**2) * (bx - ax)) / d
    return (ux, uy), math.hypot(ax - ux, ay - uy)


def enclosing_disk(points, rng=None) -> tuple[tuple[float, float], float]:
    """Minimal enclosing disk (randomized incremental construction) of a
    (k, 2) array of finite points."""
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        raise VortexError("empty point set")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise VortexError(f"points must be a (k, 2) array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise VortexError("non-finite point")
    pts = [tuple(p) for p in arr.tolist()]
    rng = rng or np.random.default_rng(0)
    rng.shuffle(pts)
    eps = 1e-12
    # containment |p - c| <= r + eps inline: a call per point costs more than the test
    c, r = pts[0], 0.0
    for i, p in enumerate(pts):
        if math.hypot(p[0] - c[0], p[1] - c[1]) <= r + eps:
            continue
        c, r = p, 0.0
        for j in range(i):
            q = pts[j]
            if math.hypot(q[0] - c[0], q[1] - c[1]) <= r + eps:
                continue
            c = ((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0)
            r = math.hypot(p[0] - q[0], p[1] - q[1]) / 2.0
            for k in range(j):
                s = pts[k]
                if math.hypot(s[0] - c[0], s[1] - c[1]) <= r + eps:
                    continue
                c, r = _circumcircle(p, q, s)
    return c, r


def _components(mask: np.ndarray) -> list[np.ndarray]:
    """Connected components of a boolean mask, periodic across both seams.

    4-connected labelling of the flagged sites by root hooking and pointer
    jumping (Shiloach and Vishkin, J. Algorithms 3, 1982): each round hooks
    the larger of two adjacent roots onto the smaller, then jumps pointers
    until every site points at its root.  A root is never hooked onto a larger
    index, so each component's root is its first site in row-major order.
    Components come in the order of their first sites, with their sites in
    row-major order.
    """
    i, j = np.nonzero(mask)
    if i.size == 0:
        return []
    site = np.arange(i.size)
    index = np.full(mask.shape, -1, dtype=np.intp)
    index[i, j] = site
    n0, n1 = mask.shape
    below = index[(i + 1) % n0, j]
    right = index[i, (j + 1) % n1]
    a = np.concatenate([site[below >= 0], site[right >= 0]])
    b = np.concatenate([below[below >= 0], right[right >= 0]])
    parent = np.arange(i.size)
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
    sites = np.column_stack([i, j])[order]
    return np.split(sites, np.flatnonzero(np.diff(parent[order])) + 1)


def _component_disk(comp: np.ndarray, grid) -> tuple[tuple[float, float], float]:
    """Minimal enclosing disk of a component's sites, unwrapped about its
    first site, with the centre reduced back into the cell."""
    n, h, R = grid.n, grid.h, grid.R
    ref = comp[0]
    # unwrap indices to the nearest periodic image of the reference site
    di = (comp[:, 0] - ref[0] + n // 2) % n - n // 2
    dj = (comp[:, 1] - ref[1] + n // 2) % n - n // 2
    if np.ptp(di) >= n // 2 or np.ptp(dj) >= n // 2:
        # a component this wide may wrap around the torus: no disk in the
        # plane stands for it, and its degree would not be a vortex count
        raise VortexError(
            f"a component of {comp.shape[0]} sites spans half the cell or more; "
            "it cannot be unwrapped onto one disk (is the threshold above max |u|?)"
        )
    # only the least and greatest column of each row can lie on the minimal
    # circle: a site strictly between them is on the chord that joins them,
    # which is strictly inside every disk holding both ends
    order = np.lexsort((dj, di))
    di, dj = di[order], dj[order]
    new_row = di[1:] != di[:-1]
    ends = np.ones(di.size, dtype=bool)
    ends[1:-1] = new_row[:-1] | new_row[1:]
    xs = -R / 2 + (ref[0] + di[ends]) * h
    ys = -R / 2 + (ref[1] + dj[ends]) * h
    c, r = enclosing_disk(np.column_stack([xs, ys]))
    # reduce the center back into the fundamental cell
    cx = (c[0] + R / 2.0) % R - R / 2.0
    cy = (c[1] + R / 2.0) % R - R / 2.0
    return (cx, cy), r


def _merge_disks(disks, R, clearance):
    disks = list(disks)
    changed = True
    while changed:
        changed = False
        out = []
        while disks:
            c1, r1 = disks.pop()
            merged = False
            for k, (c2, r2) in enumerate(out):
                # _torus_delta in Python floats: numpy on 2-tuples costs more
                d = ((c1[0] - c2[0] + R / 2) % R - R / 2, (c1[1] - c2[1] + R / 2) % R - R / 2)
                dist = math.hypot(d[0], d[1])
                if dist < r1 + r2 + clearance:
                    if dist + min(r1, r2) <= max(r1, r2):
                        c, r = (c1, r1) if r1 >= r2 else (c2, r2)
                    else:
                        t = (dist + r1 - r2) / (2.0 * max(dist, 1e-300))
                        c = (c2[0] + t * d[0], c2[1] + t * d[1])
                        c = ((c[0] + R / 2) % R - R / 2, (c[1] + R / 2) % R - R / 2)
                        r = (dist + r1 + r2) / 2.0
                    out[k] = (c, r)
                    merged = changed = True
                    break
            if not merged:
                out.append((c1, r1))
        disks = out
    return disks


def _circle_loop(center, radius, grid) -> np.ndarray:
    """Closed counterclockwise loop of 8-neighbour lattice steps, as a
    (k + 1, 2) index array: the sites nearest the circle of radius
    radius + h/2 about center at ceil(8 (radius + h/2)/h) angles, repeats
    dropped.  Samples lie under h apart per axis, so their sites differ by
    at most one step, and each site is within h/sqrt(2) of the circle."""
    h, R = grid.h, grid.R
    rho = radius / h + 0.5
    m = math.ceil(8 * rho)
    # site i + 1j j of each sample, in units of h from the lattice origin
    z = np.rint(complex(center[0] + R / 2, center[1] + R / 2) / h
                + rho * np.exp(np.arange(m) * (1j * TWO_PI / m)))
    z = z[z != np.concatenate([z[1:], z[:1]])]  # the last of each run on one site
    return np.concatenate([z, z[:1]]).view(float).reshape(-1, 2).astype(int)


def find_balls(
    field: DiscreteField,
    b: float,
    threshold: float = 0.5,
) -> list[VortexBall]:
    """Disjoint vortex balls covering {|u| < threshold}, with degrees.

    Each degree is the winding of u/|u| on the ball's one loop,
    _circle_loop, which hugs it and is clean by construction: its sites lie
    between r - 0.21h and r + 1.21h from the centre, the ball's own
    components within r - h, and every other ball's beyond r + 2h, so
    |u| >= threshold on the loop and the winding counts exactly the ball's
    own zeros.
    """
    g = field.grid
    mask = np.abs(field.u) < threshold
    comps = _components(mask)
    disks = [_component_disk(c, g) for c in comps]
    # clearance h keeps every loop off the support sites, its own and the
    # other balls', which _merge_disks leaves r_i + r_j + h apart
    disks = [(c, r + g.h) for c, r in disks]
    disks = _merge_disks(disks, g.R, clearance=g.h)
    if not disks:
        return []
    # every ball's loop in one wrap_value call
    loops = [_circle_loop(c, r, g) for c, r in disks]
    idx = np.concatenate(loops)
    vals = np.split(wrap_value(field.u, field.wrap, idx[:, 0], idx[:, 1]),
                    np.cumsum([len(loop) for loop in loops])[:-1])
    return [VortexBall(center=(float(c[0]), float(c[1])), radius=float(r),
                       degree=_loop_degree(v))
            for (c, r), v in zip(disks, vals)]


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


def square_of_point(p, grid) -> int:
    """Index of the area-2*pi sub-square containing the point."""
    k, _ = _square_grid(grid)
    side = grid.R / k
    si = int((p[0] + grid.R / 2) // side) % k
    sj = int((p[1] + grid.R / 2) // side) % k
    return si * k + sj


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
    """
    g = field.grid
    k, m = _square_grid(g)
    side = g.R / k
    if balls is None:
        balls = find_balls(field, b)
    # local = b |D u|^2 + (h^2/2) (1 - |u|^2)^2 per site, D u one axis at a time
    op, u = field.operator(), field.u
    d, local, tmp = np.empty(u.shape, np.complex128), np.zeros(u.shape), np.empty(u.shape)
    for axis in (0, 1):
        local += np.square(np.abs(op.D_axis(u, axis, d), out=tmp), out=tmp)
    local *= b
    np.square(np.abs(u, out=tmp), out=tmp)
    np.square(np.subtract(1.0, tmp, out=tmp), out=tmp)
    tmp *= 0.5 * g.h**2
    local += tmp
    margin = math.sqrt(b)
    budget = radius_budget(b)
    reports = []
    for si in range(k):
        for sj in range(k):
            j_idx = si * k + sj
            block = local[si * m:(si + 1) * m, sj * m:(sj + 1) * m]
            e = float(np.sum(block))
            lo1 = -g.R / 2 + si * side
            lo2 = -g.R / 2 + sj * side
            rep = SquareReport(
                index=j_idx,
                bounds=(lo1, lo1 + side, lo2, lo2 + side),
                energy=e,
                good=(e / b) <= C_star * abs(math.log(b)),
            )
            reports.append(rep)
    for ball in balls:
        j_idx = square_of_point(ball.center, g)
        rep = reports[j_idx]
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
    not covered by any ball.  Returns the count of uncovered sites."""
    g = field.grid
    k, m = _square_grid(g)
    side = g.R / k
    margin = math.sqrt(b)
    gap = np.abs(field.u)  # ||u| - 1|, formed in the |u| buffer
    gap -= 1.0
    flagged = np.argwhere(np.abs(gap, out=gap) >= b ** (1.0 / 16.0))
    x = -g.R / 2 + flagged[:, 0] * g.h
    y = -g.R / 2 + flagged[:, 1] * g.h
    dx1 = (x + g.R / 2) % side
    dx2 = (y + g.R / 2) % side
    inner = np.minimum.reduce([dx1, side - dx1, dx2, side - dx2]) > margin
    x, y = x[inner], y[inner]
    # one ball at a time keeps memory O(sites); covered sites drop out
    for ball in balls:
        d = np.hypot(_torus_delta(x, ball.center[0], g.R), _torus_delta(y, ball.center[1], g.R))
        uncovered = d > ball.radius
        x, y = x[uncovered], y[uncovered]
    return int(x.size)


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

    def current(axis):
        # the current j = Im(conj(u) D u) / h on the links along axis,
        # formed in d as Im(u conj(D u)) / -h
        op.D_axis(u, axis, d)
        np.multiply(u, np.conjugate(d, out=d), out=d)
        d.imag /= -g.h
        return d.imag

    mu = current(0).copy()
    jy = current(1)
    jx_next = d.real  # free once jy is formed
    jx_next[:, :-1], jx_next[:, -1] = mu[:, 1:], mu[:, 0]
    # circ = h (jx + jy(x + h e1) - jx(x + h e2) - jy), summed in that order
    mu[:-1] += jy[1:]
    mu[-1] += jy[0]
    mu -= jx_next
    mu -= jy
    mu *= g.h
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
    else:
        sums = _scattered_pairings(mu, x_lo, y_lo, sx, sy, cx, cy, rx, ry)
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
