import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import glcell.vortices as vortices
from glcell.analysis import aggregate_tiles
from glcell.energy import DiscreteField, covariant_differences, energy
from glcell.grid import TWO_PI, CellConfig, WrapRule, build_grid, wrap_value
from glcell.trial import build_trial, trial_config
from glcell.vortices import (
    DiscreteMeasure,
    LatticeMeasure,
    VortexError,
    VorticityField,
    _circle_loops,
    _component_disks,
    _components,
    _enclosing_disks,
    _level_pairings,
    _merge_disks,
    _scattered_pairings,
    _torus_delta,
    cell_boundary_loop,
    classify_squares,
    coverage_gaps,
    enclosing_disk,
    find_balls,
    lipschitz_dual_distance,
    uniform_measure,
    vorticity,
    vorticity_measure,
    winding,
)


def synthetic_field(n=48, N=1, b=0.5, profile="one"):
    g = build_grid(CellConfig(b=b, N=N, n=n))
    wrap = WrapRule(n=n, N=N)
    X, Y = np.meshgrid(g.x1, g.x2, indexing="ij")
    z = X + 1j * Y
    if profile == "one":
        u = np.ones_like(z)
    elif profile == "zero1":
        u = z
    elif profile == "deg2":
        mod = np.minimum(np.abs(z) / 0.25, 1.0) ** 2
        u = mod * np.exp(2j * np.angle(z + (np.abs(z) < 1e-15)))
    return DiscreteField(u=u.astype(complex), grid=g, wrap=wrap)


def circle_loop(center, radius, grid):
    """The closed loop _circle_loops gives one ball."""
    loop, _ = _circle_loops(np.array([center], dtype=float), np.array([radius]), grid)
    return loop


def test_winding_basic():
    f = synthetic_field(profile="zero1")
    loop = circle_loop((0.0, 0.0), 3 * f.grid.h, f.grid)
    assert winding(f, loop) == 1
    conj = DiscreteField(u=np.conj(f.u), grid=f.grid, wrap=f.wrap)
    assert winding(conj, loop) == -1
    ones = synthetic_field(profile="one")
    assert winding(ones, loop) == 0


def test_winding_rejects_zero_on_loop():
    f = synthetic_field(profile="zero1")
    n = f.grid.n
    loop = [(n // 2, n // 2), (n // 2 + 1, n // 2), (n // 2, n // 2 + 1)]
    with pytest.raises(VortexError, match="degree undefined"):
        winding(f, loop)


def rect_loop(lo_i, hi_i, lo_j, hi_j):
    loop = [(i, lo_j) for i in range(lo_i, hi_i + 1)]
    loop += [(hi_i, j) for j in range(lo_j + 1, hi_j + 1)]
    loop += [(i, hi_j) for i in range(hi_i - 1, lo_i - 1, -1)]
    loop += [(lo_i, j) for j in range(hi_j - 1, lo_j - 1, -1)]
    return loop


def test_degree_additivity():
    # winding around a big contour equals the sum over a 2x1 decomposition;
    # the single zero sits at site (24, 24), inside the left rectangle only
    f = synthetic_field(profile="zero1")
    big = rect_loop(19, 31, 19, 29)
    left = rect_loop(19, 26, 19, 29)
    right = rect_loop(26, 31, 19, 29)
    assert winding(f, left) == 1
    assert winding(f, right) == 0
    assert winding(f, big) == winding(f, left) + winding(f, right)


def test_lattice_loops_walk_square_boundaries():
    # the cell boundary loop is closed, takes unit lattice steps, visits each
    # boundary site once and runs counterclockwise (shoelace area +side^2)
    loop, side = cell_boundary_loop(7), 7
    assert len(loop) == 4 * side + 1 and np.array_equal(loop[0], loop[-1])
    assert np.all(np.abs(np.diff(loop, axis=0)).sum(axis=1) == 1)
    lo = loop.min(axis=0)
    assert np.array_equal(loop.max(axis=0) - lo, [side, side])
    assert len({tuple(p) for p in loop[:-1]}) == 4 * side
    x, y = loop[:, 0], loop[:, 1]
    assert np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]) == 2 * side**2
    # a loop given as pairs and the same loop as an array wind alike
    f = synthetic_field(profile="zero1")
    loop = circle_loop((0.0, 0.0), 3 * f.grid.h, f.grid)
    assert winding(f, [tuple(p) for p in loop]) == winding(f, loop) == 1


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(0.0, 1.0))
def test_circle_loop_hugs_its_ball(fx, fy, fr):
    # centres anywhere in the cell, seams included, and radii from h to R/4:
    # the loop is closed, takes 8-neighbour steps, runs counterclockwise and
    # keeps every site within h/sqrt(2) of the circle of radius r + h/2, so
    # between r - h and r + 2h from the centre
    g = build_grid(CellConfig(b=0.5, N=1, n=48))
    center, r = (fx * g.R, fy * g.R), g.h + fr * (g.R / 4 - g.h)
    loop = circle_loop(center, r, g)
    assert np.array_equal(loop[0], loop[-1])
    assert np.all(np.abs(np.diff(loop, axis=0)).max(axis=1) == 1)
    x, y = -g.R / 2 + loop[:, 0] * g.h, -g.R / 2 + loop[:, 1] * g.h
    assert np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]) > 0.0
    dist = np.hypot(x - center[0], y - center[1])
    assert np.all(np.abs(dist - (r + g.h / 2)) <= g.h / math.sqrt(2) + 1e-12)
    assert r - g.h < dist.min() and dist.max() < r + 2 * g.h


def ball_loop_minimum(f, ball):
    """min |u| on the loop whose winding is the ball's degree."""
    loop = circle_loop(ball.center, ball.radius, f.grid)
    return float(np.abs(wrap_value(f.u, f.wrap, loop[:, 0], loop[:, 1])).min())


def brute_force_disk(pts, tol):
    """Radius of the smallest disk holding pts among all pair diameters and
    all circumcircles of non-collinear triples: the minimal enclosing disk."""
    pairs = np.array(list(itertools.combinations(range(len(pts)), 2)), dtype=int).reshape(-1, 2)
    triples = np.array(list(itertools.combinations(range(len(pts)), 3)), dtype=int).reshape(-1, 3)
    p, q = pts[pairs[:, 0]], pts[pairs[:, 1]]
    a = pts[triples[:, 0]]
    e, f = pts[triples[:, 1]] - a, pts[triples[:, 2]] - a
    d = 2.0 * (e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0])
    keep = np.abs(d) > 1e-12
    a, e, f, d = a[keep], e[keep], f[keep], d[keep]
    ee, ff = np.sum(e * e, axis=1), np.sum(f * f, axis=1)
    # circumcentre relative to a: 2 w.e = |e|^2 and 2 w.f = |f|^2
    w = np.column_stack([f[:, 1] * ee - e[:, 1] * ff, e[:, 0] * ff - f[:, 0] * ee]) / d[:, None]
    centers = np.concatenate([pts[:1], (p + q) / 2.0, a + w])
    radii = np.concatenate([[0.0], np.hypot(*(p - q).T) / 2.0, np.hypot(*w.T)])
    reach = np.max(np.linalg.norm(pts[None] - centers[:, None], axis=2), axis=1)
    return float(np.min(radii[reach <= radii + tol]))


def check_enclosing_disk(pts):
    c, r = enclosing_disk(pts)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(pts))))
    assert np.max(np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1])) <= r + tol
    assert abs(r - brute_force_disk(pts, tol)) <= tol


def test_enclosing_disk_minimal():
    rng = np.random.default_rng(3)
    for _ in range(20):
        check_enclosing_disk(rng.standard_normal((rng.integers(1, 40), 2)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=8))
def test_enclosing_disk_minimal_on_lattice_points(points):
    # a small lattice makes collinear triples, repeated points and several
    # points on one circle common
    check_enclosing_disk(np.array(points, dtype=float))


def test_enclosing_disk_rejects_bad_points():
    # a NaN point used to give ((nan, nan), nan) without a word
    pts = np.array([[0.0, 0.0], [1.0, 0.5], [np.nan, 0.2]])
    with pytest.raises(VortexError, match="non-finite"):
        enclosing_disk(pts)
    pts[2] = [np.inf, 0.2]
    with pytest.raises(VortexError, match="non-finite"):
        enclosing_disk(pts)
    for bad in (np.zeros((4, 3)), np.zeros(4), np.zeros((2, 2, 2))):
        with pytest.raises(VortexError, match=r"\(k, 2\)"):
            enclosing_disk(bad)
    with pytest.raises(VortexError, match="empty"):
        enclosing_disk(np.zeros((0, 2)))


def grow_blob(start, moves):
    """Unwrapped sites of a 4-connected lattice blob: each move adds the
    neighbour in direction move[1] of the site drawn by move[0]."""
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    sites = [start]
    for pick, direction in moves:
        i, j = sites[pick % len(sites)]
        di, dj = steps[direction]
        if (i + di, j + dj) not in sites:
            sites.append((i + di, j + dj))
    return np.array(sites)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.tuples(*[st.one_of(st.integers(-3, 3), st.integers(0, 95))] * 2),
       st.lists(st.tuples(st.integers(0, 63), st.integers(0, 3)), min_size=4, max_size=40))
def test_component_disk_matches_all_sites(start, moves):
    # the disk of each row's extreme sites is the disk of every site; starts
    # within 3 sites of index 0 put many blobs across one or both seams
    g = build_grid(CellConfig(b=0.5, N=1, n=96))
    blob = grow_blob(start, moves)
    wrapped = np.mod(blob, g.n)
    order = np.lexsort((wrapped[:, 1], wrapped[:, 0]))
    (c,), (r,) = _component_disks(wrapped[order], np.zeros(1, np.intp), g)
    want_c, want_r = enclosing_disk(-g.R / 2 + blob * g.h)
    tol = 1e-12 * g.R
    assert abs(r - want_r) <= tol
    assert math.hypot(*_torus_delta(c, want_c, g.R)) <= tol
    assert all(-g.R / 2 <= x < g.R / 2 for x in c)


def test_batched_disks_match_brute_force_and_one_run():
    # 60 runs of 1 to 30 points, solved at once: each disk is minimal and
    # bit-identical to its run solved alone, so padding and tolerances do
    # not leak between runs; small lattices make ties and cocircular points
    rng = np.random.default_rng(11)
    runs = [rng.standard_normal((rng.integers(1, 31), 2)) * rng.choice([0.01, 1.0, 30.0])
            for _ in range(30)]
    runs += [rng.integers(-3, 4, (rng.integers(1, 9), 2)).astype(float) for _ in range(30)]
    starts = np.cumsum([0] + [len(run) for run in runs[:-1]])
    centers, radii = _enclosing_disks(np.concatenate(runs), starts)
    for pts, c, r in zip(runs, centers, radii):
        (one_c,), (one_r,) = _enclosing_disks(pts, np.zeros(1, np.intp))
        assert np.array_equal(c, one_c) and r == one_r
        tol = 1e-9 * max(1.0, float(np.max(np.abs(pts))))
        assert np.max(np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1])) <= r + tol
        assert abs(r - brute_force_disk(pts, tol)) <= tol


DEGENERATE_BLOBS = {
    "one_site": [(5, 7)],
    "two_sites": [(5, 7), (5, 8)],
    "one_row": [(5, j) for j in range(3, 12)],
    "one_column": [(i, 7) for i in range(2, 9)],
    "block_2x2": [(5, 7), (5, 8), (6, 7), (6, 8)],
    "across_x_seam": [(i, 20) for i in range(-3, 4)] + [(0, 21), (1, 19)],
    "across_both_seams": [(i, j) for i in range(-2, 2) for j in range(-1, 3)] + [(2, 0)],
}


def test_component_disks_degenerate_shapes():
    # every shape alone and all of them at once (as _components lays them
    # out: row-major wrapped sites per component) against the brute-force
    # disk of the unwrapped sites
    g = build_grid(CellConfig(b=0.5, N=1, n=96))
    comps, wants = [], []
    for blob in map(np.array, DEGENERATE_BLOBS.values()):
        wrapped = np.mod(blob, g.n)
        comps.append(wrapped[np.lexsort((wrapped[:, 1], wrapped[:, 0]))])
        pts = -g.R / 2 + blob * g.h
        wants.append((pts, brute_force_disk(pts, 1e-12 * g.R)))
    starts = np.cumsum([0] + [len(c) for c in comps[:-1]])
    centers, radii = _component_disks(np.concatenate(comps), starts, g)
    tol = 1e-12 * g.R
    for comp, (pts, want_r), c, r in zip(comps, wants, centers, radii):
        (one_c,), (one_r,) = _component_disks(comp, np.zeros(1, np.intp), g)
        assert np.array_equal(c, one_c) and r == one_r
        assert abs(r - want_r) <= tol
        assert np.max(np.hypot(*_torus_delta(pts, c, g.R).T)) <= r + tol
        assert all(-g.R / 2 <= x < g.R / 2 for x in c)
    assert radii[0] == 0.0 and abs(radii[1] - g.h / 2) <= tol
    assert abs(radii[4] - g.h / math.sqrt(2)) <= tol


def test_find_balls_trivial_and_synthetic():
    assert find_balls(synthetic_field(profile="one"), b=0.5) == []
    balls = find_balls(synthetic_field(profile="deg2"), b=0.5)
    assert len(balls) == 1
    assert balls[0].degree == 2
    assert math.hypot(*balls[0].center) < 0.05


def test_find_balls_grows_a_loop_that_dips():
    # a degree-0 modulus dip diagonally just outside the vortex ball: its disk
    # stays apart, and a square about the vortex would pass through it, but
    # every ball's loop hugs its own disk and clears the threshold
    g = build_grid(CellConfig(b=0.5, N=1, n=48))
    X, Y = np.meshgrid(g.x1, g.x2, indexing="ij")
    z, dip = X + 1j * Y, np.hypot(X - 7 * g.h, Y - 7 * g.h)
    u = np.minimum(1.0, np.abs(z) / (8 * g.h)) * np.exp(1j * np.angle(z))
    u *= np.minimum(1.0, dip / (3 * g.h))
    f = DiscreteField(u=u, grid=g, wrap=WrapRule(n=48, N=1))
    balls = find_balls(f, 0.5)
    assert sorted(ball.degree for ball in balls) == [0, 1]
    for ball in balls:
        assert ball_loop_minimum(f, ball) >= 0.5
        assert ball.degree == winding(f, circle_loop(ball.center, ball.radius, g))


@pytest.mark.parametrize("offset", [5.5, 6.0])
def test_find_balls_counts_a_neighbours_zero_once(offset):
    # the trial vortex with modulus min(1, r/8h) and a degree-0 dip
    # min(1, r_d/2h) centred offset * h along both axes from its zero: the
    # dip's ball must not wind around the vortex, so the degrees sum to the
    # boundary winding (a loop grown until it cleared the dip used to count
    # the vortex twice)
    g = build_grid(CellConfig(b=0.5, N=1, n=48))
    f = build_trial(0.5, 1, g)
    i0, j0 = np.unravel_index(np.argmin(np.abs(f.u)), f.u.shape)
    xy = np.stack(np.meshgrid(g.x1 - g.x1[i0], g.x2 - g.x2[j0], indexing="ij"))
    r = np.hypot(*_torus_delta(xy, 0.0, g.R))
    r_dip = np.hypot(*_torus_delta(xy, offset * g.h, g.R))
    f.u = (np.exp(1j * np.angle(f.u)) * np.minimum(1.0, r / (8 * g.h))
           * np.minimum(1.0, r_dip / (2 * g.h)))
    boundary = winding(f, cell_boundary_loop(g.n))
    assert boundary == 1
    balls = find_balls(f, 0.5)
    assert sum(ball.degree for ball in balls) == boundary
    assert sorted(ball.degree for ball in balls) == [0, 1]


def test_find_balls_trial_lattice():
    b, N = 0.04, 4
    cfg = trial_config(b, N)
    g = build_grid(cfg)
    f = build_trial(b, N, g)
    balls = find_balls(f, b)
    assert len(balls) == 4
    assert all(ball.degree == 1 for ball in balls)
    # each ball sits at a cell center, and the winding on an explicit circle
    # of radius 2 sqrt(b) agrees
    for ball in balls:
        loop = circle_loop(ball.center, 2.0 * math.sqrt(b), g)
        assert winding(f, loop) == 1
    # pairwise disjoint
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            d = math.hypot(balls[i].center[0] - balls[j].center[0],
                           balls[i].center[1] - balls[j].center[1])
            assert d > balls[i].radius + balls[j].radius


def test_balls_cover_deep_defects():
    b, N = 0.04, 4
    cfg = trial_config(b, N)
    g = build_grid(cfg)
    f = build_trial(b, N, g)
    balls = find_balls(f, b)
    assert coverage_gaps(f, balls, b) == 0


def test_seam_crossing_component():
    # a zero sitting on the cell edge must come back as one ball, not two
    n, N, b = 48, 1, 0.5
    g = build_grid(CellConfig(b=b, N=N, n=n))
    wrap = WrapRule(n=n, N=N)
    X, Y = np.meshgrid(g.x1, g.x2, indexing="ij")
    # modulus dip centered on the x-seam at x1 = -R/2
    d = np.minimum(np.abs(X - (-g.R / 2)), np.abs(X - g.R / 2))
    r = np.hypot(d, Y)
    u = np.minimum(1.0, (r / 0.3) ** 2).astype(complex)
    f = DiscreteField(u=u, grid=g, wrap=wrap)
    balls = find_balls(f, b)
    assert len(balls) == 1
    assert abs(abs(balls[0].center[0]) - g.R / 2) < 2 * g.h or \
        abs(balls[0].center[0]) < 2 * g.h


def test_wrapping_component_raises():
    # 0.3 x the trial state has |u| < 0.5 everywhere: the one component is
    # the whole torus, which no disk can stand for, and its loop degree (16)
    # is not the boundary winding (4)
    b, N = 0.1, 4
    g = build_grid(trial_config(b, N))
    f = build_trial(b, N, g)
    f.u *= 0.3
    assert winding(f, cell_boundary_loop(g.n)) == N
    with pytest.raises(VortexError, match="spans half the cell"):
        find_balls(f, b)
    # a band around the torus in x1 alone, with |u| = 1 elsewhere
    f = synthetic_field(profile="one")
    f.u[:, 20:23] = 0.1
    with pytest.raises(VortexError, match="spans half the cell"):
        find_balls(f, 0.5)


def test_find_balls_magnetic_translation(magnetic_translate):
    # translating the field by a = (p, q) (n/N) h moves every ball by a mod R
    # and keeps its radius and degree; a degree-0 dip off the lattice breaks
    # the trial state's symmetry
    b, N = 0.04, 4
    g = build_grid(trial_config(b, N))
    f = build_trial(b, N, g)
    r = np.hypot(g.x1[:, None] - 0.9, g.x2[None, :] + 1.7)
    f.u *= np.minimum(1.0, r / 0.25)
    balls = find_balls(f, b)
    assert sorted(ball.degree for ball in balls) == [0, 1, 1, 1, 1]
    for p, q in ((1, 2), (3, 1), (0, 1)):
        a = np.array([p, q]) * (g.n // N) * g.h
        moved = find_balls(magnetic_translate(f, p, q), b)
        assert len(moved) == len(balls)
        for ball in balls:
            dist = [math.hypot(*_torus_delta(m.center, np.add(ball.center, a), g.R)) for m in moved]
            k = int(np.argmin(dist))
            assert dist[k] < 1e-9
            assert abs(moved[k].radius - ball.radius) < 1e-9
            assert moved[k].degree == ball.degree


def test_classify_squares_uniform_field():
    b, N = 0.1, 4
    cfg = trial_config(b, N)
    g = build_grid(cfg)
    f = DiscreteField(u=np.ones((g.n, g.n), dtype=complex), grid=g,
                      wrap=WrapRule(n=g.n, N=N))
    reports = classify_squares(f, b, balls=[])
    assert len(reports) == N
    # partition: square energies sum to the total (kinetic + potential)
    bd = energy(f, b)
    assert abs(sum(r.energy for r in reports) - (bd.kinetic + bd.potential)) \
        <= 1e-10 * abs(bd.kinetic + bd.potential)
    # interior squares of u=1: energy tracks b * int |A0|^2 over the square
    for rep in reports:
        lo1, hi1, lo2, hi2 = rep.bounds
        ia = (hi1**3 - lo1**3) / 3.0 * (hi2 - lo2) + (hi2**3 - lo2**3) / 3.0 * (hi1 - lo1)
        expected = b * ia / 4.0
        # seam links make edge squares deviate; all four squares touch the
        # seam here, so just require the right order of magnitude
        assert rep.energy > 0.5 * expected


def test_classify_squares_trial_state():
    b, N = 0.04, 4
    cfg = trial_config(b, N)
    g = build_grid(cfg)
    f = build_trial(b, N, g)
    reports = classify_squares(f, b)
    assert [r.d_plus for r in reports] == [1, 1, 1, 1]
    assert [r.d_minus for r in reports] == [0, 0, 0, 0]
    assert all(r.d_total == 1 for r in reports)
    assert all(r.good for r in reports)


def test_classify_requires_square_N():
    g = build_grid(CellConfig(b=0.25, N=2, n=64))
    f = DiscreteField(u=np.ones((64, 64), dtype=complex), grid=g,
                      wrap=WrapRule(n=64, N=2))
    with pytest.raises(VortexError, match="perfect square"):
        classify_squares(f, 0.25)


def reference_squares(f, b, balls, C_star=4.0 * math.pi):
    """classify_squares from its definition: the per-site energy b |D u|^2 +
    (h^2/2) (1 - |u|^2)^2 summed square by square with math.fsum, and each
    ball filed in the square of its centre, its degree counted only when the
    disk clears the square's edges by more than sqrt(b)."""
    g = f.grid
    k = math.isqrt(g.N)
    m, side, margin = g.n // k, g.R / k, math.sqrt(b)
    dx, dy = covariant_differences(f)
    local = b * (np.abs(dx) ** 2 + np.abs(dy) ** 2) + 0.5 * g.h**2 * (1.0 - np.abs(f.u) ** 2) ** 2
    refs = []
    for si, sj in itertools.product(range(k), repeat=2):
        e = math.fsum(local[si * m:(si + 1) * m, sj * m:(sj + 1) * m].ravel().tolist())
        lo1, lo2 = -g.R / 2 + si * side, -g.R / 2 + sj * side
        refs.append({"bounds": (lo1, lo1 + side, lo2, lo2 + side), "energy": e,
                     "good": e / b <= C_star * abs(math.log(b)), "balls": [],
                     "d_plus": 0, "d_minus": 0, "radius_total": 0.0})
    for ball in balls:
        (x, y), r = ball.center, ball.radius
        si = int((x + g.R / 2) // side) % k  # the old square_of_point
        sj = int((y + g.R / 2) // side) % k
        ref = refs[si * k + sj]
        ref["balls"].append(ball)
        ref["radius_total"] += r
        lo1, hi1, lo2, hi2 = ref["bounds"]
        if lo1 + margin < x - r and x + r < hi1 - margin and lo2 + margin < y - r \
                and y + r < hi2 - margin:
            ref["d_plus"] += max(ball.degree, 0)
            ref["d_minus"] += max(-ball.degree, 0)
    return refs


def assert_squares_match_reference(f, b):
    balls = find_balls(f, b)
    reports = classify_squares(f, b, balls=balls)
    refs = reference_squares(f, b, balls)
    assert [rep.index for rep in reports] == list(range(len(refs)))
    budget = 1.0 / math.log(b) ** 2
    for rep, ref in zip(reports, refs):
        assert abs(rep.energy - ref["energy"]) <= 1e-13 * ref["energy"]
        assert rep.bounds == ref["bounds"]
        assert rep.good == ref["good"]
        assert rep.balls == ref["balls"]
        assert (rep.d_plus, rep.d_minus) == (ref["d_plus"], ref["d_minus"])
        assert rep.d_total == ref["d_plus"] + ref["d_minus"]
        assert rep.radius_total == ref["radius_total"]
        assert rep.radius_budget_exceeded == (ref["radius_total"] > budget)
    return balls, refs


def test_classify_squares_matches_reference_on_minimizer(minimizer_b002):
    _, refs = assert_squares_match_reference(minimizer_b002.field, 0.02)
    assert [ref["d_plus"] for ref in refs] == [1] * 16


def test_classify_squares_matches_reference_across_edges():
    # zeros of |u| = prod min(1, r / 0.3) placed so that one ball straddles
    # the square edge x1 = 0, one the edge x2 = 0, and one crosses the
    # sqrt(b) margin inside its square; the others clear the margin
    b, N, n = 0.1, 4, 128
    g = build_grid(CellConfig(b=b, N=N, n=n))
    X, Y = np.meshgrid(g.x1, g.x2, indexing="ij")
    u = np.ones((n, n), dtype=complex)
    zeros = ((0.02, 1.1, 1), (1.25, -0.03, -1), (0.5, -1.2, 1), (-1.25, -1.25, -1),
             (-1.2, 1.3, 2), (1.3, 1.0, 1))
    for cx, cy, degree in zeros:
        z = (X - cx) + 1j * (Y - cy)
        u *= np.minimum(1.0, np.abs(z) / 0.3) * np.exp(1j * degree * np.angle(z))
    f = DiscreteField(u=u, grid=g, wrap=WrapRule(n=n, N=N))
    balls, refs = assert_squares_match_reference(f, b)
    assert sorted(ball.degree for ball in balls) == [-1, -1, 1, 1, 1, 2]
    margin = math.sqrt(b)
    edge = inner = 0
    for ref in refs:
        lo1, hi1, lo2, hi2 = ref["bounds"]
        for ball in ref["balls"]:
            (x, y), r = ball.center, ball.radius
            clear = min(x - r - lo1, hi1 - x - r, y - r - lo2, hi2 - y - r)
            edge += clear < 0.0
            inner += 0.0 < clear < margin
    assert edge == 2 and inner == 1
    assert sum(ref["d_plus"] for ref in refs) == 3
    assert sum(ref["d_minus"] for ref in refs) == 1


def test_vorticity_mass_identity():
    for profile in ("one", "deg2"):
        f = synthetic_field(profile=profile)
        v = vorticity(f)
        assert abs(v.total_mass - TWO_PI) <= 1e-8 * TWO_PI
    b, N = 0.04, 4
    f = build_trial(b, N, build_grid(trial_config(b, N)))
    v = vorticity(f)
    assert abs(v.total_mass - TWO_PI * N) <= 1e-8 * TWO_PI * N


def test_vorticity_flux_is_connection_holonomy(reference_operator):
    # the curl A0 part of mu is the plaquette holonomy of the field's own
    # connection, at a twisted wrap too, and the mass stays 2 pi N
    rng = np.random.default_rng(9)
    n, N = 96, 4
    g = build_grid(CellConfig(b=0.5, N=N, n=n))
    u = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f = DiscreteField(u=u, grid=g, wrap=WrapRule(n=n, N=N, alpha=0.4, beta=-0.9))
    op = reference_operator(f.grid, f.wrap)
    holonomy = op.cx * np.roll(op.cy, -1, axis=0) * np.conj(np.roll(op.cx, -1, axis=1) * op.cy)
    dx, dy = covariant_differences(f)
    jx, jy = (np.conj(f.u) * dx).imag / g.h, (np.conj(f.u) * dy).imag / g.h
    circ = g.h * (jx + np.roll(jy, -1, axis=0) - np.roll(jx, -1, axis=1) - jy)
    v = vorticity(f)
    assert np.max(np.abs(v.mu - (circ - np.angle(holonomy)))) < 1e-13
    assert abs(v.total_mass - TWO_PI * N) <= 1e-9


def test_vorticity_matches_the_difference_form(minimizer_b005, minimizer_b002):
    # the currents Im(conj(u) c u(x + h e)) / h drop D u's - u, since
    # Im(conj(u) u) = 0: mu matches the form with D u to rounding, about
    # 2e-16 on unit-size u (1e-14 of max |mu|, which is near 0.015 here),
    # and the mass stays 2 pi N
    fields = [build_trial(b, N, build_grid(trial_config(b, N)))
              for b, N in ((0.1, 1), (0.04, 4), (0.02, 16))]
    for f in fields + [minimizer_b005.field, minimizer_b002.field]:
        g = f.grid
        dx, dy = covariant_differences(f)
        jx, jy = (np.conj(f.u) * dx).imag / g.h, (np.conj(f.u) * dy).imag / g.h
        want = g.h * (jx + np.roll(jy, -1, axis=0) - np.roll(jx, -1, axis=1) - jy) + g.h**2
        v = vorticity(f)
        assert np.max(np.abs(v.mu - want)) <= 1e-15 * np.max(np.abs(f.u)) ** 2
        assert abs(v.total_mass - TWO_PI * g.N) <= 1e-12


def test_vorticity_concentrates_at_trial_cores():
    b, N = 0.04, 4
    g = build_grid(trial_config(b, N))
    f = build_trial(b, N, g)
    v = vorticity(f)
    balls = find_balls(f, b)
    x = -g.R / 2 + g.h * (np.arange(g.n) + 0.5)
    X, Y = np.meshgrid(x, x, indexing="ij")
    near = np.zeros_like(v.mu, dtype=bool)
    for ball in balls:
        near |= np.hypot(X - ball.center[0], Y - ball.center[1]) < 3 * math.sqrt(b)
    assert np.sum(v.mu[near]) >= 0.9 * v.total_mass


def test_boundary_winding_flux_quantization():
    for N in (1, 4):
        f = build_trial(0.1, N, build_grid(trial_config(0.1, N)))
        assert winding(f, cell_boundary_loop(f.grid.n)) == N


def test_ball_degrees_sum_to_boundary_winding(minimizer_b005, minimizer_b002):
    # the ball degrees and the cell-boundary winding both read the solver's
    # connection, and every unit of flux must be found in some ball, on a
    # loop that clears the threshold
    fields = [(build_trial(b, N, build_grid(trial_config(b, N))), b)
              for b, N in ((0.1, 1), (0.04, 4), (0.1, 9), (0.02, 16))]
    fields += [(minimizer_b005.field, 0.05), (minimizer_b002.field, 0.02)]
    for f, b in fields:
        boundary = winding(f, cell_boundary_loop(f.grid.n))
        assert boundary == f.grid.N
        balls = find_balls(f, b)
        assert sum(ball.degree for ball in balls) == boundary
        assert all(ball_loop_minimum(f, ball) >= 0.5 for ball in balls)


def test_dual_distance_trivial_and_shifted():
    dom = (-2.0, 2.0, -2.0, 2.0)
    a = DiscreteMeasure(points=np.array([[0.3, -0.2]]), weights=np.array([TWO_PI]))
    assert lipschitz_dual_distance(a, a, dom, 4).estimate == 0.0
    t = 0.11
    moved = DiscreteMeasure(points=np.array([[0.3 + t, -0.2]]),
                            weights=np.array([TWO_PI]))
    rep = lipschitz_dual_distance(a, moved, dom, 6)
    true = TWO_PI * t
    assert 0.5 * true <= rep.estimate <= true + 1e-12


def test_dual_distance_monotone_in_depth():
    rng = np.random.default_rng(9)
    a = DiscreteMeasure(points=rng.uniform(-1, 1, (5, 2)),
                        weights=rng.uniform(0.5, 1.5, 5))
    c = DiscreteMeasure(points=rng.uniform(-1, 1, (5, 2)),
                        weights=rng.uniform(0.5, 1.5, 5))
    dom = (-2.0, 2.0, -2.0, 2.0)
    prev = -1.0
    for depth in range(6):
        est = lipschitz_dual_distance(a, c, dom, depth).estimate
        assert est >= prev
        prev = est


def test_dual_distance_empty_dictionary():
    a = DiscreteMeasure(points=np.zeros((0, 2)), weights=np.zeros(0))
    with pytest.raises(VortexError, match="empty dictionary"):
        lipschitz_dual_distance(a, a, (0.0, 1.0, 0.0, 1.0), -1)


def test_dual_distance_rejects_nonfinite_measures():
    # a NaN weight used to compare false everywhere and report estimate 0.0
    dom = (0.0, 1.0, 0.0, 1.0)
    rng = np.random.default_rng(4)
    points, weights = rng.uniform(0.0, 1.0, (20, 2)), rng.uniform(0.5, 1.5, 20)
    leb = uniform_measure(dom, 1.0)
    nan_weight = weights.copy()
    nan_weight[7] = np.nan
    inf_point = points.copy()
    inf_point[3, 1] = np.inf
    bad = [
        (DiscreteMeasure(points=points, weights=nan_weight), leb),
        (DiscreteMeasure(points=inf_point, weights=weights), leb),
        (DiscreteMeasure(points=points, weights=weights), uniform_measure(dom, np.nan)),
    ]
    for mu_a, mu_b in bad:
        with pytest.raises(VortexError, match="non-finite"):
            lipschitz_dual_distance(mu_a, mu_b, dom, 3)


def test_discrete_measure_rejects_mismatched_shapes():
    # 5 atoms with one weight used to report mass 1.0 while the pairing gave
    # every atom weight 1, and (k, 3) points silently lost a column
    pts = np.random.default_rng(2).uniform(0.0, 1.0, (5, 2))
    bad = [
        (pts, np.array([1.0])),
        (np.column_stack([pts, pts[:, :1]]), np.ones(5)),
        (pts[:, 0], np.ones(5)),
        (pts, np.ones((5, 1))),
        (pts[:0], np.ones(1)),
    ]
    for points, weights in bad:
        with pytest.raises(VortexError, match=r"\(k, 2\)"):
            DiscreteMeasure(points=points, weights=weights)
    assert DiscreteMeasure(points=pts, weights=np.ones(5)).mass == 5.0
    assert DiscreteMeasure(points=np.zeros((0, 2)), weights=np.zeros(0)).mass == 0.0


def test_dual_distance_memory_is_chunk_bounded():
    # the per-level pairing works in blocks of atoms, so its temporaries do
    # not grow with the n^2 atoms of a plaquette-centre measure
    n, N = 568, 16
    R = math.sqrt(TWO_PI * N)
    mu = np.random.default_rng(5).normal(size=(n, n))
    atoms = vorticity_measure(VorticityField(mu=mu, total_mass=0.0, h=R / n, R=R))
    dom = (-R / 2, R / 2, -R / 2, R / 2)
    leb = uniform_measure(dom, 1.0)
    tracemalloc.start()
    try:
        lipschitz_dual_distance(atoms, leb, dom, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_uniform_measure_pairing():
    # background density integrates tents exactly: <leb, tent> = pi s^3/3;
    # the depth-0 tent at the centre of the unit square has s = 1/2 and is the
    # largest, so it is the witness at every depth
    dom = (0.0, 1.0, 0.0, 1.0)
    leb = uniform_measure(dom, 2.0)
    empty = DiscreteMeasure(points=np.zeros((0, 2)), weights=np.zeros(0))
    for depth in (0, 3):
        rep = lipschitz_dual_distance(leb, empty, dom, depth)
        assert abs(rep.estimate - 2.0 * math.pi * 0.5**3 / 3.0) < 1e-14
        assert rep.witness == (0.5, 0.5, 0.5)


def atom_pass_for_every_measure(mu, x_lo, y_lo, sx, sy, cx, cy, rx, ry):
    """_level_pairings with every DiscreteMeasure, atoms or none, sent
    through _scattered_pairings before its background is added."""
    if isinstance(mu, LatticeMeasure) or len(mu.weights):
        return _level_pairings(mu, x_lo, y_lo, sx, sy, cx, cy, rx, ry)
    sums = _scattered_pairings(mu, x_lo, y_lo, sx, sy, cx, cy, rx, ry)
    return sums + mu.uniform_density * math.pi * np.minimum.outer(rx, ry) ** 3 / 3.0


def test_measure_without_atoms_skips_the_atom_pass(monkeypatch):
    # uniform_measure has no atoms, so only its background is paired: the
    # estimate, every level's pairings and the witness are bit-identical to
    # sending it through the atom pass, on the n=568 vorticity lattice at
    # depths 0..6 and for aggregate_tiles
    b, N = 0.02, 16
    f = build_trial(b, N, build_grid(trial_config(b, N)))
    assert f.grid.n == 568
    mu = vorticity_measure(vorticity(f))
    half = f.grid.R / 2
    dom = (-half, half, -half, half)
    balls = find_balls(f, b)

    def run(pairings, call):
        levels = []

        def spy(*args):
            levels.append(pairings(*args))
            return levels[-1]

        monkeypatch.setattr(vortices, "_level_pairings", spy)
        try:
            return call(), levels
        finally:
            monkeypatch.undo()

    calls = [lambda d=d: lipschitz_dual_distance(mu, uniform_measure(dom, 1.0), dom, d)
             for d in range(7)]
    calls.append(lambda: aggregate_tiles(f, 4, b, balls=balls).distance)
    for call in calls:
        (got, got_levels), (want, want_levels) = (run(pairings, call) for pairings in
                                                  (_level_pairings, atom_pass_for_every_measure))
        assert got.estimate == want.estimate and got.witness == want.witness
        assert len(got_levels) == len(want_levels)
        assert all(np.array_equal(a, c) for a, c in zip(got_levels, want_levels))


def reference_dual_distances(mu_a, mu_b, domain, depth):
    """Every tent paired with every atom, one tent at a time: (estimate,
    witness, dictionary) for each depth 0..depth.

    The atoms are sorted by x once, and a tent of radius s sums those with
    |x - cx| and |y - cy| within 2 s of its centre; every other atom is
    farther than s from it, so its (s - r)_+ is exactly 0.
    """

    def by_x(mu):
        order = np.argsort(mu.points[:, 0], kind="stable")
        return mu.points[order, 0], mu.points[order, 1], mu.weights[order]

    def pairing(mu, atoms, c, s):
        xs, ys, ws = atoms
        lo, hi = np.searchsorted(xs, [c[0] - 2.0 * s, c[0] + 2.0 * s])
        box = np.abs(ys[lo:hi] - c[1]) <= 2.0 * s
        r = np.hypot(xs[lo:hi][box] - c[0], ys[lo:hi][box] - c[1])
        total = float(np.sum(ws[lo:hi][box] * np.maximum(0.0, s - r)))
        if mu.uniform_density:
            total += mu.uniform_density * math.pi * s**3 / 3.0
        return total

    sorted_a, sorted_b = by_x(mu_a), by_x(mu_b)
    x_lo, x_hi, y_lo, y_hi = domain
    tents = []  # (value, witness) in (depth, ii, jj) order
    reports = []
    for d in range(depth + 1):
        nx = 2**d
        sx, sy = (x_hi - x_lo) / nx, (y_hi - y_lo) / nx
        for ii in range(nx):
            for jj in range(nx):
                cx = x_lo + (ii + 0.5) * sx
                cy = y_lo + (jj + 0.5) * sy
                s = min(sx, sy, cx - x_lo, x_hi - cx, cy - y_lo, y_hi - cy)
                if s <= 0.0:
                    continue
                val = abs(pairing(mu_a, sorted_a, (cx, cy), s)
                          - pairing(mu_b, sorted_b, (cx, cy), s))
                tents.append((val, (cx, cy, s)))
        best = max(val for val, _ in tents) if tents else 0.0
        # the first tent within 1e-12 relative of the maximum, none if that is 0
        witness = next((w for val, w in tents if best > 0.0 and val >= (1.0 - 1e-12) * best),
                       (0.0, 0.0, 0.0))
        reports.append((best, witness,
                        f"radial tents, dyadic depths 0..{d}, {len(tents)} elements"))
    return reports


def reference_dual_distance(mu_a, mu_b, domain, depth):
    """reference_dual_distances at depth alone."""
    return reference_dual_distances(mu_a, mu_b, domain, depth)[-1]


def dual_cases():
    rng = np.random.default_rng(17)
    square = (-2.0, 2.0, -2.0, 2.0)
    wide = (-1.3, 2.1, -0.7, 0.9)
    # square-domain dyadic edges and centres down to depth 6 (exact binary fractions)
    edges = -2.0 + rng.integers(0, 65, (40, 2)) * (4.0 / 64)
    centres = -2.0 + (rng.integers(0, 64, (40, 2)) + 0.5) * (4.0 / 64)
    boundary = np.array([[-2.0, 0.3], [2.0, -1.1], [0.7, 2.0], [-0.4, -2.0], [2.0, 2.0],
                         [2.5, 0.1], [-3.0, -3.0], [0.2, 2.0001], [10.0, -0.5]])
    wide_edges = np.column_stack([wide[0] + rng.integers(0, 65, 30) * (3.4 / 64),
                                  wide[2] + rng.integers(0, 65, 30) * (1.6 / 64)])

    def atoms(points):
        return DiscreteMeasure(points=points, weights=rng.normal(size=len(points)))

    empty = DiscreteMeasure(points=np.zeros((0, 2)), weights=np.zeros(0))
    return [
        (atoms(rng.uniform(-2, 2, (200, 2))), atoms(rng.uniform(-2, 2, (50, 2))), square),
        (atoms(edges), uniform_measure(square, 0.3), square),
        (atoms(centres), atoms(edges), square),
        (atoms(boundary), uniform_measure(square, -0.1), square),
        (atoms(rng.uniform(-1.5, 2.3, (300, 2))), uniform_measure(wide, 1.7), wide),
        (atoms(wide_edges), atoms(rng.uniform(-1.3, 2.1, (20, 2))), wide),
        (empty, uniform_measure(wide, 0.5), wide),
        (atoms(rng.uniform(-2, 2, (30, 2))), empty, square),
        (empty, empty, square),
    ]


@pytest.mark.parametrize("case", range(9))
def test_dual_distance_matches_all_pairs_reference(case):
    mu_a, mu_b, dom = dual_cases()[case]
    for depth in range(7):
        rep = lipschitz_dual_distance(mu_a, mu_b, dom, depth)
        best, witness, dictionary = reference_dual_distance(mu_a, mu_b, dom, depth)
        assert abs(rep.estimate - best) <= 1e-12 * abs(best)
        assert rep.witness == witness
        assert rep.dictionary == dictionary


def test_dual_distance_witness_ignores_summation_order(monkeypatch):
    # atoms mirrored about x = 0 against Lebesgue measure: mirror tents pair
    # to the same value up to rounding, and which one is larger follows the
    # order of the atoms and the chunk size.  The witness is the first of the
    # tied tents, the one with x < 0, whatever that order.
    dom = (-2.0, 2.0, -2.0, 2.0)
    for seed in (7, 39):
        rng = np.random.default_rng(seed)
        p, w = rng.uniform(-2, 2, (40, 2)), rng.uniform(0.5, 1.5, 40)
        mu = DiscreteMeasure(points=np.concatenate([p, p * [-1.0, 1.0]]),
                             weights=np.concatenate([w, w]))
        leb = uniform_measure(dom, mu.weights.sum() / 16.0)
        flipped = DiscreteMeasure(points=mu.points[::-1].copy(), weights=mu.weights[::-1].copy())
        reports = [lipschitz_dual_distance(mu, leb, dom, 4),
                   lipschitz_dual_distance(flipped, leb, dom, 4)]
        for chunk in (3, 7):
            monkeypatch.setattr("glcell.vortices._ATOM_CHUNK", chunk)
            reports.append(lipschitz_dual_distance(mu, leb, dom, 4))
        monkeypatch.undo()
        witness = reports[0].witness
        assert witness[0] < 0.0
        for rep in reports:
            assert rep.witness == witness
            assert abs(rep.estimate - reports[0].estimate) <= 1e-12 * reports[0].estimate


def scattered_twin(mu):
    """The atoms of a LatticeMeasure as a DiscreteMeasure, in the same order."""
    return DiscreteMeasure(points=mu.points, weights=mu.weights.ravel())


def level_tents(domain, depth):
    """(sx, sy, cx, cy, rx, ry) of one level, as lipschitz_dual_distance builds them."""
    x_lo, x_hi, y_lo, y_hi = domain
    nx = 2**depth
    sx, sy = (x_hi - x_lo) / nx, (y_hi - y_lo) / nx
    cx = x_lo + (np.arange(nx) + 0.5) * sx
    cy = y_lo + (np.arange(nx) + 0.5) * sy
    rx = np.minimum(np.minimum(cx - x_lo, x_hi - cx), min(sx, sy))
    ry = np.minimum(np.minimum(cy - y_lo, y_hi - cy), min(sx, sy))
    return sx, sy, cx, cy, rx, ry


def lattice_cases():
    rng = np.random.default_rng(23)
    square = (-2.0, 2.0, -2.0, 2.0)
    wide = (-1.3, 2.1, -0.7, 0.9)

    def lattice(xs, ys):
        return LatticeMeasure(xs=xs, ys=ys, weights=rng.normal(size=(len(xs), len(ys))))

    # dyadic edges and centres down to depth 6, and points on or past the edges
    edges = -2.0 + np.arange(65) * (4.0 / 64)
    centres = -2.0 + (np.arange(64) + 0.5) * (4.0 / 64)
    outside = np.array([-3.0, -2.0, -2.0001, 2.0, 2.5, 10.0])
    uneven = np.cumsum(rng.uniform(0.01, 0.2, 30)) - 1.4  # non-uniform spacing
    wide_edges = wide[2] + np.arange(33) * (1.6 / 32)
    return [
        (lattice(rng.uniform(-2.5, 2.5, 40), edges), uniform_measure(square, 0.3), square),
        (lattice(np.concatenate([centres, outside]), rng.permutation(edges)),
         lattice(edges[::3], centres[::5]), square),
        (lattice(uneven, wide_edges),
         DiscreteMeasure(points=rng.uniform(-1.3, 2.1, (25, 2)) * [1.0, 0.45],
                         weights=rng.normal(size=25)), wide),
        (lattice(rng.permutation(uneven), np.concatenate([wide_edges, outside])),
         uniform_measure(wide, 1.1), wide),
        (lattice(np.zeros(0), edges), uniform_measure(square, 0.5), square),
        # windows congruent to 1e-9, far above the rounding that a class forgives
        (lattice(centres + 1e-9 * rng.normal(size=64), centres), uniform_measure(square, 0.2),
         square),
    ]


@pytest.mark.parametrize("case", range(6))
def test_lattice_measure_matches_its_scattered_twin(case):
    # the per-axis pairing of a lattice gives the per-atom pairing of the same
    # atoms up to the summation order, tent by tent, with the same estimate,
    # witness and dictionary.  The twin applies the same reach test, so the
    # lattice is also held to every tent paired with every atom, where a
    # reach test that dropped a nonzero pair in both paths fails
    mu_a, mu_b, dom = lattice_cases()[case]
    twin_a = scattered_twin(mu_a)
    twin_b = scattered_twin(mu_b) if isinstance(mu_b, LatticeMeasure) else mu_b
    for depth in range(7):
        sx, sy, cx, cy, rx, ry = level_tents(dom, depth)
        level = [_level_pairings(mu, dom[0], dom[2], sx, sy, cx, cy, rx, ry) for mu in (mu_a, twin_a)]
        assert np.abs(level[0] - level[1]).max() <= 1e-12 * np.abs(level[1]).max()
        rep = lipschitz_dual_distance(mu_a, mu_b, dom, depth)
        ref = lipschitz_dual_distance(twin_a, twin_b, dom, depth)
        best, witness, dictionary = reference_dual_distance(twin_a, twin_b, dom, depth)
        for est, wit, dic in ((ref.estimate, ref.witness, ref.dictionary),
                              (best, witness, dictionary)):
            assert abs(rep.estimate - est) <= 1e-12 * abs(est)
            assert (rep.witness, rep.dictionary) == (wit, dic)


def check_vorticity_lattice(n, seed):
    """The n x n plaquette lattice of a normal vorticity, N = 16, against its
    scattered twin, level by level and report by report, and against the
    all-pairs reference, at every depth 0..6."""
    N = 16
    R = math.sqrt(TWO_PI * N)
    mu = np.random.default_rng(seed).normal(size=(n, n))
    atoms = vorticity_measure(VorticityField(mu=mu, total_mass=0.0, h=R / n, R=R))
    assert isinstance(atoms, LatticeMeasure)
    twin = scattered_twin(atoms)
    dom = (-R / 2, R / 2, -R / 2, R / 2)
    leb = uniform_measure(dom, 1.0)
    references = reference_dual_distances(twin, leb, dom, 6)
    for depth, (best, witness, dictionary) in enumerate(references):
        sx, sy, cx, cy, rx, ry = level_tents(dom, depth)
        level = [_level_pairings(m, dom[0], dom[2], sx, sy, cx, cy, rx, ry) for m in (atoms, twin)]
        assert np.abs(level[0] - level[1]).max() <= 1e-12 * np.abs(level[1]).max()
        rep = lipschitz_dual_distance(atoms, leb, dom, depth)
        ref = lipschitz_dual_distance(twin, leb, dom, depth)
        for est, wit, dic in ((ref.estimate, ref.witness, ref.dictionary),
                              (best, witness, dictionary)):
            assert abs(rep.estimate - est) <= 1e-12 * est
            assert (rep.witness, rep.dictionary) == (wit, dic)


def test_vorticity_lattice_matches_its_scattered_twin():
    # n = 568: a depth-4 dyadic cell is 35.5 atoms wide, so cell edges cut
    # through plaquette rows, and the 16 tents per axis fall into 4 classes
    # of congruent windows; depth 3 puts window rims exactly on atoms, and
    # depth 6 has 8 classes of interior tents per axis
    check_vorticity_lattice(568, 11)


def test_odd_vorticity_lattice_matches_its_scattered_twin():
    # n = 567: no two tents of a level at depth >= 2 see the same offsets,
    # so most classes hold one tent
    check_vorticity_lattice(567, 12)


def test_permuted_lattice_gives_the_sorted_levels():
    # the pairing sorts an unsorted axis once, with its weights; a row- and
    # column-permuted copy of a uniform lattice pairs as the sorted one
    dom = (-2.0, 2.0, -2.0, 2.0)
    rng = np.random.default_rng(29)
    x = -2.0 + (np.arange(96) + 0.5) * (4.0 / 96)
    mu = LatticeMeasure(xs=x, ys=x, weights=rng.normal(size=(96, 96)))
    rows, cols = rng.permutation(96), rng.permutation(96)
    weights = mu.weights[np.ix_(rows, cols)]
    permuted = LatticeMeasure(xs=x[rows], ys=x[cols], weights=weights.copy())
    for depth in range(7):
        sx, sy, cx, cy, rx, ry = level_tents(dom, depth)
        level = [_level_pairings(m, dom[0], dom[2], sx, sy, cx, cy, rx, ry) for m in (permuted, mu)]
        assert np.abs(level[0] - level[1]).max() <= 1e-12 * np.abs(level[1]).max()
    # the sorted copies are the pairing's own: the measure is left as it was
    assert (permuted.xs == x[rows]).all() and (permuted.ys == x[cols]).all()
    assert (permuted.weights == weights).all()


def test_lattice_measure_points_and_checks():
    xs, ys = np.array([0.5, -1.0, 2.0]), np.array([0.1, 0.3])
    w = np.arange(6.0).reshape(3, 2)
    mu = LatticeMeasure(xs=xs, ys=ys, weights=w)
    # .points follows weights.ravel(): point k carries weight w.ravel()[k]
    for k, (x, y) in enumerate(mu.points):
        i, j = divmod(k, 2)
        assert (x, y, w.ravel()[k]) == (xs[i], ys[j], w[i, j])
    assert mu.points.shape == (6, 2) and mu.mass == 15.0
    for bad in [dict(xs=xs, ys=ys, weights=w.T), dict(xs=xs, ys=ys, weights=w.ravel()),
                dict(xs=xs[:, None], ys=ys, weights=w), dict(xs=xs, ys=ys, weights=w[:2])]:
        with pytest.raises(VortexError, match=r"\(len\(xs\), len\(ys\)\)"):
            LatticeMeasure(**bad)
    dom = (-2.0, 2.0, -2.0, 2.0)
    for field_name, index in (("xs", 1), ("ys", 0), ("weights", (2, 1))):
        arrays = dict(xs=xs.copy(), ys=ys.copy(), weights=w.copy())
        arrays[field_name][index] = np.nan if field_name == "weights" else np.inf
        with pytest.raises(VortexError, match="non-finite"):
            lipschitz_dual_distance(LatticeMeasure(**arrays), uniform_measure(dom, 1.0), dom, 3)


def test_merge_disks_matches_numpy_offsets():
    # _merge_disks takes its torus offsets in Python floats; the numpy
    # _torus_delta of the same pair gives the same disks, across both seams
    R = 10.0

    def numpy_merge(disks, clearance):
        disks = list(disks)
        changed = True
        while changed:
            changed = False
            out = []
            while disks:
                c1, r1 = disks.pop()
                for k, (c2, r2) in enumerate(out):
                    d = _torus_delta(c1, c2, R)
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
                        changed = True
                        break
                else:
                    out.append((c1, r1))
            disks = out
        return disks

    disks = [((4.9, 0.0), 0.15), ((-4.93, 0.1), 0.1),        # across the x seam
             ((0.2, 4.95), 0.12), ((0.1, -4.9), 0.2),         # across the y seam
             ((4.9, 4.9), 0.1), ((-4.95, -4.92), 0.08),       # across the corner
             ((1.0, 1.0), 0.3), ((1.2, 1.1), 0.05),           # one inside the other
             ((-2.0, 3.0), 0.2), ((2.5, -2.5), 0.1)]          # apart
    rng = np.random.default_rng(3)
    disks += [((float(x), float(y)), float(r)) for (x, y), r in
              zip(rng.uniform(-R / 2, R / 2, (30, 2)), rng.uniform(0.05, 0.4, 30))]
    for clearance in (0.0, 0.05):
        centers, radii = _merge_disks([c for c, _ in disks], [r for _, r in disks], R, clearance)
        merged = [(tuple(c), r) for c, r in zip(centers.tolist(), radii.tolist())]
        assert merged == numpy_merge(disks, clearance)
        assert len(merged) < len(disks)


def reference_components(mask):
    """Seam-merged components grouped site by site in a dict."""
    labels, nlab = ndimage.label(mask)
    parent = list(range(nlab + 1))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for a, b in list(zip(labels[-1, :], labels[0, :])) + list(zip(labels[:, -1], labels[:, 0])):
        if a and b and find(int(a)) != find(int(b)):
            parent[find(int(a))] = find(int(b))
    groups = {}
    for i, j in np.argwhere(labels > 0):
        groups.setdefault(find(int(labels[i, j])), []).append((int(i), int(j)))
    return [np.array(g) for g in groups.values()]


def test_components_match_dict_reference():
    rng = np.random.default_rng(4)
    for trial in range(40):
        n = int(rng.integers(4, 30))
        mask = rng.random((n, n)) < rng.uniform(0.1, 0.6)
        # bands through both seams join components across the wrap
        mask[:, trial % n] |= trial % 3 == 0
        mask[trial % n, :] |= trial % 4 == 0
        assert_same_components(mask)
    sites, starts = _components(np.zeros((8, 8), dtype=bool))
    assert sites.shape == (0, 2) and starts.size == 0


def assert_same_components(mask):
    sites, starts = _components(mask)
    got, want = np.split(sites, starts[1:]), reference_components(mask)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def snake_mask(n):
    """One path through every other row, kept off the column seam, whose
    last turn closes it across the row seam."""
    m = np.zeros((n, n), dtype=bool)
    m[::2, 1:-1] = True
    m[1::4, -2] = True
    m[3::4, 1] = True
    return m


def checkerboard_mask(n):
    # isolated sites for even n; for odd n the seams join diagonal chains
    return (np.add.outer(np.arange(n), np.arange(n)) % 2).astype(bool)


def corner_blob_mask(n):
    # one disk about site (0, 0): four pieces, joined across both seams
    d = np.minimum(np.arange(n), n - np.arange(n))
    m = np.add.outer(d**2, d**2) < (n // 5) ** 2
    m[n // 2, n // 2 - 2:n // 2 + 3] = True
    return m


@pytest.mark.parametrize("mask", [
    snake_mask(568), np.ones((40, 40), dtype=bool), np.ones((1, 1), dtype=bool),
    checkerboard_mask(24), checkerboard_mask(25), corner_blob_mask(60),
], ids=["snake568", "all", "single", "checker24", "checker25", "corner_blob"])
def test_components_periodic_shapes(mask):
    assert_same_components(mask)


def reference_gaps(field, balls, b):
    """Every flagged site against every ball, one pair at a time."""
    g = field.grid
    side = g.R / int(round(math.sqrt(g.N)))
    margin = math.sqrt(b)
    count = 0
    for i, j in np.argwhere(np.abs(np.abs(field.u) - 1.0) >= b ** (1.0 / 16.0)):
        x = -g.R / 2 + i * g.h
        y = -g.R / 2 + j * g.h
        dx1 = (x + g.R / 2) % side
        dx2 = (y + g.R / 2) % side
        if min(dx1, side - dx1, dx2, side - dx2) <= margin:
            continue
        if not any(math.hypot(*_torus_delta((x, y), ball.center, g.R)) <= ball.radius
                   for ball in balls):
            count += 1
    return count


def test_coverage_gaps_counts_uncovered_defects():
    # two wide modulus dips, one centred on the x-seam, at N=4 and b=0.1:
    # their deep parts reach past the sqrt(b) margins of the squares
    b, N, n = 0.1, 4, 128
    g = build_grid(CellConfig(b=b, N=N, n=n))
    X, Y = np.meshgrid(g.x1, g.x2, indexing="ij")
    u = np.ones((n, n))
    for cx, cy in ((-g.R / 2, 1.2), (-1.2, -1.3)):
        r = np.hypot(_torus_delta(X, cx, g.R), Y - cy)
        u *= np.minimum(1.0, (r / 1.2) ** 2)
    f = DiscreteField(u=u.astype(complex), grid=g, wrap=WrapRule(n=n, N=N))
    balls = find_balls(f, b)
    assert len(balls) == 2
    assert coverage_gaps(f, balls, b) == 0
    seam = [ball for ball in balls if abs(abs(ball.center[0]) - g.R / 2) < ball.radius]
    assert len(seam) == 1
    for kept in ([balls[0]], [balls[1]], []):
        gaps = coverage_gaps(f, kept, b)
        assert gaps > 0
        assert gaps == reference_gaps(f, kept, b)
