import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from glcell.energy import DiscreteField, energy
from glcell.grid import TWO_PI, CellConfig, WrapRule, build_grid
from glcell.trial import build_trial, trial_config
from glcell.vortices import (
    DiscreteMeasure,
    VortexError,
    VorticityField,
    _component_disk,
    _components,
    _square_loop,
    _torus_delta,
    cell_boundary_loop,
    classify_squares,
    coverage_gaps,
    enclosing_disk,
    find_balls,
    lipschitz_dual_distance,
    supercurrent,
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


def test_winding_basic():
    f = synthetic_field(profile="zero1")
    loop = _square_loop((0.0, 0.0), 3 * f.grid.h, f.grid)
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
    # each loop is closed, takes unit lattice steps, visits each boundary site
    # of its square once and runs counterclockwise (shoelace area +side^2)
    g = build_grid(CellConfig(b=0.5, N=1, n=48))
    for loop, side in ((cell_boundary_loop(7), 7), (_square_loop((0.3, -1.1), 0.2, g), 10)):
        assert len(loop) == 4 * side + 1 and np.array_equal(loop[0], loop[-1])
        assert np.all(np.abs(np.diff(loop, axis=0)).sum(axis=1) == 1)
        lo = loop.min(axis=0)
        assert np.array_equal(loop.max(axis=0) - lo, [side, side])
        assert len({tuple(p) for p in loop[:-1]}) == 4 * side
        x, y = loop[:, 0], loop[:, 1]
        assert np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]) == 2 * side**2
    # a loop given as pairs and the same loop as an array wind alike
    f = synthetic_field(profile="zero1")
    loop = _square_loop((0.0, 0.0), 3 * f.grid.h, f.grid)
    assert winding(f, [tuple(p) for p in loop]) == winding(f, loop) == 1


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


def check_enclosing_disk(pts, rng):
    c, r = enclosing_disk(pts, rng)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(pts))))
    assert np.max(np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1])) <= r + tol
    assert abs(r - brute_force_disk(pts, tol)) <= tol


def test_enclosing_disk_minimal():
    rng = np.random.default_rng(3)
    for _ in range(20):
        check_enclosing_disk(rng.standard_normal((rng.integers(1, 40), 2)), rng)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
def test_enclosing_disk_minimal_on_lattice_points(points, seed):
    # a small lattice makes collinear triples, repeated points and several
    # points on one circle common
    check_enclosing_disk(np.array(points, dtype=float), np.random.default_rng(seed))


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
    c, r = _component_disk(wrapped[order], g)
    want_c, want_r = enclosing_disk(-g.R / 2 + blob * g.h)
    tol = 1e-12 * g.R
    assert abs(r - want_r) <= tol
    assert math.hypot(*_torus_delta(c, want_c, g.R)) <= tol
    assert all(-g.R / 2 <= x < g.R / 2 for x in c)


def test_find_balls_trivial_and_synthetic():
    assert find_balls(synthetic_field(profile="one"), b=0.5) == []
    balls = find_balls(synthetic_field(profile="deg2"), b=0.5)
    assert len(balls) == 1
    assert balls[0].degree == 2
    assert math.hypot(*balls[0].center) < 0.05


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
        loop = _square_loop(ball.center, 2.0 * math.sqrt(b), g)
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
    jx, jy = supercurrent(f)
    circ = g.h * (jx + np.roll(jy, -1, axis=0) - np.roll(jx, -1, axis=1) - jy)
    v = vorticity(f)
    assert np.max(np.abs(v.mu - (circ - np.angle(holonomy)))) < 1e-13
    assert abs(v.total_mass - TWO_PI * N) <= 1e-9


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
    # connection, and every unit of flux must be found in some ball
    fields = [(build_trial(b, N, build_grid(trial_config(b, N))), b)
              for b, N in ((0.1, 1), (0.04, 4), (0.1, 9))]
    fields += [(minimizer_b005.field, 0.05), (minimizer_b002.field, 0.02)]
    for f, b in fields:
        boundary = winding(f, cell_boundary_loop(f.grid.n))
        assert boundary == f.grid.N
        assert sum(ball.degree for ball in find_balls(f, b)) == boundary


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


def reference_dual_distance(mu_a, mu_b, domain, depth):
    """Every tent paired with every atom, one tent at a time."""

    def pairing(mu, c, s):
        total = 0.0
        if mu.points.shape[0]:
            r = np.hypot(mu.points[:, 0] - c[0], mu.points[:, 1] - c[1])
            total += float(np.sum(mu.weights * np.maximum(0.0, s - r)))
        if mu.uniform_density:
            total += mu.uniform_density * math.pi * s**3 / 3.0
        return total

    x_lo, x_hi, y_lo, y_hi = domain
    tents = []  # (value, witness) in (depth, ii, jj) order
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
                val = abs(pairing(mu_a, (cx, cy), s) - pairing(mu_b, (cx, cy), s))
                tents.append((val, (cx, cy, s)))
    best = max(val for val, _ in tents) if tents else 0.0
    # the first tent within 1e-12 relative of the maximum, none if that is 0
    witness = next((w for val, w in tents if best > 0.0 and val >= (1.0 - 1e-12) * best),
                   (0.0, 0.0, 0.0))
    return best, witness, f"radial tents, dyadic depths 0..{depth}, {len(tents)} elements"


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
    assert _components(np.zeros((8, 8), dtype=bool)) == []


def assert_same_components(mask):
    got, want = _components(mask), reference_components(mask)
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
