"""The three benchmark workloads: inputs, one timed pass, and answer checks.

Each workload has the same four steps, which run.py drives:

- setup(mods, seed, workdir) builds the inputs; setup_probe.py times it in a
  fresh process;
- run(state) is one timed pass through glcell's public API;
- harvest(state, raw) reduces a pass to a small JSON-able record, untimed;
- check(state, records) returns, per operation, the list of failed checks.

Functions are looked up on the module objects at call time, so the timing
wrappers tracing.py installs on those modules see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

TWO_PI = 2.0 * math.pi


def _le(value: float, ref: float) -> bool:
    """An answer passes when it is at or below its reference (1e-7 relative slack)."""
    return value <= ref + 1e-7 * abs(value)


def _num(text):
    """A CSV cell as a float; empty cells (no bracket at the ends) are None."""
    return float(text) if text else None


def _rel_close(value: float, ref: float, rtol: float = 1e-12) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


@dataclass(frozen=True)
class Minimize:
    """`glcell minimize --b 0.05 --N 16 --init trial`, in-process.

    Deterministic: the seed has no effect (a seeded perturbation of the init
    would measure which path NCG takes, not the code).
    """

    b: float = 0.05
    N: int = 16
    energy_ref: float = -42.22574080189342
    name: str = "minimize"

    def setup(self, mods, seed, workdir: Path):
        cfg = mods["trial"].trial_config(self.b, self.N)
        init = mods["minimize"].init_state("trial", cfg)
        params = {"b": self.b, "N": self.N, "n": cfg.n, "seed": seed, "seeded": False}
        return SimpleNamespace(mods=mods, init=init, params=params)

    def run(self, st):
        m = st.mods["minimize"]
        return m.minimize(st.init, self.b, m.SolverSettings())

    def harvest(self, st, res):
        balls = st.mods["vortices"].find_balls(res.field, self.b)
        return {
            "energy": res.breakdown.total,
            "converged": bool(res.converged),
            "iterations": res.iterations,
            "balls": len(balls),
            "degree": sum(ball.degree for ball in balls),
        }

    def check(self, st, records):
        out = []
        for rec in records:
            fails = []
            if not rec["converged"]:
                fails.append("not converged")
            if not _le(rec["energy"], self.energy_ref):
                fails.append(f"energy {rec['energy']!r} above reference {self.energy_ref!r}")
            if (rec["balls"], rec["degree"]) != (self.N, self.N):
                fails.append(f"{rec['balls']} balls of total degree {rec['degree']}, want {self.N}")
            out.append(fails)
        return out


@dataclass(frozen=True)
class Sweep:
    """`glcell sweep --b 0.04,0.05,0.06 --N 4`, in-process with the default jobs.

    Deterministic: the seed has no effect.  One operation is one sweep point.
    """

    b_values: tuple = (0.04, 0.05, 0.06)
    N: int = 4
    g_refs: tuple = (-0.43226765030176395, -0.42002358673813794, -0.4085009896222542)
    bracket_b: float = 0.05
    name: str = "sweep"

    def setup(self, mods, seed, workdir: Path):
        out = workdir / "sweep"
        out.mkdir(parents=True, exist_ok=True)
        n = mods["trial"].trial_config(min(self.b_values), self.N).n
        params = {"b": list(self.b_values), "N": self.N, "n": n, "seed": seed, "seeded": False}
        return SimpleNamespace(mods=mods, out=out, params=params)

    def run(self, st):
        argv = ["sweep", "--b", ",".join(str(b) for b in self.b_values),
                "--N", str(self.N), "--out", str(st.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            return st.mods["cli"].main(argv)

    def harvest(self, st, code):
        path = st.out / "sweep.csv"
        rows = []
        if path.exists():
            rows = list(csv.DictReader(io.StringIO(path.read_text())))
            path.unlink()  # a stale file must not pass the next pass's check
        return {
            "exit": code,
            "rows": [{"b": _num(r["b"]), "g_est": _num(r["g_est"]), "d_lower": _num(r["d_lower"]),
                      "d_upper": _num(r["d_upper"]), "flags": r["flags"]} for r in rows],
        }

    def check(self, st, records):
        out = []
        for rec in records:
            common = []
            if rec["exit"] != 0:
                common.append(f"exit code {rec['exit']}")
            if len(rec["rows"]) != len(self.b_values):
                common.append(f"{len(rec['rows'])} rows, want {len(self.b_values)}")
            by_b = {row["b"]: row for row in rec["rows"]}
            for b, ref in zip(self.b_values, self.g_refs):
                fails = list(common)
                row = by_b.get(b)
                if row is None:
                    fails.append(f"no row at b={b}")
                else:
                    if row["g_est"] is None or not _le(row["g_est"], ref):
                        fails.append(f"g_est {row['g_est']!r} above reference {ref!r} at b={b}")
                    if row["flags"]:
                        fails.append(f"flags at b={b}: {row['flags']}")
                    if b == self.bracket_b and not (
                        row["d_lower"] is not None and row["d_upper"] is not None
                        and row["d_lower"] <= row["d_upper"] + 1e-3
                    ):
                        fails.append(f"bracket {row['d_lower']!r} > {row['d_upper']!r} + 1e-3")
                out.append(fails)
        return out


def imprint_pairs(mods, b, N, pairs, separation, seed):
    """Trial state at (b, N) with `pairs` seeded vortex-antivortex pairs.

    The pair zeros lie `separation` apart, and every zero keeps at least
    6*sqrt(b) from every zero of another pair and from the trial vortices.
    Each zero gets the modulus cut-off min(1, r / (2 sqrt(b))).  The pair
    phase arg((x - z+) / (x - z-)) is smooth off the segment between the
    zeros and is tapered to zero between radius 1 and 2 from the pair centre,
    so the imprint is a function on the torus and keeps the field
    magnetic-periodic.
    """
    cfg = mods["trial"].trial_config(b, N)
    field = mods["minimize"].init_state("trial", cfg)
    g = field.grid
    n, h, R = g.n, g.h, g.R
    k = int(round(math.sqrt(N)))
    m = n // k
    # trial poles sit half a spacing off the sites m/2 + m*a
    centres = -R / 2 + h * (m // 2 + m * np.arange(k) + 0.5)
    zeros = [(x, y) for x in centres for y in centres]

    def torus(d):
        return (d + R / 2) % R - R / 2

    gap = 6.0 * math.sqrt(b)
    rng = np.random.default_rng(seed)
    placed = []
    for _ in range(200_000):
        if len(placed) == pairs:
            break
        mid = rng.uniform(-R / 2, R / 2, 2)
        ang = rng.uniform(0.0, TWO_PI)
        off = 0.5 * separation * np.array([math.cos(ang), math.sin(ang)])
        new = [torus(mid + off), torus(mid - off)]
        if all(math.hypot(*torus(z - np.asarray(w))) >= gap for z in new for w in zeros):
            zeros += [tuple(z) for z in new]
            placed.append((mid, off))
    if len(placed) < pairs:
        raise RuntimeError(f"placed only {len(placed)} of {pairs} pairs")

    core = 2.0 * math.sqrt(b)
    half = int(math.ceil(2.0 / h)) + 1
    offsets = np.arange(-half, half + 1)
    u = field.u.copy()
    for mid, off in placed:
        ii = (int(round((mid[0] + R / 2) / h)) + offsets) % n
        jj = (int(round((mid[1] + R / 2) / h)) + offsets) % n
        w = torus(g.x1[ii] - mid[0])[:, None] + 1j * torus(g.x2[jj] - mid[1])[None, :]
        a = complex(off[0], off[1])
        zp, zm = w - a, w + a
        theta = np.angle(zp * np.conj(zm))
        r = np.abs(w)
        taper = np.where(r <= 1.0, 1.0, np.cos(0.5 * math.pi * np.clip(r - 1.0, 0.0, 1.0)) ** 2)
        modulus = np.minimum(1.0, np.abs(zp) / core) * np.minimum(1.0, np.abs(zm) / core)
        u[np.ix_(ii, jj)] *= modulus * np.exp(1j * taper * theta)
    field.u = u
    return field


def _dyadic_tents(domain, depth):
    """(cx, cy, s) of the radial tents lipschitz_dual_distance uses."""
    x_lo, x_hi, y_lo, y_hi = domain
    rows = []
    for d in range(depth + 1):
        nx = 2**d
        sx, sy = (x_hi - x_lo) / nx, (y_hi - y_lo) / nx
        cx = x_lo + (np.arange(nx) + 0.5) * sx
        cy = y_lo + (np.arange(nx) + 0.5) * sy
        CX, CY = np.meshgrid(cx, cy, indexing="ij")
        s = np.minimum.reduce([np.full_like(CX, min(sx, sy)), CX - x_lo, x_hi - CX,
                               CY - y_lo, y_hi - CY])
        rows.append(np.column_stack([CX.ravel(), CY.ravel(), s.ravel()]))
    tents = np.concatenate(rows)
    return tents[tents[:, 2] > 0.0]


def dual_distance_oracle(points, weights, density, domain, depth):
    """Independent value of the dyadic radial-tent dual distance between atoms
    (points, weights) and a uniform density on the domain.  Each tent sums
    only the atoms in the strip |x - cx| < s, so the sums run in another
    order than the program's and agree to rounding, not bit for bit."""
    order = np.argsort(points[:, 0], kind="stable")
    xs, ys, ws = points[order, 0], points[order, 1], weights[order]
    best = 0.0
    for cx, cy, s in _dyadic_tents(domain, depth):
        lo, hi = np.searchsorted(xs, [cx - s, cx + s])
        r = np.hypot(xs[lo:hi] - cx, ys[lo:hi] - cy)
        atoms = float(np.sum(ws[lo:hi] * np.maximum(0.0, s - r)))
        best = max(best, abs(atoms - density * math.pi * s**3 / 3.0))
    return best


def tile_distance_oracle(balls, R, N, b, M, depth=6):
    """aggregate_tiles' relative distance, recomputed from its definition:
    M x M copies of the balls on the unit square, weight 2 pi eps^2 / b per
    unit degree, both measures normalised by the domain mass."""
    ell = 1.0 / M
    eps = ell * math.sqrt(b / (TWO_PI * N))
    centres = np.array([(x, y) for x, y, _ in balls])
    degrees = np.array([d for _, _, d in balls], dtype=float)
    origins = (np.arange(M) + 0.5) * ell
    pts = np.concatenate([np.column_stack([ox + (ell / R) * centres[:, 0],
                                           oy + (ell / R) * centres[:, 1]])
                          for ox in origins for oy in origins])
    weights = np.tile(TWO_PI * eps**2 / b * degrees, M * M)
    L = M * ell
    return dual_distance_oracle(pts, weights / (L * L), 1.0 / (L * L), (0.0, L, 0.0, L), depth)


@dataclass(frozen=True)
class Vortices:
    """The `glcell vortices` pipeline plus the measure comparison on a seeded
    synthetic field.  The program receives only the snapshot."""

    b: float = 0.02
    N: int = 16
    pairs: int = 24
    separation: float = 0.6
    depth: int = 4
    tiles: int = 4
    name: str = "vortices"

    def setup(self, mods, seed, workdir: Path):
        field = imprint_pairs(mods, self.b, self.N, self.pairs, self.separation, seed)
        folder = workdir / "vortices"
        folder.mkdir(parents=True, exist_ok=True)
        snapshot = folder / "field.glc"
        mods["snapshot"].write_snapshot(snapshot, field, self.b)
        params = {"b": self.b, "N": self.N, "n": field.grid.n, "seed": seed, "seeded": True,
                  "pairs": self.pairs, "separation": self.separation, "depth": self.depth,
                  "tiles": self.tiles}
        return SimpleNamespace(mods=mods, snapshot=snapshot, out=folder / "mu.glc",
                               params=params)

    def run(self, st):
        V, S = st.mods["vortices"], st.mods["snapshot"]
        field, b = S.read_snapshot(st.snapshot)
        balls = V.find_balls(field, b)
        squares = V.classify_squares(field, b, balls=balls)
        gaps = V.coverage_gaps(field, balls, b)
        vf = V.vorticity(field)
        half = field.grid.R / 2
        domain = (-half, half, -half, half)
        dist = V.lipschitz_dual_distance(V.vorticity_measure(vf), V.uniform_measure(domain, 1.0),
                                         domain, self.depth)
        tiles = st.mods["analysis"].aggregate_tiles(field, self.tiles, b, balls=balls)
        mu = st.mods["energy"].DiscreteField(u=vf.mu.astype(complex), grid=field.grid,
                                             wrap=field.wrap)
        S.write_snapshot(st.out, mu, b)
        return balls, squares, gaps, vf, dist, tiles

    def harvest(self, st, raw):
        balls, squares, gaps, vf, dist, tiles = raw
        return {
            "balls": [(ball.center[0], ball.center[1], ball.degree) for ball in balls],
            "squares": len(squares),
            "gaps": gaps,
            "mass": vf.total_mass,
            "dual_distance": dist.estimate,
            "tile_distance": tiles.relative_distance,
        }

    def check(self, st, records):
        V, S = st.mods["vortices"], st.mods["snapshot"]
        field, b = S.read_snapshot(st.snapshot)
        g = field.grid
        mu = V.vorticity(field).mu
        x = -g.R / 2 + g.h * (np.arange(g.n) + 0.5)
        X, Y = np.meshgrid(x, x, indexing="ij")
        half = g.R / 2
        dual_ref = dual_distance_oracle(np.column_stack([X.ravel(), Y.ravel()]), mu.ravel(), 1.0,
                                        (-half, half, -half, half), self.depth)
        tile_refs = {}  # every pass sees the same snapshot, so the balls repeat
        out = []
        for rec in records:
            fails = []
            count = len(rec["balls"])
            degree = sum(d for _, _, d in rec["balls"])
            if (count, degree) != (self.N + 2 * self.pairs, self.N):
                fails.append(f"{count} balls of total degree {degree}, "
                             f"want {self.N + 2 * self.pairs} of degree {self.N}")
            if abs(rec["mass"] - TWO_PI * self.N) > 1e-9:
                fails.append(f"vorticity mass {rec['mass']!r} != 2 pi N")
            if rec["gaps"] != 0:
                fails.append(f"{rec['gaps']} uncovered sites")
            if not _rel_close(rec["dual_distance"], dual_ref):
                fails.append(f"dual distance {rec['dual_distance']!r}, reference {dual_ref!r}")
            key = tuple(rec["balls"])
            if key not in tile_refs:
                tile_refs[key] = tile_distance_oracle(rec["balls"], g.R, self.N, b, self.tiles)
            tile_ref = tile_refs[key]
            if not _rel_close(rec["tile_distance"], tile_ref):
                fails.append(f"tile distance {rec['tile_distance']!r}, reference {tile_ref!r}")
            out.append(fails)
        return out


WORKLOADS = {w.name: w for w in (Minimize(), Sweep(), Vortices())}
