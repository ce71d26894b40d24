"""Command-line interface: minimize, trial, vortices, sweep.

Exit codes: 0 success (and convergence for minimize), 2 iteration budget
exhausted, 3 minimize stopped short of convergence by a failed line search
(no drop above the rounding of the energy), 1 any error.  JSON outputs
write each float in its repr form, the shortest decimal that reads back as
the same float64, so values round-trip exactly; a non-finite value is an
error, not a JSON extension.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .analysis import run_sweep, sweep_configs, sweep_to_csv, sweep_to_json
from .energy import DiscreteField, energy
from .grid import CellConfig, ConfigError, build_grid, check_number
from .minimize import MinimizationError, SolverSettings, init_state, minimize
from .snapshot import SnapshotError, read_snapshot, write_snapshot
from .trial import TrialError, build_trial, predicted_density, trial_config
from .vortices import classify_squares, find_balls, vorticity

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAXITER = 2
EXIT_STALLED = 3


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n")


# the keys each command reads, from a config file or from its flags;
# samples_per_core comes from a config file only
_CONFIG_KEYS = {
    "minimize": {"b", "N", "n", "init", "seed", "max_iter", "grad_tol", "out",
                 "samples_per_core"},
    "trial": {"b", "N", "n", "out", "samples_per_core"},
    "vortices": {"out", "C_star"},
    "sweep": {"b", "b_list", "N", "max_iter", "grad_tol", "out", "samples_per_core"},
}


def _load_config(args) -> dict:
    keys = _CONFIG_KEYS[args.command]
    cfg = {}
    if getattr(args, "config", None):
        try:
            raw = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object, "
                              f"got {type(raw).__name__}")
        unknown = set(raw) - keys
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)} "
                              f"({args.command} reads {sorted(keys)})")
        cfg.update(raw)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val  # flags override file values
    if "b" in keys and {"b", "b_list"}.isdisjoint(cfg):
        raise ConfigError(f"b is required (usage: glcell {args.command} --b B [options], "
                          f"or b in a --config file)")
    return cfg


# values pass through unconverted: CellConfig, trial_config and SolverSettings
# check their types, where int() would truncate an N of 4.7 and parse a "4"
def _cell_config(cfg: dict) -> CellConfig:
    b, N, n, seed = cfg["b"], cfg.get("N", 1), cfg.get("n"), cfg.get("seed", 0)
    if n is None:
        return trial_config(b, N, samples_per_core=cfg.get("samples_per_core", 8), seed=seed)
    if "samples_per_core" in cfg:
        raise ConfigError("n and samples_per_core both set the resolution; give one")
    return CellConfig(b=b, N=N, n=n, seed=seed)


def _out_dir(cfg: dict) -> Path:
    """The output directory named by out, created if missing."""
    out = cfg.get("out", ".")
    if not isinstance(out, str):
        raise ConfigError(f"out must be a string, got {out!r}")
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _solver_settings(cfg: dict) -> SolverSettings:
    default = SolverSettings()
    return SolverSettings(grad_tol=cfg.get("grad_tol", default.grad_tol),
                          max_iter=cfg.get("max_iter", default.max_iter))


def cmd_minimize(args) -> int:
    cfg = _load_config(args)
    kind = cfg.get("init", "trial")
    if "seed" in cfg and kind != "random":
        raise ConfigError(f"seed applies only to the random init, not to {kind!r}")
    try:
        config = _cell_config(cfg)
        settings = _solver_settings(cfg)
        init = init_state(kind, config)  # an unknown kind fails before the output exists
    except TrialError as exc:
        # the trial state, and the default n, need square N and sqrt(N) | n
        raise TrialError(f"{exc}; --init random with --n starts any N and n") from None
    outdir = _out_dir(cfg)
    res = minimize(init, config.b, settings)
    write_snapshot(outdir / "field.glc", res.field, config.b)
    _write_json(outdir / "result.json", {
        "b": config.b, "N": config.N, "n": config.n, "seed": config.seed,
        "init": kind,
        "energy": {
            "kinetic": res.breakdown.kinetic,
            "potential": res.breakdown.potential,
            "offset": res.breakdown.offset,
            "total": res.breakdown.total,
        },
        "density": res.density,
        "iterations": res.iterations,
        "grad_norm": res.grad_norm,
        "converged": res.converged,
        "stop_reason": res.stop_reason,
        "restarts": res.restarts,
        "operator_evals": res.operator_evals,
        "coarse": res.coarse.record() if res.coarse else None,
        "wall_s": res.wall_time,
    })
    if res.converged:
        return EXIT_OK
    return EXIT_MAXITER if res.stop_reason == "max_iter" else EXIT_STALLED


def cmd_trial(args) -> int:
    cfg = _load_config(args)
    config = _cell_config(cfg)
    outdir = _out_dir(cfg)
    grid = build_grid(config)
    field = build_trial(config.b, config.N, grid)
    g_trial = energy(field, config.b).total / grid.area
    predicted = predicted_density(config.b)
    report = {
        "b": config.b, "N": config.N, "n": config.n,
        "g_trial": g_trial,
        "predicted": predicted,
        "gap": g_trial - predicted,
    }
    write_snapshot(outdir / "field.glc", field, config.b)
    _write_json(outdir / "report.json", report)
    print(f"predicted = {predicted:.5f}  g_trial = {g_trial:.5f}  "
          f"gap = {report['gap']:.5f}")
    return EXIT_OK


def cmd_vortices(args) -> int:
    cfg = _load_config(args)
    c_star = cfg.get("C_star", 4.0 * math.pi)
    check_number("C_star", c_star)
    if not (math.isfinite(c_star) and c_star > 0.0):
        raise ConfigError(f"C_star must be finite and positive, got {c_star!r}")
    field, b = read_snapshot(args.snapshot)
    outdir = _out_dir(cfg)
    balls = find_balls(field, b)
    _write_json(outdir / "balls.json", [
        {"center": list(ball.center), "radius": ball.radius, "degree": ball.degree}
        for ball in balls
    ])
    reports = classify_squares(field, b, C_star=c_star, balls=balls)
    with open(outdir / "squares.jsonl", "w") as fh:
        for rep in reports:
            fh.write(json.dumps({
                "index": rep.index,
                "bounds": list(rep.bounds),
                "energy": rep.energy,
                "good": rep.good,
                "d_plus": rep.d_plus,
                "d_minus": rep.d_minus,
                "d_total": rep.d_total,
                "radius_total": rep.radius_total,
                "radius_budget_exceeded": rep.radius_budget_exceeded,
            }, allow_nan=False) + "\n")
    vf = vorticity(field)
    mu_field = DiscreteField(u=vf.mu.astype(complex), grid=field.grid, wrap=field.wrap)
    write_snapshot(outdir / "vorticity.glc", mu_field, b)
    print(f"{len(balls)} balls, total degree "
          f"{sum(ball.degree for ball in balls)}, mass {vf.total_mass:.8f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    b_values = cfg.get("b_list") or cfg.get("b")
    if isinstance(b_values, str):
        b_values = [float(x) for x in b_values.split(",")]
    elif not isinstance(b_values, list):
        b_values = [b_values]
    N, samples_per_core = cfg.get("N", 1), cfg.get("samples_per_core", 8)
    settings = _solver_settings(cfg)
    sweep_configs(b_values, N, samples_per_core)  # checked before the output directory exists
    outdir = _out_dir(cfg)
    report = run_sweep(b_values, N, settings=settings, samples_per_core=samples_per_core)
    (outdir / "sweep.csv").write_text(sweep_to_csv(report))
    (outdir / "sweep.json").write_text(sweep_to_json(report) + "\n")
    if getattr(args, "report", None) == "acceptance":
        _print_acceptance_table(report)
    print(f"wrote {outdir / 'sweep.csv'}")
    return EXIT_OK


def _print_acceptance_table(report) -> None:
    """Pass/fail summary of the sweep-evaluable acceptance checks."""
    rows = []
    for p in report.points:
        ratio = (p.g_est + 0.5) / (0.5 * p.b * abs(math.log(p.b)))
        rows.append((f"asymptotics b={p.b:g}: ratio {ratio:.3f} in [0.6, 1.4]",
                     0.6 <= ratio <= 1.4))
        if p.potential_moment is not None:
            budget = p.b * abs(math.log(p.b))
            rows.append((f"potential b={p.b:g}: {p.potential_moment:.4g} <= {budget:.4g}",
                         p.potential_moment <= budget))
    for b, (lower, upper, mid) in report.brackets.items():
        target = -0.5 * math.log(b)
        rows.append((f"derivative b={b:g}: midpoint {mid:.3f} within 30% of {target:.3f}",
                     abs(mid - target) <= 0.3 * abs(target)))
        rows.append((f"bracket ordering b={b:g}: {lower:.3f} <= {upper:.3f} + 1e-3",
                     lower <= upper + 1e-3))
    for desc, ok in rows:
        print(f"[{'PASS' if ok else 'FAIL'}] {desc}")
    print("(remaining acceptance criteria are exercised by the test suite)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glcell",
        description="Magnetic-periodic Ginzburg-Landau cell problem toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes only the flags it reads (see _CONFIG_KEYS)
    def common(p, *b_aliases, **b_options):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--b", *b_aliases, **b_options)
        p.add_argument("--N", type=int)
        p.add_argument("--out")

    def solver(p):
        p.add_argument("--max-iter", dest="max_iter", type=int)
        p.add_argument("--grad-tol", dest="grad_tol", type=float)

    p_min = sub.add_parser("minimize", help="minimize the cell energy")
    common(p_min, type=float)
    p_min.add_argument("--n", type=int)
    p_min.add_argument("--seed", type=int)
    solver(p_min)
    p_min.add_argument("--init", choices=["trial", "random"])
    p_min.set_defaults(func=cmd_minimize)

    p_tr = sub.add_parser("trial", help="build the vortex-lattice trial state")
    common(p_tr, type=float)
    p_tr.add_argument("--n", type=int)
    p_tr.set_defaults(func=cmd_trial)

    p_vx = sub.add_parser("vortices", help="detect vortices in a snapshot")
    p_vx.add_argument("snapshot", help="path to a GLCELL1 field snapshot")
    p_vx.add_argument("--config")
    p_vx.add_argument("--out")
    p_vx.add_argument("--C-star", dest="C_star", type=float)
    p_vx.set_defaults(func=cmd_vortices)

    p_sw = sub.add_parser("sweep", help="g(b) sweep over several b values")
    common(p_sw, "--b-list", dest="b_list", help="comma-separated b values")
    solver(p_sw)
    p_sw.add_argument("--report", choices=["acceptance"])
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, TrialError, SnapshotError, MinimizationError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
