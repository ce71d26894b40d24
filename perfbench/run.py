"""glcell benchmark.

    python3 perfbench/run.py --workload {minimize,sweep,vortices,all} --seed S \
        --seconds T --trace {0,1}

Run from the root of a checkout; glcell is imported from its src/.  One
process and one thread run the workload's passes back to back for about T
seconds (at least one pass; no pass starts that would end past T), then
check every answer outside the timed region, then time the set-up in fresh
processes.  With --trace 0 the result holds the end-to-end metrics; with
--trace 1, untraced and traced passes alternate and the result holds the
per-layer metrics of the traced passes.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.  Details (every
pass, the answers, the environment, and in a traced run the spans) go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from setup_probe import HERE, ROOT, SRC, MissingProgram, load_glcell

OUT = HERE / "out"
WORKLOADS = ("minimize", "sweep", "vortices")
SETUP_RUNS = 3
PROBE_TIMEOUT_S = 120


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; the
    benchmark also runs in exported trees that have no .git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def src_digest() -> str:
    """sha256 over src/, which identifies the program even without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(params: dict) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        # recorded as found, never set here
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "GLCELL_THREADS": os.environ.get("GLCELL_THREADS"),
        "workload": params,
    }


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Larger of this process's peak RSS and that of its waited-for children."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def measure(workload, state, seconds: float, tracer):
    """Timed passes; with a tracer, untraced and traced passes alternate."""
    plain, traced, records = [], [], []
    cpu_traced = 0.0
    start = time.perf_counter()
    while True:
        tracing = tracer is not None and len(plain) > len(traced)
        if tracing:
            tracer.install()
            cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        raw = workload.run(state)
        dt = time.perf_counter() - t0
        if tracing:
            cpu_traced += cpu_seconds() - cpu0
            tracer.uninstall()
        (traced if tracing else plain).append(dt)
        records.append(workload.harvest(state, raw))
        elapsed = time.perf_counter() - start
        if elapsed + dt > seconds and (tracer is None or traced):
            return plain, traced, records, cpu_traced


def setup_times(workload, seed: int, workdir: Path) -> list[float]:
    spec = json.dumps(dataclasses.asdict(workload))
    times = []
    for k in range(SETUP_RUNS):
        probe_dir = workdir / f"setup{k}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload.name,
             "--spec", spec, "--seed", str(seed), "--workdir", str(probe_dir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run(name: str, seed: int, seconds: float, trace: bool, catalog=None) -> dict:
    """One benchmark run; returns the full result set (see the module doc).
    `catalog` maps names to workload specs; the self-test passes tiny ones."""
    mods = load_glcell()
    import tracing
    import workloads

    workload = (catalog or workloads.WORKLOADS)[name]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        state = workload.setup(mods, seed, workdir)
        tracer = tracing.Tracer(mods) if trace else None
        plain, traced, records, cpu_traced = measure(workload, state, seconds, tracer)
        rss = peak_rss_mb()
        outcomes = workload.check(state, records)
        setups = setup_times(workload, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for fails in outcomes if fails)
    wall = statistics.median(plain)
    if trace:
        overhead = statistics.median(traced) - wall
        metrics = tracer.layer_metrics(len(traced), cpu_traced, overhead)
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    return {
        "summary": {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
                    "metrics": metrics},
        "wall": {"median_s": wall, "p90_s": quantile(plain, 0.9), "max_s": max(plain),
                 "samples": len(plain), "passes_s": plain, "traced_passes_s": traced},
        "setup_s": setups,
        "failed_frac": failed / len(outcomes),
        "failures": [fails for fails in outcomes if fails],
        "records": records,
        "env": environment(state.params),
        "spans": tracer.spans if trace else [],
    }


def report(name: str, seed: int, trace: bool, result: dict) -> None:
    """Human-readable lines, the result file, and the spans of a traced run."""
    wall, summary = result["wall"], result["summary"]
    print(f"glcell benchmark: workload={name} seed={seed} trace={int(trace)}")
    print(f"  wall_s median {wall['median_s']:.4f} s, p90 {wall['p90_s']:.4f} s, "
          f"max {wall['max_s']:.4f} s over {wall['samples']} untraced passes")
    for metric, entry in summary["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"  failed_frac = {result['failed_frac']:.6g} "
          f"({summary['failed']} of {summary['attempted']} operations)")
    for fails in result["failures"]:
        print(f"  FAILED: {'; '.join(fails)}")
    print(f"  env {json.dumps(result['env'])}")
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    spans = result.pop("spans")
    if spans:
        with open(f"{stem}.spans.jsonl", "w") as fh:
            for span_name, start, end, parent in spans:
                fh.write(json.dumps({"name": span_name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
    Path(f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="glcell benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # one fresh process per workload, so that peak RSS is each workload's own
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(args.workload, args.seed, bool(args.trace), result)
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
