"""Time the set-up of one workload in a fresh process.

    python3 perfbench/setup_probe.py --workload NAME --spec JSON --seed S --workdir DIR

Set-up is importing glcell plus building the workload's inputs, which is what
a user pays before the first pass.  The timer starts before glcell (and so
numpy and scipy) is imported; the interpreter's own start-up is not counted.
The last line of standard output is {"setup_s": <seconds>}.

This module imports only the standard library at the top, so that run.py can
share load_glcell() without paying for numpy before the probe's timer starts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("grid", "energy", "minimize", "trial", "vortices", "analysis", "snapshot", "cli")


class MissingProgram(RuntimeError):
    pass


def load_glcell() -> dict:
    """Import glcell from this checkout's src/ and return its modules by short name.

    Modules are taken from sys.modules, not by attribute access on the
    package: glcell/__init__.py re-exports the functions `energy` and
    `minimize`, which shadow the submodules of the same name.
    """
    if not (SRC / "glcell" / "__init__.py").is_file():
        raise MissingProgram(f"no glcell package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import glcell

    if Path(glcell.__file__).resolve().parent != (SRC / "glcell").resolve():
        raise MissingProgram(f"glcell imported from {glcell.__file__}, not from {SRC}")
    return {name: importlib.import_module(f"glcell.{name}") for name in MODULES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--spec", required=True, help="the workload's fields, as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    mods = load_glcell()
    import workloads

    workload = type(workloads.WORKLOADS[args.workload])(**json.loads(args.spec))
    workload.setup(mods, args.seed, Path(args.workdir))
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
