"""Bit-exact field snapshot format.

Layout: the ASCII magic "GLCELL1" followed by a one-line JSON header and a
single newline, then the raw payload: 2 * n^2 little-endian float64 values,
interleaved re/im, column-major from (i=0, j=0) with i fastest.  The payload
is exactly 16 * n^2 bytes; readers reject any other length, and any header
version but 1.

The header carries the wrap twists alpha and beta, so a field in a twisted
magnetic-periodic space reads back with its energy.  Files written before the
twists were stored read back with alpha = beta = 0, and files whose layout
label says "row-major" (the old, wrong name of the same i-fastest order) read
as usual.
"""

from __future__ import annotations

import datetime
import json
import math
import os

import numpy as np

from .energy import DiscreteField
from .grid import CellConfig, ConfigError, WrapRule, build_grid, check_number

MAGIC = b"GLCELL1"
LAYOUTS = ("column-major", "row-major")


class SnapshotError(ValueError):
    pass


def _payload(u: np.ndarray) -> np.ndarray:
    # i fastest: the C-order memory of u.T, made in one copy; complex128
    # memory is adjacent (re, im) float64 pairs, here little-endian on every host
    return np.asarray(np.transpose(u), dtype="<c16", order="C")


def write_snapshot(path, field: DiscreteField, b: float) -> None:
    """Write the field, its wrap twists and b."""
    g = field.grid
    header = {
        "version": 1, "R": g.R, "n": g.n, "b": b, "N": g.N,
        "alpha": field.wrap.alpha, "beta": field.wrap.beta,
        "layout": LAYOUTS[0], "dtype": "f64le", "channels": ["re", "im"],
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(json.dumps(header).encode("ascii"))
        fh.write(b"\n")
        fh.write(_payload(field.u))


def read_snapshot(path) -> tuple[DiscreteField, float]:
    """Read a snapshot; returns (field, b)."""
    with open(path, "rb") as fh:
        head = fh.readline()
        if not head.startswith(MAGIC):
            raise SnapshotError("bad magic: not a GLCELL1 snapshot")
        if not head.endswith(b"\n"):
            raise SnapshotError("missing header terminator")
        meta = _read_header(head[len(MAGIC):-1])
        try:  # the cell is checked before its payload is allocated
            config = CellConfig(b=meta["b"], N=meta["N"], n=meta["n"])
        except ConfigError as exc:
            raise SnapshotError(f"header {exc}") from None
        if abs(meta["R"] - config.R) > 1e-12 * config.R:
            raise SnapshotError(f"header R={meta['R']!r} does not match "
                                f"sqrt(2 pi N)={config.R!r}")
        n = config.n
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size == 16 * n * n:  # the payload, i fastest, is the C-order memory of u.T
            u_t = np.empty((n, n), dtype="<c16")
            size = fh.readinto(u_t)
        if size != 16 * n * n:
            raise SnapshotError(f"payload length mismatch: got {size}, want {16 * n * n}")
    u = np.ascontiguousarray(u_t.T, dtype=np.complex128)
    grid = build_grid(config)
    wrap = WrapRule(n=n, N=grid.N, alpha=meta["alpha"], beta=meta["beta"])
    return DiscreteField(u=u, grid=grid, wrap=wrap), meta["b"]


def _read_header(text: bytes) -> dict:
    """The checked header fields; alpha and beta default to 0."""
    try:  # a header that is no JSON object fails the unpacking with a TypeError
        meta = {"alpha": 0.0, "beta": 0.0, **json.loads(text.decode("ascii"))}
    except (UnicodeDecodeError, json.JSONDecodeError, TypeError) as exc:
        raise SnapshotError(f"bad header JSON: {exc}") from exc
    for key in ("version", "R", "n", "b", "N", "alpha", "beta"):
        if key not in meta:
            raise SnapshotError(f"header missing key {key!r}")
        try:  # checked, not converted: int() would read an N of true as 1
            check_number(key, meta[key], integral=key in ("version", "n", "N"))
        except ConfigError as exc:
            raise SnapshotError(f"header {exc}") from None
        if not math.isfinite(meta[key]):
            raise SnapshotError(f"header {key} must be finite, got {meta[key]!r}")
    if meta["version"] != 1:
        raise SnapshotError(f"header version must be 1, got {meta['version']!r}")
    if meta.get("layout", LAYOUTS[0]) not in LAYOUTS:
        raise SnapshotError(f"unknown payload layout {meta['layout']!r}")
    return meta
