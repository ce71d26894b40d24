"""Bit-exact field snapshot format.

Layout: the ASCII magic "GLCELL1" followed by a one-line JSON header and a
single newline, then the raw payload: 2 * n^2 little-endian float64 values,
interleaved re/im, column-major from (i=0, j=0) with i fastest.  The payload
is exactly 16 * n^2 bytes; readers reject any other length, and any header
version but 1.  Both directions stream the payload in blocks of columns of
u, so besides the field they hold one block, not a second full-size copy.

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


_BLOCK = 64  # columns of u per payload block: 0.58 MB at n = 568


def _blocks(n: int):
    """Column slices of u, in payload order, _BLOCK columns at a time."""
    return (slice(j, min(j + _BLOCK, n)) for j in range(0, n, _BLOCK))


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
        # i fastest: each block is the C-order memory of u[:, cols].T; complex128
        # memory is adjacent (re, im) float64 pairs, here little-endian on every host
        for cols in _blocks(g.n):
            fh.write(np.asarray(field.u[:, cols].T, dtype="<c16", order="C"))


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
        if size == 16 * n * n:  # each block, i fastest, is the C-order memory of u[:, cols].T
            u = np.empty((n, n), np.complex128)
            block, size = np.empty((min(_BLOCK, n), n), dtype="<c16"), 0
            for cols in _blocks(n):
                rows = block[:cols.stop - cols.start]
                size += fh.readinto(rows)
                u[:, cols] = rows.T
        if size != 16 * n * n:
            raise SnapshotError(f"payload length mismatch: got {size}, want {16 * n * n}")
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
