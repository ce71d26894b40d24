import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glcell.energy import DiscreteField, energy
from glcell.grid import CellConfig, WrapRule, build_grid
from glcell.snapshot import MAGIC, SnapshotError, read_snapshot, write_snapshot
from glcell.trial import build_trial, trial_config


def make_field(n=32, N=1, b=0.5, seed=0):
    g = build_grid(CellConfig(b=b, N=N, n=n))
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return DiscreteField(u=u, grid=g, wrap=WrapRule(n=n, N=N)), b


def test_round_trip_bit_identical(tmp_path):
    f, b = make_field()
    p1 = tmp_path / "a.glc"
    p2 = tmp_path / "b.glc"
    write_snapshot(p1, f, b)
    g, b2 = read_snapshot(p1)
    assert b2 == b
    assert np.array_equal(g.u, f.u)  # bit-identical payload
    write_snapshot(p2, g, b2)
    pay1 = p1.read_bytes().split(b"\n", 1)[1]
    pay2 = p2.read_bytes().split(b"\n", 1)[1]
    assert pay1 == pay2


@st.composite
def snapshot_fields(draw):
    # the grid rule h = R/n <= sqrt(b)/8 with b < 1 needs n > 8R, so n >= 21
    # at N = 1 and n >= 41 at N = 4
    N = draw(st.sampled_from([1, 2, 4]))
    R = math.sqrt(2.0 * math.pi * N)
    n = draw(st.integers(math.floor(8.0 * R) + 1, 64))
    b = draw(st.floats((8.0 * R / n) ** 2 * (1.0 + 1e-12), 1.0, exclude_max=True))
    alpha, beta = (draw(st.floats(-2.0 * math.pi, 2.0 * math.pi)) for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-300, 300))
    u = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    g = build_grid(CellConfig(b=b, N=N, n=n))
    return DiscreteField(u=u, grid=g, wrap=WrapRule(n=n, N=N, alpha=alpha, beta=beta)), b


@settings(max_examples=50, derandomize=True, deadline=None)
@given(snapshot_fields())
def test_round_trip_property(tmp_path_factory, drawn):
    f, b = drawn
    p = tmp_path_factory.mktemp("snap") / "f.glc"
    write_snapshot(p, f, b)
    back, b2 = read_snapshot(p)
    assert b2 == b
    assert (back.grid.n, back.grid.N) == (f.grid.n, f.grid.N)
    # repr tells -0.0 from 0.0 and reads back as the same float64
    assert [repr(x) for x in (back.wrap.alpha, back.wrap.beta)] == \
        [repr(x) for x in (f.wrap.alpha, f.wrap.beta)]
    assert back.u.dtype == np.complex128
    assert back.u.tobytes() == f.u.tobytes()


def test_payload_bytes_are_column_major_little_endian(tmp_path):
    # the payload written in column blocks is the bytes of the reference
    # layout, within one block and past one (n = 101 ends in a part block)
    for n in (37, 101):
        f, b = make_field(n=n, seed=4)
        p = tmp_path / "a.glc"
        write_snapshot(p, f, b)
        payload = p.read_bytes().split(b"\n", 1)[1]
        assert payload == f.u.astype("<c16").ravel(order="F").tobytes()
        assert read_snapshot(p)[0].u.flags.c_contiguous


def test_round_trip_past_one_block(tmp_path):
    f, b = make_field(n=101, seed=5)
    p = tmp_path / "a.glc"
    write_snapshot(p, f, b)
    back = read_snapshot(p)[0].u
    assert back.dtype == np.complex128 and back.flags.c_contiguous
    assert back.tobytes() == f.u.tobytes()


def test_header_format(tmp_path):
    f, b = make_field()
    p = tmp_path / "a.glc"
    write_snapshot(p, f, b)
    blob = p.read_bytes()
    assert blob.startswith(MAGIC)
    head = blob[len(MAGIC):blob.index(b"\n")].decode("ascii")
    meta = json.loads(head)
    assert meta["version"] == 1
    assert meta["layout"] == "column-major"
    assert meta["alpha"] == 0.0 and meta["beta"] == 0.0
    assert meta["dtype"] == "f64le"
    assert meta["channels"] == ["re", "im"]
    assert meta["n"] == f.grid.n and meta["N"] == f.grid.N
    # payload: i fastest, interleaved re/im little-endian
    payload = blob[blob.index(b"\n") + 1:]
    assert len(payload) == 16 * f.grid.n**2
    first = np.frombuffer(payload[:32], dtype="<f8")
    assert first[0] == f.u[0, 0].real and first[1] == f.u[0, 0].imag
    assert first[2] == f.u[1, 0].real and first[3] == f.u[1, 0].imag


def test_payload_length_mismatch(tmp_path):
    f, b = make_field()
    p = tmp_path / "a.glc"
    write_snapshot(p, f, b)
    blob = p.read_bytes()
    p.write_bytes(blob[:-8])  # truncate one float
    with pytest.raises(SnapshotError, match="payload length mismatch"):
        read_snapshot(p)
    p.write_bytes(blob + b"\x00" * 4)
    with pytest.raises(SnapshotError, match="payload length mismatch"):
        read_snapshot(p)


def test_payload_one_byte_short(tmp_path):
    # the length is checked before any block is read
    f, b = make_field(n=101)
    p = tmp_path / "a.glc"
    write_snapshot(p, f, b)
    p.write_bytes(p.read_bytes()[:-1])
    with pytest.raises(SnapshotError, match="payload length mismatch: got 163215, want 163216"):
        read_snapshot(p)


def test_bad_magic_and_header(tmp_path):
    p = tmp_path / "a.glc"
    p.write_bytes(b"NOTGLC1{}\n")
    with pytest.raises(SnapshotError, match="magic"):
        read_snapshot(p)
    p.write_bytes(MAGIC + b"{not json}\n")
    with pytest.raises(SnapshotError, match="header"):
        read_snapshot(p)
    p.write_bytes(MAGIC + b"[1, 2]\n")  # JSON, but no object
    with pytest.raises(SnapshotError, match="bad header JSON"):
        read_snapshot(p)
    p.write_bytes(MAGIC + b'{"version": 1}\n')
    with pytest.raises(SnapshotError, match="missing key"):
        read_snapshot(p)


def test_twisted_round_trip_keeps_energy(tmp_path):
    b, N = 0.04, 4
    g = build_grid(trial_config(b, N))
    wrap = WrapRule(n=g.n, N=N, alpha=0.3, beta=-0.2)
    f = DiscreteField(u=build_trial(b, N, g).u, grid=g, wrap=wrap)
    p = tmp_path / "twisted.glc"
    write_snapshot(p, f, b)
    back, _ = read_snapshot(p)
    assert (back.wrap.alpha, back.wrap.beta) == (0.3, -0.2)
    assert energy(back, b).total == energy(f, b).total


def rewrite_header(path, edit):
    blob = path.read_bytes()
    nl = blob.index(b"\n")
    meta = json.loads(blob[len(MAGIC):nl].decode("ascii"))
    edit(meta)
    path.write_bytes(MAGIC + json.dumps(meta).encode("ascii") + blob[nl:])


def test_old_header_reads_untwisted(tmp_path):
    # files from before the twists were stored: no alpha/beta, "row-major" label
    f, b = make_field()
    p = tmp_path / "old.glc"
    write_snapshot(p, f, b)

    def old(meta):
        del meta["alpha"], meta["beta"]
        meta["layout"] = "row-major"

    rewrite_header(p, old)
    back, _ = read_snapshot(p)
    assert (back.wrap.alpha, back.wrap.beta) == (0.0, 0.0)
    assert np.array_equal(back.u, f.u)
    rewrite_header(p, lambda meta: meta.update(layout="j-fastest"))
    with pytest.raises(SnapshotError, match="layout"):
        read_snapshot(p)


# header values that used to be truncated (an N of 4.7 read as 4), parsed (a
# b of "0.25") or taken as they were (an N of true read as 1, a NaN twist)
@pytest.mark.parametrize("edit, message", [
    ({"N": True}, "header N must be an integer, got True"),
    ({"N": 4.7}, "header N must be an integer, got 4.7"),
    ({"n": 32.0}, "header n must be an integer, got 32.0"),
    ({"version": "1"}, "header version must be an integer, got '1'"),
    ({"b": "0.25"}, "header b must be a real number, got '0.25'"),
    ({"R": None}, "header R must be a real number, got None"),
    ({"alpha": float("nan")}, "header alpha must be finite, got nan"),
    ({"beta": float("-inf")}, "header beta must be finite, got -inf"),
    ({"version": 2}, "header version must be 1, got 2"),
])
def test_header_values_are_checked_not_converted(edit, message, tmp_path):
    f, b = make_field()
    p = tmp_path / "a.glc"
    write_snapshot(p, f, b)
    rewrite_header(p, lambda meta: meta.update(edit))
    with pytest.raises(SnapshotError) as info:
        read_snapshot(p)
    assert str(info.value) == message


def test_header_cell_is_checked_before_the_payload(tmp_path):
    # a negative n whose 16 n^2 matches the payload length used to reach numpy
    # and raise its "negative dimensions" ValueError
    p = tmp_path / "a.glc"
    header = {"version": 1, "R": math.sqrt(2.0 * math.pi), "n": -2, "b": 0.5, "N": 1}
    p.write_bytes(MAGIC + json.dumps(header).encode("ascii") + b"\n" + b"\x00" * 64)
    with pytest.raises(SnapshotError, match="header n must be >= 16, got -2"):
        read_snapshot(p)


def test_header_R_must_match_N(tmp_path):
    # R is sqrt(2 pi N): a header with another R used to read back silently
    f, b = make_field()
    p = tmp_path / "a.glc"
    write_snapshot(p, f, b)
    rewrite_header(p, lambda meta: meta.update(R=99.0))
    with pytest.raises(SnapshotError, match=r"header R=99.0 does not match"):
        read_snapshot(p)
    rewrite_header(p, lambda meta: meta.update(R=f.grid.R * (1.0 + 1e-13)))
    assert np.array_equal(read_snapshot(p)[0].u, f.u)
