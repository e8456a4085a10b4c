import struct

import numpy as np
import pytest

from nsplab.arrayio import MAGIC, VERSION, read_field, write_field
from nsplab.spectral import Field, Grid


def test_scalar_roundtrip(tmp_path):
    grid = Grid(dim=3, n=8, length=3.5)
    rng = np.random.default_rng(0)
    f = Field(grid, rng.normal(size=grid.shape))
    path = tmp_path / "f.nspf"
    write_field(path, f)
    g = read_field(path)
    assert g.grid == grid
    np.testing.assert_array_equal(g.values, f.values)


def test_vector_roundtrip(tmp_path):
    grid = Grid(dim=2, n=16)
    rng = np.random.default_rng(1)
    f = Field(grid, rng.normal(size=(2,) + grid.shape))
    path = tmp_path / "v.nspf"
    write_field(path, f)
    g = read_field(path)
    assert g.is_vector and g.ncomp == 2
    np.testing.assert_array_equal(g.values, f.values)


def test_header_layout(tmp_path):
    grid = Grid(dim=2, n=8, length=2.0)
    f = Field(grid, np.zeros(grid.shape))
    path = tmp_path / "h.nspf"
    write_field(path, f)
    raw = path.read_bytes()
    magic, version, dim, ncomp, n, length = struct.unpack("<8sIIIId", raw[:32])
    assert magic == MAGIC == b"NSPFIELD"
    assert version == VERSION == 1
    assert (dim, ncomp, n) == (2, 1, 8)
    assert length == 2.0
    assert len(raw) == 32 + 8 * grid.npoints


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.nspf"
    path.write_bytes(b"WRONGMAG" + b"\0" * 100)
    with pytest.raises(ValueError, match="magic"):
        read_field(path)


def test_rejects_bad_version(tmp_path):
    grid = Grid(dim=1, n=8)
    path = tmp_path / "v2.nspf"
    write_field(path, Field(grid, np.zeros(grid.shape)))
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        read_field(path)


def test_rejects_truncated_payload(tmp_path):
    grid = Grid(dim=1, n=8)
    path = tmp_path / "t.nspf"
    write_field(path, Field(grid, np.zeros(grid.shape)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_field(path)


def test_rejects_bad_component_count(tmp_path):
    grid = Grid(dim=3, n=8)
    path = tmp_path / "c.nspf"
    header = struct.pack("<8sIIIId", MAGIC, VERSION, 3, 2, 8, grid.length)
    path.write_bytes(header + np.zeros(2 * grid.npoints).tobytes())
    with pytest.raises(ValueError, match="ncomp 2") as err:
        read_field(path)
    assert str(path) in str(err.value)


def test_rejects_trailing_bytes(tmp_path):
    grid = Grid(dim=3, n=8)
    path = tmp_path / "j.nspf"
    write_field(path, Field(grid, np.zeros(grid.shape)))
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(ValueError, match="trailing bytes") as err:
        read_field(path)
    assert str(path) in str(err.value)
