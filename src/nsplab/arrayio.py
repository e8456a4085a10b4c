"""Self-describing binary container for gridded fields.

Byte layout (little-endian throughout):

    offset  size  content
    0       8     magic  b"NSPFIELD"
    8       4     u32    format version (currently 1)
    12      4     u32    dim (1, 2 or 3)
    16      4     u32    ncomp (1 for scalar, dim for vector fields)
    20      4     u32    n, grid points per axis
    24      8     f64    L, box length
    32      --    f64    payload, ncomp * n^dim values, C (row-major) order,
                         component index slowest

Readers must reject unknown magic or version, an ncomp other than 1 or
dim, and bytes after the payload.
"""

from __future__ import annotations

import struct

import numpy as np

from .spectral import Field, Grid

MAGIC = b"NSPFIELD"
VERSION = 1
_HEADER = struct.Struct("<8sIIIId")


def write_field(path, f: Field) -> None:
    g = f.grid
    header = _HEADER.pack(MAGIC, VERSION, g.dim, f.ncomp, g.n, g.length)
    payload = np.ascontiguousarray(f.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def read_field(path) -> Field:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, dim, ncomp, n, length = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        if ncomp not in (1, dim):
            raise ValueError(f"{path}: ncomp {ncomp} is neither 1 nor dim {dim}")
        grid = Grid(dim=dim, n=n, length=length)
        count = ncomp * grid.npoints
        raw = fh.read(8 * count)
        if len(raw) != 8 * count:
            raise ValueError(f"{path}: truncated payload")
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the payload")
        data = np.frombuffer(raw, dtype="<f8", count=count)
    shape = grid.shape if ncomp == 1 else (ncomp,) + grid.shape
    return Field(grid, data.reshape(shape).astype(np.float64))
