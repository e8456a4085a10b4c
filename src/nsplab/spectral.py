"""Periodic pseudo-spectral toolkit: grids, fields, Fourier multipliers, norms.

All fields live on the uniform torus [0, L)^dim.  Spectra are stored as the
Fourier-series coefficients c_k with f(x) = sum_k c_k exp(i k.x), i.e. the
raw FFT divided by the number of grid points, so that the L^2 Parseval
identity reads ||f||^2 = L^dim * sum |c_k|^2.

One layout is used, and this module is the only one that knows it: the
real-FFT half grid (n, ..., n, n/2 + 1) of `transform`/`inverse_transform`
and `Field.coefficients()`, whose symbols are `real_layout`'s (``ik`` and
``k_nyquist`` as per-axis factors that broadcast against it).  The
multipliers, the norms and the time integrator all work there.  Every
transform goes through `numpy.fft` (numpy >= 2.0, for ``out=``), in
scipy's `rfftn`/`irfftn` pass order and so with its bits; `np.fft` loads
on the first transform, so `import nsplab` loads neither it nor scipy.

`transform`, `inverse_transform` and `dealias` split a batch of fields
(a leading axis of at least 2) of more than `_SPLIT_POINTS` sample points
in all, when the process may run on at least 2 CPUs (its affinity, or
`os.cpu_count()` where the OS has none), between the calling
thread, which takes the first ceil(F/2) fields, and one helper thread,
started on the first split, which takes the rest.  Each half runs the
same passes as the whole batch, and pocketfft transforms each 1-D line
on its own, so a split output has the bits of the unsplit one.  A caller
that finds the helper in use by another thread runs its batch whole; one
interrupted while it waits raises the interrupt once the helper is done.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache, reduce
from math import isclose, prod
import os
import threading

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "MeanZeroError",
    "RealLayout",
    "transform",
    "inverse_transform",
    "real_layout",
    "frac_derivative",
    "gradient",
    "divergence",
    "laplacian",
    "inverse_laplacian",
    "lp_norm",
    "grad_norm",
    "sobolev_norm",
    "coeff_norm",
    "gn_interpolation_check",
    "dealias",
]


class MeanZeroError(ValueError):
    """Raised when a singular multiplier or negative-order norm meets a
    field with a nonzero mean."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the torus [0, L)^dim with n points per axis."""

    dim: int
    n: int
    length: float = 2.0 * np.pi

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.n < 8 or self.n % 2 != 0 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not self.length > 0:
            raise ValueError("box length must be positive")

    @property
    def shape(self):
        return (self.n,) * self.dim

    @property
    def dx(self):
        return self.length / self.n

    @property
    def npoints(self):
        return self.n ** self.dim

    @property
    def cell_volume(self):
        return self.dx ** self.dim

    def axes(self):
        """Physical coordinates along one axis."""
        return np.arange(self.n) * self.dx

    def mode_axis(self):
        """Integer mode numbers m along one axis, in FFT order."""
        m = np.arange(self.n, dtype=float)      # scipy.fft.fftfreq(n, 1/n)
        m[self.n // 2:] -= self.n
        return m


@dataclass(frozen=True)
class RealLayout:
    """Symbols on the real-FFT half grid of `transform`.

    The last axis holds modes 0..n/2; its entry n/2 and every entry with
    |m_a| = n/2 on another axis is a Nyquist mode, whose partner -m is the
    mode itself.  A real field keeps only the even part of a symbol there,
    so ``ik`` holds i k with those entries zeroed, and ``k_nyquist`` the
    components it dropped: an even product k_a k_b survives as
    k0_a k0_b + kN_a kN_b, with k0 = ik / i.  Component a of each varies
    along axis a only and is kept as that factor, of shape (1, ..., n_a,
    ..., 1) with n_a = n, or n/2 + 1 on the last axis, which broadcasts
    against a half-grid scalar; ``kmag`` and ``mask`` are dense.
    """

    ik: tuple                 # per-axis factors; zero at Nyquist entries
    k_nyquist: tuple          # k - ik / i, nonzero only at Nyquist entries
    kmag: np.ndarray          # |k|, (n, ..., n, n/2 + 1)
    mask: np.ndarray          # 2/3 rule: |m_a| <= n/3 on every axis

    @cached_property
    def nyquist(self):
        """Per axis a, the index of its Nyquist plane |m_a| = n/2 in a
        half-grid scalar, the only entries where ``k_nyquist[a]`` is
        nonzero, and the ``k_nyquist`` components on that plane, stacked."""
        shape, half = self.kmag.shape, self.kmag.shape[-1] - 1    # n/2
        planes = [(slice(None),) * a + (half,) for a in range(len(shape))]
        return [(p, np.stack([np.broadcast_to(k, shape)[p]
                              for k in self.k_nyquist])) for p in planes]


@lru_cache(maxsize=32)
def real_layout(grid: Grid) -> RealLayout:
    """The half-grid symbols of ``grid`` (see `RealLayout`), cached; each
    is built from the 1-D mode numbers of an axis."""
    n, m = grid.n, grid.mode_axis()
    m = np.ix_(*[m] * (grid.dim - 1), m[: n // 2 + 1])     # per-axis factors
    k = [(2.0 * np.pi / grid.length) * ma for ma in m]
    k_nyq = tuple(np.where(abs(ma) == n // 2, ka, 0.0) for ma, ka in zip(m, k))
    lay = RealLayout(
        ik=tuple(1j * (ka - kn) for ka, kn in zip(k, k_nyq)), k_nyquist=k_nyq,
        kmag=np.sqrt(reduce(np.add, [ka * ka for ka in k])),
        mask=np.all(np.broadcast_arrays(*[np.abs(ma) <= n / 3.0 for ma in m]),
                    axis=0))
    for a in (*lay.ik, *lay.k_nyquist, lay.kmag, lay.mask):
        a.flags.writeable = False       # shared by every caller
    return lay


@dataclass
class Field:
    """Real scalar or vector samples on a grid.

    Vector fields carry the component axis first: values.shape is either
    grid.shape or (ncomp,) + grid.shape.  The real-layout coefficients are
    cached lazily.
    """

    grid: Grid
    values: np.ndarray
    _coeffs: np.ndarray | None = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        shape, grid = self.values.shape, self.grid
        if shape not in (grid.shape, shape[:1] + grid.shape):   # scalar, vector
            raise ValueError(f"values shape {shape} incompatible with grid "
                             f"shape {grid.shape}")

    @property
    def is_vector(self):
        return self.values.ndim == self.grid.dim + 1

    @property
    def ncomp(self):
        return self.values.shape[0] if self.is_vector else 1

    def coefficients(self):
        """Real-layout (`transform`) coefficients."""
        if self._coeffs is None:
            if not np.all(np.isfinite(self.values)):
                raise ValueError("non-finite values in field")
            self._coeffs = transform(self.grid, self.values)
        return self._coeffs

    def mean(self):
        if self.is_vector:
            return self.values.reshape(self.ncomp, -1).mean(axis=1)
        return float(self.values.mean())


# Sample points above which a batch is split: on a 2-vCPU host 4 x 128^2
# and 2 x 32^3 (2^16 each) ran slower split, 4 x 32^3 and 7 x 32^3 faster;
# waking the helper and moving its half between the cores cost 0.1-0.3 ms.
# `nsplab verify` (batches of up to 4 x 16^3) took a median 20.6 s of wall
# time with this bound and 22.2 s splitting every batch (10 alternating
# runs each, 7 faster with the bound).
_SPLIT_POINTS = 2 ** 16


class _Helper:
    """The helper thread that transforms the last fields of a split batch,
    started on first use.  ``busy`` is held by the one caller it serves."""

    def __init__(self):
        import queue    # only where a batch is split
        self.busy = threading.Lock()
        self._jobs, self._done = queue.SimpleQueue(), queue.SimpleQueue()
        self._posted = self._finished = 0
        self._error = None
        self._thread = threading.Thread(target=self._serve, daemon=True,
                                        name="nsplab.spectral helper")
        self._thread.start()

    def _serve(self):
        while True:
            job = self._jobs.get()
            try:
                job()
            except BaseException as exc:    # raised again by the caller
                self._error = exc
            job = None                      # it holds views of the batch
            self._finished += 1
            self._done.put(None)

    def run(self, job, own):
        """job() on the helper while own() runs here; waits for job, also
        if own raises or interrupts arrive meanwhile, then raises job's
        error, if any, else the first interrupt."""
        self._error, self._posted = None, self._posted + 1
        try:
            self._jobs.put(job)
            own()
        finally:
            # `_finished`, not a get, tells that the job is done, since an
            # interrupt may land after a get returns; puts of counted jobs
            # are drained here, or by the next wait if not yet made
            interrupt = None
            while self._finished != self._posted or not self._done.empty():
                try:
                    self._done.get()
                except BaseException as exc:
                    interrupt = interrupt or exc
            error, self._error = self._error, None
            if error is not None:
                raise error
            if interrupt is not None:
                raise interrupt


_helper, _helper_lock = None, threading.Lock()


def _get_helper():
    global _helper
    with _helper_lock:
        if _helper is None:
            _helper = _Helper()
        return _helper


def _forget_helper():
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):     # a forked child has no helper thread
    os.register_at_fork(after_in_child=_forget_helper)


def _cpus():
    """CPUs the process may run on (all of them without an affinity call)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _by_fields(grid, fn, *arrays):
    """fn(grid, *arrays), which returns its output, the last array, split
    by fields (the first axis) between this thread and the helper where
    that pays: a batch of at least 2 fields of more than `_SPLIT_POINTS`
    points in all, at least 2 CPUs for the process, and the helper not
    serving another thread."""
    lead = arrays[0].shape[:arrays[0].ndim - grid.dim]
    if (len(lead) == 0 or lead[0] < 2
            or prod(lead) * grid.npoints <= _SPLIT_POINTS or _cpus() < 2):
        return fn(grid, *arrays)
    helper = _get_helper()
    if not helper.busy.acquire(blocking=False):
        return fn(grid, *arrays)
    h = (lead[0] + 1) // 2
    try:
        helper.run(lambda: fn(grid, *[a[h:] for a in arrays]),
                   lambda: fn(grid, *[a[:h] for a in arrays]))
    finally:
        helper.busy.release()
    return arrays[-1]


def _half_grid(grid, values):
    return np.empty(values.shape[:-1] + (grid.n // 2 + 1,), dtype=complex)


def _transform(grid, values, c):
    np.fft.rfft(values, axis=-1, norm="forward", out=c)
    for axis in range(-grid.dim, -1):
        np.fft.fft(c, axis=axis, norm="forward", out=c)
    return c


def transform(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Real-layout coefficients of real samples, normalized by 1/n^dim, per
    leading index (vector components, stacked fields): an `rfft` on the last
    axis, then an in-place c2c pass per other axis, first to last, as in
    scipy's `rfftn` (`numpy.fft.rfftn` goes last to first, other bits)."""
    return _by_fields(grid, _transform, values, _half_grid(grid, values))


def _inverse(grid, coeffs, out):
    for axis in range(-grid.dim, -1):
        np.fft.ifft(coeffs, axis=axis, norm="forward", out=coeffs)
    return np.fft.irfft(coeffs, n=grid.n, axis=-1, norm="forward", out=out)


def inverse_transform(grid: Grid, coeffs: np.ndarray, overwrite: bool = False,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Real samples from real-layout coefficients (inverse of `transform`):
    an in-place `ifft` per leading axis, first to last, then a last-axis
    `irfft` into ``out`` or a fresh array, scipy's `irfftn` passes and bits.
    Without ``overwrite`` the passes run on a copy (a pass into another
    array is slower than a copy and a pass in place); the steady iterate,
    kept as `SteadyState.f`'s coefficients, is inverted so."""
    if not overwrite:
        coeffs = coeffs.copy()
    if out is None and coeffs.ndim > grid.dim:
        # a split writes into halves of out; a scalar's irfft allocates it
        # after the passes (before them, steady-64 read 2-4% slower)
        out = np.empty(coeffs.shape[:-1] + (grid.n,))
    return _by_fields(grid, _inverse, coeffs, out)


def _require_mean_zero(f, what):
    scale = float(np.max(np.abs(f.values))) or 1.0
    mean = np.atleast_1d(f.mean())
    if np.any(np.abs(mean) > 1e-13 * scale):
        raise MeanZeroError(f"mean-zero required for {what}")


def _apply(f: Field, sym, contract=False) -> Field:
    """The field whose coefficients are f's times the half-grid symbol
    ``sym`` (component a times ``sym[a]`` for per-axis factors), summed over
    the component axis with ``contract``; the product is a temporary,
    inverted in place."""
    c = f.coefficients()
    if isinstance(sym, tuple):
        hat = np.empty((len(sym),) + c.shape[-f.grid.dim:], dtype=complex)
        for a, s in enumerate(sym):
            np.multiply(c[a] if f.is_vector else c, s, out=hat[a])
    else:
        hat = c * sym
    if contract:
        hat = hat.sum(axis=0)
    return Field(f.grid, inverse_transform(f.grid, hat, overwrite=True))


def frac_derivative(f: Field, ell: float) -> Field:
    """|k|^ell multiplier; for ell < 0 requires a mean-zero field."""
    if ell < 0:
        _require_mean_zero(f, f"negative-order derivative |k|^{ell}")
    with np.errstate(divide="ignore"):
        sym = real_layout(f.grid).kmag ** ell
    if ell < 0:
        sym[(0,) * f.grid.dim] = 0.0
    return _apply(f, sym)


def gradient(f: Field) -> Field:
    """Exact spectral gradient; scalar -> vector field."""
    if f.is_vector:
        raise ValueError("gradient of a vector field not supported; use per component")
    return _apply(f, real_layout(f.grid).ik)


def divergence(f: Field) -> Field:
    if not f.is_vector or f.ncomp != f.grid.dim:
        raise ValueError("divergence needs a dim-component vector field")
    return _apply(f, real_layout(f.grid).ik, contract=True)


def laplacian(f: Field) -> Field:
    return _apply(f, -real_layout(f.grid).kmag ** 2)


def inverse_laplacian(f: Field) -> Field:
    """Delta^{-1} on mean-zero fields (zero mode projected out)."""
    _require_mean_zero(f, "inverse Laplacian")
    with np.errstate(divide="ignore"):
        sym = -1.0 / real_layout(f.grid).kmag ** 2
    sym[(0,) * f.grid.dim] = 0.0
    return _apply(f, sym)


def lp_norm(f: Field, p: float) -> float:
    """L^p norm by equal-weight grid quadrature; p may be inf."""
    v = f.values
    mag = np.square(v[0]) if f.is_vector else np.abs(v)
    if f.is_vector:         # one square at a time: no vector temporary
        for c in v[1:]:
            mag += np.square(c)
        np.sqrt(mag, out=mag)
    if np.isinf(p):
        return float(mag.max())
    if p < 1:
        raise ValueError("p must be >= 1")
    return float((np.sum(np.power(mag, p, out=mag)) * f.grid.cell_volume)
                 ** (1.0 / p))


@lru_cache(maxsize=32)
def _sobolev_weight(grid, k, base):
    """sum_{j<=k} |k|^{2 (base + j)} on the real layout, times 2 where the
    half grid omits the partner -m of a mode; the zero mode counts only in
    a term of order 0.  Flat, each entry twice: it weighs the interleaved
    real and imaginary parts of the coefficients."""
    kmag = real_layout(grid).kmag
    w = np.zeros_like(kmag)
    for j in range(k + 1):
        ell = base + j
        if ell == 0:
            w += 1.0
            continue
        with np.errstate(divide="ignore"):
            term = kmag ** (2.0 * ell)
        term[(0,) * grid.dim] = 0.0
        w += term
    w[..., 1:grid.n // 2] *= 2.0
    w = np.repeat(w.ravel(), 2)
    w.flags.writeable = False
    return w


def coeff_norm(grid: Grid, coeffs: np.ndarray, k: int = 0,
               base_order: float = 0.0) -> float:
    """`sobolev_norm` read from real-layout coefficients (leading axes are
    components) with no transform; for base_order < 0 the zero mode is
    left out."""
    w = _sobolev_weight(grid, int(k), float(base_order))
    v = np.ascontiguousarray(coeffs).view(np.float64).reshape(-1, w.size)
    # einsum, not a BLAS dot: the same bits whatever the thread count
    return float(np.sqrt(grid.length ** grid.dim
                         * np.einsum("ij,ij,j->", v, v, w)))


def _field_norm(f: Field, k: int, base: float) -> float:
    if base < 0:
        _require_mean_zero(f, f"norm of order {base}")
    return coeff_norm(f.grid, f.coefficients(), k, base)


def grad_norm(f: Field, ell: float) -> float:
    """||nabla^ell f||_{L^2} in multiplier form (ell real, possibly negative)."""
    return _field_norm(f, 0, ell)


def sobolev_norm(f: Field, k: int, base_order: float = 0.0) -> float:
    """||nabla^base_order f||_{H^k} = (sum_{j<=k} ||nabla^{base_order+j} f||^2)^{1/2}."""
    if k < 0 or k != int(k):
        raise ValueError("sobolev index must be a nonnegative integer")
    return _field_norm(f, k, base_order)


def gn_interpolation_check(f: Field, alpha: float, beta: float, gamma: float):
    """Check the L^2 multiplier form of the Sobolev interpolation inequality.

    Returns (holds, ratio) where ratio = ||D^alpha f|| / (||D^beta f||^(1-theta)
    * ||D^gamma f||^theta), theta = (alpha - beta) / (gamma - beta).  In
    multiplier form the inequality holds with constant 1 by Hoelder on the
    mode sum.
    """
    if isclose(beta, gamma):
        if not isclose(alpha, beta):
            raise ValueError("invalid interpolation triple")
        theta = 0.0
    else:
        theta = (alpha - beta) / (gamma - beta)
    if theta < -1e-12 or theta > 1.0 + 1e-12:
        raise ValueError("invalid interpolation triple")
    theta = min(max(theta, 0.0), 1.0)
    lhs = grad_norm(f, alpha)
    rhs = grad_norm(f, beta) ** (1.0 - theta) * grad_norm(f, gamma) ** theta
    if rhs == 0.0:
        return True, 1.0 if lhs == 0.0 else np.inf
    ratio = lhs / rhs
    return ratio <= 1.0 + 1e-12, float(ratio)


def _dealias(grid, values, c):
    dim, n, k = grid.dim, grid.n, grid.n // 3
    np.fft.rfft(values, axis=-1, norm="forward", out=c)
    blocks = [c]
    for axis in range(-dim, -1):
        for rows in blocks:
            np.fft.fft(rows, axis=axis, norm="forward", out=rows)
        after = (slice(None),) * (-axis - 1)
        c[(Ellipsis, slice(k + 1, n - k)) + after] = 0.0
        blocks = [b[(Ellipsis, part) + after[1:] + (slice(k + 1),)]
                  for b in blocks for part in (slice(k + 1), slice(n - k, n))]
    c[..., k + 1:] = 0.0
    return c


def dealias(f: Field, out: np.ndarray | None = None, coefficients=False):
    """Truncate a field to the 2/3-rule ball |m_a| <= n/3, transforming
    little beyond it: an `rfft` on the last axis, then an in-place c2c pass
    per other axis, first to last, the first over every column (numpy then
    runs one stretch of lines per field), the others over the ball's n/3 + 1
    columns and rows (0..n/3 and n - n/3..n - 1) of the axes done.  That is
    `transform`'s pass order, so this is ``transform(...) * mask`` bit for
    bit.  The coefficients go into ``out`` (real layout), or with
    ``coefficients`` stay in the `rfft`'s output; else they are inverted in
    place."""
    c = _by_fields(f.grid, _dealias, f.values,
                   _half_grid(f.grid, f.values) if out is None else out)
    if out is not None or coefficients:
        return c
    return Field(f.grid, inverse_transform(f.grid, c, overwrite=True))
