"""Full complex grid reference for the tests that check the real-FFT half
grid against it.

Coefficients are normalized as in `nsplab.spectral` (the raw FFT divided by
the number of grid points) and cover every mode (n, ..., n).  Returning to
the grid keeps the real part of `ifftn`, which drops the odd part of a
symbol at the Nyquist modes.
"""

import numpy as np
import scipy.fft

from nsplab.spectral import Field


def _axes(grid):
    return tuple(range(-grid.dim, 0))


def spectrum(f: Field) -> np.ndarray:
    return scipy.fft.fftn(f.values, axes=_axes(f.grid), norm="forward")


def physical(grid, spec) -> Field:
    vals = scipy.fft.ifftn(spec, axes=_axes(grid), norm="forward")
    return Field(grid, np.ascontiguousarray(vals.real))


def mode_numbers(grid) -> np.ndarray:
    """Integer mode numbers m per axis, shape (dim, n, ..., n)."""
    return np.stack(np.meshgrid(*[grid.mode_axis()] * grid.dim, indexing="ij"))


def stacked(factors) -> np.ndarray:
    """A `RealLayout` symbol's per-axis factors as one (dim, ...) stack."""
    return np.stack(np.broadcast_arrays(*factors))


def wavevectors(grid) -> np.ndarray:
    """k = (2 pi / L) m, shape (dim, n, ..., n)."""
    return (2.0 * np.pi / grid.length) * mode_numbers(grid)


def wavenumber_magnitude(grid) -> np.ndarray:
    k = wavevectors(grid)
    return np.sqrt(np.sum(k * k, axis=0))


def gradient(f: Field) -> Field:
    k, spec = wavevectors(f.grid), spectrum(f)
    return physical(f.grid, np.stack([1j * k[a] * spec
                                      for a in range(f.grid.dim)]))


def divergence(f: Field) -> Field:
    k, spec = wavevectors(f.grid), spectrum(f)
    return physical(f.grid, sum(1j * k[a] * spec[a]
                                for a in range(f.grid.dim)))


def laplacian(f: Field) -> Field:
    return physical(f.grid, -wavenumber_magnitude(f.grid) ** 2 * spectrum(f))


def poisson_gradient(f: Field) -> Field:
    """grad Delta^{-1} f, the zero mode projected out."""
    k, k2 = wavevectors(f.grid), wavenumber_magnitude(f.grid) ** 2
    with np.errstate(divide="ignore"):
        base = np.where(k2 > 0, -1.0 / k2, 0.0)
    spec = spectrum(f)
    return physical(f.grid, np.stack([1j * k[a] * base * spec
                                      for a in range(f.grid.dim)]))
