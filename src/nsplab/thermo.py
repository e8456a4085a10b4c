"""Pressure laws, enthalpy, and the quadratic Taylor remainder of the
enthalpy around a background density."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .spectral import Field

__all__ = [
    "PressureLaw",
    "GammaLaw",
    "TabulatedLaw",
    "FluidParams",
    "remainder",
]


class PressureLaw:
    """Base class; subclasses provide p' and, for the quadrature remainder,
    h''."""

    def dp(self, z):
        raise NotImplementedError

    # h(z) = int_1^z p'(s)/s ds; default is adaptive quadrature per point.
    def h(self, z):
        from scipy.integrate import quad      # only tabulated laws need it
        z = np.asarray(z, dtype=float)
        flat = z.ravel()
        out = np.array([quad(lambda s: self.dp(s) / s, 1.0, zi)[0] for zi in flat])
        return out.reshape(z.shape) if z.shape else float(out[0])

    def h_prime(self, z):
        return self.dp(z) / z

    def h_second(self, z):
        raise NotImplementedError


@dataclass(frozen=True)
class GammaLaw(PressureLaw):
    """p(rho) = rho^gamma with gamma >= 1; closed-form enthalpy."""

    gamma: float = 2.0

    def __post_init__(self):
        if self.gamma < 1.0:
            raise ValueError("gamma must be >= 1")

    def dp(self, z):
        g = self.gamma
        return g * np.asarray(z, dtype=float) ** (g - 1.0)

    def h(self, z):
        z = np.asarray(z, dtype=float)
        g = self.gamma
        if g == 1.0:
            return np.log(z)
        return g / (g - 1.0) * (z ** (g - 1.0) - 1.0)

    def h_prime(self, z):
        return self.gamma * np.asarray(z, dtype=float) ** (self.gamma - 2.0)


@dataclass(frozen=True)
class TabulatedLaw(PressureLaw):
    """User-supplied smooth law given by callables for p' and p''."""

    dp_fn: object
    d2p_fn: object = None

    def dp(self, z):
        return self.dp_fn(np.asarray(z, dtype=float))

    def h_second(self, z):
        # h'(z) = p'(z)/z  =>  h''(z) = p''(z)/z - p'(z)/z^2
        if self.d2p_fn is None:
            raise ValueError("second derivative of pressure not supplied")
        z = np.asarray(z, dtype=float)
        return self.d2p_fn(z) / z - self.dp_fn(z) / z ** 2


@dataclass(frozen=True)
class FluidParams:
    """Pressure law, viscosities and reference density."""

    law: PressureLaw = dc_field(default_factory=GammaLaw)
    mu: float = 1.0
    mu_prime: float = 0.0
    rho_bar: float = 1.0

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("shear viscosity mu must be positive")
        if self.mu_prime + 2.0 * self.mu / 3.0 < 0:
            raise ValueError("viscosity condition mu' + 2 mu / 3 >= 0 violated")
        if not self.rho_bar > 0:
            raise ValueError("reference density must be positive")

    @property
    def nu(self):
        """Longitudinal kinematic viscosity (2 mu + mu') / rho_bar."""
        return (2.0 * self.mu + self.mu_prime) / self.rho_bar

    @property
    def h_prime_bar(self):
        return float(self.law.h_prime(self.rho_bar))


def _check_positive(z, what="density"):
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        idx = np.unravel_index(int(np.argmin(z)), z.shape) if z.ndim else ()
        raise ValueError(f"nonpositive {what} (min {z.min():.6g} at index {idx})")
    return z


@lru_cache(maxsize=1)
def _gauss_legendre16():
    """16-node Gauss-Legendre rule on [-1, 1], built on first use: only
    `TabulatedLaw` remainders need it, so `import nsplab` leaves
    numpy.polynomial unloaded."""
    from numpy.polynomial.legendre import leggauss
    return leggauss(16)


def _remainder_quadrature(law, rho_s, total):
    """16-node Gauss-Legendre for int_{rho_s}^{total} h''(s) (total - s) ds."""
    half = 0.5 * (total - rho_s)
    mid = 0.5 * (total + rho_s)
    acc = np.zeros_like(np.asarray(total, dtype=float))
    for x, w in zip(*_gauss_legendre16()):
        s = mid + half * x
        acc = acc + w * law.h_second(s) * (total - s)
    return half * acc


# |x| below which the binomial series is summed; its terms past x^16
# fall under 2^-53 of the x^2 term there.
_SERIES_X = 0.05
_SERIES_TERMS = 15
_SERIES_BLOCK = 2 ** 15     # points per block of Horner passes, in cache


def _remainder_gamma(gamma, rho_s, total):
    """Closed form of the remainder integral for gamma-law gases:

        R = gamma rho_s^p g(x),  g(x) = ((1 + x)^p - 1 - p x) / p,

    with p = gamma - 1 and x = total / rho_s - 1 (g = log1p(x) - x at
    p = 0).  g is O(x^2) while its terms are O(x), so for |x| < _SERIES_X
    it is summed as the binomial series sum_{j>=2} c_j x^j,
    c_2 = (p - 1) / 2, c_{j+1} = c_j (p - j) / (j + 1).  Beyond, the
    numerator is expm1(p L) - p x, L = log1p(x), or for p > 1/2, where that
    cancels as p -> 1, (1 + x) expm1((p - 1) L) - (p - 1) x.  At
    gamma = 2, R = 0, which `remainder` returns without this.
    """
    g = gamma
    p = g - 1.0
    rho_s = np.asarray(rho_s, dtype=float)
    x = np.asarray((total - rho_s) / rho_s, dtype=float)
    small = np.abs(x) < _SERIES_X
    everywhere = bool(small.all())     # as on a steady iterate: no scatter
    xs = x if everywhere else x[small]
    coeffs = [0.5 * (p - 1.0)]
    for j in range(2, _SERIES_TERMS + 1):
        coeffs.append(coeffs[-1] * (p - j) / (j + 1))
    acc = np.empty(np.shape(xs))
    x_flat, acc_flat = xs.reshape(-1), acc.reshape(-1)
    for i in range(0, acc.size, _SERIES_BLOCK):     # same bits as one block
        xk, ak = x_flat[i:i + _SERIES_BLOCK], acc_flat[i:i + _SERIES_BLOCK]
        ak.fill(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            ak *= xk
            ak += c
        ak *= xk
        ak *= xk
    if everywhere:
        return np.multiply(acc, g * rho_s ** p, out=acc)
    out = np.empty_like(x)
    out[small] = acc
    xb = x[~small]
    L = np.log1p(xb)
    if p == 0.0:
        out[~small] = L - xb
    elif p > 0.5:
        out[~small] = ((1.0 + xb) * np.expm1((p - 1.0) * L) - (p - 1.0) * xb) / p
    else:
        out[~small] = (np.expm1(p * L) - p * xb) / p
    return np.multiply(out, g * rho_s ** p, out=out)


def remainder(law: PressureLaw, pert: Field, rho_s: Field | float,
              total: np.ndarray | None = None) -> Field:
    """Second-order Taylor residue of h around rho_s (a field, or a
    constant density such as rho_bar):

        R = int_{rho_s}^{pert + rho_s} h''(s) (pert + rho_s - s) ds

    so that h(pert + rho_s) = h(rho_s) + h'(rho_s) pert + R exactly.
    Closed form for gamma laws, fixed-order Gauss quadrature otherwise.
    ``total``, pert + rho_s where the caller has formed it already, is read
    instead of forming it again; it is checked positive either way.  At
    gamma = 2, R = 0, and the values are a read-only zero view.
    """
    rho_s = rho_s.values if isinstance(rho_s, Field) else float(rho_s)
    if total is None:
        total = pert.values + rho_s
    _check_positive(total, "total density")
    if not isinstance(law, GammaLaw):
        vals = _remainder_quadrature(law, rho_s, total)
    elif law.gamma == 2.0:
        vals = np.broadcast_to(0.0, pert.values.shape)
    else:
        vals = _remainder_gamma(law.gamma, rho_s, total)
    return Field(pert.grid, vals)
