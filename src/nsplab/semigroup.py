"""Exact per-wavenumber evolution of the constant-coefficient linearized
system and whole-space radial quadrature of its decay curves.

After a Hodge split, a Fourier mode of the linearized system reduces to a
2x2 block acting on (density, longitudinal velocity) plus an independent
scalar heat factor on the transverse velocity.  With xi = |k|, d the
longitudinal amplitude, hb = h'(rho_bar) and nu = (2 mu + mu') / rho_bar,
the block generator of the decaying flow d/dt (rho, d) = B (rho, d) is

    B(xi) = [[0,              -rho_bar xi ],
             [hb xi + 1/xi,   -nu xi^2    ]],

whose eigenvalues solve lambda^2 + nu xi^2 lambda + rho_bar (1 + hb xi^2) = 0.
The evolution matrix e^{tB} is the mode semigroup.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .thermo import FluidParams

__all__ = [
    "ModeSymbol",
    "LinearDecayQuery",
    "QuadratureError",
    "FitResult",
    "mode_exponential",
    "expm2",
    "hodge_evolve",
    "assemble_full_symbol",
    "evolve_full_symbol",
    "initial_profile",
    "decay_curve",
    "shared_exponentials",
    "fit_exponent",
]


class QuadratureError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModeSymbol:
    """Per-wavenumber data of the linear operator after Hodge splitting.

    ``xi`` is one wavenumber or an array of them; every block and
    exponential then carries its shape in front of the trailing (2, 2).
    """

    xi: float | np.ndarray
    rho_bar: float
    h_prime_bar: float
    nu: float                  # (2 mu + mu') / rho_bar
    mu_over_rho: float         # mu / rho_bar

    def __post_init__(self):
        if not np.all(np.asarray(self.xi) > 0):
            raise ValueError("xi must be positive")

    @classmethod
    def from_params(cls, params: FluidParams, xi) -> "ModeSymbol":
        return cls(xi, *cls.fluid_scalars(params))

    @staticmethod
    def fluid_scalars(params: FluidParams) -> tuple:
        """Every field but xi, in field order: (rho_bar, h_prime_bar, nu,
        mu_over_rho)."""
        return (params.rho_bar, params.h_prime_bar, params.nu,
                params.mu / params.rho_bar)

    @property
    def normalized_block(self) -> np.ndarray:
        """Generator on (rho_hat / xi, d): the well-conditioned form

            [[0,                  -rho_bar   ],
             [1 + hb xi^2,        -nu xi^2   ]],

        whose entries stay O(1) as xi -> 0."""
        xi2 = np.square(self.xi)
        B = np.zeros(np.shape(xi2) + (2, 2))
        B[..., 0, 1] = -self.rho_bar
        B[..., 1, 0] = 1.0 + self.h_prime_bar * xi2
        B[..., 1, 1] = -self.nu * xi2
        return B

    @property
    def block(self) -> np.ndarray:
        """Generator on (rho_hat, d) (see module docstring): the similarity
        D B D^{-1} of the normalized block, D = diag(xi, 1)."""
        return _unnormalize(self.normalized_block, self.xi)

    @property
    def incompressible_rate(self):
        return self.mu_over_rho * np.square(self.xi)


def _unnormalize(B, xi):
    """D B D^{-1} with D = diag(xi, 1), in place."""
    B[..., 0, 1] *= xi
    B[..., 1, 0] /= xi
    return B


def expm2(M, t) -> np.ndarray:
    """Exact exponential exp(t M) of real 2x2 matrices.

    M has shape (..., 2, 2) and t broadcasts against M's leading shape
    (...); the result has the broadcast leading shape followed by (2, 2).
    A plain 2x2 M with a scalar t gives a 2x2 array.

    With m = tr M / 2 and delta = ((a - d) / 2)^2 + b c (the discriminant,
    formed without the m^2 - det cancellation), exp(t M) = C I + S (M - m I):

      delta < 0:             C = e^{mt} cos(st),  S = e^{mt} sin(st) / s,
      delta >= 0, |st| <= 1: C = e^{mt} cosh(st), S = e^{mt} sinh(st) / s
                             (e^{mt} t at s = 0),
      delta >= 0, |st| > 1:  each eigenvalue m +/- s exponentiated on its
                             own, so a strongly damped branch underflows
                             instead of overflowing,

    with s = sqrt(|delta|).  C and S are entire in delta, so the formula
    stays accurate through the eigenvalue collision delta = 0 with no
    series fallback.  Branches are evaluated in place on masks, inside the
    result array, so a batched call needs no temporaries of its size.
    """
    M = np.asarray(M, dtype=float)
    t = np.asarray(t, dtype=float)
    a, b, c, d = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
    m = 0.5 * (a + d)
    h = 0.5 * (a - d)
    delta = h * h + b * c
    s = np.sqrt(np.abs(delta))
    # eigenvalues m +/- s for delta >= 0: the larger in magnitude directly,
    # the smaller from the product det = lam_big lam_small, free of cancellation
    sgn = np.copysign(1.0, m)
    lam_big = m + sgn * s
    lam_small = np.divide(a * d - b * c, lam_big,
                          out=np.zeros_like(m), where=lam_big != 0.0)
    sgn_over_2s = np.divide(sgn, 2.0 * s, out=np.zeros_like(m), where=s > 0.0)

    shape = np.broadcast_shapes(m.shape, t.shape)
    E = np.empty(shape + (2, 2))
    # C, S and a scratch array x live in slots of the result until the end
    C, x, S, E11 = E[..., 0, 0], E[..., 0, 1], E[..., 1, 0], E[..., 1, 1]
    np.multiply(s, t, out=x)
    osc = np.broadcast_to(delta < 0.0, shape)
    far = (x > 1.0) | (x < -1.0)
    far &= ~osc
    near = ~(osc | far)
    mid = ~far

    # delta < 0 and the near branch: C = e^{mt} cos|cosh(x),
    # S = e^{mt} sin|sinh(x) / s, with x = st
    np.multiply(m, t, out=C)
    np.exp(C, out=C, where=mid)
    np.sin(x, out=S, where=osc)
    np.sinh(x, out=S, where=near)
    np.divide(S, s, out=S, where=mid & (s > 0.0))
    np.copyto(S, t, where=s == 0.0)
    np.multiply(S, C, out=S, where=mid)
    np.cos(x, out=x, where=osc)
    np.cosh(x, out=x, where=near)
    np.multiply(C, x, out=C, where=mid)

    # far branch: C = (e^{lam+ t} + e^{lam- t}) / 2, S = (e^{lam+ t} - e^{lam- t}) / 2s
    np.multiply(lam_big, t, out=C, where=far)
    np.exp(C, out=C, where=far)                 # e^{lam_big t}
    np.multiply(lam_small, t, out=S, where=far)
    np.exp(S, out=S, where=far)                 # e^{lam_small t}
    np.subtract(C, S, out=x, where=far)
    np.add(C, S, out=C, where=far)
    np.multiply(C, 0.5, out=C, where=far)
    np.multiply(x, sgn_over_2s, out=S, where=far)

    # E = C I + S (M - m I), with M - m I = [[h, b], [c, -h]]
    np.multiply(S, h, out=x)
    np.subtract(C, x, out=E11)
    np.add(C, x, out=C)
    np.multiply(S, b, out=x)
    np.multiply(S, c, out=S)
    return E


def mode_exponential(sym: ModeSymbol, t):
    """Mode semigroup at time(s) t: (compressible 2x2 matrices on
    (rho_hat, d), transverse heat factors).  t broadcasts against sym.xi."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    E = _unnormalize(expm2(sym.normalized_block, t), sym.xi)
    heat = np.exp(-sym.incompressible_rate * t)
    return E, heat


def hodge_evolve(E, heat, khat, rho_hat, u_hat):
    """Apply the Hodge-split mode semigroup to (rho_hat, u_hat).

    The longitudinal amplitude d = i khat . u_hat evolves with rho_hat
    through the 2x2 matrices E; the transverse velocity decays by the heat
    factor.  khat and u_hat carry the vector index first; E, heat and
    rho_hat are per mode.  Works for one mode or a whole grid.
    """
    proj = sum(khat[a] * u_hat[a] for a in range(len(khat)))
    dlong = 1j * proj                  # Lambda^{-1} div u amplitude
    rho_new = E[..., 0, 0] * rho_hat + E[..., 0, 1] * dlong
    d_new = -1j * (E[..., 1, 0] * rho_hat + E[..., 1, 1] * dlong)
    # one component at a time, so no temporary holds a whole vector
    u_new = np.empty(np.shape(u_hat), dtype=complex)
    for a in range(len(khat)):
        u_new[a] = d_new * khat[a] + heat * (u_hat[a] - proj * khat[a])
    return rho_new, u_new


def assemble_full_symbol(params: FluidParams, kvec) -> np.ndarray:
    """Unsplit (1+d) x (1+d) Fourier symbol A(k) of the linear operator,
    acting on (rho_hat, u_hat); the evolution is exp(-t A)."""
    k = np.asarray(kvec, dtype=float)
    d = k.size
    k2 = float(k @ k)
    if k2 == 0.0:
        raise ValueError("full symbol undefined at k = 0 (Poisson term)")
    rb, hb = params.rho_bar, params.h_prime_bar
    A = np.zeros((1 + d, 1 + d), dtype=complex)
    A[0, 1:] = rb * 1j * k
    A[1:, 0] = 1j * k * (hb + 1.0 / k2)
    A[1:, 1:] = (params.mu * k2 * np.eye(d)
                 + (params.mu + params.mu_prime) * np.outer(k, k)) / rb
    return A


def evolve_full_symbol(params: FluidParams, kvec, t: float, state0):
    """Oracle evolution of one Fourier mode via the dense matrix exponential."""
    from scipy.linalg import expm
    A = assemble_full_symbol(params, kvec)
    return expm(-t * A) @ np.asarray(state0, dtype=complex)


def split_evolve_mode(params: FluidParams, kvec, t: float, state0):
    """Evolve (rho_hat, u_hat) for one mode through the Hodge split blocks."""
    k = np.asarray(kvec, dtype=float)
    xi = float(np.linalg.norm(k))
    state0 = np.asarray(state0, dtype=complex)
    E, heat = mode_exponential(ModeSymbol.from_params(params, xi), t)
    rho_t, u_t = hodge_evolve(E, heat, k / xi, state0[0], state0[1:])
    return np.concatenate(([rho_t], u_t))


# ---------------------------------------------------------------------------
# Whole-space decay curves by radial quadrature
# ---------------------------------------------------------------------------

def initial_profile(p: float = 1.0):
    """Spectral surrogate profile for L^p initial data.

    p = 1 maps to a bounded smooth profile exp(-xi^2); p in (1, 2] maps to
    the critical low-frequency shaping xi^{-3 (1 - 1/p)} exp(-xi^2), the
    borderline Hausdorff-Young profile for L^p data.
    """
    if not 1.0 <= p <= 2.0:
        raise ValueError("initial-data index p must lie in [1, 2]")
    s = 3.0 * (1.0 - 1.0 / p)

    def profile(xi):
        xi = np.asarray(xi, dtype=float)
        base = np.exp(-xi * xi)
        if s == 0.0:
            return base
        return xi ** (-s) * base

    return profile


@dataclass(frozen=True)
class LinearDecayQuery:
    """One decay-rate measurement of the linear semigroup."""

    ell: float = 0.0
    p: float = 1.0
    q: float = 2.0
    component: str = "velocity"          # "density" | "velocity"
    parts: str = "both"                  # "both" | "compressible" | "incompressible"

    def __post_init__(self):
        if self.ell < 0:
            raise ValueError("derivative order ell must be nonnegative")
        if self.component not in ("density", "velocity"):
            raise ValueError("component must be 'density' or 'velocity'")
        if self.q not in (2.0, np.inf):
            raise ValueError("target index q must be 2 or inf")
        if self.parts not in ("both", "compressible", "incompressible"):
            raise ValueError("parts must be both/compressible/incompressible")


def _radial_panels(xi_min=1e-6, xi_split=1.0, xi_max=8.0, n_low=24, n_high=8):
    edges = list(np.geomspace(xi_min, xi_split, n_low + 1))
    edges += list(np.linspace(xi_split, xi_max, n_high + 1))[1:]
    return edges


def _radial_nodes(nodes_per_panel):
    """Composite Gauss-Legendre nodes and weights on the radial panels."""
    gl_x, gl_w = leggauss(nodes_per_panel)
    edges = np.array(_radial_panels())
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * gl_x).ravel(), (gl_w * half).ravel()


class _ModeTable:
    """Radial nodes and weights of one symbol, and the squared row norms
    |E_0.|^2 and |E_1.|^2 of its normalized mode semigroup E at every
    (time, node) pair, from one batched exponential made on first use."""

    def __init__(self, sym: ModeSymbol, w, times):
        self.sym, self.w, self.times = sym, w, times

    @cached_property
    def row_norms2(self):
        E = expm2(self.sym.normalized_block, self.times[:, None])
        return tuple(np.einsum("tnj,tnj->tn", E[..., r, :], E[..., r, :])
                     for r in (0, 1))


# the tables of the open `shared_exponentials` scope, or None outside one
_shared_tables: ContextVar[dict | None] = ContextVar("_shared_tables",
                                                     default=None)


@contextmanager
def shared_exponentials():
    """Scope in which decay curves on the same fluid, times and nodes per
    panel share one `_ModeTable`.  Nested scopes join the outermost one; its
    tables are dropped when it exits."""
    if _shared_tables.get() is not None:
        yield
        return
    token = _shared_tables.set({})
    try:
        yield
    finally:
        _shared_tables.reset(token)


def _mode_table(params, times, nodes_per_panel) -> _ModeTable:
    """The scope's table for these arguments, built on first request;
    outside a scope a new table on every call."""
    fluid = ModeSymbol.fluid_scalars(params)
    key = (*fluid, times.tobytes(), nodes_per_panel)
    tables = _shared_tables.get()
    table = tables.get(key) if tables is not None else None
    if table is None:
        xi, w = _radial_nodes(nodes_per_panel)
        table = _ModeTable(ModeSymbol(xi, *fluid), w, times.copy())
        if tables is not None:
            tables[key] = table
    return table


def _l2_norms(query, params, times, profile, nodes_per_panel):
    """L^2 norms at every time, weighting the squared row norms of the
    mode table's exponentials over its radial nodes.

    The two data channels (the |k|^{-1}-weighted density and the velocity)
    are combined incoherently, modeling the operator-norm character of the
    linear estimates; this removes the plasma-oscillation beating from the
    reported norms without changing the decay exponent.
    """
    table = _mode_table(params, times, nodes_per_panel)
    sym, xi = table.sym, table.sym.xi
    weight = table.w * profile(xi) ** 2 * xi ** (2.0 * query.ell) * 4.0 * np.pi * xi * xi
    amp2 = 0.0
    if query.component == "density" or query.parts != "incompressible":
        # normalized block: w = rho_hat / xi, so the density picks up xi^2
        amp2 = table.row_norms2[0 if query.component == "density" else 1]
        if query.component == "density":
            weight *= xi * xi
    if query.component == "velocity" and query.parts != "compressible":
        heat2 = np.multiply(sym.incompressible_rate, -2.0 * times[:, None])
        np.exp(heat2, out=heat2)                 # squared heat factor
        amp2 = np.add(heat2, amp2, out=heat2)    # amp2 may be a table row
    return np.sqrt(amp2 @ weight)


def decay_curve(query: LinearDecayQuery, times, params: FluidParams | None = None,
                nodes_per_panel: int = 10, check_refinement: bool = True):
    """||nabla^ell component(t)||_{L^2(R^3)} at the given times, by composite
    Gauss-Legendre radial quadrature (log-spaced panels below xi = 1).

    With check_refinement, the norms are recomputed with twice the nodes per
    panel and a QuadratureError names the first time where the two differ by
    more than 1e-6 relative.  A query whose integral diverges at xi -> 0
    raises a QuadratureError before any exponential is computed."""
    times = np.asarray(times, dtype=float)
    if np.any(times <= 0) or np.any(np.diff(times) <= 0):
        raise ValueError("times must be positive and increasing")
    if params is None:
        params = FluidParams()
    if query.q == np.inf:
        return _linf_curve(query, times, params, nodes_per_panel)
    profile = initial_profile(query.p)
    _check_integrable(query)
    # the finer norms first: no coarse table is held while the finer
    # exponential, the largest array here, is built
    refs = (_l2_norms(query, params, times, profile, 2 * nodes_per_panel)
            if check_refinement else None)
    vals = _l2_norms(query, params, times, profile, nodes_per_panel)
    if refs is not None:
        bad = np.abs(vals - refs) > 1e-6 * np.maximum(refs, 1e-300)
        if bad.any():
            i = int(np.argmax(bad))
            raise QuadratureError(
                f"quadrature not converged at t={times[i]}: "
                f"{float(vals[i])!r} vs {float(refs[i])!r}")
    return [(float(t), float(v)) for t, v in zip(times, vals)]


def _check_integrable(query):
    """Near xi = 0 the squared rows of E and the heat factor stay O(1), so
    the squared integrand behaves like xi^(2 ell + 2 - 2s), times xi^2 for
    the density, with s = 3 (1 - 1/p) the profile's singularity; the
    integral diverges when that power is <= -1."""
    s = 3.0 * (1.0 - 1.0 / query.p)
    margin = 2.5 if query.component == "density" else 1.5
    if s >= query.ell + margin:
        raise QuadratureError(
            f"{query.component} integral diverges at xi -> 0: "
            f"3(1 - 1/p) = {s!r} >= ell + {margin} "
            f"(p = {query.p}, ell = {query.ell})")


def _linf_curve(query, times, params, nodes_per_panel):
    """L^inf surrogate via interpolation between first- and second-derivative
    L^2 norms: ||f||_inf <~ ||grad f||^{1/2} ||grad^2 f||^{1/2}."""
    with shared_exponentials():
        c1 = decay_curve(replace(query, ell=1.0, q=2.0), times, params,
                         nodes_per_panel)
        c2 = decay_curve(replace(query, ell=2.0, q=2.0), times, params,
                         nodes_per_panel)
    return [(t, np.sqrt(n1 * n2)) for (t, n1), (_, n2) in zip(c1, c2)]


@dataclass(frozen=True)
class FitResult:
    slope: float
    stderr: float
    residual_rms: float
    n: int

    @property
    def is_power_law(self):
        return self.residual_rms < 0.05


def fit_exponent(curve, window=None) -> FitResult:
    """Least-squares slope of log(norm) against log(t) inside a time window."""
    pts = [(t, v) for t, v in curve
           if window is None or window[0] <= t <= window[1]]
    if len(pts) < 10:
        raise ValueError("need at least 10 samples in the fit window")
    t = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    if np.any(v <= 0):
        raise ValueError("all norms must be positive for a log-log fit")
    x, y = np.log(t), np.log(v)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope = float(coef[0])
    fitted = A @ coef
    resid = y - fitted
    rms = float(np.sqrt(np.mean(resid ** 2)))
    denom = float(np.sum((x - x.mean()) ** 2))
    dof = max(len(x) - 2, 1)
    stderr = float(np.sqrt(np.sum(resid ** 2) / dof / denom)) if denom > 0 else np.inf
    return FitResult(slope=slope, stderr=stderr, residual_rms=rms, n=len(x))
