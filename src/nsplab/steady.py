"""Stationary states for a prescribed doping profile.

The zero-velocity balance grad p(rho_s) = rho_s grad phi_s together with the
Poisson equation reduces to the semilinear elliptic problem

    div(h'(rho_s) grad rho_s) = Lap h(rho_s) = rho_s - b,

solved here by a damped Picard sweep on f = rho_s - rho_bar:

    (-h'(rho_bar) Lap + 1) f_new = Lap R(f) + (b - b_bar),

with R(f) = h(rho_bar + f) - h(rho_bar) - h'(rho_bar) f the Taylor remainder
of the enthalpy, each sweep being one Fourier-multiplier inversion on the
real-layout coefficients of f (see `_Elliptic`).  The potential is recovered as
phi_s = h(rho_s) - mean(h(rho_s)) (mean-zero gauge).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product

import numpy as np

from .spectral import (Field, Grid, coeff_norm, dealias, grad_norm,
                       inverse_transform, lp_norm, real_layout, sobolev_norm,
                       transform)
from .thermo import FluidParams, remainder

__all__ = [
    "DopingProfile",
    "SteadyState",
    "SteadyReport",
    "SteadySolveError",
    "flat_doping",
    "gaussian_bump_doping",
    "cosine_doping",
    "DOPING_PRESETS",
    "solve_steady",
    "verify_steady",
]


class SteadySolveError(RuntimeError):
    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = residual_history or []


@dataclass(frozen=True)
class DopingProfile:
    """Positive background ion density b(x); b_bar is its spatial mean."""

    b: Field
    descriptor: str = "gridded"

    def __post_init__(self):
        if np.any(self.b.values <= 0):
            raise ValueError("doping profile must be positive everywhere")

    @property
    def b_bar(self):
        return float(self.b.values.mean())

    @property
    def grid(self):
        return self.b.grid


def flat_doping(grid: Grid, value: float = 1.0) -> DopingProfile:
    return DopingProfile(Field(grid, np.full(grid.shape, value)),
                         descriptor=f"flat({value})")


def gaussian_bump_doping(grid: Grid, amplitude: float = 0.1,
                         center: float | None = None,
                         sigma: float | None = None,
                         base: float = 1.0) -> DopingProfile:
    """b = base + amplitude * sum of periodic images of exp(-|x - c|^2 / sigma^2).

    Summing the nearest neighbor images keeps the profile smooth across the
    periodic seam (a plain min-image wrap would leave derivative kinks)."""
    L = grid.length
    c = 0.5 * L if center is None else center
    s = L / 8.0 if sigma is None else sigma
    d = np.mod(grid.axes() - c + 0.5 * L, L) - 0.5 * L
    bump = np.zeros(grid.shape)
    for shift in product((-L, 0.0, L), repeat=grid.dim):
        e = sum(np.ix_(*(-((d + sh) ** 2) for sh in shift)))  # -r^2, broadcast
        bump += np.exp(np.divide(e, s ** 2, out=e), out=e)
    vals = base + amplitude * bump
    return DopingProfile(Field(grid, vals),
                         descriptor=f"gaussian-bump({amplitude},{c},{s})")


def cosine_doping(grid: Grid, amplitude: float = 0.1, mode: int = 1,
                  base: float = 1.0) -> DopingProfile:
    x = grid.axes().reshape((-1,) + (1,) * (grid.dim - 1))     # along axis 0
    vals = base + amplitude * np.cos(2.0 * np.pi * mode * x / grid.length)
    return DopingProfile(Field(grid, np.broadcast_to(vals, grid.shape).copy()),
                         descriptor=f"cosine({amplitude},{mode})")


DOPING_PRESETS = {
    "flat": flat_doping,
    "gaussian-bump": gaussian_bump_doping,
    "cosine": cosine_doping,
}


@dataclass
class SteadyState:
    rho_s: Field
    phi_s: Field
    f: Field                      # rho_s - rho_bar
    rho_bar: float
    residual_l2: float            # Parseval L2 defect (see solve_steady)
    iterations: int
    truncation_defect: float      # the part of residual_l2 no sweep reduces
    galerkin_residual: float      # the part inside the 2/3 mask: the stop
    residual_history: list = dc_field(default_factory=list)


class _Elliptic:
    """The steady equation on the real-layout coefficients f_hat of f.

    Since h'(rho_s) grad rho_s = grad h(rho_s), `flux_div` gives
    D = dealias div(h'(rho_s) grad f) in enthalpy form, as the dealiased
    Lap h(rho_s): D = mask (-|k|^2) (h'(rho_bar) f_hat + transform(R)),
    with R = h(rho_bar + f) - h(rho_bar) - h'(rho_bar) f
    (`thermo.remainder`), one forward scalar transform.  R, not h(rho_s), is transformed:
    h(rho_s) - h'(rho_bar) f would cancel to about 1e-16 |h| before the
    |k|^2 weight and lift the residual off its roundoff floor.  `defect`
    turns D into the residual.  The next Picard iterate is
    sym (D + shift f_hat + (b - b_bar)^), with sym the symbol of
    (-h'(rho_bar) Lap + 1)^{-1} and shift = h'(rho_bar) mask |k|^2: the
    h'(rho_bar) terms cancel, leaving sym (mask (-|k|^2) transform(R)
    + (b - b_bar)^).  Outside the mask the iterate is sym (b - b_bar)^, so
    the defect there is (1 - sym)(b - b_bar)^, of norm `truncation_defect`.
    """

    def __init__(self, params, doping):
        self.grid, self.params = doping.grid, params
        lay = real_layout(self.grid)
        self.hp_bar = params.h_prime_bar
        k2 = lay.kmag ** 2
        self.sym = 1.0 / (self.hp_bar * k2 + 1.0)
        self.lap = -(lay.mask * k2)
        self.mask = lay.mask
        self.b_dev = transform(self.grid, doping.b.values - doping.b_bar)
        self.mean_gap = doping.b_bar - params.rho_bar
        self.truncation_defect = coeff_norm(
            self.grid, (1.0 - self.sym) * ~lay.mask * self.b_dev)

    def flux_div(self, f_hat, f_vals, out=None):
        R = remainder(self.params.law, Field(self.grid, f_vals),
                      self.params.rho_bar)
        D = np.multiply(self.hp_bar, f_hat, out=out)
        D += transform(self.grid, R.values)
        D *= self.lap
        return D

    def defect(self, D, f_hat, out=None):
        """Coefficients of D - (rho_s - b)."""
        r = np.subtract(D, f_hat, out=out)
        r += self.b_dev
        r[(0,) * self.grid.dim] += self.mean_gap
        return r


def solve_steady(params: FluidParams, doping: DopingProfile,
                 tol: float = 1e-10, max_iter: int = 200) -> SteadyState:
    """Damped Picard solve of the steady equation on the real-layout
    coefficients of f: one operator evaluation per sweep gives the residual
    of the iterate and the next target.  The damping halves (never below
    1/16) whenever the residual rises and grows by 5/4 (never above 1)
    whenever it falls.  The sweeps stop when the Galerkin
    residual, the defect inside the 2/3 mask, is below tol.  `residual_l2`
    is the full L2 defect by Parseval: the Galerkin part and the
    `truncation_defect`, which no sweep reduces.  `verify_steady` recomputes
    it on the grid as an independent check."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    grid = doping.grid
    rho_bar = params.rho_bar
    if not np.isclose(rho_bar, doping.b_bar, rtol=1e-12, atol=1e-12):
        raise ValueError(
            f"reference density {rho_bar} must equal mean doping {doping.b_bar}")
    op = _Elliptic(params, doping)

    b_lo, b_hi = float(doping.b.values.min()), float(doping.b.values.max())
    margin = 0.1 * (b_hi - b_lo)

    # f = 0, its operator D and two sweep work arrays: one block, freed whole
    f_hat, D, spare, work = np.zeros((4,) + op.b_dev.shape, dtype=complex)
    omega = 1.0
    history = []
    for it in range(1, max_iter + 1):
        # shift = -h'(rho_bar) lap (its bits), in spare's reals: free here
        shift = spare.reshape(-1).view(float)[:spare.size].reshape(op.lap.shape)
        np.multiply(-op.hp_bar, op.lap, out=shift)
        target = np.add(D, np.multiply(shift, f_hat, out=work), out=work)
        target += op.b_dev
        np.multiply(op.sym, target, out=target)
        f_new = np.multiply(1.0 - omega, f_hat, out=spare)
        f_new += np.multiply(omega, target, out=target)
        f_vals = inverse_transform(grid, f_new)   # f_new is kept: no overwrite
        lo, hi = rho_bar + f_vals.min(), rho_bar + f_vals.max()
        if lo <= 0:
            raise SteadySolveError("total density left (0, inf) during iteration",
                                   history)
        if lo < b_lo - margin - 1e-14 or hi > b_hi + margin + 1e-14:
            raise SteadySolveError(
                "iterate left the admissible doping range "
                f"[{b_lo - margin:.6g}, {b_hi + margin:.6g}]", history)
        op.flux_div(f_new, f_vals, out=D)
        res = coeff_norm(grid, op.defect(D, f_new, out=work))
        if history and res > history[-1]:
            omega = max(0.0625, 0.5 * omega)   # damp on a residual rise
        elif history and res < history[-1]:
            omega = min(1.0, 1.25 * omega)     # and recover while it falls
        history.append(res)
        spare, f_hat = f_hat, f_new
        galerkin = coeff_norm(grid, np.multiply(op.mask, work, out=work))
        if galerkin < tol:
            break
    else:
        raise SteadySolveError(
            f"no convergence within {max_iter} iterations "
            f"(last residual {history[-1]:.3e})", history)

    rho_s = Field(grid, rho_bar + f_vals)
    h_vals = np.asarray(params.law.h(rho_s.values))
    phi_s = Field(grid, h_vals - h_vals.mean())
    return SteadyState(rho_s=rho_s, phi_s=phi_s, rho_bar=rho_bar,
                       f=Field(grid, f_vals, _coeffs=f_hat.copy()),  # off the block
                       residual_l2=history[-1], iterations=len(history),
                       truncation_defect=op.truncation_defect,
                       galerkin_residual=galerkin, residual_history=history)


@dataclass
class SteadyReport:
    bounds_ok: bool
    rho_min: float
    rho_max: float
    b_min: float
    b_max: float
    mean_mismatch: float
    residual_l2: float
    gradient_balance_l2: float      # || grad h(rho_s) - grad phi_s ||_L2
    grad_rho_hk: float              # || grad rho_s ||_{H^2}
    w2r_deviation: float            # || rho_s - rho_bar ||_{W^{2,r}} (discrete)
    lr_doping_deviation: float      # || b - b_bar ||_{L^r}
    ratio_w2r_lr: float


def w2r_norm(f: Field, r: float) -> float:
    """Discrete W^{2,r}: grid L^r quadrature of the function, its multiplier
    gradient, and its multiplier Hessian (Frobenius magnitude).  Each
    ik_a f_hat and each distinct ik_a ik_b f_hat is built in one reused
    temporary, inverted in place there, and its square accumulated."""
    grid = f.grid
    ik, f_hat = real_layout(grid).ik, f.coefficients()
    tmp = np.empty_like(f_hat)
    grad_sq, hess_sq = np.zeros(grid.shape), np.zeros(grid.shape)
    for a in range(grid.dim):
        for b in (None, *range(a, grid.dim)):   # the gradient, a Hessian row
            np.multiply(ik[a], f_hat, out=tmp)
            if b is not None:
                np.multiply(ik[b], tmp, out=tmp)
            acc = grad_sq if b is None else hess_sq
            w = 1.0 if b in (None, a) else 2.0
            d = inverse_transform(grid, tmp, overwrite=True)
            acc += np.multiply(w, np.square(d, out=d), out=d)
    return sum(lp_norm(Field(grid, v), r) ** r
               for v in (f.values, np.sqrt(grad_sq, out=grad_sq),
                         np.sqrt(hess_sq, out=hess_sq))) ** (1.0 / r)


def _flux_residual(law, rho_s: Field, b: Field) -> np.ndarray:
    """div(h'(rho_s) grad rho_s) - (rho_s - b) on the grid, in flux form:
    per axis, ik_a rho_hat inverted in place, times h'(rho_s), dealiased
    into the same temporary and contracted with ik_a into the divergence."""
    grid, ik = rho_s.grid, real_layout(rho_s.grid).ik
    hp = np.asarray(law.h_prime(rho_s.values))
    rho_hat = transform(grid, rho_s.values)
    tmp = np.empty_like(rho_hat)
    for a in range(grid.dim):
        flux = inverse_transform(grid, np.multiply(rho_hat, ik[a], out=tmp),
                                 overwrite=True)
        c = dealias(Field(grid, np.multiply(hp, flux, out=flux)), out=tmp)
        np.multiply(ik[a], c, out=c)
        div = c.copy() if a == 0 else np.add(div, c, out=div)
    return inverse_transform(grid, div, overwrite=True) - (rho_s.values - b.values)


def verify_steady(params: FluidParams, ss: SteadyState, doping: DopingProfile,
                  r: float = 1.2) -> SteadyReport:
    """Diagnostic report on a computed steady state (pure checks, no raise).

    The residual is taken on the grid samples of rho_s in the flux form
    the solver does not use (`_flux_residual`), so it checks the solver
    against a second discretization.  The gradient
    balance is ||grad (h(rho_s) - phi_s)||_L2 from one transform, and
    the other norms read the real-layout coefficients of ss.f."""
    grid = ss.rho_s.grid
    b_min, b_max = float(doping.b.values.min()), float(doping.b.values.max())
    rho_min = float(ss.rho_s.values.min())
    rho_max = float(ss.rho_s.values.max())
    bounds_ok = rho_min >= b_min - 1e-8 and rho_max <= b_max + 1e-8

    w2r = w2r_norm(ss.f, r)
    lr = lp_norm(Field(grid, doping.b.values - doping.b_bar), r)

    res = _flux_residual(params.law, ss.rho_s, doping.b)
    res_l2 = float(np.sqrt(np.sum(res ** 2) * grid.cell_volume))
    h_vals = np.asarray(params.law.h(ss.rho_s.values))
    bal_l2 = grad_norm(Field(grid, h_vals - ss.phi_s.values), 1.0)
    return SteadyReport(
        bounds_ok=bounds_ok,
        rho_min=rho_min, rho_max=rho_max, b_min=b_min, b_max=b_max,
        mean_mismatch=abs(float(ss.rho_s.values.mean()) - doping.b_bar),
        residual_l2=res_l2,
        gradient_balance_l2=bal_l2,
        grad_rho_hk=sobolev_norm(ss.f, 2, 1),  # ||grad f||_{H^2}
        w2r_deviation=w2r,
        lr_doping_deviation=lr,
        ratio_w2r_lr=w2r / lr if lr > 0 else 0.0,
    )
