"""Stationary states for a prescribed doping profile.

The zero-velocity balance grad p(rho_s) = rho_s grad phi_s together with the
Poisson equation reduces to the semilinear elliptic problem

    div(h'(rho_s) grad rho_s) = rho_s - b,

solved here by a damped Picard sweep on f = rho_s - rho_bar:

    (-h'(rho_bar) Lap + 1) f_new = div((h'(rho_s) - h'(rho_bar)) grad f) + (b - b_bar),

each sweep being one Fourier-multiplier inversion on the real-layout
coefficients of f (see `_Elliptic`).  The potential is recovered as
phi_s = h(rho_s) - mean(h(rho_s)) (mean-zero gauge).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .spectral import (Field, Grid, coeff_norm, dealias, divergence, grad_norm,
                       gradient, irfftn, lp_norm, real_layout, rfftn, sobolev_norm)
from .thermo import FluidParams

__all__ = [
    "DopingProfile",
    "SteadyState",
    "SteadyReport",
    "SteadySolveError",
    "flat_doping",
    "gaussian_bump_doping",
    "cosine_doping",
    "DOPING_PRESETS",
    "doping_from_name",
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
    x = grid.coords()
    d = np.mod(x - c + 0.5 * L, L) - 0.5 * L
    bump = np.zeros(grid.shape)
    offsets = np.array([-L, 0.0, L])
    grids = np.meshgrid(*([offsets] * grid.dim), indexing="ij")
    for shift in zip(*(g.ravel() for g in grids)):
        r2 = sum((d[a] + shift[a]) ** 2 for a in range(grid.dim))
        bump += np.exp(-r2 / s ** 2)
    vals = base + amplitude * bump
    return DopingProfile(Field(grid, vals),
                         descriptor=f"gaussian-bump({amplitude},{c},{s})")


def cosine_doping(grid: Grid, amplitude: float = 0.1, mode: int = 1,
                  base: float = 1.0) -> DopingProfile:
    x = grid.coords()[0]
    vals = base + amplitude * np.cos(2.0 * np.pi * mode * x / grid.length)
    return DopingProfile(Field(grid, np.broadcast_to(vals, grid.shape).copy()),
                         descriptor=f"cosine({amplitude},{mode})")


DOPING_PRESETS = {
    "flat": flat_doping,
    "gaussian-bump": gaussian_bump_doping,
    "cosine": cosine_doping,
}


def doping_from_name(grid: Grid, name: str, **params) -> DopingProfile:
    if name not in DOPING_PRESETS:
        raise ValueError(f"unknown doping preset {name!r}; "
                         f"choose from {sorted(DOPING_PRESETS)}")
    return DOPING_PRESETS[name](grid, **params)


@dataclass
class SteadyState:
    rho_s: Field
    phi_s: Field
    f: Field                      # rho_s - rho_bar
    rho_bar: float
    residual_l2: float            # Parseval L2 defect (see solve_steady)
    iterations: int
    residual_history: list = dc_field(default_factory=list)


class _Elliptic:
    """The steady equation on the real-layout coefficients f_hat of f.

    `flux_div` gives D = div dealias(h'(rho_s) grad f) as
    mask (ik . rfftn(h'(rho_s) irfftn(ik f_hat))), with ik f_hat formed in
    the work array `ik_f` and inverted in place there; `defect` turns D
    into the residual.  The next Picard iterate is
    sym (D + shift f_hat + (b - b_bar)^), with sym the symbol of
    (-h'(rho_bar) Lap + 1)^{-1}, since div dealias(h'(rho_bar) grad f) =
    -shift f_hat exactly (ik is zero at Nyquist entries, which lie outside
    the mask).
    """

    def __init__(self, params, doping):
        self.grid, self.params = doping.grid, params
        self.lay = real_layout(self.grid)
        hp_bar = float(params.law.h_prime(params.rho_bar))
        k2 = self.lay.kmag ** 2
        self.sym = 1.0 / (hp_bar * k2 + 1.0)
        self.shift = hp_bar * self.lay.mask * k2
        self.b_dev = rfftn(self.grid, doping.b.values - doping.b_bar)
        self.mean_gap = doping.b_bar - params.rho_bar
        self.ik_f = np.empty_like(self.lay.ik)

    def flux_div(self, f_hat, rho_vals, out=None):
        ik_f = np.multiply(self.lay.ik, f_hat, out=self.ik_f)
        flux = irfftn(self.grid, ik_f, overwrite=True)
        flux *= self.params.law.h_prime(rho_vals)
        c = rfftn(self.grid, flux)
        D = np.sum(np.multiply(self.lay.ik, c, out=c), axis=0, out=out)
        return np.multiply(self.lay.mask, D, out=D)

    def defect(self, D, f_hat, out=None):
        """Coefficients of D - (rho_s - b)."""
        r = np.subtract(D, f_hat, out=out)
        r += self.b_dev
        r[(0,) * self.grid.dim] += self.mean_gap
        return r


def solve_steady(params: FluidParams, doping: DopingProfile,
                 tol: float = 1e-10, max_iter: int = 200,
                 relaxation: float = 1.0, newton: bool = False) -> SteadyState:
    """Damped Picard (optionally Newton-accelerated) solve of the steady
    elliptic equation on the real-layout coefficients of f.  One operator
    evaluation per sweep gives both the residual of the iterate and the
    next Picard target.  The sweeps stop when the H^2 norm of the update or
    the residual falls below tol.  The residual (`residual_l2`) is the L2
    defect of the full equation read from the coefficients by Parseval,
    below the roundoff floor of the grid; `verify_steady` recomputes it on
    the grid as an independent check."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = doping.grid
    rho_bar = params.rho_bar
    if not np.isclose(rho_bar, doping.b_bar, rtol=1e-12, atol=1e-12):
        raise ValueError(
            f"reference density {rho_bar} must equal mean doping {doping.b_bar}")
    op = _Elliptic(params, doping)

    b_lo, b_hi = float(doping.b.values.min()), float(doping.b.values.max())
    margin = 0.1 * (b_hi - b_lo)

    # f = 0, its operator D, and two work arrays reused by every sweep
    f_hat, D, spare, work = (np.zeros_like(op.b_dev) for _ in range(4))
    omega = relaxation
    history = []
    prev_res = np.inf
    for it in range(1, max_iter + 1):
        target = np.add(D, np.multiply(op.shift, f_hat, out=work), out=work)
        target += op.b_dev
        np.multiply(op.sym, target, out=target)
        if newton:
            target = _newton_correct(op, target)
        f_new = np.multiply(1.0 - omega, f_hat, out=spare)
        f_new += np.multiply(omega, target, out=target)
        f_vals = irfftn(grid, f_new)          # f_new is kept: no overwrite
        rho_vals = rho_bar + f_vals
        lo, hi = rho_vals.min(), rho_vals.max()
        if lo <= 0:
            raise SteadySolveError("total density left (0, inf) during iteration",
                                   history)
        if lo < b_lo - margin - 1e-14 or hi > b_hi + margin + 1e-14:
            raise SteadySolveError(
                "iterate left the admissible doping range "
                f"[{b_lo - margin:.6g}, {b_hi + margin:.6g}]", history)
        op.flux_div(f_new, rho_vals, out=D)
        res = coeff_norm(grid, op.defect(D, f_new, out=work))
        history.append(res)
        if res > prev_res and omega > 0.0625:
            omega *= 0.5           # automatic damping on residual increase
        update = coeff_norm(grid, np.subtract(f_new, f_hat, out=work), 2)
        spare, f_hat = f_hat, f_new
        prev_res = res
        if update < tol or res < tol:
            break
    else:
        raise SteadySolveError(
            f"no convergence within {max_iter} iterations "
            f"(last residual {history[-1]:.3e})", history)

    rho_s = Field(grid, rho_vals)
    h_vals = np.asarray(params.law.h(rho_s.values))
    phi_s = Field(grid, h_vals - h_vals.mean())
    return SteadyState(rho_s=rho_s, phi_s=phi_s,
                       f=Field(grid, f_vals, _coeffs=f_hat), rho_bar=rho_bar,
                       residual_l2=history[-1] if history else 0.0,
                       iterations=len(history), residual_history=history)


def _newton_correct(op, picard_target, inner=4):
    """Refine the Picard target by a few preconditioned corrections of the
    full residual (inexact Newton with the constant-coefficient operator
    as preconditioner)."""
    g = picard_target
    for _ in range(inner):
        rho_vals = op.params.rho_bar + irfftn(op.grid, g)
        if np.any(rho_vals <= 0):
            return picard_target
        g = g + op.sym * op.defect(op.flux_div(g, rho_vals), g)
    return g


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
    grad_rho_hk: float              # || grad rho_s ||_{H^k}
    w2r_deviation: float            # || rho_s - rho_bar ||_{W^{2,r}} (discrete)
    lr_doping_deviation: float      # || b - b_bar ||_{L^r}
    ratio_w2r_lr: float


def w2r_norm(f: Field, r: float) -> float:
    """Discrete W^{2,r}: grid L^r quadrature of the function, its multiplier
    gradient, and its multiplier Hessian (Frobenius magnitude), the last two
    from one batched inverse transform of ik_a f_hat and the distinct
    ik_a ik_b f_hat, inverted in place in that temporary batch."""
    grid = f.grid
    dim, ik = grid.dim, real_layout(grid).ik
    pairs = [(a, b) for a in range(dim) for b in range(a, dim)]
    hat = np.empty((dim + len(pairs),) + ik.shape[1:], dtype=complex)
    np.multiply(ik, f.coefficients(), out=hat[:dim])
    for i, (a, b) in enumerate(pairs):
        np.multiply(ik[b], hat[a], out=hat[dim + i])
    phys = irfftn(grid, hat, overwrite=True)
    hess_sq = sum((1.0 if a == b else 2.0) * phys[dim + i] ** 2
                  for i, (a, b) in enumerate(pairs))
    return (lp_norm(f, r) ** r + lp_norm(Field(grid, phys[:dim]), r) ** r
            + lp_norm(Field(grid, np.sqrt(hess_sq)), r) ** r) ** (1.0 / r)


def verify_steady(params: FluidParams, ss: SteadyState, doping: DopingProfile,
                  r: float = 1.2, hk: int = 2, slack: float = 1e-8) -> SteadyReport:
    """Diagnostic report on a computed steady state (pure checks, no raise).

    Only the residual stays on the full complex path (`gradient`,
    `dealias`, `divergence`), independently of the solver.  The gradient
    balance is ||grad (h(rho_s) - phi_s)||_L2 from one real transform, and
    the other norms read the real-layout coefficients of ss.f."""
    grid = ss.rho_s.grid
    b_min, b_max = float(doping.b.values.min()), float(doping.b.values.max())
    rho_min = float(ss.rho_s.values.min())
    rho_max = float(ss.rho_s.values.max())
    bounds_ok = rho_min >= b_min - slack and rho_max <= b_max + slack

    w2r = w2r_norm(ss.f, r)
    lr = lp_norm(Field(grid, doping.b.values - doping.b_bar), r)

    hp = np.asarray(params.law.h_prime(ss.rho_s.values))
    res = (divergence(dealias(Field(grid, hp * gradient(ss.rho_s).values))).values
           - (ss.rho_s.values - doping.b.values))
    res_l2 = float(np.sqrt(np.sum(res ** 2) * grid.cell_volume))
    h_vals = np.asarray(params.law.h(ss.rho_s.values))
    bal_l2 = grad_norm(Field(grid, h_vals - ss.phi_s.values), 1.0)
    return SteadyReport(
        bounds_ok=bounds_ok,
        rho_min=rho_min, rho_max=rho_max, b_min=b_min, b_max=b_max,
        mean_mismatch=abs(float(ss.rho_s.values.mean()) - doping.b_bar),
        residual_l2=res_l2,
        gradient_balance_l2=bal_l2,
        grad_rho_hk=sobolev_norm(ss.f, hk, 1),  # ||grad f||_{H^k}
        w2r_deviation=w2r,
        lr_doping_deviation=lr,
        ratio_w2r_lr=w2r / lr if lr > 0 else 0.0,
    )
