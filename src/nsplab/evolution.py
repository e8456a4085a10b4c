"""Time integration of the nonlinear perturbation system around a steady
state, with energy functionals and bootstrap quantities as online
diagnostics.

The exponential (Lawson midpoint) integrator splits the right-hand side
into a constant-coefficient linear part matching the Hodge-split mode
symbols, its coefficients frozen at rho_bar, and `nonlinear_terms`, which
carries the rest, the doping-dependent linear terms included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (Field, Grid, dealias, frac_derivative, grad_norm,
                       inverse_laplacian, inverse_transform, lp_norm,
                       real_layout, sobolev_norm)
from .steady import SteadyState
from .semigroup import ModeSymbol, hodge_evolve, hodge_factors, mode_exponential
from .thermo import FluidParams, remainder

__all__ = [
    "PerturbationState",
    "EnergyReport",
    "DiagnosticsConfig",
    "EvolutionError",
    "zero_state",
    "single_mode_state",
    "random_smooth_state",
    "nonlinear_terms",
    "Background",
    "Integrator",
    "evolve",
    "default_dt",
]


class EvolutionError(RuntimeError):
    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


@dataclass
class PerturbationState:
    """Perturbation (density, velocity) at one time instant; the potential
    is always re-derived from the density through the Poisson equation."""

    rho: Field
    u: Field
    t: float = 0.0

    def __post_init__(self):
        if self.rho.is_vector:
            raise ValueError("density perturbation must be scalar")
        if not self.u.is_vector or self.u.ncomp != self.grid.dim:
            raise ValueError("velocity must have dim components")

    @property
    def grid(self) -> Grid:
        return self.rho.grid

    def coefficients(self):
        """(rho_hat, u_hat) on the real-FFT half grid."""
        return self.rho.coefficients(), self.u.coefficients()

    def potential(self) -> Field:
        """Mean-zero Phi with Lap Phi = rho."""
        return inverse_laplacian(self.rho)

    def check(self, ss: SteadyState):
        if abs(self.rho.mean()) > 1e-12:
            raise EvolutionError(f"density mean {self.rho.mean():.3e} nonzero", self)
        total = self.rho.values + ss.rho_s.values
        if np.any(total <= 0):
            idx = np.unravel_index(int(np.argmin(total)), total.shape)
            raise EvolutionError(f"total density nonpositive at index {idx}", self)


def zero_state(grid: Grid) -> PerturbationState:
    return PerturbationState(
        rho=Field(grid, np.zeros(grid.shape)),
        u=Field(grid, np.zeros((grid.dim,) + grid.shape)))


def single_mode_state(grid: Grid, mode: int = 1,
                      amplitude: float = 1e-3) -> PerturbationState:
    """cos mode in the density (mean-zero) at rest; 1 <= mode <= n/2."""
    if not 1 <= mode <= grid.n // 2:
        raise ValueError(f"mode must lie in [1, {grid.n // 2}], got {mode}")
    x = grid.axes().reshape((-1,) + (1,) * (grid.dim - 1))     # along axis 0
    rho = np.broadcast_to(amplitude * np.cos(2.0 * np.pi * mode * x / grid.length),
                          grid.shape).copy()
    u = np.zeros((grid.dim,) + grid.shape)
    return PerturbationState(rho=Field(grid, rho), u=Field(grid, u))


def random_smooth_state(grid: Grid, seed: int = 0, amplitude: float = 1e-3,
                        band: int = 3) -> PerturbationState:
    """Random band-limited state scaled so ||(rho, u)||_{H^4} = amplitude.

    Each scalar draws its coefficients c_m on the full grid of modes and
    keeps their Hermitian part (c_m + conj c_{-m}) / 2, the real field's,
    on the half grid."""
    if band < 1:
        raise ValueError(f"band must be at least 1, got {band}")
    rng = np.random.default_rng(seed)
    m = np.ix_(*[np.abs(grid.mode_axis())] * grid.dim)      # per-axis |m_a|
    inband = np.all(np.broadcast_arrays(*[ma <= band for ma in m]), axis=0)
    inband[(0,) * grid.dim] = False
    axes, half = tuple(range(grid.dim)), grid.n // 2 + 1

    def one_scalar():
        spec = np.zeros(grid.shape, dtype=complex)
        phase = rng.uniform(0, 2 * np.pi, size=grid.shape)
        mag = rng.uniform(0.5, 1.0, size=grid.shape)
        spec[inband] = (mag * np.exp(1j * phase))[inband]
        partner = np.roll(np.flip(spec, axes), 1, axes)      # c_{-m} at m
        hermitian = 0.5 * (spec + np.conj(partner))[..., :half]
        values = inverse_transform(grid, hermitian, overwrite=True)
        return values - values.mean()

    rho, u = one_scalar(), np.stack([one_scalar() for _ in range(grid.dim)])
    size = np.hypot(sobolev_norm(Field(grid, rho), 4), sobolev_norm(Field(grid, u), 4))
    scale = amplitude / size if size > 0 else 0.0
    return PerturbationState(Field(grid, scale * rho), Field(grid, scale * u))


class Background:
    """What the constant-coefficient form needs of the steady state and the
    fluid, evaluated once: rho_s - rho_bar, h'(rho_s) - h'(rho_bar),
    h'(rho_bar) and the symbols, ``ik`` dense (twice as fast as per-axis
    factors), and every array the Lawson step overwrites: its inverses run in
    place in ``hat`` (curl u, the viscous term and the inverse density, or a
    state's copy) into ``phys`` or ``mid``, its products into ``prod_hat``."""

    def __init__(self, ss: SteadyState, params: FluidParams):
        self.params = params
        self.rho_s = ss.rho_s
        self.grid = grid = ss.rho_s.grid
        self.layout = lay = real_layout(grid)
        # complex: numpy casts a real factor of a complex product first
        self.mu_lap = (-params.mu * lay.kmag ** 2).astype(complex)
        dim, half = grid.dim, lay.kmag.shape
        self.ik = np.stack([np.broadcast_to(ik, half) for ik in lay.ik])
        self.grad_div = (params.mu + params.mu_prime) * self.ik
        self.hp_bar = params.h_prime_bar
        self.carried = ss.rho_s.values - params.rho_bar
        self.hp_jump = np.asarray(params.law.h_prime(ss.rho_s.values)) - self.hp_bar
        # axes (a, b) of each vorticity component omega_c = d_a u_b - d_b u_a
        self.curl = {1: (), 2: ((0, 1),), 3: ((1, 2), (2, 0), (0, 1))}[dim]
        self.hat = np.empty((len(self.curl) + dim + 1,) + half, dtype=complex)
        self.prod = np.empty((2 * dim + 1,) + grid.shape)
        self.work = np.empty((1 + dim,) + grid.shape)      # scalar, vector
        self.work_hat = np.empty((3,) + half, dtype=complex)
        # the products' coefficients overwrite the samples they come from
        self.prod_hat = np.empty(self.prod.shape[:-1] + half[-1:], dtype=complex)
        self.phys = self.prod_hat.reshape(-1).view(float)[
            :self.hat.shape[0] * grid.npoints].reshape(
                self.hat.shape[:1] + grid.shape)
        self.mid = np.empty((1 + dim,) + grid.shape)


def _dot(kn, u_hat, plane):
    """sum_i kn[i] u_hat[i] on one Nyquist plane, from 0 in i's order."""
    return np.add.reduce(kn * u_hat[(slice(None),) + plane], axis=0, initial=0)


def _viscous_hat(u_hat, bg: Background, out):
    """mu Lap u + (mu + mu') grad div u on the real layout, written into
    out; at Nyquist modes grad div keeps its even products (see
    `RealLayout`), added on the Nyquist planes alone."""
    ik, mu_sum = bg.ik, bg.params.mu + bg.params.mu_prime
    div, tmp = bg.work_hat[:2]
    np.multiply(ik[0], u_hat[0], out=div)
    for a in range(1, len(out)):
        div += np.multiply(ik[a], u_hat[a], out=tmp)
    for a, (plane, kn) in enumerate(bg.layout.nyquist):
        np.multiply(bg.mu_lap, u_hat[a], out=out[a])
        out[a] += np.multiply(bg.grad_div[a], div, out=tmp)
        out[a][plane] -= mu_sum * kn[a] * _dot(kn, u_hat, plane)


def nonlinear_terms(rho, u, u_hat, bg: Background):
    """(N1, N2) of the constant-coefficient form as real-layout
    coefficients: the full right-hand side minus the linear part matching
    the mode symbols.

    rho, u are one stage's physical samples and u_hat the `transform`
    coefficients of u.  Advection is grad(|u|^2 / 2) - u x curl u:
    curl u, the viscous term and 1/(rho_s + rho) - 1/rho_bar, the last put
    in bg.hat by `dealias`, come back in one in-place inverse transform
    there, and the products, |u|^2 / 2 in the scalar under grad, go forward
    in one `dealias`, which transforms only the 2/3 ball; with `_state`, a
    3-D step transforms 38 scalar fields in 8 transforms.  The convective
    form u . grad u aliases alike only for u inside the ball (|m_a| <= n/3).
    N1 and N2 are built in place in the forward transform's output,
    bg.prod_hat, which u_hat may share (it is read first); they are views
    that the next call with bg overwrites.
    """
    grid, params = bg.grid, bg.params
    dim, pairs = grid.dim, bg.curl
    hat, prod, tmp = bg.hat, bg.prod, bg.work_hat[0]
    s, vec = bg.work[0], bg.work[1:]
    for c, (a, b) in enumerate(pairs):
        np.multiply(bg.ik[a], u_hat[b], out=hat[c])
        hat[c] -= np.multiply(bg.ik[b], u_hat[a], out=tmp)
    _viscous_hat(u_hat, bg, hat[len(pairs):-1])
    # 1/(rho_s + rho) - 1/rho_bar multiplies visc, so it is dealiased first
    np.add(rho, bg.rho_s.values, out=s)
    np.divide(1.0, s, out=s)
    s -= 1.0 / params.rho_bar
    dealias(Field(grid, s), out=hat[-1])
    phys = inverse_transform(grid, hat, overwrite=True, out=bg.phys)
    omega, visc, inv_jump = phys[:len(pairs)], phys[len(pairs):-1], phys[-1]

    R = remainder(params.law, Field(grid, rho), bg.rho_s).values
    # [(rho + rho_s - rho_bar) u, inv_jump visc + u x omega,
    #  R + (h'(rho_s) - h'(rho_bar)) rho + |u|^2 / 2]
    flux, mom, scal = prod[:dim], prod[dim:2 * dim], prod[2 * dim]
    np.add(rho, bg.carried, out=s)
    np.multiply(s, u, out=flux)
    np.multiply(inv_jump, visc, out=mom)
    for c, (a, b) in enumerate(pairs):   # (u x omega)_a, _b: +u_b, -u_a omega_c
        mom[a] += np.multiply(u[b], omega[c], out=s)
        mom[b] -= np.multiply(u[a], omega[c], out=s)
    np.multiply(bg.hp_jump, rho, out=scal)
    scal += R
    np.sum(np.multiply(u, u, out=vec), axis=0, out=s)
    scal += np.multiply(0.5, s, out=s)
    c = dealias(Field(grid, prod), out=bg.prod_hat)

    # N2 = c_mom - ik c_scal, then N1 = -ik . c_flux over c_scal
    n1, n2 = c[2 * dim], c[dim:2 * dim]
    for a in range(dim):
        n2[a] -= np.multiply(bg.ik[a], n1, out=tmp)
        c[a] *= bg.ik[a]
    np.negative(np.sum(c[:dim], axis=0, out=n1), out=n1)
    return n1, n2


def default_dt(params: FluidParams, grid: Grid) -> float:
    """CFL-style step: 0.4 times the min of acoustic and diffusive limits."""
    wave_speed = np.sqrt(params.h_prime_bar * params.rho_bar + 1.0)
    dx = grid.dx
    acoustic = dx / wave_speed
    diffusive = dx * dx * params.rho_bar / (2.0 * params.mu + params.mu_prime)
    return 0.4 * min(acoustic, diffusive)


class Integrator:
    """Lawson (exponential) midpoint stepper on real-FFT coefficients.

    The constant-coefficient linear part is applied exactly per mode using
    the Hodge-split 2x2 semigroup; the nonlinear terms are advanced by an
    explicit two-stage midpoint update.  The density zero mode is pinned to
    zero, conserving mass exactly.  States the stepper produces carry their
    coefficients, so the next step transforms nothing forward.
    """

    def __init__(self, ss: SteadyState, params: FluidParams, dt: float):
        if not 0.0 < dt < np.inf:
            raise ValueError(f"dt must be finite and positive, got {dt}")
        self.ss = ss
        self.params = params
        self.dt = dt
        self.grid = ss.rho_s.grid
        self.bg = Background(ss, params)
        lay = self.bg.layout
        zero = lay.kmag == 0.0
        safe = np.where(zero, 1.0, lay.kmag)
        # khat without, and per Nyquist plane with only, its Nyquist entries
        self._khat = np.stack([ik.imag / safe for ik in lay.ik]).astype(complex)
        self._khat_nyquist = [(plane, kn / safe[plane])
                              for plane, kn in lay.nyquist]
        # dt and dt/2 propagators over the half grid in one call; the k = 0
        # mode is the identity (heat factor 1), so the velocity mean passes
        # through _apply_linear unchanged
        t = np.array([dt, 0.5 * dt]).reshape((2,) + (1,) * safe.ndim)
        E, heat = mode_exponential(ModeSymbol.from_params(params, safe), t)
        E[:, zero] = np.eye(2)
        heat[:, zero] = 1.0
        self._prop_full, self._prop_half = map(hodge_factors, E, heat)

    def _apply_linear(self, rho_hat, u_hat, prop, in_place=False):
        # a Nyquist mode keeps the even part of the projection khat khat^T,
        # for component a on the Nyquist plane of axis a; read before an
        # in-place apply overwrites u_hat
        nyquist = [(plane, prop[3][plane] * _dot(kn, u_hat, plane) * kn[a])
                   for a, (plane, kn) in enumerate(self._khat_nyquist)]
        rho_new, u_new = hodge_evolve(
            prop, self._khat, rho_hat, u_hat,
            out=(rho_hat, u_hat) if in_place else None, work=self.bg.work_hat)
        for a, (plane, add) in enumerate(nyquist):
            u_new[a][plane] += add
        rho_new[(0,) * self.grid.dim] = 0.0      # density zero mode pinned
        return rho_new, u_new

    def _state(self, rho_hat, u_hat, t, out=None):
        # one in-place inverse of a copy; the state keeps rho_hat, u_hat
        grid, work = self.grid, self.bg.hat[:1 + self.grid.dim]
        np.concatenate((rho_hat[None], u_hat), out=work)
        values = inverse_transform(grid, work, overwrite=True, out=out)
        return PerturbationState(
            rho=Field(grid, values[0], _coeffs=rho_hat),
            u=Field(grid, values[1:], _coeffs=u_hat), t=t)

    def linear_step(self, state: PerturbationState) -> PerturbationState:
        """The exact linear flow over dt, without the nonlinear terms."""
        return self._state(*self._apply_linear(*state.coefficients(),
                                               self._prop_full),
                           state.t + self.dt)

    def step(self, state: PerturbationState) -> PerturbationState:
        dt, bg = self.dt, self.bg
        rho0, u0 = state.coefficients()
        n1, n2 = nonlinear_terms(state.rho.values, state.u.values, u0, bg)

        # half step: U* = E(dt/2) (U + dt/2 N(U)), built in N's buffer
        n1 *= 0.5 * dt
        n1 += rho0
        n2 *= 0.5 * dt
        n2 += u0
        mid = self._state(*self._apply_linear(n1, n2, self._prop_half,
                                              in_place=True),
                          state.t + 0.5 * dt, out=bg.mid)
        m1, m2 = self._apply_linear(
            *nonlinear_terms(mid.rho.values, mid.u.values,
                             mid.u.coefficients(), bg),
            self._prop_half, in_place=True)

        rho_f, u_f = self._apply_linear(rho0, u0, self._prop_full)
        rho_f += np.multiply(m1, dt, out=m1)
        u_f += np.multiply(m2, dt, out=m2)
        rho_f[(0,) * self.grid.dim] = 0.0

        new = self._state(rho_f, u_f, state.t + dt)
        if not (np.all(np.isfinite(new.rho.values))
                and np.all(np.isfinite(new.u.values))):
            raise EvolutionError(f"non-finite field at t={new.t:.6g}", new)
        new.check(self.ss)
        return new


@dataclass(frozen=True)
class DiagnosticsConfig:
    k: int = 4
    p: float = 1.0
    r: float = 1.2

    def __post_init__(self):
        if self.k < 2 or self.k != int(self.k):
            raise ValueError("diagnostics need an integer Sobolev index k >= 2")

    @property
    def zeta(self):
        return 1.5 * (1.0 / max(self.p, self.r) - 0.5)


@dataclass
class EnergyReport:
    t: float
    hk_rho: float
    hk_u: float
    grad_phi_l2: float
    dissipation: float              # int_0^t (||rho||_Hk^2 + ||grad u||_Hk^2)
    energy_lhs: float               # ||(rho,u)||_Hk^2 + ||grad Phi||_L2^2 + dissipation
    script_l: float
    script_m: float
    script_h: float
    script_j: float
    script_n: float                 # running sup (case 6/5 <= r < 3/2)
    script_k: float                 # running sup (case 1 < r < 6/5)


def _instant_diagnostics(state: PerturbationState, cfg: DiagnosticsConfig):
    rho, u = state.rho, state.u
    k = cfg.k
    d = {
        "hk_rho": sobolev_norm(rho, k),
        "hk_u": sobolev_norm(u, k),
        "grad_phi_l2": grad_norm(rho, -1.0),      # ||grad Delta^{-1} rho||
        "rho_l2": grad_norm(rho, 0.0),
        "u_l2": grad_norm(u, 0.0),
        "rho_linf": lp_norm(rho, np.inf),
        "u_linf": lp_norm(u, np.inf),
    }
    d["script_l"] = (grad_norm(rho, 0.5) + grad_norm(u, 1.5)
                     + d["rho_linf"] + d["u_linf"])
    # ||nabla^ell f||_{H^{k - ell}} sums the orders ell, ell + 1, ..., <= k
    d["script_m"] = (sobolev_norm(rho, k - 1, base_order=0.5)
                     + sobolev_norm(u, k - 2, base_order=1.5))
    d["script_h"] = d["rho_l2"] + grad_norm(u, 1.0) + d["rho_linf"] + d["u_linf"]
    d["script_j"] = d["hk_rho"] + sobolev_norm(u, k - 1, base_order=1.0)
    return d


def initial_data_size(state: PerturbationState, cfg: DiagnosticsConfig) -> float:
    """K0 = ||(grad^{-1} rho_0, u_0)||_{L^p} + ||(rho_0, u_0)||_{H^k}
    + ||grad Phi_0||_{L^2}."""
    ginv = frac_derivative(state.rho, -1.0)
    lp = lp_norm(ginv, cfg.p) + lp_norm(state.u, cfg.p)
    hk = sobolev_norm(state.rho, cfg.k) + sobolev_norm(state.u, cfg.k)
    return lp + hk + grad_norm(state.rho, -1.0)


def evolve(initial: PerturbationState, ss: SteadyState, params: FluidParams,
           t_end: float, dt: float | None = None, report_every: int = 10,
           diagnostics: DiagnosticsConfig | None = None, snapshot_cb=None):
    """Advance the perturbation to t_end and return its EnergyReports.

    Steps of size dt are taken while they fit, then one shortened step lands
    on t_end; when t_end / dt is within 1e-9 relative of an integer, exactly
    that many full steps are taken.  The final state's t is t_end.  Each
    reported state is passed with its report to ``snapshot_cb(state, report)``.
    On blow-up or positivity loss the run stops and the partial reports are
    returned inside the raised EvolutionError (attribute ``reports``)."""
    if not 0.0 <= t_end < np.inf:
        raise ValueError(f"t_end must be finite and nonnegative, got {t_end}")
    if report_every < 1:
        raise ValueError(f"report_every must be at least 1, got {report_every}")
    cfg = diagnostics or DiagnosticsConfig()
    if dt is None:
        dt = default_dt(params, initial.grid)
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    ratio = t_end / dt
    nfull = round(ratio)
    shortened = abs(ratio - nfull) > 1e-9 * ratio
    if shortened:
        nfull = int(np.floor(ratio))
    nsteps = nfull + shortened
    stepper = Integrator(ss, params, dt) if nfull else None
    zeta = cfg.zeta

    reports = []
    diss = 0.0
    sup_n = 0.0
    sup_k = 0.0

    def push_report(state):
        nonlocal sup_n, sup_k
        d = _instant_diagnostics(state, cfg)
        w = 1.0 + state.t
        sup_n = max(sup_n,
                    w ** (zeta + 0.75) * (d["script_l"] + d["script_m"])
                    + w ** (zeta + 0.5) * d["rho_l2"] + w ** zeta * d["u_l2"])
        sup_k = max(sup_k,
                    w ** (zeta + 0.5) * (d["script_h"] + d["script_j"]))
        lhs = d["hk_rho"] ** 2 + d["hk_u"] ** 2 + d["grad_phi_l2"] ** 2 + diss
        reports.append(EnergyReport(
            t=state.t, hk_rho=d["hk_rho"], hk_u=d["hk_u"],
            grad_phi_l2=d["grad_phi_l2"], dissipation=diss, energy_lhs=lhs,
            script_l=d["script_l"], script_m=d["script_m"],
            script_h=d["script_h"], script_j=d["script_j"],
            script_n=sup_n, script_k=sup_k))
        if snapshot_cb is not None:
            snapshot_cb(state, reports[-1])

    def diss_integrand(state):
        return (sobolev_norm(state.rho, cfg.k) ** 2
                + sobolev_norm(state.u, cfg.k, base_order=1.0) ** 2)

    state = initial
    prev_diss_integrand = diss_integrand(state)
    push_report(state)
    for istep in range(1, nsteps + 1):
        if istep > nfull:
            stepper = Integrator(ss, params, t_end - state.t)
        try:
            state = stepper.step(state)
        except EvolutionError as err:
            err.reports = reports
            raise
        if istep == nsteps:
            state.t = t_end          # summed full steps carry rounding in t
        cur = diss_integrand(state)
        diss += 0.5 * stepper.dt * (prev_diss_integrand + cur)   # trapezoidal
        prev_diss_integrand = cur
        if istep % report_every == 0 or istep == nsteps:
            push_report(state)
    return reports
