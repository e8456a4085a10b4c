"""Acceptance gates: one function per criterion group, each returning a
list of GateResult records.  The ``verify`` CLI subcommand and the
acceptance test module both run these."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .evolution import (DiagnosticsConfig, Integrator, evolve,
                        random_smooth_state)
from .pipeline import target_exponent
from .semigroup import (LinearDecayQuery, ModeSymbol, decay_curve,
                        evolve_full_symbol, expm2, fit_exponent,
                        shared_exponentials, split_evolve_mode)
from .spectral import (Field, Grid, frac_derivative, gn_interpolation_check,
                       laplacian, lp_norm)
from .steady import gaussian_bump_doping, flat_doping, solve_steady, verify_steady
from .thermo import FluidParams, GammaLaw, TabulatedLaw, remainder

__all__ = ["GateResult", "run_acceptance",
           "gates_decay_fits", "gates_target_exponents", "gates_steady",
           "gates_oracles", "gates_nonlinear", "gates_spectral"]


@dataclass
class GateResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def _gate(name, passed, detail):
    return GateResult(name=name, passed=bool(passed), detail=detail)


# ---------------------------------------------------------------------------
# 1. Fitted linear decay exponents (p = 1, q = 2)
# ---------------------------------------------------------------------------

def gates_decay_fits() -> list:
    t0 = time.perf_counter()
    times = np.geomspace(1e2, 1e4, 60)
    cases = [
        ("velocity ell=0", LinearDecayQuery(ell=0.0, component="velocity"), -0.75),
        ("density ell=0", LinearDecayQuery(ell=0.0, component="density"), -1.25),
        ("density ell=1/2", LinearDecayQuery(ell=0.5, component="density"), -1.50),
        ("velocity ell=3/2", LinearDecayQuery(ell=1.5, component="velocity"), -1.50),
    ]
    out = []
    with shared_exponentials():
        for label, query, target in cases:
            fit = fit_exponent(decay_curve(query, times), (1e2, 1e4))
            out.append(_gate(
                f"decay fit {label}", abs(fit.slope - target) <= 0.05,
                f"slope {fit.slope:.4f} vs target {target} (tol 0.05)"))
    elapsed = time.perf_counter() - t0
    out.append(_gate("decay fit runtime", elapsed < 10.0,
                     f"{elapsed:.1f}s (budget 10s)"))
    return out


# ---------------------------------------------------------------------------
# 2. Closed-formula target exponents
# ---------------------------------------------------------------------------

def gates_target_exponents() -> list:
    eps = 1e-15
    cases = [
        ("density p=1 r->1+",
         target_exponent(0.0, 1.0, r=1.0 + eps, component="density"), -1.25),
        ("velocity p=1 r->1+",
         target_exponent(0.0, 1.0, r=1.0 + eps, component="velocity"), -0.75),
        ("sup-norm p=1 r->1+",
         target_exponent(0.0, 1.0, r=1.0 + eps, q=np.inf), -1.5),
        ("density p=r=1.4",
         target_exponent(0.0, 1.4, r=1.4, component="density"),
         -1.5 * (1.0 / 1.4 - 0.5) - 0.5),
    ]
    return [
        _gate(f"target exponent {label}", abs(got - want) <= 1e-12,
              f"{got!r} vs {want!r} (tol 1e-12)")
        for label, got, want in cases
    ]


# ---------------------------------------------------------------------------
# 3. Steady states on 64^3
# ---------------------------------------------------------------------------

def gates_steady() -> list:
    t0 = time.perf_counter()
    grid = Grid(dim=3, n=64)
    out = []
    grad_hk = {}
    ratios = {}
    for amp in (0.1, 0.05, 0.025):
        doping = gaussian_bump_doping(grid, amplitude=amp)
        params = FluidParams(law=GammaLaw(2.0), rho_bar=doping.b_bar)
        ss = solve_steady(params, doping, tol=1e-11)
        rep = verify_steady(params, ss, doping, r=1.2)
        if amp == 0.1:
            out.append(_gate("steady residual",
                             rep.residual_l2 < 1e-10,
                             f"L2 defect {rep.residual_l2:.3e} (tol 1e-10)"))
            out.append(_gate(
                "steady density bounds",
                rep.bounds_ok,
                f"rho in [{rep.rho_min:.6f}, {rep.rho_max:.6f}], "
                f"b in [{rep.b_min:.6f}, {rep.b_max:.6f}]"))
        grad_hk[amp] = rep.grad_rho_hk
        ratios[amp] = rep.ratio_w2r_lr
    scale1 = grad_hk[0.05] / grad_hk[0.1]
    scale2 = grad_hk[0.025] / grad_hk[0.05]
    out.append(_gate(
        "steady amplitude scaling",
        abs(scale1 - 0.5) <= 0.05 and abs(scale2 - 0.5) <= 0.05,
        f"halving scales grad H2 norm by {scale1:.4f}, {scale2:.4f} "
        "(target 0.5 +- 10%)"))
    vals = np.array(list(ratios.values()))
    spread = vals.max() / vals.min() - 1.0
    out.append(_gate(
        "steady norm-ratio stability", spread <= 0.2,
        f"W^(2,r)/L^r ratio spread {100 * spread:.1f}% across amplitudes "
        "(tol 20%)"))
    elapsed = time.perf_counter() - t0
    out.append(_gate("steady runtime", elapsed < 20.0,
                     f"{elapsed:.1f}s (budget 20s)"))
    return out


# ---------------------------------------------------------------------------
# 4. Analytic oracles
# ---------------------------------------------------------------------------

def gates_oracles() -> list:
    from scipy.linalg import expm as scipy_expm
    params = FluidParams()
    out = []

    # closed-form 2x2 exponential, one batched call over the (xi, t) grid,
    # vs scaling-and-squaring per pair
    xis = np.geomspace(1e-2, 10.0, 50)
    ts = np.geomspace(1e-2, 10.0, 50)
    blocks = ModeSymbol.from_params(params, xis).block
    batched = expm2(blocks[:, None], ts)
    worst = 0.0
    for i, B in enumerate(blocks):
        for j, t in enumerate(ts):
            worst = max(worst, float(np.max(np.abs(batched[i, j]
                                                   - scipy_expm(t * B)))))
    out.append(_gate("2x2 exponential oracle", worst < 1e-10,
                     f"max entry deviation {worst:.3e} (tol 1e-10)"))

    # Hodge-split evolution vs dense unsplit symbol
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(40):
        kvec = rng.integers(-4, 5, size=3).astype(float)
        if not kvec.any():
            kvec = np.array([1.0, 0.0, 0.0])
        state0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        for t in (0.1, 1.0, 5.0):
            split = split_evolve_mode(params, kvec, t, state0)
            dense = evolve_full_symbol(params, kvec, t, state0)
            worst = max(worst, float(np.max(np.abs(split - dense))))
    out.append(_gate("split vs unsplit symbol", worst < 1e-10,
                     f"max state deviation {worst:.3e} (tol 1e-10)"))

    # exact quadratic Taylor identity of the enthalpy
    grid = Grid(dim=2, n=16)
    rng = np.random.default_rng(3)
    laws = [GammaLaw(g) for g in (1.0, 1.4, 2.0, 2.5, 3.0)]
    laws.append(TabulatedLaw(
        p_fn=lambda z: z ** 2 + 0.5 * z,
        dp_fn=lambda z: 2.0 * z + 0.5,
        d2p_fn=lambda z: 2.0 * np.ones_like(z)))
    worst = 0.0
    for law in laws:
        rho_s = Field(grid, 1.0 + 0.3 * rng.uniform(-1, 1, grid.shape))
        pert = Field(grid, 0.2 * rng.uniform(-1, 1, grid.shape))
        R = remainder(law, pert, rho_s)
        lhs = np.asarray(law.h(pert.values + rho_s.values))
        rhs = (np.asarray(law.h(rho_s.values))
               + np.asarray(law.h_prime(rho_s.values)) * pert.values + R.values)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    out.append(_gate("enthalpy Taylor identity", worst < 1e-12,
                     f"max pointwise deviation {worst:.3e} (tol 1e-12)"))

    R2 = remainder(GammaLaw(2.0),
                   Field(grid, 0.2 * rng.uniform(-1, 1, grid.shape)),
                   Field(grid, np.full(grid.shape, 1.1)))
    out.append(_gate("quadratic-law remainder vanishes",
                     float(np.max(np.abs(R2.values))) == 0.0,
                     f"max |R| = {float(np.max(np.abs(R2.values)))!r}"))
    return out


# ---------------------------------------------------------------------------
# 5. Nonlinear evolution on 32^3
# ---------------------------------------------------------------------------

def _order_from_errors(e_coarse, e_fine):
    return float(np.log2(e_coarse / e_fine))


def _state_diff(a, b):
    return float(np.sqrt(np.sum((a.rho.values - b.rho.values) ** 2)
                         + np.sum((a.u.values - b.u.values) ** 2))
                 * a.grid.cell_volume ** 0.5)


def gates_nonlinear() -> list:
    t0 = time.perf_counter()
    out = []

    # main run: 32^3, quadratic pressure, flat doping, random smooth data
    grid = Grid(dim=3, n=32)
    params = FluidParams(law=GammaLaw(2.0))
    doping = flat_doping(grid, 1.0)
    ss = solve_steady(params, doping)
    initial = random_smooth_state(grid, seed=11, amplitude=1e-2)
    diag = DiagnosticsConfig(k=4, p=1.0, r=1.2)
    max_mean = pois_l2 = 0.0

    def constraints(state, rep):
        # conservation and constraint residuals at every report state
        nonlocal max_mean, pois_l2
        max_mean = max(max_mean, abs(state.rho.mean()))
        rho = state.rho.values
        pois = laplacian(state.potential()).values - (rho - rho.mean())
        pois_l2 = max(pois_l2,
                      float(np.sqrt(np.sum(pois ** 2) * grid.cell_volume)))

    _, reports = evolve(initial, ss, params, t_end=50.0, dt=0.05,
                        report_every=20, diagnostics=diag,
                        snapshot_cb=constraints)
    out.append(_gate("mass conservation", max_mean < 1e-12,
                     f"max |mean density pert| {max_mean:.3e} (tol 1e-12)"))
    out.append(_gate("electrostatic constraint", pois_l2 < 1e-10,
                     f"max Poisson defect L2 {pois_l2:.3e} (tol 1e-10)"))

    # small-amplitude consistency: deviation from the exact linear flow
    # must shrink quadratically with the data amplitude
    sgrid = Grid(dim=3, n=16)
    sdoping = flat_doping(sgrid, 1.0)
    sss = solve_steady(params, sdoping)
    T, dt_s = 1.0, 0.025
    errs = []
    for amp in (1e-3, 5e-4):
        init = random_smooth_state(sgrid, seed=5, amplitude=amp)
        stepper = Integrator(sss, params, dt_s)
        st = init
        for _ in range(int(round(T / dt_s))):
            st = stepper.step(st)
        ref = Integrator(sss, params, T).linear_step(init)  # exact linear flow
        errs.append(_state_diff(st, ref))
    order_amp = _order_from_errors(errs[0], errs[1])
    out.append(_gate("linear consistency order", abs(order_amp - 2.0) <= 0.1,
                     f"amplitude-halving order {order_amp:.3f} (target 2 +- 0.1)"))

    # self-convergence under time-step halving
    init = random_smooth_state(sgrid, seed=5, amplitude=5e-2)
    sols = []
    for dt in (0.05, 0.025, 0.0125):
        stepper = Integrator(sss, params, dt)
        st = init
        for _ in range(int(round(T / dt))):
            st = stepper.step(st)
        sols.append(st)
    order_dt = _order_from_errors(_state_diff(sols[0], sols[1]),
                                  _state_diff(sols[1], sols[2]))
    out.append(_gate("time-step convergence order",
                     abs(order_dt - 2.0) <= 0.4,
                     f"dt-halving order {order_dt:.3f} (target 2 +- 20%)"))

    # energy functional stays within a fixed multiple of its initial value
    lhs0 = reports[0].energy_lhs
    lhs_max = max(rep.energy_lhs for rep in reports)
    out.append(_gate("energy bound", lhs_max <= 50.0 * lhs0,
                     f"max/initial energy {lhs_max / lhs0:.2f} (bound 50)"))

    n0 = reports[0].script_n
    nf = reports[-1].script_n
    out.append(_gate("weighted-decay functional bound", nf < 10.0 * n0,
                     f"final/initial ratio {nf / n0:.2f} (bound 10)"))

    elapsed = time.perf_counter() - t0
    out.append(_gate("nonlinear runtime", elapsed < 90.0,
                     f"{elapsed:.1f}s (budget 90s)"))
    return out


# ---------------------------------------------------------------------------
# 6. Spectral toolbox
# ---------------------------------------------------------------------------

def gates_spectral() -> list:
    rng = np.random.default_rng(23)
    grid = Grid(dim=3, n=16)
    out = []

    # Parseval
    worst = 0.0
    for _ in range(20):
        f = Field(grid, rng.normal(size=grid.shape))
        phys = lp_norm(f, 2.0)
        spec = np.sqrt(grid.length ** grid.dim * np.sum(np.abs(f.spectrum()) ** 2))
        worst = max(worst, abs(phys - spec) / max(phys, 1e-300))
    out.append(_gate("Parseval identity", worst < 1e-12,
                     f"max relative deviation {worst:.3e} (tol 1e-12)"))

    # multiplier composition: |k|^a then |k|^b equals |k|^{a+b}
    worst = 0.0
    for a, b in ((0.5, 1.0), (1.5, -1.0), (0.25, 0.75)):
        f = Field(grid, rng.normal(size=grid.shape))
        f = Field(grid, f.values - f.values.mean())
        seq = frac_derivative(frac_derivative(f, a), b)
        direct = frac_derivative(f, a + b)
        denom = max(float(np.max(np.abs(direct.values))), 1e-300)
        worst = max(worst, float(np.max(np.abs(seq.values - direct.values))) / denom)
    out.append(_gate("multiplier composition", worst < 1e-12,
                     f"max relative deviation {worst:.3e} (tol 1e-12)"))

    # interpolation inequality with constant one
    worst = 0.0
    for i in range(100):
        f = Field(grid, rng.normal(size=grid.shape))
        f = Field(grid, f.values - f.values.mean())
        _, ratio = gn_interpolation_check(f, alpha=1.0, beta=0.5, gamma=2.0)
        worst = max(worst, ratio)
    out.append(_gate("interpolation inequality", worst <= 1.0 + 1e-12,
                     f"max ratio {worst!r} (bound 1 + 1e-12)"))
    return out


# ---------------------------------------------------------------------------

_GROUPS = [
    ("linear decay fits", gates_decay_fits),
    ("target exponents", gates_target_exponents),
    ("steady states", gates_steady),
    ("analytic oracles", gates_oracles),
    ("nonlinear evolution", gates_nonlinear),
    ("spectral toolbox", gates_spectral),
]


def run_acceptance(stream=print, skip_slow=False):
    """Run every gate group; returns (all_passed, results)."""
    results = []
    for label, fn in _GROUPS:
        if skip_slow and fn in (gates_steady, gates_nonlinear):
            continue
        stream(f"== {label} ==")
        for res in fn():
            results.append(res)
            stream(res.line())
    ok = all(r.passed for r in results)
    stream(f"== {'ALL GATES PASSED' if ok else 'GATE FAILURES PRESENT'} ==")
    return ok, results
