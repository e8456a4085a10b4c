import numpy as np
import pytest

from nsplab.evolution import (Background, DiagnosticsConfig, EvolutionError,
                              Integrator, PerturbationState, default_dt,
                              evolve, initial_data_size, nonlinear_terms,
                              random_smooth_state, single_mode_state,
                              zero_state)
from nsplab.semigroup import (ModeSymbol, hodge_evolve, hodge_factors,
                              mode_exponential)
import fullgrid
from nsplab.spectral import (Field, Grid, dealias, inverse_transform,
                             laplacian, sobolev_norm)
from nsplab.steady import (cosine_doping, flat_doping, gaussian_bump_doping,
                           solve_steady)
from nsplab.thermo import FluidParams, GammaLaw, remainder

GRID = Grid(dim=2, n=16)
PARAMS = FluidParams(law=GammaLaw(2.0))


@pytest.fixture(scope="module")
def flat_ss():
    return solve_steady(PARAMS, flat_doping(GRID, 1.0))


@pytest.fixture(scope="module")
def bumpy_ss():
    doping = cosine_doping(GRID, amplitude=0.05)
    return solve_steady(PARAMS, doping)


def with_nyquist(state, amplitude):
    """The state plus Nyquist content (cos(n x / 2) on the 2 pi box) on
    both axes, which the 2/3 rule would remove but initial data may carry."""
    x, y = np.meshgrid(state.grid.axes(), state.grid.axes(), indexing="ij")
    half = state.grid.n // 2
    rho = state.rho.values + amplitude * np.cos(half * x) * np.cos(y)
    u = state.u.values.copy()
    u[0] += amplitude * np.cos(half * y) * np.cos(half * x)
    u[1] += amplitude * np.cos(half * x) * np.sin(2.0 * y)
    return PerturbationState(rho=Field(state.grid, rho), u=Field(state.grid, u))


def moving_mode_state(grid, amplitude):
    """The first density cos mode with the matching u_0 = A sin(2 pi x / L)."""
    s = single_mode_state(grid, amplitude=amplitude)
    u = s.u.values.copy()
    x = np.meshgrid(*[grid.axes()] * grid.dim, indexing="ij")[0]
    u[0] = amplitude * np.sin(2.0 * np.pi * x / grid.length)
    return PerturbationState(rho=s.rho, u=Field(grid, u))


def report_states(*args, **kwargs):
    """`evolve` reporting every step: its report states and its reports."""
    states = []
    reports = evolve(*args, report_every=1,
                     snapshot_cb=lambda state, rep: states.append(state),
                     **kwargs)
    return states, reports


def _viscous(params, u: Field) -> Field:
    """mu Lap u + (mu + mu') grad div u (vector output)."""
    grid = u.grid
    k = fullgrid.wavevectors(grid)
    k2 = fullgrid.wavenumber_magnitude(grid) ** 2
    spec = fullgrid.spectrum(u)
    div_spec = sum(spec[a] * (1j * k[a]) for a in range(grid.dim))
    out = np.empty_like(spec)
    for a in range(grid.dim):
        out[a] = -params.mu * k2 * spec[a] \
            + (params.mu + params.mu_prime) * (1j * k[a]) * div_spec
    return fullgrid.physical(grid, out)


def _advection(u: Field) -> Field:
    """Dealiased u . grad u in rotational form, grad(|u|^2 / 2) - u x omega
    with omega_c = d_a u_b - d_b u_a over the cyclic pairs (a, b), the
    aliasing `nonlinear_terms` has."""
    grid = u.grid
    half_sq = Field(grid, 0.5 * np.sum(u.values ** 2, axis=0))
    out = fullgrid.gradient(half_sq).values
    grads = [fullgrid.gradient(Field(grid, u.values[b])).values
             for b in range(grid.dim)]             # grads[b][a] = d_a u_b
    pairs = {1: (), 2: ((0, 1),), 3: ((1, 2), (2, 0), (0, 1))}[grid.dim]
    for a, b in pairs:
        omega = grads[b][a] - grads[a][b]
        out[a] -= u.values[b] * omega
        out[b] += u.values[a] * omega
    return dealias(Field(grid, out))


def _convective_advection(u: Field) -> Field:
    """Dealiased u . grad u in convective form, sum_b u_b d_b u_a; equal to
    the rotational form for velocity inside the 2/3 ball."""
    grid = u.grid
    comps = []
    for a in range(grid.dim):
        g = fullgrid.gradient(Field(grid, u.values[a]))
        comps.append(np.sum(u.values * g.values, axis=0))
    return dealias(Field(grid, np.stack(comps)))


def _scalar_times_vector(s: np.ndarray, v: Field) -> Field:
    return dealias(Field(v.grid, s[None, :] * v.values))


def rhs_nonlinear(state: PerturbationState, ss, params: FluidParams,
                  advection=_advection):
    """Time derivative (d rho / dt, d u / dt) of the perturbation system.

    The coefficients are kept at rho_s and the terms assembled on the full
    complex layout with dealiased products, independently of the
    integrator: it is the oracle for `nonlinear_terms` plus the linear part
    matching the mode symbols, which freeze the coefficients at rho_bar.
    ``advection`` gives the dealiased u . grad u.
    The two agree up to roundoff inside the 2/3 ball only, since this form
    also dealiases its linear terms.
    """
    state.check(ss)
    grid = state.grid
    visc = _viscous(params, state.u)
    grad_phi = fullgrid.poisson_gradient(state.rho)
    law = params.law
    rho_s = ss.rho_s
    total = state.rho.values + rho_s.values
    adv = advection(state.u)
    grad_R = fullgrid.gradient(dealias(remainder(law, state.rho, rho_s)))
    # d rho/dt = -div(rho_s u) - div(rho u)
    drho = -(fullgrid.divergence(
                 _scalar_times_vector(rho_s.values, state.u)).values
             + fullgrid.divergence(
                 _scalar_times_vector(state.rho.values, state.u)).values)
    hp_s = np.asarray(law.h_prime(rho_s.values))
    press = fullgrid.gradient(dealias(Field(grid, hp_s * state.rho.values)))
    inv_coeff = dealias(Field(grid, 1.0 / rho_s.values))
    visc_term = _scalar_times_vector(inv_coeff.values, visc)
    inv_jump = dealias(Field(grid, 1.0 / total - 1.0 / rho_s.values))
    du = (-press.values + visc_term.values + grad_phi.values
          - adv.values - grad_R.values
          + _scalar_times_vector(inv_jump.values, visc).values)
    return Field(grid, drho), Field(grid, du)


def assert_matches_variable_form(s, advection):
    """`nonlinear_terms` on a gamma 1.4 Gaussian bump against the oracle's
    right-hand side minus the linear part.  The variable form dealiases its
    linear terms too, so the difference is compared inside the 2/3 ball."""
    grid = s.grid
    doping = gaussian_bump_doping(grid, amplitude=0.3)
    params = FluidParams(law=GammaLaw(1.4), rho_bar=doping.b_bar)
    ss = solve_steady(params, doping)
    dr_v, du_v = rhs_nonlinear(s, ss, params, advection)
    lin_rho = -params.rho_bar * fullgrid.divergence(s.u).values
    lin_u = (-params.h_prime_bar * fullgrid.gradient(s.rho).values
             + _viscous(params, s.u).values / params.rho_bar
             + fullgrid.poisson_gradient(s.rho).values)
    n1, n2 = nonlinear_terms(s.rho.values, s.u.values, s.u.coefficients(),
                             Background(ss, params))
    for got, diff in ((inverse_transform(grid, n1), dr_v.values - lin_rho),
                      (inverse_transform(grid, n2), du_v.values - lin_u)):
        want = dealias(Field(grid, diff)).values
        scale = np.max(np.abs(want))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


def count_transforms(monkeypatch, grid):
    """Counts of the transforms made from now on: a forward transform is
    the last-axis `numpy.fft.rfft` that starts it, an inverse the last-axis
    `irfft` that ends it; the complex passes between belong to the same
    transform.  Each also counts its scalar fields, its leading-axes size,
    and every `scipy.fft` call is counted apart."""
    import numpy.fft
    import scipy.fft
    counts = dict.fromkeys(("forward", "inverse", "forward_fields",
                            "inverse_fields", "scipy.fft"), 0)
    half = grid.npoints // grid.n * (grid.n // 2 + 1)
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn",
                 "irfftn", "fft2", "ifft2", "rfft2", "irfft2"):
        def scipy_call(*args, _fn=getattr(scipy.fft, name), **kwargs):
            counts["scipy.fft"] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, scipy_call)
    for name, key, size in (("rfft", "forward", grid.npoints),
                            ("irfft", "inverse", half)):
        def counted(x, *args, _fn=getattr(numpy.fft, name), _key=key,
                    _size=size, **kwargs):
            counts[_key] += 1
            counts[_key + "_fields"] += np.size(x) // _size
            return _fn(x, *args, **kwargs)
        monkeypatch.setattr(numpy.fft, name, counted)
    return counts


class TestStates:
    def test_zero_state(self):
        s = zero_state(GRID)
        assert s.rho.mean() == 0.0
        assert s.u.is_vector and s.u.ncomp == 2

    def test_single_mode_mean_zero(self):
        for mode in (2, GRID.n // 2):
            s = single_mode_state(GRID, mode=mode, amplitude=0.01)
            assert abs(s.rho.mean()) < 1e-15

    def test_random_smooth_normalization_and_band(self):
        s = random_smooth_state(GRID, seed=3, amplitude=0.02, band=3)
        size = np.hypot(sobolev_norm(s.rho, 4), sobolev_norm(s.u, 4))
        assert size == pytest.approx(0.02, rel=1e-12)
        m = np.max(np.abs(fullgrid.mode_numbers(GRID)), axis=0)
        m = m[..., :GRID.n // 2 + 1]
        assert np.max(np.abs(s.rho.coefficients()[m > 3])) < 1e-16

    @pytest.mark.parametrize("preset,kwargs,match", [
        (single_mode_state, {"mode": 0}, r"mode must lie in \[1, 8\], got 0"),
        (single_mode_state, {"mode": 9}, r"mode must lie in \[1, 8\], got 9"),
        (random_smooth_state, {"band": 0}, "band must be at least 1, got 0")],
        ids=["mode-0", "mode-9", "band-0"])
    def test_presets_reject_out_of_range(self, preset, kwargs, match):
        # mode 0 is a constant density, mode 9 aliases to 7 on n = 16, and
        # band 0 is the zero state
        with pytest.raises(ValueError, match=match):
            preset(GRID, **kwargs)

    def test_random_smooth_deterministic(self):
        a = random_smooth_state(GRID, seed=5)
        b = random_smooth_state(GRID, seed=5)
        np.testing.assert_array_equal(a.rho.values, b.rho.values)
        np.testing.assert_array_equal(a.u.values, b.u.values)

    def test_potential_solves_poisson(self):
        s = random_smooth_state(GRID, seed=1, amplitude=0.01)
        res = laplacian(s.potential()).values - s.rho.values
        assert np.max(np.abs(res)) < 1e-14

    def test_check_detects_positivity_loss(self, flat_ss):
        s = single_mode_state(GRID, amplitude=2.0)
        with pytest.raises(EvolutionError, match="nonpositive"):
            s.check(flat_ss)


class TestRightHandSide:
    def test_nonlinear_terms_match_variable_form(self):
        # N = (variable-coefficient right-hand side) - (linear part), with
        # R and the pressure jump nonzero (gamma 1.4, non-flat doping) and
        # Nyquist content in the data, which the rotational oracle aliases
        # as nonlinear_terms does
        s = with_nyquist(random_smooth_state(GRID, seed=12, amplitude=2e-2),
                         1e-3)
        assert_matches_variable_form(s, _advection)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_nonlinear_terms_match_convective_form(self, dim):
        # band-limited velocity lies inside the 2/3 ball, where the
        # convective and rotational forms of u . grad u agree
        s = random_smooth_state(Grid(dim=dim, n=16), seed=12, amplitude=2e-2)
        assert_matches_variable_form(s, _convective_advection)

    def test_nonlinear_terms_quadratic_smallness(self, flat_ss):
        # around a constant state the nonlinearity is quadratic in the data
        bg = Background(flat_ss, PARAMS)

        def n2(amplitude):
            s = random_smooth_state(GRID, seed=2, amplitude=amplitude)
            return nonlinear_terms(s.rho.values, s.u.values,
                                   s.u.coefficients(), bg)[1]

        ratio = np.max(np.abs(n2(1e-3))) / np.max(np.abs(n2(5e-4)))
        assert ratio == pytest.approx(4.0, rel=0.01)

    def test_nonlinear_terms_reuse_keeps_no_state(self, bumpy_ss):
        # every call overwrites the Background's work arrays, N1 and N2
        # included (views of bg.prod_hat); a call after another gives the
        # bits of the same call on a fresh Background
        def call(s, bg):
            return nonlinear_terms(s.rho.values, s.u.values,
                                   s.u.coefficients(), bg)

        bg = Background(bumpy_ss, PARAMS)
        second = random_smooth_state(GRID, seed=11, amplitude=3e-2)
        call(random_smooth_state(GRID, seed=10, amplitude=1e-2), bg)
        n1, n2 = call(second, bg)
        assert np.shares_memory(n1, bg.prod_hat)
        assert np.shares_memory(n2, bg.prod_hat)
        fresh = call(second, Background(bumpy_ss, PARAMS))
        np.testing.assert_array_equal(n1, fresh[0])
        np.testing.assert_array_equal(n2, fresh[1])


class TestIntegrator:
    def test_mass_exactly_conserved(self, bumpy_ss):
        s = random_smooth_state(GRID, seed=9, amplitude=1e-2)
        stepper = Integrator(bumpy_ss, PARAMS, 0.05)
        for _ in range(10):
            s = stepper.step(s)
        assert abs(s.rho.mean()) < 1e-15

    def test_linear_part_exact_for_tiny_data(self, flat_ss):
        # with negligible nonlinearity one integrator step matches the
        # closed-form mode evolution for any dt
        from nsplab.semigroup import split_evolve_mode
        grid = GRID
        amp = 1e-9
        s = moving_mode_state(grid, amp)
        t = 0.7
        out = Integrator(flat_ss, PARAMS, t).step(s)
        kvec = np.array([2.0 * np.pi / grid.length, 0.0])
        idx = (1, 0)
        state0 = np.array([s.rho.coefficients()[idx],
                           s.u.coefficients()[(0,) + idx],
                           s.u.coefficients()[(1,) + idx]])
        expect = split_evolve_mode(PARAMS, kvec, t, state0)
        got = np.array([out.rho.coefficients()[idx],
                        out.u.coefficients()[(0,) + idx],
                        out.u.coefficients()[(1,) + idx]])
        np.testing.assert_allclose(got, expect, atol=1e-12 * amp)

    def test_second_order_self_convergence(self, bumpy_ss):
        s0 = random_smooth_state(GRID, seed=4, amplitude=5e-2)
        T = 1.0
        sols = []
        for dt in (0.1, 0.05, 0.025):
            s = s0
            stepper = Integrator(bumpy_ss, PARAMS, dt)
            for _ in range(int(round(T / dt))):
                s = stepper.step(s)
            sols.append(s)
        e1 = np.max(np.abs(sols[0].rho.values - sols[1].rho.values))
        e2 = np.max(np.abs(sols[1].rho.values - sols[2].rho.values))
        assert np.log2(e1 / e2) == pytest.approx(2.0, abs=0.4)

    def test_linear_step_matches_full_layout(self, bumpy_ss):
        # the half-grid propagator reproduces the full complex grid's, whose
        # real part drops the odd part of khat at Nyquist modes
        s = with_nyquist(random_smooth_state(GRID, seed=3, amplitude=1e-3),
                         1e-3)
        dt = 0.3
        got = Integrator(bumpy_ss, PARAMS, dt).linear_step(s)
        kmag = fullgrid.wavenumber_magnitude(GRID)
        zero = kmag == 0.0
        safe = np.where(zero, 1.0, kmag)
        E, heat = mode_exponential(ModeSymbol.from_params(PARAMS, safe), dt)
        E[zero] = np.eye(2)
        heat[zero] = 1.0
        rho, u = hodge_evolve(hodge_factors(E, heat),
                              fullgrid.wavevectors(GRID) / safe,
                              fullgrid.spectrum(s.rho), fullgrid.spectrum(s.u))
        rho[0, 0] = 0.0
        for field, spec in ((got.rho, rho), (got.u, u)):
            want = fullgrid.physical(GRID, spec).values
            np.testing.assert_allclose(field.values, want, rtol=0,
                                       atol=1e-14 * np.max(np.abs(want)))
        assert got.t == dt

    def test_step_fft_budget(self, monkeypatch):
        # a 16^3 step through numpy.fft alone: a warm step makes 8
        # transforms, 4 forward and 4 inverse (one batch per stage, one per
        # state it makes); the first also transforms its initial state, in
        # 2 forward transforms, and no state the stepper produced itself
        grid = Grid(dim=3, n=16)
        ss = solve_steady(PARAMS, cosine_doping(grid, amplitude=0.05))
        stepper = Integrator(ss, PARAMS, 0.05)
        s = random_smooth_state(grid, seed=1, amplitude=1e-2)
        counts = count_transforms(monkeypatch, grid)
        s = stepper.step(s)
        first = dict(counts)
        counts.update(dict.fromkeys(counts, 0))
        stepper.step(s)
        assert first["scipy.fft"] == counts["scipy.fft"] == 0
        assert (first["forward"], first["inverse"]) == (6, 4)
        assert (counts["forward"], counts["inverse"]) == (4, 4)

    @pytest.mark.parametrize("dim,forward,inverse", [
        (1, 8, 8), (2, 12, 14), (3, 16, 22)])
    def test_step_field_budget(self, monkeypatch, dim, forward, inverse):
        # the scalar fields a warm 16^dim step transforms: per stage one for
        # the inverse density and 2 dim + 1 products forward, the vorticity
        # (0, 1 or 3 components), dim viscous and one inverse density back,
        # and 1 + dim per state
        grid = Grid(dim=dim, n=16)
        ss = solve_steady(PARAMS, cosine_doping(grid, amplitude=0.05))
        stepper = Integrator(ss, PARAMS, 0.05)
        s = stepper.step(random_smooth_state(grid, seed=1, amplitude=1e-2))
        counts = count_transforms(monkeypatch, grid)
        stepper.step(s)
        assert (counts["forward_fields"], counts["inverse_fields"]) == (
            forward, inverse)

    def test_step_keeps_coefficients(self, bumpy_ss):
        # the in-place inverse transforms leave every state's coefficients
        # as they were, and a state's samples are its coefficients' inverse
        stepper = Integrator(bumpy_ss, PARAMS, 0.05)
        s0 = with_nyquist(random_smooth_state(GRID, seed=12, amplitude=1e-2), 1e-4)
        kept0 = [c.copy() for c in s0.coefficients()]
        s1 = stepper.step(s0)
        kept1 = [c.copy() for c in s1.coefficients()]
        s2 = stepper.step(s1)
        for state, kept in ((s0, kept0), (s1, kept1)):
            for c, k in zip(state.coefficients(), kept):
                np.testing.assert_array_equal(c, k)
        for state in (s1, s2):
            rho_hat, u_hat = state.coefficients()
            np.testing.assert_array_equal(state.rho.values,
                                          inverse_transform(GRID, rho_hat))
            np.testing.assert_array_equal(state.u.values,
                                          inverse_transform(GRID, u_hat))

    def test_step_allocation_budget(self):
        # after two warm-up steps a 16^3 step allocates under 11 real-field
        # sizes at its peak, the state it returns (about 8.5) included: the
        # transforms' inputs and outputs, the products and the mid state
        # live in the Background's work arrays
        import tracemalloc
        grid = Grid(dim=3, n=16)
        ss = solve_steady(PARAMS, cosine_doping(grid, amplitude=0.05))
        stepper = Integrator(ss, PARAMS, 0.05)
        s = random_smooth_state(grid, seed=1, amplitude=1e-2)
        for _ in range(2):
            s = stepper.step(s)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            stepper.step(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start) / (grid.npoints * 8) < 11

    def test_workspaces_isolated(self, bumpy_ss, flat_ss):
        # two Integrators on one grid (different dt and steady states),
        # stepped in turn, each give the bits they give alone
        s0 = random_smooth_state(GRID, seed=8, amplitude=1e-2)

        def make():
            return (Integrator(bumpy_ss, PARAMS, 0.05),
                    Integrator(flat_ss, PARAMS, 0.03))

        alone = []
        for stepper in make():
            s = s0
            for _ in range(4):
                s = stepper.step(s)
            alone.append(s)
        a, b = make()
        sa = sb = s0
        for _ in range(4):
            sa = a.step(sa)
            sb = b.step(sb)
        for got, want in zip((sa, sb), alone):
            np.testing.assert_array_equal(got.rho.values, want.rho.values)
            np.testing.assert_array_equal(got.u.values, want.u.values)

    def test_rejects_bad_dt(self, flat_ss):
        for dt in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="dt must be finite"):
                Integrator(flat_ss, PARAMS, dt)

    def test_default_dt_scales_with_resolution(self):
        coarse = default_dt(PARAMS, Grid(dim=2, n=16))
        fine = default_dt(PARAMS, Grid(dim=2, n=32))
        assert fine < coarse


class TestEvolveDriver:
    def test_reports_and_decay(self, bumpy_ss):
        s0 = random_smooth_state(GRID, seed=6, amplitude=1e-2)
        reports = evolve(s0, bumpy_ss, PARAMS, t_end=2.0, dt=0.05,
                         report_every=10)
        assert reports[0].t == 0.0
        assert reports[-1].t == pytest.approx(2.0)
        assert reports[-1].hk_u < reports[0].hk_u
        assert reports[-1].dissipation > 0

    def test_energy_lhs_controlled(self, bumpy_ss):
        s0 = random_smooth_state(GRID, seed=6, amplitude=1e-2)
        reports = evolve(s0, bumpy_ss, PARAMS, t_end=2.0, dt=0.05)
        lhs0 = reports[0].energy_lhs
        assert max(r.energy_lhs for r in reports) <= 5.0 * lhs0

    def test_trajectory_kept_on_request(self, bumpy_ss):
        s0 = random_smooth_state(GRID, seed=6, amplitude=1e-3)
        traj, _ = report_states(s0, bumpy_ss, PARAMS, t_end=0.5, dt=0.1)
        assert len(traj) == 6

    @pytest.mark.parametrize("t_end,dt,times", [
        (1.0, 0.4, [0.0, 0.4, 0.8, 1.0]),     # last step shortened to 0.2
        (1.0, None, None),                    # default step, no whole number
        (0.3, 0.1, [0.0, 0.1, 0.2, 0.3]),     # 0.3 / 0.1 rounds to 3 steps
    ])
    def test_final_report_reaches_t_end(self, bumpy_ss, t_end, dt, times):
        s0 = random_smooth_state(GRID, seed=6, amplitude=1e-3)
        traj, reports = report_states(s0, bumpy_ss, PARAMS, t_end=t_end,
                                      dt=dt)
        assert reports[-1].t == t_end
        if times is not None:
            assert [s.t for s in traj] == pytest.approx(times)

    def test_blowup_reports_partial_history(self, flat_ss):
        s0 = moving_mode_state(GRID, 0.9)
        with pytest.raises(EvolutionError) as exc:
            evolve(s0, flat_ss, PARAMS, t_end=50.0, dt=2.0)
        assert hasattr(exc.value, "reports")

    @pytest.mark.parametrize("t_end,dt,name", [
        (5.0, np.inf, "dt"), (5.0, np.nan, "dt"),
        (np.inf, 0.05, "t_end"), (np.nan, 0.05, "t_end")])
    def test_rejects_a_t_end_it_cannot_reach(self, flat_ss, t_end, dt, name):
        # dt = inf would take no step and report t = 0; the others would
        # fail inside round() without naming the argument
        s0 = random_smooth_state(GRID, seed=6, amplitude=1e-3)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            evolve(s0, flat_ss, PARAMS, t_end=t_end, dt=dt)

    @pytest.mark.parametrize("report_every", [0, -2])
    def test_rejects_report_every_below_one_before_any_step(
            self, flat_ss, report_every):
        s0 = random_smooth_state(GRID, seed=6, amplitude=1e-3)
        reported = []
        with pytest.raises(ValueError,
                           match=f"report_every must be at least 1, got "
                                 f"{report_every}"):
            evolve(s0, flat_ss, PARAMS, t_end=0.5, dt=0.1,
                   report_every=report_every,
                   snapshot_cb=lambda state, rep: reported.append(rep))
        assert reported == []

    def test_initial_data_size_positive(self):
        s = random_smooth_state(GRID, seed=8, amplitude=1e-2)
        assert initial_data_size(s, DiagnosticsConfig()) > 0

    def test_diagnostics_need_k_at_least_two(self):
        with pytest.raises(ValueError, match="k >= 2"):
            DiagnosticsConfig(k=1)

    def test_diagnostics_zeta(self):
        assert DiagnosticsConfig(p=1.0, r=1.2).zeta == pytest.approx(0.5)
        assert DiagnosticsConfig(p=1.4, r=1.2).zeta == pytest.approx(
            1.5 * (1.0 / 1.4 - 0.5))
