import numpy as np
import pytest

from nsplab.evolution import (DiagnosticsConfig, EvolutionError, Integrator,
                              PerturbationState, default_dt, evolve,
                              initial_data_size, nonlinear_terms,
                              random_smooth_state, rhs_nonlinear,
                              single_mode_state, zero_state)
from nsplab.spectral import Field, Grid, dealias, laplacian, sobolev_norm
from nsplab.steady import cosine_doping, flat_doping, solve_steady
from nsplab.thermo import FluidParams, GammaLaw

GRID = Grid(dim=2, n=16)
PARAMS = FluidParams(law=GammaLaw(2.0))


@pytest.fixture(scope="module")
def flat_ss():
    return solve_steady(PARAMS, flat_doping(GRID, 1.0))


@pytest.fixture(scope="module")
def bumpy_ss():
    doping = cosine_doping(GRID, amplitude=0.05)
    return solve_steady(PARAMS, doping)


class TestStates:
    def test_zero_state(self):
        s = zero_state(GRID)
        assert s.rho.mean() == 0.0
        assert s.u.is_vector and s.u.ncomp == 2

    def test_single_mode_mean_zero(self):
        s = single_mode_state(GRID, mode=2, amplitude=0.01)
        assert abs(s.rho.mean()) < 1e-15

    def test_random_smooth_normalization_and_band(self):
        s = random_smooth_state(GRID, seed=3, amplitude=0.02, band=3)
        size = np.hypot(sobolev_norm(s.rho, 4), sobolev_norm(s.u, 4))
        assert size == pytest.approx(0.02, rel=1e-12)
        m = np.max(np.abs(GRID.mode_numbers()), axis=0)
        assert np.max(np.abs(s.rho.spectrum()[m > 3])) < 1e-16

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
    def test_forms_agree(self, bumpy_ss):
        # the variable- and frozen-coefficient assemblies are algebraically
        # identical; with dealiased products they agree to roundoff
        s = random_smooth_state(GRID, seed=7, amplitude=1e-3)
        dr_v, du_v = rhs_nonlinear(s, bumpy_ss, PARAMS, form="variable")
        dr_c, du_c = rhs_nonlinear(s, bumpy_ss, PARAMS, form="constant")
        scale = max(np.max(np.abs(du_v.values)), 1e-30)
        np.testing.assert_allclose(dr_v.values, dr_c.values, atol=1e-13)
        np.testing.assert_allclose(du_v.values, du_c.values,
                                   atol=1e-12 * scale)

    def test_nonlinear_terms_quadratic_smallness(self, flat_ss):
        # around a constant state the nonlinearity is quadratic in the data
        n_big = nonlinear_terms(random_smooth_state(GRID, seed=2, amplitude=1e-3),
                                flat_ss, PARAMS)
        n_small = nonlinear_terms(random_smooth_state(GRID, seed=2, amplitude=5e-4),
                                  flat_ss, PARAMS)
        ratio = (np.max(np.abs(n_big[1].values))
                 / np.max(np.abs(n_small[1].values)))
        assert ratio == pytest.approx(4.0, rel=0.01)

    def test_rejects_unknown_form(self, flat_ss):
        s = zero_state(GRID)
        with pytest.raises(ValueError):
            rhs_nonlinear(s, flat_ss, PARAMS, form="mixed")


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
        s = single_mode_state(grid, mode=1, amplitude=amp, with_velocity=True)
        t = 0.7
        out = Integrator(flat_ss, PARAMS, t).step(s)
        kvec = np.array([2.0 * np.pi / grid.length, 0.0])
        idx = (1, 0)
        state0 = np.array([s.rho.spectrum()[idx],
                           s.u.spectrum()[(0,) + idx],
                           s.u.spectrum()[(1,) + idx]])
        expect = split_evolve_mode(PARAMS, kvec, t, state0)
        got = np.array([out.rho.spectrum()[idx],
                        out.u.spectrum()[(0,) + idx],
                        out.u.spectrum()[(1,) + idx]])
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

    def test_rejects_bad_dt(self, flat_ss):
        with pytest.raises(ValueError):
            Integrator(flat_ss, PARAMS, 0.0)

    def test_default_dt_scales_with_resolution(self):
        coarse = default_dt(PARAMS, Grid(dim=2, n=16))
        fine = default_dt(PARAMS, Grid(dim=2, n=32))
        assert fine < coarse


class TestEvolveDriver:
    def test_reports_and_decay(self, bumpy_ss):
        s0 = random_smooth_state(GRID, seed=6, amplitude=1e-2)
        _, reports = evolve(s0, bumpy_ss, PARAMS, t_end=2.0, dt=0.05,
                            report_every=10)
        assert reports[0].t == 0.0
        assert reports[-1].t == pytest.approx(2.0)
        assert reports[-1].hk_u < reports[0].hk_u
        assert reports[-1].dissipation > 0

    def test_energy_lhs_controlled(self, bumpy_ss):
        s0 = random_smooth_state(GRID, seed=6, amplitude=1e-2)
        _, reports = evolve(s0, bumpy_ss, PARAMS, t_end=2.0, dt=0.05)
        lhs0 = reports[0].energy_lhs
        assert max(r.energy_lhs for r in reports) <= 5.0 * lhs0

    def test_trajectory_kept_on_request(self, bumpy_ss):
        s0 = random_smooth_state(GRID, seed=6, amplitude=1e-3)
        traj, _ = evolve(s0, bumpy_ss, PARAMS, t_end=0.5, dt=0.1,
                         keep_trajectory=True)
        assert len(traj) == 6

    @pytest.mark.parametrize("t_end,dt,times", [
        (1.0, 0.4, [0.0, 0.4, 0.8, 1.0]),     # last step shortened to 0.2
        (1.0, None, None),                    # default step, no whole number
        (0.3, 0.1, [0.0, 0.1, 0.2, 0.3]),     # 0.3 / 0.1 rounds to 3 steps
    ])
    def test_final_report_reaches_t_end(self, bumpy_ss, t_end, dt, times):
        s0 = random_smooth_state(GRID, seed=6, amplitude=1e-3)
        traj, reports = evolve(s0, bumpy_ss, PARAMS, t_end=t_end, dt=dt,
                               keep_trajectory=True)
        assert reports[-1].t == t_end
        if times is not None:
            assert [s.t for s in traj] == pytest.approx(times)

    def test_blowup_reports_partial_history(self, flat_ss):
        s0 = single_mode_state(GRID, amplitude=0.9, with_velocity=True)
        with pytest.raises(EvolutionError) as exc:
            evolve(s0, flat_ss, PARAMS, t_end=50.0, dt=2.0)
        assert hasattr(exc.value, "reports")

    def test_initial_data_size_positive(self):
        s = random_smooth_state(GRID, seed=8, amplitude=1e-2)
        assert initial_data_size(s, DiagnosticsConfig()) > 0

    def test_diagnostics_zeta(self):
        assert DiagnosticsConfig(p=1.0, r=1.2).zeta == pytest.approx(0.5)
        assert DiagnosticsConfig(p=1.4, r=1.2).zeta == pytest.approx(
            1.5 * (1.0 / 1.4 - 0.5))
