import json

import numpy as np
import pytest

from nsplab.config import ExperimentConfig
from nsplab.pipeline import run_pipeline
import fullgrid
from nsplab.spectral import (Field, Grid, dealias, gradient, inverse_transform,
                             lp_norm, real_layout, sobolev_norm)
from nsplab.steady import (SteadySolveError, _Elliptic, _flux_residual,
                           cosine_doping, flat_doping, gaussian_bump_doping,
                           solve_steady, verify_steady, w2r_norm)
from nsplab.thermo import FluidParams, GammaLaw, TabulatedLaw

GRID = Grid(dim=2, n=32)


def params_for(doping, gamma=2.0):
    return FluidParams(law=GammaLaw(gamma), rho_bar=doping.b_bar)


def white_noise(grid, seed, scale=1.0):
    """Mean-zero white noise: every mode, Nyquist ones included, is excited."""
    v = np.random.default_rng(seed).normal(size=grid.shape)
    return Field(grid, scale * (v - v.mean()))


GRIDS = [Grid(dim=1, n=64), Grid(dim=2, n=32), Grid(dim=3, n=16)]


def full_coords(grid):
    """Meshgrid of physical coordinates, shape (dim, n, ..., n)."""
    return np.stack(np.meshgrid(*[grid.axes()] * grid.dim, indexing="ij"))


def batched_w2r_norm(f, r):
    """`w2r_norm` from one batch: ik_a f_hat and the distinct ik_a ik_b f_hat
    all built first, then inverted in one transform."""
    grid = f.grid
    dim, ik = grid.dim, fullgrid.stacked(real_layout(grid).ik)
    pairs = [(a, b) for a in range(dim) for b in range(a, dim)]
    hat = np.empty((dim + len(pairs),) + ik.shape[1:], dtype=complex)
    np.multiply(ik, f.coefficients(), out=hat[:dim])
    for i, (a, b) in enumerate(pairs):
        np.multiply(ik[b], hat[a], out=hat[dim + i])
    phys = inverse_transform(grid, hat, overwrite=True)
    hess_sq = sum((1.0 if a == b else 2.0) * phys[dim + i] ** 2
                  for i, (a, b) in enumerate(pairs))
    return (lp_norm(f, r) ** r + lp_norm(Field(grid, phys[:dim]), r) ** r
            + lp_norm(Field(grid, np.sqrt(hess_sq)), r) ** r) ** (1.0 / r)


def three_component_residual(law, rho_s, b):
    """`_flux_residual` with every component at once: the gradient, the
    dealiased flux and its divergence as dim-component fields."""
    grid = rho_s.grid
    hp = np.asarray(law.h_prime(rho_s.values))
    ik = fullgrid.stacked(real_layout(grid).ik)
    flux = dealias(Field(grid, hp * gradient(rho_s).values),
                   out=np.empty(ik.shape, dtype=complex))
    div = np.sum(np.multiply(ik, flux, out=flux), axis=0)
    return inverse_transform(grid, div, overwrite=True) - (rho_s.values - b.values)


class TestDopingPresets:
    def test_flat(self):
        d = flat_doping(GRID, 1.5)
        assert d.b_bar == pytest.approx(1.5)
        assert np.all(d.b.values == 1.5)

    def test_gaussian_bump_positive_and_smooth(self):
        d = gaussian_bump_doping(GRID, amplitude=0.2)
        assert np.all(d.b.values > 0)
        # smooth periodization: spectral tail must decay below roundoff
        spec = np.abs(d.b.coefficients())
        m = np.max(np.abs(fullgrid.mode_numbers(GRID)), axis=0)
        m = m[..., :GRID.n // 2 + 1]
        assert spec[m > 12].max() < 1e-13

    def test_cosine_mean(self):
        d = cosine_doping(GRID, amplitude=0.3, mode=2)
        assert d.b_bar == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_presets_equal_full_coordinate_formulas(self, dim):
        # built from 1-D axes, the profiles have the bits of the formulas on
        # the full coordinate meshgrid
        grid = Grid(dim=dim, n=16)
        L, x = grid.length, full_coords(grid)
        for c, s in ((0.5 * L, L / 8.0), (0.3, 0.9), (5.9, 1.7)):
            d = np.mod(x - c + 0.5 * L, L) - 0.5 * L
            bump = np.zeros(grid.shape)
            offsets = np.array([-L, 0.0, L])
            shifts = np.meshgrid(*([offsets] * dim), indexing="ij")
            for shift in zip(*(g.ravel() for g in shifts)):
                r2 = sum((d[a] + shift[a]) ** 2 for a in range(dim))
                bump += np.exp(-r2 / s ** 2)
            got = gaussian_bump_doping(grid, amplitude=0.4, center=c, sigma=s)
            assert np.array_equal(got.b.values, 1.0 + 0.4 * bump)
        for mode in (1, 3):
            want = 1.0 + 0.3 * np.cos(2.0 * np.pi * mode * x[0] / L)
            got = cosine_doping(grid, amplitude=0.3, mode=mode)
            assert np.array_equal(got.b.values, want)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            cosine_doping(GRID, amplitude=1.5)

    def test_from_name(self):
        def build(doping):
            return ExperimentConfig({"doping": doping}).build_doping(GRID)
        d = build({"preset": "gaussian-bump", "amplitude": "0.05"})
        assert "gaussian-bump" in d.descriptor
        with pytest.raises(ValueError, match="unknown doping preset"):
            build({"preset": "triangle"})


class TestSolveSteady:
    def test_flat_doping_gives_constant_state(self):
        d = flat_doping(GRID, 1.0)
        ss = solve_steady(params_for(d), d)
        np.testing.assert_allclose(ss.rho_s.values, 1.0, atol=1e-13)
        np.testing.assert_allclose(ss.phi_s.values, 0.0, atol=1e-13)

    def test_quadratic_pressure_solves_in_few_sweeps(self):
        # the bump must be well resolved for the residual to reach the
        # solver tolerance rather than the truncation floor
        grid = Grid(dim=2, n=64)
        d = gaussian_bump_doping(grid, amplitude=0.1)
        ss = solve_steady(params_for(d), d)
        assert ss.iterations <= 3
        assert ss.residual_l2 < 1e-10

    def test_general_pressure_converges(self):
        d = cosine_doping(GRID, amplitude=0.1)
        ss = solve_steady(params_for(d, gamma=1.4), d)
        assert ss.residual_l2 < 1e-9

    def test_mean_mismatch_rejected(self):
        d = gaussian_bump_doping(GRID, amplitude=0.1)
        with pytest.raises(ValueError, match="mean doping"):
            solve_steady(FluidParams(law=GammaLaw(2.0), rho_bar=1.0), d)

    def test_density_stays_inside_doping_range(self):
        d = gaussian_bump_doping(GRID, amplitude=0.2)
        ss = solve_steady(params_for(d), d)
        rep = verify_steady(params_for(d), ss, d)
        assert rep.bounds_ok

    def test_failure_carries_history(self):
        d = cosine_doping(GRID, amplitude=0.1)
        with pytest.raises(SteadySolveError) as exc:
            solve_steady(params_for(d, gamma=1.4), d, tol=1e-30, max_iter=3)
        assert len(exc.value.residual_history) == 3

    def test_max_iter_below_one_rejected(self):
        d = cosine_doping(GRID, amplitude=0.1)
        with pytest.raises(ValueError, match="max_iter must be at least 1, got 0"):
            solve_steady(params_for(d), d, max_iter=0)

    def test_damping_carries_large_doping(self):
        # undamped Picard drives the density out of (0, inf) on this bump;
        # halving the step after a residual rise brings it to the tolerance
        grid = Grid(dim=1, n=64)
        d = gaussian_bump_doping(grid, amplitude=8.0)
        ss = solve_steady(params_for(d, gamma=1.0), d)
        assert ss.residual_l2 < 1e-10
        hist = ss.residual_history
        assert any(later > earlier for earlier, later in zip(hist, hist[1:]))

    def test_damping_recovers_after_a_rise(self):
        # a damping halved for good would need about 250 sweeps here
        grid = Grid(dim=1, n=64)
        d = gaussian_bump_doping(grid, amplitude=20.0)
        ss = solve_steady(params_for(d, gamma=1.0), d, max_iter=200)
        assert ss.residual_l2 < 1e-10

    def test_returned_deviation_carries_its_coefficients(self):
        d = gaussian_bump_doping(GRID, amplitude=0.1)
        ss = solve_steady(params_for(d, gamma=1.4), d)
        np.testing.assert_allclose(inverse_transform(GRID, ss.f.coefficients()),
                                   ss.f.values, rtol=0, atol=1e-15)
        np.testing.assert_allclose(ss.rho_s.values - ss.rho_bar, ss.f.values,
                                   rtol=0, atol=1e-15)

    def test_fft_budget(self, monkeypatch):
        # each sweep is one elliptic evaluation on the real layout: the
        # iterate's inverse and the remainder's forward transform, so at
        # most 2 transforms per iteration plus 1 (counted at the `rfft`
        # that starts and the `irfft` that ends each), none from scipy.fft,
        # and every complex pass on the half grid
        import numpy.fft
        import scipy.fft
        grid = Grid(dim=3, n=16)
        d = cosine_doping(grid, amplitude=0.05)
        calls, shapes = {}, []
        for mod in (numpy.fft, scipy.fft):
            for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn",
                         "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2"):
                def counted(x, *args, _fn=getattr(mod, name),
                            _key=f"{mod.__name__}.{name}", **kwargs):
                    calls[_key] = calls.get(_key, 0) + 1
                    if _key in ("numpy.fft.fft", "numpy.fft.ifft"):
                        shapes.append(np.shape(x))
                    return _fn(x, *args, **kwargs)
                monkeypatch.setattr(mod, name, counted)
        ss = solve_steady(params_for(d, gamma=1.4), d)
        assert ss.iterations > 1
        assert not any(key.startswith("scipy.fft") for key in calls)
        assert set(calls) == {"numpy.fft.rfft", "numpy.fft.fft",
                              "numpy.fft.ifft", "numpy.fft.irfft"}
        assert all(shape[-1] == 16 // 2 + 1 for shape in shapes)
        assert (calls["numpy.fft.rfft"] + calls["numpy.fft.irfft"]
                <= 2 * ss.iterations + 1)

    def test_keeps_its_inputs(self):
        # temporaries are inverted in place; the iterate, which becomes
        # ss.f's coefficients, is not, and verify_steady leaves them alone
        grid = Grid(dim=3, n=32)
        d = gaussian_bump_doping(grid, amplitude=0.3)
        p = params_for(d, gamma=1.4)
        ss = solve_steady(p, d)
        kept = ss.f.coefficients().copy()
        verify_steady(p, ss, d)
        np.testing.assert_array_equal(ss.f.coefficients(), kept)
        np.testing.assert_array_equal(ss.f.values,
                                      inverse_transform(grid,
                                                        ss.f.coefficients()))

    def test_tabulated_law_reaches_gamma_law_state(self):
        # the quadrature remainder stands in for the closed form; without
        # p'' there is no remainder and the solve says so
        grid = Grid(dim=2, n=16)
        d = gaussian_bump_doping(grid, amplitude=0.3)
        gamma = params_for(d, gamma=1.4)
        tab = FluidParams(law=TabulatedLaw(dp_fn=lambda z: 1.4 * z ** 0.4,
                                           d2p_fn=lambda z: 0.56 * z ** -0.6),
                          rho_bar=d.b_bar)
        want, got = solve_steady(gamma, d), solve_steady(tab, d)
        assert got.iterations == want.iterations
        np.testing.assert_allclose(got.rho_s.values, want.rho_s.values,
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(got.phi_s.values, want.phi_s.values,
                                   rtol=0, atol=1e-14)
        no_d2p = FluidParams(law=TabulatedLaw(dp_fn=tab.law.dp_fn),
                             rho_bar=d.b_bar)
        with pytest.raises(ValueError, match="second derivative"):
            solve_steady(no_d2p, d)

    def test_linear_response_scaling(self):
        # halving the doping amplitude halves the density deviation
        norms = {}
        for amp in (0.05, 0.025):
            d = gaussian_bump_doping(GRID, amplitude=amp)
            ss = solve_steady(params_for(d), d)
            norms[amp] = lp_norm(ss.f, 2.0)
        assert norms[0.025] / norms[0.05] == pytest.approx(0.5, abs=0.02)


class TestEllipticOperator:
    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.dim}d")
    def test_matches_complex_composition(self, grid):
        d = gaussian_bump_doping(grid, amplitude=0.1)
        p = params_for(d, gamma=1.4)
        f = white_noise(grid, seed=grid.dim, scale=1e-2)
        rho = p.rho_bar + f.values
        want = dealias(fullgrid.laplacian(Field(grid, p.law.h(rho)))).values
        got = inverse_transform(grid, _Elliptic(p, d).flux_div(f.coefficients(),
                                                               f.values))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.dim}d")
    def test_w2r_norm_matches_gradient_of_gradient(self, grid):
        f = white_noise(grid, seed=10 + grid.dim)
        r = 1.2
        g = gradient(f)
        hess_sq = sum(np.sum(gradient(Field(grid, g.values[a])).values ** 2,
                             axis=0)
                      for a in range(grid.dim))
        want = (lp_norm(f, r) ** r + lp_norm(g, r) ** r
                + lp_norm(Field(grid, np.sqrt(hess_sq)), r) ** r) ** (1.0 / r)
        assert w2r_norm(f, r) == pytest.approx(want, rel=1e-13)


class TestVerifySteady:
    @pytest.mark.parametrize("gamma", [1.4, 2.0])
    def test_solver_residual_matches_independent_check(self, gamma):
        # a bump wide enough for 32^3 to resolve, so both residuals sit at
        # roundoff rather than at the truncation floor
        grid = Grid(dim=3, n=32)
        d = gaussian_bump_doping(grid, amplitude=0.2, sigma=1.2)
        p = params_for(d, gamma=gamma)
        ss = solve_steady(p, d, tol=1e-11)
        rep = verify_steady(p, ss, d)
        assert rep.residual_l2 < 1e-11
        assert abs(ss.residual_l2 - rep.residual_l2) <= 1e-11
        assert rep.grad_rho_hk == pytest.approx(
            sobolev_norm(gradient(ss.rho_s), 2), rel=1e-13)

    @pytest.mark.parametrize("gamma", [1.4, 2.0])
    @pytest.mark.parametrize("amplitude", [0.3, 8.0])
    def test_truncation_defect_is_the_residual_floor(self, gamma, amplitude,
                                                     tmp_path):
        # the default bump is too narrow for 32^3: the residual stalls on the
        # defect outside the 2/3 mask, known before the first sweep, while
        # the Galerkin part inside the mask falls below tol; the independent
        # residual is the two parts in quadrature
        grid = Grid(dim=3, n=32)
        d = gaussian_bump_doping(grid, amplitude=amplitude)
        p = params_for(d, gamma=gamma)
        ss = solve_steady(p, d, tol=1e-10)
        rep = verify_steady(p, ss, d)
        assert ss.truncation_defect > 1e-9
        assert ss.truncation_defect == pytest.approx(rep.residual_l2, rel=0.01)
        assert ss.residual_l2 ** 2 - ss.truncation_defect ** 2 < 1e-20
        assert ss.galerkin_residual < 1e-10
        assert rep.residual_l2 == pytest.approx(
            np.hypot(ss.galerkin_residual, ss.truncation_defect), rel=0.01)
        config = ExperimentConfig({
            "grid": {"dim": "3", "n": "32"}, "fluid": {"gamma": str(gamma)},
            "doping": {"preset": "gaussian-bump", "amplitude": str(amplitude)},
            "solver": {"tol": "1e-10"}})
        summary = run_pipeline(config, output_dir=tmp_path)
        written = json.loads((tmp_path / "steady.json").read_text())
        for out in (written, summary["stages"]["steady"]):
            assert out["galerkin_residual"] == ss.galerkin_residual
            assert out["truncation_defect"] == ss.truncation_defect
            assert out["resolved"] is False

    def test_potential_balances_enthalpy_gradient(self):
        d = gaussian_bump_doping(GRID, amplitude=0.1)
        p = params_for(d)
        ss = solve_steady(p, d)
        rep = verify_steady(p, ss, d)
        assert rep.gradient_balance_l2 < 1e-12
        assert rep.mean_mismatch < 1e-13

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.dim}d")
    def test_streamed_forms_equal_batched(self, grid):
        # one derivative at a time gives the bits of the batched forms
        f = white_noise(grid, seed=30 + grid.dim)
        for r in (1.2, 2.0):
            assert w2r_norm(f, r) == batched_w2r_norm(f, r)
        law = GammaLaw(1.4)
        rho = Field(grid, 1.0 + 0.1 * white_noise(grid, seed=40 + grid.dim).values)
        b = gaussian_bump_doping(grid, amplitude=0.3).b
        np.testing.assert_array_equal(_flux_residual(law, rho, b),
                                      three_component_residual(law, rho, b))

    def test_working_set_is_a_few_scalar_fields(self):
        # tracemalloc peaks above the start, in real 32^3 fields: verify
        # streams its derivatives, the bump sums 1-D terms
        import tracemalloc
        grid = Grid(dim=3, n=32)
        field_bytes = 8 * grid.npoints
        d = gaussian_bump_doping(grid, amplitude=0.2, sigma=1.2)
        p = params_for(d, gamma=1.4)
        ss = solve_steady(p, d, tol=1e-11)
        verify_steady(p, ss, d)          # the layout and norm weights cached

        def peak(fn):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                fn()
                return (tracemalloc.get_traced_memory()[1] - start) / field_bytes
            finally:
                tracemalloc.stop()

        assert peak(lambda: verify_steady(p, ss, d)) <= 12
        assert peak(lambda: gaussian_bump_doping(grid, amplitude=0.2,
                                                 sigma=1.2)) <= 5

    def test_w2r_norm_bounds_lr(self):
        rng = np.random.default_rng(0)
        f = Field(GRID, rng.normal(size=GRID.shape))
        f = Field(GRID, f.values - f.values.mean())
        assert w2r_norm(f, 1.2) >= lp_norm(f, 1.2)
