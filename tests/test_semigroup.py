from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm as scipy_expm

from nsplab import semigroup
from nsplab.acceptance import gates_decay_fits
from nsplab.config import ExperimentConfig
from nsplab.pipeline import run_pipeline, target_exponent
from nsplab.semigroup import (FitResult, LinearDecayQuery, ModeSymbol,
                              QuadratureError, decay_curve,
                              evolve_full_symbol, expm2, fit_exponent,
                              initial_profile, mode_exponential,
                              split_evolve_mode)
from nsplab.thermo import FluidParams, GammaLaw

PARAMS = FluidParams()
BUNDLED = Path(__file__).resolve().parents[1] / "configs" / "lemma44_p1.cfg"


@pytest.fixture
def expm2_calls(monkeypatch):
    """The time shapes of every `semigroup.expm2` call made by the test."""
    calls = []

    def counting(M, t):
        calls.append(np.shape(t))
        return expm2(M, t)

    monkeypatch.setattr(semigroup, "expm2", counting)
    return calls


class TestExpm2:
    @settings(max_examples=60, deadline=None)
    @given(entries=st.lists(st.floats(-5, 5), min_size=4, max_size=4),
           t=st.floats(0.01, 5.0))
    def test_matches_scaling_and_squaring(self, entries, t):
        M = np.array(entries).reshape(2, 2)
        ref = scipy_expm(t * M)
        # accuracy is absolute, relative to the dominant entry
        tol = 1e-9 * max(1.0, float(np.max(np.abs(ref))))
        np.testing.assert_allclose(expm2(M, t), ref, atol=tol, rtol=0)

    def test_defective_matrix(self):
        M = np.array([[2.0, 1.0], [0.0, 2.0]])       # repeated eigenvalue
        np.testing.assert_allclose(expm2(M, 0.7), scipy_expm(0.7 * M),
                                   atol=1e-10)

    def test_strong_damping_stays_finite(self):
        # at high wavenumber one branch is parabolic (rate ~ nu xi^2) and
        # must underflow without tripping overflow in the other factor
        sym = ModeSymbol.from_params(PARAMS, 50.0)
        E = expm2(sym.block, 10.0)
        assert np.all(np.isfinite(E))
        np.testing.assert_allclose(E, scipy_expm(10.0 * sym.block), atol=1e-12)

    def test_very_strong_damping_underflows_cleanly(self):
        sym = ModeSymbol.from_params(PARAMS, 50.0)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            E = expm2(sym.block, 1e4)       # slow branch ~ exp(-1e4)
        assert np.all(np.isfinite(E))
        assert np.max(np.abs(E)) < 1e-300

    def test_identity_at_t_zero(self):
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(expm2(M, 0.0), np.eye(2), atol=1e-14)
        rng = np.random.default_rng(1)
        batch = rng.uniform(-5, 5, size=(20, 2, 2))
        np.testing.assert_array_equal(expm2(batch, 0.0),
                                      np.broadcast_to(np.eye(2), batch.shape))

    def test_batched_equals_stacked_scalar_calls(self):
        rng = np.random.default_rng(2)
        Ms = rng.uniform(-5, 5, size=(200, 2, 2))
        ts = rng.uniform(0.01, 5.0, size=200)
        stacked = np.array([expm2(M, t) for M, t in zip(Ms, ts)])
        batched = expm2(Ms, ts)
        assert batched.shape == (200, 2, 2)
        # equal up to the last bits in which numpy's vectorized exp/sin/cos
        # may differ from their one-element results
        scale = np.max(np.abs(stacked), axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(batched - stacked) <= 2e-15 * scale)

    def test_t_broadcasts_against_leading_shape(self):
        rng = np.random.default_rng(3)
        Ms = rng.uniform(-2, 2, size=(3, 2, 2))
        ts = np.array([0.1, 1.0, 2.5, 7.0])
        E = expm2(Ms, ts[:, None])
        assert E.shape == (4, 3, 2, 2)
        assert expm2(Ms, 0.5).shape == (3, 2, 2)
        assert expm2(Ms[0], ts).shape == (4, 2, 2)
        for i, t in enumerate(ts):
            for j, M in enumerate(Ms):
                np.testing.assert_allclose(E[i, j], expm2(M, t),
                                           rtol=0, atol=1e-15 * np.max(np.abs(E[i, j])))

    def test_eigenvalue_collision_window(self):
        # near xi_c, nu^2 xi^4 = 4 rho_bar (1 + hb xi^2), the eigenvalues
        # collide; sweep |delta| from 1e-12 to 1e-3 on both sides against a
        # 40-digit reference
        mpmath = pytest.importorskip("mpmath")
        rb, hb, nu = PARAMS.rho_bar, PARAMS.h_prime_bar, PARAMS.nu
        xi_c = np.sqrt((rb * hb + np.sqrt((rb * hb) ** 2 + nu * nu * rb))
                       * 2.0 / (nu * nu))
        ddelta = nu * nu * xi_c ** 3 - 2.0 * rb * hb * xi_c   # d delta / d xi
        cases = [(ModeSymbol.from_params(PARAMS, xi_c + side * target / ddelta).block, t)
                 for target in np.geomspace(1e-12, 1e-3, 10)
                 for side in (-1.0, 1.0)
                 for t in (0.05, 0.5, 2.0, 5.0, 20.0)]
        # points of the "2x2 exponential oracle" gate's (xi, t) grid, whose
        # scipy reference is itself off by up to 5e-12: its worst point
        # (xi = 1e-2, t = 7.54, entries about 95) and a spread of others
        xis = np.geomspace(1e-2, 10.0, 50)
        ts = np.geomspace(1e-2, 10.0, 50)
        for i, j in ((0, 47), (0, 49), (0, 0), (10, 30), (25, 25), (40, 10),
                     (49, 49)):
            cases.append((ModeSymbol.from_params(PARAMS, xis[i]).block, ts[j]))
        worst = 0.0
        with mpmath.workdps(40):
            for B, t in cases:
                ref = mpmath.expm(mpmath.matrix(B.tolist()) * mpmath.mpf(float(t)))
                ref = np.array(ref.tolist(), dtype=float)
                err = np.max(np.abs(expm2(B, t) - ref)) / np.max(np.abs(ref))
                worst = max(worst, err)
        assert worst <= 1e-13


class TestModeSymbol:
    def test_eigenvalue_dispersion(self):
        # eigenvalues solve L^2 + nu xi^2 L + rho_bar (1 + hb xi^2) = 0
        xi = 0.7
        sym = ModeSymbol.from_params(PARAMS, xi)
        lams = np.linalg.eigvals(sym.block)
        for lam in lams:
            res = (lam ** 2 + PARAMS.nu * xi ** 2 * lam
                   + PARAMS.rho_bar * (1.0 + PARAMS.h_prime_bar * xi ** 2))
            assert abs(res) < 1e-12

    def test_all_modes_decay(self):
        for xi in np.geomspace(0.01, 30, 20):
            lams = np.linalg.eigvals(ModeSymbol.from_params(PARAMS, xi).block)
            assert np.all(lams.real < 0)

    def test_low_mode_oscillation_frequency(self):
        # as xi -> 0 the mode oscillates at sqrt(rho_bar)
        sym = ModeSymbol.from_params(PARAMS, 1e-4)
        lams = np.linalg.eigvals(sym.block)
        assert np.max(np.abs(lams.imag)) == pytest.approx(
            np.sqrt(PARAMS.rho_bar), rel=1e-6)

    def test_semigroup_property(self):
        sym = ModeSymbol.from_params(PARAMS, 1.3)
        E1, s1 = mode_exponential(sym, 0.4)
        E2, s2 = mode_exponential(sym, 0.6)
        E3, s3 = mode_exponential(sym, 1.0)
        np.testing.assert_allclose(E2 @ E1, E3, atol=1e-12)
        assert s1 * s2 == pytest.approx(s3, rel=1e-12)

    def test_rejects_zero_mode(self):
        with pytest.raises(ValueError):
            ModeSymbol.from_params(PARAMS, 0.0)
        with pytest.raises(ValueError):
            ModeSymbol.from_params(PARAMS, np.array([1.0, 0.0]))

    def test_array_of_wavenumbers(self):
        xis = np.array([0.01, 0.7, 1.5537, 30.0])
        sym = ModeSymbol.from_params(PARAMS, xis)
        E, heat = mode_exponential(sym, 0.9)
        for i, xi in enumerate(xis):
            one = ModeSymbol.from_params(PARAMS, xi)
            np.testing.assert_array_equal(sym.block[i], one.block)
            E1, h1 = mode_exponential(one, 0.9)
            np.testing.assert_allclose(E[i], E1, rtol=0,
                                       atol=1e-15 * np.max(np.abs(E1)))
            assert heat[i] == pytest.approx(h1, rel=1e-15)
            # the block is the similarity D B D^{-1} of the normalized one
            D = np.diag([xi, 1.0])
            np.testing.assert_allclose(
                D @ one.normalized_block @ np.linalg.inv(D), one.block,
                rtol=1e-15)


class TestSplitVsFull:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), t=st.floats(0.05, 5.0))
    def test_split_matches_dense_exponential(self, seed, t):
        rng = np.random.default_rng(seed)
        kvec = rng.integers(-4, 5, size=3).astype(float)
        if not kvec.any():
            kvec = np.array([1.0, 0.0, 0.0])
        state0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        split = split_evolve_mode(PARAMS, kvec, t, state0)
        dense = evolve_full_symbol(PARAMS, kvec, t, state0)
        np.testing.assert_allclose(split, dense, atol=1e-11)

    def test_works_in_two_dimensions(self):
        state0 = np.array([1.0, 0.5, -0.25], dtype=complex)
        kvec = [2.0, -1.0]
        split = split_evolve_mode(PARAMS, kvec, 0.8, state0)
        dense = evolve_full_symbol(PARAMS, kvec, 0.8, state0)
        np.testing.assert_allclose(split, dense, atol=1e-12)

    def test_nondefault_viscosities(self):
        p = FluidParams(law=GammaLaw(1.4), mu=0.3, mu_prime=0.2, rho_bar=1.5)
        state0 = np.array([0.2, 1.0, -0.5, 0.1], dtype=complex)
        split = split_evolve_mode(p, [1.0, 2.0, -1.0], 1.5, state0)
        dense = evolve_full_symbol(p, [1.0, 2.0, -1.0], 1.5, state0)
        np.testing.assert_allclose(split, dense, atol=1e-12)


class TestDecayCurves:
    def test_profile_validation(self):
        with pytest.raises(ValueError):
            initial_profile(0.5)

    def test_curves_are_positive_and_decreasing_late(self):
        q = LinearDecayQuery(component="velocity")
        curve = decay_curve(q, np.geomspace(1e2, 1e3, 12))
        vals = [v for _, v in curve]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("component,ell,target", [
        ("velocity", 0.0, -0.75),
        ("density", 0.0, -1.25),
        ("density", 0.5, -1.50),
        ("velocity", 1.5, -1.50),
    ])
    def test_fitted_slopes_hit_targets(self, component, ell, target):
        q = LinearDecayQuery(ell=ell, component=component)
        fit = fit_exponent(decay_curve(q, np.geomspace(1e2, 1e4, 25)))
        assert fit.slope == pytest.approx(target, abs=0.05)
        assert fit.is_power_law

    def test_general_p_slope(self):
        # L^{4/3} data: velocity decays like t^{-3/8}
        q = LinearDecayQuery(p=4.0 / 3.0, component="velocity")
        fit = fit_exponent(decay_curve(q, np.geomspace(1e2, 1e4, 25)))
        assert fit.slope == pytest.approx(-1.5 * (0.75 - 0.5), abs=0.05)

    def test_incompressible_part_decays_faster(self):
        times = np.geomspace(1e2, 1e3, 12)
        both = decay_curve(LinearDecayQuery(parts="both"), times)
        inc = decay_curve(LinearDecayQuery(parts="incompressible"), times)
        assert inc[-1][1] < both[-1][1]

    def test_sup_norm_surrogate_slope(self):
        q = LinearDecayQuery(q=np.inf, component="velocity")
        fit = fit_exponent(decay_curve(q, np.geomspace(1e2, 1e4, 25)))
        assert fit.slope == pytest.approx(-1.5, abs=0.05)

    def test_refinement_failure_names_first_time(self, monkeypatch):
        # at step 0.13 the rule at twice the step misses 1e-6 at some of
        # these times, but not at the first
        monkeypatch.setattr(semigroup, "_STEP", 0.13)
        q = LinearDecayQuery(component="velocity")
        times = np.geomspace(1e3, 1e4, 12)
        fine, coarse, _ = semigroup._squared_norms(q, FluidParams(), times,
                                                   alpha=3.0)   # ell 0, p 1
        bad = np.abs(np.sqrt(coarse) - np.sqrt(fine)) > 1e-6 * np.sqrt(fine)
        assert not bad[0] and bad.any()
        first = times[int(np.argmax(bad))]
        with pytest.raises(QuadratureError, match=f"t={first}:"):
            decay_curve(q, times)

    def test_divergent_query_is_rejected(self, expm2_calls):
        # 3 (1 - 1/p) >= ell + 3/2: the velocity integral diverges at xi -> 0
        times = np.geomspace(1e2, 1e4, 12)
        with pytest.raises(QuadratureError, match="velocity integral diverges"):
            decay_curve(LinearDecayQuery(p=2.0), times)
        assert expm2_calls == []
        curve = decay_curve(LinearDecayQuery(p=1.9), times)
        assert all(np.isfinite(v) and v > 0 for _, v in curve)

    @pytest.mark.parametrize("p", [1.0, 1.2, 1.4, 1.5, 1.7, 1.9])
    def test_velocity_slope_across_p(self, p):
        # the xi < 1e-6 tail carries a quarter of the squared norm at p = 1.9
        curve = decay_curve(LinearDecayQuery(p=p), np.geomspace(1e2, 1e4, 60))
        fit = fit_exponent(curve)
        assert fit.slope == pytest.approx(target_exponent(0.0, p, mode="lemma"),
                                          abs=2e-3)
        assert curve.refinement_error < 1e-9
        assert 0.0 < curve.tail_share < 0.3

    @pytest.mark.parametrize("p", [1.0, 1.2, 1.4, 1.5, 1.7, 1.9])
    @pytest.mark.parametrize("component", ["velocity", "density"])
    def test_cutoff_sensitivity(self, monkeypatch, component, p):
        query = LinearDecayQuery(p=p, component=component)
        times = np.geomspace(1e2, 1e4, 12)
        near = np.array(decay_curve(query, times))[:, 1]
        monkeypatch.setattr(semigroup, "_XI_MIN", 1e-9)
        far = np.array(decay_curve(query, times))[:, 1]
        assert np.max(np.abs(far - near) / near) <= 1e-8

    def test_rejects_bad_times(self):
        q = LinearDecayQuery()
        with pytest.raises(ValueError):
            decay_curve(q, [0.0, 1.0])
        with pytest.raises(ValueError):
            decay_curve(q, [2.0, 1.0])


class TestLatticeOracle:
    """At p = 1 the squared integrand of `decay_curve` is smooth in k, so
    its sum over the lattice (2 pi / L) Z^3 converges exponentially in L
    (Poisson summation).  With L = 32 sqrt(t), which resolves the
    e^{-2 t |k|^2} decay, the sum is an oracle for the radial quadrature
    that shares only the mode block and its exponential with it."""

    @staticmethod
    def lattice_norm(query, t, span=32):
        # the integrand depends on |m|^2 only: one term per distinct value
        m2 = np.arange(-span, span + 1) ** 2
        n2, count = np.unique((m2[:, None, None] + m2[:, None] + m2).ravel(),
                              return_counts=True)
        h = 2.0 * np.pi / (span * np.sqrt(t))
        sym = ModeSymbol.from_params(PARAMS, h * np.sqrt(n2[1:]))
        # k = 0, which ModeSymbol rejects: the xi = 0 normalized block
        block0 = np.array([[0.0, -PARAMS.rho_bar], [1.0, 0.0]])
        E = np.concatenate((expm2(block0, t)[None],
                            expm2(sym.normalized_block, t)))
        xi = h * np.sqrt(n2)
        if query.component == "density":     # rho_hat = xi * E row 0
            amp2 = xi ** 2 * np.sum(E[:, 0] ** 2, axis=-1)
        else:
            amp2 = np.exp(-2.0 * PARAMS.mu / PARAMS.rho_bar * xi ** 2 * t)
            if query.parts == "both":
                amp2 += np.sum(E[:, 1] ** 2, axis=-1)
        f = initial_profile(query.p)(xi) ** 2 * xi ** (2.0 * query.ell) * amp2
        return np.sqrt(h ** 3 * np.dot(count, f))

    @pytest.mark.parametrize("component,ell,parts", [
        ("velocity", 0.0, "both"), ("velocity", 0.0, "incompressible"),
        ("velocity", 1.0, "both"), ("velocity", 1.0, "incompressible"),
        ("density", 0.0, "both")])
    def test_quadrature_matches_lattice_sum(self, component, ell, parts):
        query = LinearDecayQuery(ell=ell, component=component, parts=parts)
        times = (1e2, 1e3, 1e4)
        for t, norm in decay_curve(query, times):
            assert self.lattice_norm(query, t) == pytest.approx(norm,
                                                                rel=1e-13)


class TestFitExponent:
    def test_recovers_exact_power_law(self):
        t = np.geomspace(1, 100, 30)
        curve = [(ti, 3.0 * ti ** -1.25) for ti in t]
        fit = fit_exponent(curve)
        assert fit.slope == pytest.approx(-1.25, abs=1e-12)
        assert fit.residual_rms < 1e-12
        assert fit.stderr < 1e-12

    def test_window_filters_samples(self):
        t = np.geomspace(1, 1000, 60)
        curve = [(ti, ti ** -1.0 + 5.0 * np.exp(-ti)) for ti in t]
        full = fit_exponent(curve)
        late = fit_exponent(curve, window=(50, 1000))
        assert abs(late.slope + 1.0) < abs(full.slope + 1.0)

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError, match="10 samples"):
            fit_exponent([(1.0, 1.0)] * 5)

    def test_rejects_nonpositive_norms(self):
        curve = [(float(t), 0.0) for t in range(1, 15)]
        with pytest.raises(ValueError, match="positive"):
            fit_exponent(curve)

    def test_names_a_non_finite_norm(self):
        curve = [(float(t), float(t) ** -1.0) for t in range(1, 15)]
        curve[6] = (7.0, float("nan"))
        with pytest.raises(ValueError, match=r"sample 6 .*t = 7, norm = nan"):
            fit_exponent(curve)

    def test_names_a_sample_at_time_zero(self):
        curve = [(float(t), 1.0 / (1.0 + t)) for t in range(14)]
        with pytest.raises(ValueError, match=r"sample 0 .*t = 0,"):
            fit_exponent(curve)

    def test_result_type(self):
        t = np.geomspace(1, 10, 12)
        fit = fit_exponent([(ti, ti ** -2.0) for ti in t])
        assert isinstance(fit, FitResult)
        assert fit.n == 12


class TestSharedExponentials:
    """A run's decay curves share one mode-exponential table, which also
    serves their refinement checks, and give the same values as one
    unshared `decay_curve` per query."""

    def test_pipeline_makes_one_exponential(self, tmp_path, expm2_calls):
        config = ExperimentConfig.from_file(BUNDLED)
        for run in ("first", "second"):
            expm2_calls.clear()
            run_pipeline(config, tmp_path / run)
            assert len(expm2_calls) == 1, run
        expm2_calls.clear()
        for label, query in config.decay_queries():
            times = config.decay_kwargs(label)["times"]
            alone = np.array(decay_curve(query, times))
            written = np.loadtxt(tmp_path / "second" / f"decay_{label}.csv",
                                 delimiter=",", skiprows=1)
            assert np.array_equal(written, alone), label
        assert len(expm2_calls) == len(config.decay_queries())

    def test_decay_gates_make_one_exponential(self, expm2_calls):
        gates = gates_decay_fits()
        assert len(expm2_calls) == 1
        assert all(g.passed for g in gates)

    def test_sup_norm_curve_makes_one_exponential(self, expm2_calls):
        query = LinearDecayQuery(q=np.inf, component="velocity")
        times = np.geomspace(1e2, 1e4, 25)
        shared = decay_curve(query, times)
        assert len(expm2_calls) == 1
        c1, c2 = (decay_curve(replace(query, ell=ell, q=2.0), times)
                  for ell in (1.0, 2.0))
        assert len(expm2_calls) == 3
        assert np.array_equal(np.array(shared)[:, 1],
                              np.sqrt(np.array(c1)[:, 1] * np.array(c2)[:, 1]))
        assert shared.refinement_error == max(c1.refinement_error,
                                              c2.refinement_error)
        assert shared.tail_share == max(c1.tail_share, c2.tail_share)
