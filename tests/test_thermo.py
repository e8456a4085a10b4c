import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsplab.spectral import Field, Grid
from nsplab.thermo import (FluidParams, GammaLaw, TabulatedLaw,
                           _remainder_gamma, remainder)

GRID = Grid(dim=2, n=8)


def const_field(value):
    return Field(GRID, np.full(GRID.shape, value))


class TestGammaLaw:
    def test_rejects_gamma_below_one(self):
        with pytest.raises(ValueError):
            GammaLaw(0.9)

    def test_isothermal_enthalpy_is_log(self):
        law = GammaLaw(1.0)
        z = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(law.h(z), np.log(z), atol=1e-14)

    def test_closed_form_matches_quadrature(self):
        # closed-form enthalpy against the base-class adaptive integral
        for g in (1.3, 2.0, 2.7):
            law = GammaLaw(g)
            ref = TabulatedLaw(dp_fn=law.dp)
            z = np.linspace(0.4, 2.5, 7)
            np.testing.assert_allclose(law.h(z), ref.h(z), atol=1e-10)

    def test_derivative_consistency(self):
        law = GammaLaw(1.7)
        z = np.linspace(0.5, 2.0, 9)
        eps = 1e-6
        num = (law.h(z + eps) - law.h(z - eps)) / (2 * eps)
        np.testing.assert_allclose(law.h_prime(z), num, rtol=1e-8)

    def test_quadratic_law_has_constant_slope(self):
        law = GammaLaw(2.0)
        z = np.linspace(0.2, 3.0, 11)
        np.testing.assert_allclose(law.h_prime(z), 2.0, atol=1e-14)


class TestFluidParams:
    def test_viscosity_conditions(self):
        with pytest.raises(ValueError):
            FluidParams(mu=0.0)
        with pytest.raises(ValueError):
            FluidParams(mu=1.0, mu_prime=-0.7)
        FluidParams(mu=1.0, mu_prime=-2.0 / 3.0)  # boundary case allowed

    def test_nu(self):
        p = FluidParams(mu=1.5, mu_prime=0.5, rho_bar=2.0)
        assert p.nu == pytest.approx(1.75)


class TestRemainder:
    @settings(max_examples=30, deadline=None)
    @given(gamma=st.sampled_from([1.0, 1.4, 2.0, 2.5, 3.0]),
           seed=st.integers(0, 10 ** 6))
    def test_taylor_identity(self, gamma, seed):
        # h(a + x) = h(a) + h'(a) x + R(x, a) must hold pointwise
        law = GammaLaw(gamma)
        rng = np.random.default_rng(seed)
        rho_s = Field(GRID, 1.0 + 0.3 * rng.uniform(-1, 1, GRID.shape))
        pert = Field(GRID, 0.2 * rng.uniform(-1, 1, GRID.shape))
        R = remainder(law, pert, rho_s)
        lhs = law.h(pert.values + rho_s.values)
        rhs = (law.h(rho_s.values)
               + law.h_prime(rho_s.values) * pert.values + R.values)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("gamma", [1.00001, 1.99999, 2.00001])
    def test_taylor_identity_next_to_the_special_laws(self, gamma):
        # gamma 1 (log enthalpy) and gamma 2 (R = 0) are taken only when
        # gamma is exactly 1 or 2; a law next to them keeps its own h and R
        law = GammaLaw(gamma)
        rng = np.random.default_rng(17)
        rho_s = Field(GRID, 1.0 + 0.3 * rng.uniform(-1, 1, GRID.shape))
        pert = Field(GRID, 0.2 * rng.uniform(-1, 1, GRID.shape))
        R = remainder(law, pert, rho_s)
        lhs = law.h(pert.values + rho_s.values)
        rhs = (law.h(rho_s.values)
               + law.h_prime(rho_s.values) * pert.values + R.values)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-9)

    def test_quadratic_law_remainder_zero(self):
        R = remainder(GammaLaw(2.0), const_field(0.3), const_field(1.2))
        assert np.all(R.values == 0.0)

    def test_quadrature_path_matches_closed_form(self):
        g = 1.6
        law = GammaLaw(g)
        shadow = TabulatedLaw(
            dp_fn=law.dp,
            d2p_fn=lambda z: g * (g - 1.0) * z ** (g - 2.0))
        rng = np.random.default_rng(4)
        rho_s = Field(GRID, 1.0 + 0.2 * rng.uniform(-1, 1, GRID.shape))
        pert = Field(GRID, 0.15 * rng.uniform(-1, 1, GRID.shape))
        a = remainder(law, pert, rho_s)
        b = remainder(shadow, pert, rho_s)
        np.testing.assert_allclose(a.values, b.values, atol=1e-13)

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(0.1, 1.0), gamma=st.sampled_from([1.4, 3.0]))
    def test_quadratic_scaling(self, scale, gamma):
        # R is quadratic at leading order: R(s x) ~ s^2 R(x) for small x
        law = GammaLaw(gamma)
        base = const_field(1.0)
        x = 1e-4
        r1 = remainder(law, const_field(x * scale), base).values[0, 0]
        r2 = remainder(law, const_field(x), base).values[0, 0]
        assert r1 == pytest.approx(scale ** 2 * r2, rel=1e-3)

    @pytest.mark.parametrize("gamma", [1.001, 1.2, 1.4, 5.0 / 3.0, 1.999, 2.5])
    def test_matches_high_precision(self, gamma):
        # R is O(x^2) while h(a + x) - h(a) is O(x): the closed form must not
        # lose the difference to cancellation for small |x| = |pert| / rho_s
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        a = 1.03
        line = Grid(dim=1, n=128)
        mag = np.geomspace(1e-10, 0.5, 64)
        pert = Field(line, a * np.concatenate([mag, -mag]))
        got = remainder(GammaLaw(gamma), pert, Field(line, np.full(128, a)))
        g, am = mpmath.mpf(gamma), mpmath.mpf(a)
        for z, r in zip(pert.values + a, got.values):
            z = mpmath.mpf(z)
            ref = (g / (g - 1) * (z ** (g - 1) - am ** (g - 1))
                   - g * am ** (g - 2) * (z - am))
            assert abs(r - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("gamma", [1.0, 1.2, 1.4, 1.7, 2.5, 3.0])
    def test_series_everywhere_matches_mixed_path(self, gamma):
        # all |x| < _SERIES_X takes the series without the split; appending
        # one |x| > 0.05 splits the same values, which must keep their bits
        rng = np.random.default_rng(7)
        rho_s = 1.0 + 0.3 * rng.uniform(-1, 1, 256)
        total = rho_s * (1.0 + 0.036 * rng.uniform(-1, 1, 256))
        small = _remainder_gamma(gamma, rho_s, total)
        mixed = _remainder_gamma(gamma, np.append(rho_s, 1.0),
                                 np.append(total, 1.2))
        np.testing.assert_array_equal(mixed[:-1], small)

    def test_rejects_nonpositive_total(self):
        with pytest.raises(ValueError, match="total density"):
            remainder(GammaLaw(1.4), const_field(-2.0), const_field(1.0))


def test_import_leaves_quadrature_unloaded(tmp_path):
    # scipy.integrate is imported by PressureLaw.h, numpy.fft by the first
    # transform and numpy.polynomial by the first TabulatedLaw remainder,
    # on first use only: `import nsplab` and a decay-only run load none, and
    # a transform or a whole `nsplab steady` loads numpy.fft but no scipy
    import nsplab
    src = Path(nsplab.__file__).resolve().parents[1]
    config = src.parent / "configs" / "lemma44_p1.cfg"
    code = """if True:
        import sys
        sys.path.insert(0, sys.argv[1])

        def lazy_modules(lazy=("scipy", "numpy.polynomial", "numpy.fft")):
            return [m for m in sys.modules for name in lazy
                    if m == name or m.startswith(name + ".")]

        import nsplab
        assert nsplab.__file__.startswith(sys.argv[1])
        assert lazy_modules() == [], lazy_modules()
        from nsplab import cli
        assert cli.main(["run", "--config", sys.argv[2],
                         "--output", sys.argv[3] + "/decay"]) == 0
        assert lazy_modules() == [], lazy_modules()
        from nsplab import spectral
        grid = spectral.Grid(dim=1, n=8)
        spectral.transform(grid, grid.axes())
        assert "numpy.fft" in sys.modules
        assert lazy_modules(("scipy",)) == [], lazy_modules(("scipy",))
        assert cli.main(["steady", "--dim", "3", "--n", "16",
                         "--output", sys.argv[3] + "/steady"]) == 0
        assert lazy_modules(("scipy",)) == [], lazy_modules(("scipy",))
    """
    proc = subprocess.run([sys.executable, "-c", code, str(src), str(config),
                           str(tmp_path / "out")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
