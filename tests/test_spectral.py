import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fullgrid
from nsplab.spectral import (Field, Grid, MeanZeroError, coeff_norm, dealias,
                             divergence, frac_derivative,
                             gn_interpolation_check, grad_norm, gradient,
                             inverse_laplacian, inverse_transform, laplacian,
                             lp_norm, real_layout, sobolev_norm, transform)


def random_field(grid, seed, mean_zero=True):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=grid.shape)
    if mean_zero:
        v -= v.mean()
    return Field(grid, v)


GRID2 = Grid(dim=2, n=16)
GRID3 = Grid(dim=3, n=8)


class TestGrid:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Grid(dim=2, n=12)
        with pytest.raises(ValueError):
            Grid(dim=2, n=4)
        with pytest.raises(ValueError):
            Grid(dim=4, n=16)
        with pytest.raises(ValueError):
            Grid(dim=2, n=16, length=-1.0)

    def test_cell_volume(self):
        g = Grid(dim=3, n=8, length=4.0)
        assert g.cell_volume == pytest.approx(0.125)
        assert g.npoints == 512

    def test_wavevectors_integer_modes(self):
        # the half grid's k = ik / i + k_nyquist holds modes 0..n/2, the
        # last as -n/2
        lay = real_layout(Grid(dim=1, n=8))
        ik, k_nyq = fullgrid.stacked(lay.ik), fullgrid.stacked(lay.k_nyquist)
        np.testing.assert_allclose(ik.imag[0] + k_nyq[0],
                                   [0, 1, 2, 3, -4], atol=1e-14)
        # the mode numbers are scipy's fftfreq(n, 1/n), bit for bit
        import scipy.fft
        for n in (8, 16, 32, 64, 128, 256):
            m = scipy.fft.fftfreq(n, 1.0 / n)
            for dim in (1, 2, 3):
                grid = Grid(dim=dim, n=n)
                np.testing.assert_array_equal(grid.mode_axis(), m)
                want = np.stack(np.meshgrid(*([m] * dim), indexing="ij"))
                np.testing.assert_array_equal(fullgrid.mode_numbers(grid),
                                              want)


class TestField:
    def test_shapes_scalar_or_vector(self):
        # samples are a scalar grid.shape or a component axis before it
        for shape in ((16, 16), (2, 16, 16), (5, 16, 16)):
            assert Field(GRID2, np.zeros(shape)).values.shape == shape
        for shape in ((), (16,), (16, 8), (2, 16, 8), (2, 2, 16, 16)):
            with pytest.raises(ValueError, match="incompatible with grid"):
                Field(GRID2, np.zeros(shape))


class TestTransforms:
    def test_roundtrip(self):
        f = random_field(GRID2, 0, mean_zero=False)
        g = inverse_transform(GRID2, transform(GRID2, f.values))
        np.testing.assert_allclose(g, f.values, atol=1e-14)

    def test_single_mode_coefficient(self):
        # the half grid holds c_2 of cos(2x); its partner c_-2 is conj c_2
        g = Grid(dim=1, n=16)
        x = g.axes()
        spec = Field(g, np.cos(2.0 * x)).coefficients()
        assert spec.shape == (9,)
        assert spec[2] == pytest.approx(0.5, abs=1e-14)
        np.testing.assert_allclose(np.delete(spec, 2), 0.0, atol=1e-14)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bits_equal_scipy(self, dim, n):
        # numpy.fft in scipy's pass order gives scipy's rfftn and irfftn
        # bit for bit: the transform, both inverse paths and the three
        # `dealias` returns, on scalar and stacked samples
        import scipy.fft
        grid = Grid(dim=dim, n=n)
        axes = tuple(range(-dim, 0))
        rng = np.random.default_rng(100 * n + dim)
        for lead in ((), (3,)):
            values = rng.normal(size=lead + grid.shape)
            want = scipy.fft.rfftn(values, axes=axes, norm="forward")
            np.testing.assert_array_equal(transform(grid, values), want)
            back = scipy.fft.irfftn(want, s=grid.shape, axes=axes,
                                    norm="forward")
            kept = want.copy()
            np.testing.assert_array_equal(inverse_transform(grid, want), back)
            np.testing.assert_array_equal(want, kept)
            np.testing.assert_array_equal(
                inverse_transform(grid, want, overwrite=True), back)
            masked = kept * real_layout(grid).mask
            f = Field(grid, values)
            np.testing.assert_array_equal(
                dealias(f, out=np.empty_like(masked)), masked)
            np.testing.assert_array_equal(dealias(f, coefficients=True),
                                          masked)
            np.testing.assert_array_equal(
                dealias(f).values, scipy.fft.irfftn(
                    masked, s=grid.shape, axes=axes, norm="forward"))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_parseval(self, seed):
        f = random_field(GRID2, seed, mean_zero=False)
        phys = lp_norm(f, 2.0)
        spec = coeff_norm(GRID2, f.coefficients())
        assert phys == pytest.approx(spec, rel=1e-13)


class TestDerivatives:
    def test_gradient_of_cosine(self):
        g = Grid(dim=2, n=32)
        x = np.meshgrid(g.axes(), g.axes(), indexing="ij")
        f = Field(g, np.cos(3.0 * x[0]))
        df = gradient(f)
        np.testing.assert_allclose(df.values[0], -3.0 * np.sin(3.0 * x[0]),
                                   atol=1e-12)
        np.testing.assert_allclose(df.values[1], 0.0, atol=1e-12)

    def test_div_grad_is_laplacian(self):
        # identity holds on the dealiased band (odd derivatives drop the
        # unpaired Nyquist mode of a real field)
        f = dealias(random_field(GRID3, 1))
        a = divergence(gradient(f))
        b = laplacian(f)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_inverse_laplacian_inverts(self):
        f = random_field(GRID3, 2)
        g = laplacian(inverse_laplacian(f))
        np.testing.assert_allclose(g.values, f.values, atol=1e-12)

    def test_inverse_laplacian_needs_mean_zero(self):
        f = Field(GRID2, np.ones(GRID2.shape))
        with pytest.raises(MeanZeroError):
            inverse_laplacian(f)

    def test_div_grad_inverse_laplacian(self):
        f = dealias(random_field(GRID3, 3))
        g = divergence(gradient(inverse_laplacian(f)))
        np.testing.assert_allclose(g.values, f.values, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(a=st.floats(0.25, 1.5), b=st.floats(0.25, 1.5),
           seed=st.integers(0, 10 ** 6))
    def test_frac_derivative_composition(self, a, b, seed):
        f = random_field(GRID2, seed)
        seq = frac_derivative(frac_derivative(f, a), b)
        direct = frac_derivative(f, a + b)
        scale = float(np.max(np.abs(direct.values))) or 1.0
        np.testing.assert_allclose(seq.values, direct.values,
                                   atol=1e-12 * scale)

    def test_frac_derivative_inverse_pair(self):
        f = random_field(GRID2, 5)
        g = frac_derivative(frac_derivative(f, -1.0), 1.0)
        np.testing.assert_allclose(g.values, f.values, atol=1e-12)


class TestRealLayout:
    # white noise fills every mode, the Nyquist ones included
    @pytest.mark.parametrize("grid", [GRID2, GRID3, Grid(dim=1, n=16)])
    def test_gradient_matches_complex(self, grid):
        f = random_field(grid, 21)
        c = fullgrid.stacked(real_layout(grid).ik) * f.coefficients()
        kept = c.copy()
        got = inverse_transform(grid, c)
        np.testing.assert_array_equal(c, kept)
        want = fullgrid.gradient(f).values
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))
        np.testing.assert_allclose(gradient(f).values, want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))
        # the in-place path gives the same bits, stacked and scalar
        np.testing.assert_array_equal(
            inverse_transform(grid, c, overwrite=True), got)
        scalar = f.coefficients()
        np.testing.assert_array_equal(
            inverse_transform(grid, scalar.copy(), overwrite=True),
            inverse_transform(grid, scalar))

    @pytest.mark.parametrize("grid", [GRID2, GRID3, Grid(dim=1, n=16)])
    def test_multipliers_match_complex(self, grid):
        f = random_field(grid, 22)
        v = Field(grid, np.stack([random_field(grid, 50 + a).values
                                  for a in range(grid.dim)]))
        k2 = fullgrid.wavenumber_magnitude(grid) ** 2
        with np.errstate(divide="ignore"):
            inv_k2 = np.where(k2 > 0, 1.0 / k2, 0.0)
        spec = fullgrid.spectrum(f)
        pairs = [(laplacian(f), fullgrid.laplacian(f)),
                 (divergence(v), fullgrid.divergence(v)),
                 (inverse_laplacian(f), fullgrid.physical(grid, -inv_k2 * spec)),
                 (frac_derivative(f, 1.5), fullgrid.physical(grid, k2 ** 0.75 * spec)),
                 (frac_derivative(f, -0.5),
                  fullgrid.physical(grid, inv_k2 ** 0.25 * spec))]
        for got, want in pairs:
            np.testing.assert_allclose(got.values, want.values, rtol=0,
                                       atol=1e-13 * np.max(np.abs(want.values)))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_layout_equals_sliced_full_grid_modes(self, dim):
        # built from 1-D mode numbers, the layout has the bits of the one
        # sliced from the full-grid `mode_numbers`; ik and k_nyquist are
        # compared as the dense stacks of their per-axis factors
        for n in (8, 16, 32, 64, 128):
            grid = Grid(dim=dim, n=n)
            m = fullgrid.mode_numbers(grid)[..., : n // 2 + 1]
            k = (2.0 * np.pi / grid.length) * m
            k_nyq = np.where(np.abs(m) == n // 2, k, 0.0)
            want = {"ik": 1j * (k - k_nyq), "k_nyquist": k_nyq,
                    "kmag": np.sqrt(np.sum(k * k, axis=0)),
                    "mask": np.all(np.abs(m) <= n / 3.0, axis=0)}
            lay = real_layout(grid)
            for name, value in want.items():
                got = getattr(lay, name)
                if isinstance(got, tuple):
                    got = fullgrid.stacked(got)
                assert got.dtype == value.dtype, (n, name)
                np.testing.assert_array_equal(got, value, err_msg=f"{n} {name}")

    @pytest.mark.parametrize("grid", [GRID2, GRID3, Grid(dim=1, n=16)])
    def test_nyquist_planes_hold_k_nyquist(self, grid):
        lay = real_layout(grid)
        k_nyq = fullgrid.stacked(lay.k_nyquist)
        for a, (plane, kn) in enumerate(lay.nyquist):
            on_plane = np.zeros(lay.kmag.shape, dtype=bool)
            on_plane[plane] = True
            np.testing.assert_array_equal(k_nyq[a] != 0, on_plane)
            # and the components it lists are k_nyquist's on that plane
            np.testing.assert_array_equal(kn, k_nyq[(slice(None),) + plane])

    def test_layout_keeps_per_axis_factors(self):
        # ik and k_nyquist are per-axis factors; only kmag and the mask
        # are half-grid arrays
        grid = Grid(dim=3, n=64)
        lay = real_layout(grid)
        for factors in (lay.ik, lay.k_nyquist):
            for a, f in enumerate(factors):
                want = [1] * 3
                want[a] = 64 if a < 2 else 33
                assert f.shape == tuple(want)
        total = sum(a.nbytes for a in (*lay.ik, *lay.k_nyquist, lay.kmag,
                                       lay.mask))
        assert total <= lay.kmag.nbytes + lay.mask.nbytes + 4096

    @pytest.mark.parametrize("grid", [GRID2, GRID3])
    def test_grad_div_matches_complex(self, grid):
        # the even product k_a k_b keeps its Nyquist entries
        v = Field(grid, np.stack([random_field(grid, 30 + a).values
                                  for a in range(grid.dim)]))
        lay = real_layout(grid)
        ik, k_nyq = fullgrid.stacked(lay.ik), fullgrid.stacked(lay.k_nyquist)
        c = v.coefficients()
        got = inverse_transform(
            grid, ik * sum(ik[a] * c[a] for a in range(grid.dim))
            - k_nyq * sum(k_nyq[a] * c[a] for a in range(grid.dim)))
        k = fullgrid.wavevectors(grid)
        spec = fullgrid.spectrum(v)
        div = sum(1j * k[a] * spec[a] for a in range(grid.dim))
        want = fullgrid.physical(grid, 1j * k * div).values
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))


class TestNorms:
    def test_lp_norm_constant(self):
        g = Grid(dim=2, n=16, length=2.0)
        f = Field(g, np.full(g.shape, 3.0))
        assert lp_norm(f, 1.0) == pytest.approx(12.0)       # 3 * area 4
        assert lp_norm(f, np.inf) == pytest.approx(3.0)

    def test_lp_norm_temporaries(self):
        # tracemalloc peaks above the start, in real 64^3 fields, at r = 1.2:
        # the magnitude is the one temporary, raised to the power in place
        import tracemalloc
        grid = Grid(dim=3, n=64)
        rng = np.random.default_rng(12)
        s = Field(grid, rng.normal(size=grid.shape))
        v = Field(grid, rng.normal(size=(3,) + grid.shape))
        for f, bound in ((s, 1.0), (v, 2.0)):
            # the whole-array formula, whose bits lp_norm keeps
            mag = (np.sqrt(np.sum(f.values ** 2, axis=0)) if f.is_vector
                   else np.abs(f.values))
            want = (np.sum(mag ** 1.2) * grid.cell_volume) ** (1.0 / 1.2)
            del mag
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                got = lp_norm(f, 1.2)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert got == want
            assert peak <= bound * 8 * grid.npoints + 4096, (f.ncomp, peak)

    def test_coeff_norm_bits_ignore_blas_threads(self):
        # a threaded BLAS dot splits its sum by the thread count: on this
        # 32^3 scalar field it read 15.74434976594989 on 1 thread and
        # 15.744349765949892 on 2
        code = """if True:
            import sys
            sys.path.insert(0, sys.argv[1])
            import numpy as np
            from nsplab.spectral import Field, Grid, coeff_norm
            grid = Grid(dim=3, n=32)
            rng = np.random.default_rng(5)
            for shape in (grid.shape, (3,) + grid.shape):
                f = Field(grid, rng.normal(size=shape))
                for k in (0, 2):
                    print(repr(coeff_norm(grid, f.coefficients(), k)))
        """
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = [subprocess.run(
            [sys.executable, "-c", code, src], capture_output=True, text=True,
            check=True, env=os.environ | {"OPENBLAS_NUM_THREADS": threads,
                                          "OMP_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
        assert out[0].count("\n") == 4
        assert out[0] == out[1]

    def test_grad_norm_matches_gradient(self):
        f = dealias(random_field(GRID3, 7))
        assert grad_norm(f, 1.0) == pytest.approx(lp_norm(gradient(f), 2.0),
                                                  rel=1e-12)

    def test_sobolev_norm_decomposition(self):
        f = random_field(GRID2, 8)
        for base in (0.0, 0.5, -1.0):
            expect = np.sqrt(sum(grad_norm(f, base + j) ** 2 for j in range(3)))
            assert sobolev_norm(f, 2, base_order=base) == pytest.approx(
                expect, rel=1e-12)

    def test_norms_match_full_spectrum(self):
        # the real-layout power sum counts each omitted partner -m once more
        f = random_field(GRID3, 23)
        k = fullgrid.wavenumber_magnitude(GRID3)
        power = np.abs(fullgrid.spectrum(f)) ** 2
        for ell in (0.0, 1.0, 2.5):
            w = k ** (2.0 * ell)
            full = np.sqrt(GRID3.length ** 3 * np.sum(w * power))
            assert grad_norm(f, ell) == pytest.approx(full, rel=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_interpolation_inequality(self, seed):
        f = random_field(GRID3, seed)
        holds, ratio = gn_interpolation_check(f, alpha=1.0, beta=0.5, gamma=2.0)
        assert holds
        assert ratio <= 1.0 + 1e-12


class TestDealias:
    def test_idempotent(self):
        f = random_field(GRID2, 11)
        once = dealias(f)
        twice = dealias(once)
        np.testing.assert_allclose(once.values, twice.values, atol=1e-14)

    def test_product_removes_aliased_tail(self):
        g = Grid(dim=1, n=16)
        x = g.axes()
        a = Field(g, np.cos(5.0 * x))
        b = Field(g, np.cos(5.0 * x))
        prod = dealias(Field(g, dealias(a).values * dealias(b).values))
        # cos(5x)^2 = 1/2 + cos(10x)/2; both the mode-10 part (aliased to
        # mode 6 on n=16) and anything above n/3 must be gone
        spec = prod.coefficients()
        assert abs(spec[6]) < 1e-14
        assert abs(spec[0] - 0.5) < 1e-14

    @pytest.mark.parametrize("grid", [Grid(dim=1, n=16), GRID2, GRID3],
                             ids=lambda g: f"{g.dim}d")
    def test_keeps_input_and_matches_masked_inverse(self, grid):
        # the masked coefficients are inverted in place; f and its cached
        # coefficients stay as they were
        f = random_field(grid, 40 + grid.dim)
        values, coeffs = f.values.copy(), f.coefficients().copy()
        got = dealias(f).values
        np.testing.assert_array_equal(f.values, values)
        np.testing.assert_array_equal(f.coefficients(), coeffs)
        want = inverse_transform(grid, transform(grid, f.values)
                                 * real_layout(grid).mask)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_coefficients_equal_masked_transform(self, dim, n):
        # only the 2/3 ball is transformed, yet the coefficients are the
        # full transform times the mask bit for bit, on scalar and stacked
        # samples with Nyquist content, and 0 outside the ball where out
        # held garbage
        grid = Grid(dim=dim, n=n)
        rng = np.random.default_rng(10 * n + dim)
        for lead in ((), (3,)):
            values = rng.normal(size=lead + grid.shape)
            full = transform(grid, values)
            assert np.min(np.abs(full[..., -1])) > 0.0     # Nyquist content
            want = full * real_layout(grid).mask
            out = np.full_like(want, np.nan + 1j * np.inf)
            got = dealias(Field(grid, values), out=out)
            assert got is out
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(
                dealias(Field(grid, values), coefficients=True), want)

    def test_low_modes_untouched(self):
        g = Grid(dim=1, n=16)
        x = g.axes()
        f = Field(g, np.cos(2.0 * x))
        np.testing.assert_allclose(dealias(f).values, f.values, atol=1e-14)
