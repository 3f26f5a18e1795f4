import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from waveclust import cwt_morlet, make_scale_grid, smooth_spectrum
from waveclust.cwt import morlet_kernel
from waveclust.cwt import ScaleGrid, Spectrum, _boxcar_width, _morlet_bank


def direct_cwt(curve, grid, omega0=6.0, p=1.0):
    """Brute-force evaluation of the defining sum, one entry at a time."""
    curve = np.asarray(curve, dtype=float)
    n = curve.size
    out = np.empty((grid.n_scales, n), dtype=complex)
    idx = np.arange(n)
    for row, a in enumerate(grid.scales):
        for k in range(n):
            # circular offsets folded into the signed range [-n/2, n/2)
            u = ((idx - k + n // 2) % n) - n // 2
            psi = np.pi ** -0.25 * np.exp(1j * omega0 * u / a - (u / a) ** 2 / 2)
            out[row, k] = (curve * np.conj(psi)).sum() / a ** p
    return out


def per_scale_cwt(curve, grid, omega0=6.0, p=1.0):
    """The transform one scale at a time, each kernel built and
    transformed afresh: the filter bank must reproduce it bit for bit."""
    n = curve.size
    z_hat = np.fft.fft(curve)
    rows = np.empty((grid.n_scales, n), dtype=complex)
    for j, a in enumerate(grid.scales):
        kernel_hat = np.fft.fft(morlet_kernel(a, n, omega0=omega0))
        rows[j] = np.fft.ifft(z_hat * np.conj(kernel_hat)) / a ** p
    return rows


def test_grid_counts():
    assert make_scale_grid(1, 6, 8).n_scales == 41
    assert make_scale_grid(1, 4, 8).n_scales == 25
    assert_allclose(make_scale_grid(0, 1, 1).scales, [1.0, 2.0])


def test_grid_ratio_and_rejections():
    grid = make_scale_grid(1, 3, 4)
    assert_allclose(np.diff(np.log2(grid.scales)), 0.25, atol=1e-12)
    with pytest.raises(ValueError):
        make_scale_grid(4, 4, 8)
    with pytest.raises(ValueError):
        make_scale_grid(1, 2, 0)


@pytest.mark.parametrize("make", [make_scale_grid, ScaleGrid])
@pytest.mark.parametrize("fields, name", [((1, 3, 2.5), "voices"),
                                          ((1.5, 3, 2), "octave_min"),
                                          ((1, np.inf, 2), "octave_max")])
def test_grid_takes_integers_only(make, fields, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        make(*fields)
    grid = make(1.0, np.int64(3), 2.0)
    assert grid == ScaleGrid(1, 3, 2)
    assert type(grid.n_scales) is int and grid.n_scales == 5


SHAPES = "a spectrum on 5 scales is (n_scales, N) or (n, n_scales, N), got "


@pytest.mark.parametrize("case, message", [
    ("nan", "spectrum values must be finite (found nan or inf)"),
    ("inf", "spectrum values must be finite (found nan or inf)"),
    ("1-D", SHAPES + "(32,)"),
    ("4-D", SHAPES + "(1, 1, 5, 32)"),
    ("4 rows", SHAPES + "(4, 32)"),
    ("stack of 6 rows", SHAPES + "(1, 6, 32)"),
])
def test_spectrum_rejects_what_no_transform_gives(case, message):
    grid = make_scale_grid(1, 3, 2)
    matrix = cwt_morlet(np.random.default_rng(0).normal(size=32), grid).matrix
    bad = {"nan": np.where(np.arange(32) == 3, np.nan, matrix),
           "inf": np.where(np.arange(32) == 3, np.inf, matrix),
           "1-D": matrix[0],
           "4-D": matrix[None, None],
           "4 rows": matrix[:4],
           "stack of 6 rows": np.stack([np.vstack([matrix, matrix[:1]])])}
    with pytest.raises(ValueError) as info:
        Spectrum(matrix=bad[case], grid=grid)
    assert str(info.value) == message


@pytest.mark.parametrize("normalization,p", [("L1", 1.0), ("L2", 0.5)])
def test_matches_direct_summation(normalization, p):
    rng = np.random.default_rng(21)
    curve = rng.normal(size=32)
    grid = make_scale_grid(1, 3, 3)
    spec = cwt_morlet(curve, grid, normalization=normalization)
    assert_allclose(spec.matrix, direct_cwt(curve, grid, p=p), atol=1e-12)


@pytest.mark.parametrize("grid", [make_scale_grid(), make_scale_grid(1, 5, 8),
                                  make_scale_grid(0, 3, 3),
                                  make_scale_grid(2, 7, 12)])
@pytest.mark.parametrize("n", [8, 33, 48, 64, 128, 256, 512, 1024])
@pytest.mark.parametrize("normalization,p", [("L1", 1.0), ("L2", 0.5)])
def test_filter_bank_matches_per_scale_loop_bitwise(grid, n, normalization,
                                                    p):
    curve = np.random.default_rng(n).normal(size=n)
    spec = cwt_morlet(curve, grid, normalization=normalization)
    assert_array_equal(spec.matrix, per_scale_cwt(curve, grid, p=p))
    omega0 = 5.0
    spec = cwt_morlet(curve, grid, omega0=omega0, normalization=normalization)
    assert_array_equal(spec.matrix, per_scale_cwt(curve, grid, omega0, p))


def test_filter_bank_is_cached_and_read_only():
    grid = make_scale_grid(1, 4, 4)
    bank, norm = _morlet_bank(grid, 64, 6.0, 1.0)
    assert bank.shape == (grid.n_scales, 64)
    assert norm.shape == (grid.n_scales, 1)
    assert _morlet_bank(grid, 64, 6.0, 1.0)[0] is bank
    for array in (bank, norm):
        with pytest.raises(ValueError):
            array[0, 0] = 0.0


def test_zero_curve_zero_spectrum():
    spec = cwt_morlet(np.zeros(16), make_scale_grid(1, 3, 2))
    assert_allclose(spec.matrix, 0.0, atol=1e-15)


def test_linearity():
    rng = np.random.default_rng(22)
    z, x = rng.normal(size=(2, 64))
    grid = make_scale_grid(1, 4, 4)
    a, b = 2.5, -1.25
    combined = cwt_morlet(a * z + b * x, grid)
    expected = a * cwt_morlet(z, grid).matrix + b * cwt_morlet(x, grid).matrix
    assert_allclose(combined.matrix, expected, atol=1e-10)


def test_time_shift_covariance():
    rng = np.random.default_rng(23)
    curve = rng.normal(size=64)
    grid = make_scale_grid(1, 4, 4)
    shift = 11
    rolled = cwt_morlet(np.roll(curve, shift), grid)
    expected = np.roll(cwt_morlet(curve, grid).matrix, shift, axis=1)
    assert_allclose(rolled.matrix, expected, atol=1e-10)


@pytest.mark.parametrize("period", [16, 32, 64])
def test_cosine_peak_scale(period):
    """|W|^2 peaks within one voice of the Morlet scale-period relation."""
    n = 256
    grid = make_scale_grid(1, 6, 8)
    curve = np.cos(2.0 * np.pi * np.arange(n) / period)
    spec = cwt_morlet(curve, grid)
    power = (np.abs(spec.matrix) ** 2).sum(axis=1)
    a_peak = grid.scales[np.argmax(power)]
    a_theory = period * spec.omega0 / (2.0 * np.pi)
    assert abs(np.log2(a_peak / a_theory)) <= 1.0 / grid.voices


def test_coi_flags_rows_beyond_half_length():
    grid = make_scale_grid(1, 6, 2)  # scales 2..64
    spec = cwt_morlet(np.random.default_rng(24).normal(size=32), grid)
    assert np.array_equal(spec.coi_flag, grid.scales > 16)
    assert spec.coi_flag.any() and not spec.coi_flag.all()


def test_rejects_short_input_and_subunit_scales():
    with pytest.raises(ValueError):
        cwt_morlet(np.arange(4.0), make_scale_grid(1, 2, 1))
    with pytest.raises(ValueError):
        cwt_morlet(np.arange(16.0), make_scale_grid(-2, 1, 1))


@pytest.mark.parametrize("omega0, message", [
    (0.0, "omega0 must be finite and positive, got 0.0"),
    (-6.0, "omega0 must be finite and positive, got -6.0"),
    (np.nan, "omega0 must be finite and positive, got nan"),
    (np.inf, "omega0 must be finite and positive, got inf"),
    (1e308, "omega0 = 1e+308 overflows the Morlet kernel on 64 samples"),
])
def test_rejects_an_omega0_outside_its_domain_before_any_warning(omega0,
                                                                 message):
    curve = np.random.default_rng(12).normal(size=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cwt_morlet(curve, make_scale_grid(1, 4, 4), omega0=omega0)


def test_kernel_is_unit_scale_morlet_sample():
    kernel = morlet_kernel(2.0, 8)
    u = (((np.arange(8) + 4) % 8) - 4) / 2.0
    expected = np.pi ** -0.25 * np.exp(1j * 6.0 * u - u ** 2 / 2.0)
    assert_allclose(kernel, expected, atol=1e-15)


# --- smoothing operator ---

def test_smoothing_preserves_constants():
    grid = make_scale_grid(1, 3, 4)
    field = np.full((grid.n_scales, 32), 2.5)
    assert_allclose(smooth_spectrum(field, grid), field, atol=1e-12)


def test_smoothing_keeps_nonnegativity_and_total_sum():
    grid = make_scale_grid(1, 3, 4)
    rng = np.random.default_rng(25)
    field = rng.uniform(size=(grid.n_scales, 32))
    out = smooth_spectrum(field, grid)
    assert (out >= -1e-12).all()
    assert_allclose(out.sum(), field.sum(), rtol=1e-9)


def test_smoothing_impulse_direct_oracle():
    """An impulse spreads into the separable kernel, summing to one."""
    grid = make_scale_grid(1, 3, 4)
    js, n = grid.n_scales, 32
    field = np.zeros((js, n))
    field[js // 2, n // 2] = 1.0
    out = smooth_spectrum(field, grid)

    # time direction: circular unit-sum Gaussian of sd = scale, per row
    offsets = ((np.arange(n) + n // 2) % n) - n // 2
    width = _boxcar_width(grid.voices)
    rows = np.zeros((js, n))
    row0 = js // 2
    a = grid.scales[row0]
    gauss = np.exp(-0.5 * (offsets / a) ** 2)
    rows[row0] = np.roll(gauss / gauss.sum(), n // 2)
    # scale direction: circular unit-sum boxcar over `width` rows
    expected = np.zeros_like(rows)
    for off in range(-(width // 2), width // 2 + 1):
        expected[(row0 + off) % js] += rows[row0] / width
    assert_allclose(out, expected, atol=1e-12)
    assert_allclose(out.sum(), 1.0, rtol=1e-12)
    # The boxcar weights its window's rows equally and the rest by zero.
    window = (row0 + np.arange(-(width // 2), width // 2 + 1)) % js
    assert (out[window, n // 2] == out.max()).all()
    outside = np.setdiff1d(np.arange(js), window)
    assert_array_equal(out[outside], 0.0)


def test_smoothing_complex_field_matches_componentwise():
    grid = make_scale_grid(1, 2, 3)
    rng = np.random.default_rng(26)
    field = rng.normal(size=(grid.n_scales, 16)) + 1j * rng.normal(
        size=(grid.n_scales, 16))
    out = smooth_spectrum(field, grid)
    assert_allclose(out.real, smooth_spectrum(field.real, grid), atol=1e-12)
    assert_allclose(out.imag, smooth_spectrum(field.imag, grid), atol=1e-12)


def test_smoothing_stacked_fields_match_one_by_one():
    grid = make_scale_grid(1, 4, 4)
    rng = np.random.default_rng(27)
    fields = rng.normal(size=(3, grid.n_scales, 64)) + 1j * rng.normal(
        size=(3, grid.n_scales, 64))
    stacked = smooth_spectrum(fields, grid)
    assert stacked.shape == fields.shape
    for field, out in zip(fields, stacked):
        assert_array_equal(out, smooth_spectrum(field, grid))


@pytest.mark.parametrize("n", [64, 75, 256])
@pytest.mark.parametrize("normalization", ["L1", "L2"])
def test_stacked_curves_transform_as_one_by_one(n, normalization):
    """A stack is one call, and its field i is curve i's transform byte
    for byte, in one C-contiguous (n_curves, n_scales, N) array, also
    when the curves come in Fortran order."""
    grid = make_scale_grid(1, 5, 8)
    curves = np.random.default_rng(n).normal(size=(5, n))
    for stack in (curves, np.asfortranarray(curves)):
        spec = cwt_morlet(stack, grid, normalization=normalization)
        assert spec.matrix.shape == (5, grid.n_scales, n)
        assert spec.matrix.flags.c_contiguous
        assert (spec.n_scales, spec.n_samples) == (grid.n_scales, n)
        for curve, field in zip(curves, spec.matrix):
            one = cwt_morlet(curve, grid, normalization=normalization)
            assert one.matrix.tobytes() == field.tobytes()
