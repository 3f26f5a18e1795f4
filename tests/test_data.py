import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal
from scipy.interpolate import CubicSpline

from test_properties import SMALL
from waveclust import (
    FunctionalDataset,
    SampledSignal,
    resample_dataset,
    resample_dyadic,
    slice_series,
)
from waveclust.data import _natural_spline


def test_signal_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        SampledSignal(np.array([]), 1.0)
    with pytest.raises(ValueError):
        SampledSignal(np.array([1.0, np.nan]), 1.0)
    with pytest.raises(ValueError):
        SampledSignal(np.arange(4.0), 0.0)


def test_slice_exact_partition():
    signal = SampledSignal(np.arange(8.0), 1.0)
    ds = slice_series(signal, 4)
    assert_array_equal(ds.curves, [[0, 1, 2, 3], [4, 5, 6, 7]])
    assert ds.remainder == 0


def test_slice_remainder_reported_and_dropped():
    signal = SampledSignal(np.arange(9.0), 1.0)
    ds = slice_series(signal, 4)
    assert ds.curves.shape == (2, 4)
    assert ds.remainder == 1


def test_slice_year_of_half_hours():
    """17520 half-hourly samples cut into 365 daily curves of 48 points."""
    signal = SampledSignal(np.random.default_rng(0).normal(size=17520), 0.5)
    ds = slice_series(signal, 48)
    assert ds.curves.shape == (365, 48)
    assert ds.remainder == 0


def test_slice_concatenation_recovers_signal():
    values = np.random.default_rng(1).normal(size=103)
    ds = slice_series(SampledSignal(values, 1.0), 10)
    used = ds.curves.size
    assert_array_equal(ds.curves.ravel(), values[:used])
    assert ds.remainder == len(values) - used


def test_slice_block_means_match_source():
    values = np.random.default_rng(2).normal(size=60)
    ds = slice_series(SampledSignal(values, 1.0), 12)
    assert_allclose(ds.curves.mean(axis=1), values.reshape(5, 12).mean(axis=1))


def test_slice_invalid_delta():
    signal = SampledSignal(np.arange(8.0), 1.0)
    with pytest.raises(ValueError):
        slice_series(signal, 1)
    with pytest.raises(ValueError):
        slice_series(signal, 9)


@pytest.mark.parametrize("delta", [47.9, 48.5, np.float64(2.5), np.nan,
                                   np.inf])
def test_slice_rejects_a_fractional_delta(delta):
    signal = SampledSignal(np.arange(96.0), 1.0)
    with pytest.raises(ValueError, match="delta must be an integer"):
        slice_series(signal, delta)


@pytest.mark.parametrize("delta", [48, 48.0, np.int64(48), np.int32(48),
                                   np.float64(48.0)])
def test_slice_accepts_integral_deltas(delta):
    ds = slice_series(SampledSignal(np.arange(96.0), 1.0), delta)
    assert ds.curves.shape == (2, 48)


def test_resample_48_to_64():
    curve = np.sin(np.linspace(0.0, 3.0, 48))
    out = resample_dyadic(curve, 6)
    assert out.shape == (64,)


def test_resample_identity_on_shared_grid():
    curve = np.random.default_rng(3).normal(size=64)
    assert_array_equal(resample_dyadic(curve, 6), curve)


def test_resample_preserves_linear_ramp():
    curve = np.linspace(-1.0, 5.0, 23)
    out = resample_dyadic(curve, 5)
    assert_allclose(out, np.linspace(-1.0, 5.0, 32), atol=1e-9)


def test_resample_reproduces_samples_at_shared_abscissae():
    # 2^J - 1 a multiple of N - 1 makes every source abscissa a target one.
    curve = np.random.default_rng(4).normal(size=8)
    out = resample_dyadic(curve, 3)  # abscissae i/7 shared exactly
    assert_allclose(out, curve, atol=1e-9)


def test_resample_rejects_short_curves():
    with pytest.raises(ValueError):
        resample_dyadic(np.arange(3.0), 4)


@pytest.mark.parametrize("value, length", [
    *[pytest.param(value, 48, id=str(value))
      for value in (np.nan, np.inf, -np.inf)],
    # At the dyadic length the curve is returned as it is, but checked
    # first.
    *[pytest.param(value, 64, id=f"dyadic-{value}")
      for value in (np.nan, np.inf, -np.inf)],
])
def test_resample_rejects_nonfinite_curves(value, length):
    curve = np.random.default_rng(8).normal(size=length)
    curve[17] = value
    with pytest.raises(ValueError, match="finite"):
        resample_dyadic(curve, 6)


def scipy_natural_spline(curves, targets):
    n = curves.shape[-1]
    x = np.arange(n) / (n - 1)
    return CubicSpline(x, curves, axis=-1, bc_type="natural")(targets)


def assert_same_spline(curves, targets):
    """Bitwise equal to SciPy's natural spline, in SciPy's memory layout."""
    got = _natural_spline(curves, targets)
    ref = scipy_natural_spline(curves, targets)
    assert got.shape == ref.shape and got.strides == ref.strides
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [*range(4, 70), 96, 100, 128, 200, 300, 1000])
def test_natural_spline_matches_scipy_bitwise(n):
    rng = np.random.default_rng(n)
    for J in range(2, 11):
        targets = np.arange(2 ** J) / (2 ** J - 1)
        for rows in (1, 7, 365):
            # Row magnitudes spread over 1e-2 .. 1e4.
            scale = 10.0 ** rng.uniform(-2.0, 4.0, size=(rows, 1))
            curves = rng.normal(size=(rows, n)) * scale
            assert_same_spline(curves, targets)
        assert_same_spline(curves[0], targets)


@SMALL
@given(st.integers(4, 80).flatmap(lambda n: arrays(
    float, st.tuples(st.integers(1, 6), st.just(n)),
    elements=st.floats(-1e4, 1e4, allow_nan=False))),
    st.integers(2, 9))
def test_natural_spline_matches_scipy_property(curves, J):
    assert_same_spline(curves, np.arange(2 ** J) / (2 ** J - 1))


def test_resample_downsample_warns():
    curve = np.random.default_rng(5).normal(size=100)
    with pytest.warns(UserWarning):
        resample_dyadic(curve, 5)


def test_resample_dataset_maps_rows():
    ds = FunctionalDataset(np.random.default_rng(6).normal(size=(3, 48)))
    out = resample_dataset(ds, 6)
    assert out.curves.shape == (3, 64)
    for curve, row in zip(ds.curves, out.curves):
        assert_array_equal(row, resample_dyadic(curve, 6))


@pytest.mark.parametrize("J", [5.7, 6.5, np.float64(5.5), np.nan, np.inf])
def test_resample_rejects_a_fractional_J(J):
    ds = FunctionalDataset(np.random.default_rng(6).normal(size=(3, 48)))
    with pytest.raises(ValueError, match="J must be an integer"):
        resample_dataset(ds, J)
    with pytest.raises(ValueError, match="J must be an integer"):
        resample_dyadic(ds.curves[0], J)


@pytest.mark.parametrize("n, most", [
    (4, 10), (48, 10), (64, 10), (512, 10), (513, 11), (1024, 11),
    (1025, 12)])
def test_resample_bounds_J_by_the_input_length(n, most):
    """J may reach one octave above the smallest dyadic grid holding the
    input, or 10 at any length; above that it is refused before the
    output is allocated."""
    curve = np.random.default_rng(n).normal(size=n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # downsampling warns
        assert resample_dyadic(curve, most).shape == (2 ** most,)
    for J in (most + 1, 40, 10 ** 6):
        with pytest.raises(ValueError, match=(
                f"^J must be at most {most} for curves of {n} samples, "
                f"got {J}$")):
            resample_dataset(FunctionalDataset(curve), J)


@pytest.mark.parametrize("J", [6, 6.0, np.int64(6), np.uint8(6)])
def test_resample_accepts_integral_J(J):
    ds = FunctionalDataset(np.random.default_rng(6).normal(size=(3, 48)))
    assert_array_equal(resample_dataset(ds, J).curves,
                       resample_dataset(ds, 6).curves)


def per_curve_resample(curves, J):
    """One natural spline per curve: the dataset-wide fit must reproduce
    it bit for bit."""
    n, target = curves.shape[1], 2 ** J
    if target == n:
        return curves.copy()
    x = np.arange(n) / (n - 1)
    return np.vstack([
        CubicSpline(x, c, bc_type="natural")(np.arange(target) / (target - 1))
        for c in curves])


@pytest.mark.parametrize("n", [4, 7, 8, 48, 64, 100, 300])
@pytest.mark.parametrize("J", [2, 5, 6, 10])
def test_resample_dataset_matches_per_curve_splines(n, J):
    curves = np.random.default_rng(n * J).normal(size=(9, n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = resample_dataset(FunctionalDataset(curves), J)
    assert_array_equal(out.curves, per_curve_resample(curves, J))


def test_resample_dataset_downsamples_with_one_warning():
    ds = FunctionalDataset(np.random.default_rng(7).normal(size=(5, 100)))
    with pytest.warns(UserWarning) as caught:
        out = resample_dataset(ds, 5)
    assert len(caught) == 1
    assert out.curves.shape == (5, 32)
    with pytest.warns(UserWarning):
        for curve, row in zip(ds.curves, out.curves):
            assert_array_equal(row, resample_dyadic(curve, 5))


def test_dataset_validates_shape():
    with pytest.raises(ValueError):
        FunctionalDataset(np.zeros((2, 1)))
    with pytest.raises(ValueError):
        FunctionalDataset(np.array([[1.0, np.inf]]))


def test_dataset_takes_its_remainder_by_keyword_only():
    # Keyword-only, so no positional count is taken for it by mistake.
    with pytest.raises(TypeError):
        FunctionalDataset(np.zeros((2, 48)), 48)
    assert FunctionalDataset(np.zeros((2, 48)), remainder=5).remainder == 5
