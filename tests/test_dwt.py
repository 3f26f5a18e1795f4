import numpy as np
import pytest
from numpy.testing import assert_allclose

from waveclust import (
    DegenerateInputError,
    dwt_forward,
    energy_contributions,
    feature_matrix,
    get_filter,
    relative_contributions,
)
from waveclust.dwt import LOGIT_EPS, canonical_kind


# --- independent oracle: assemble the full orthonormal transform matrix ---
# One analysis stage on a length-n block is the (n/2, n) matrix with
# taps[l] accumulated at column (2k + l) mod n of row k; composing the
# lowpass stages and collecting each stage's highpass rows rebuilds the
# whole transform without using the pyramid code path.

def _stage_matrix(taps, n):
    mat = np.zeros((n // 2, n))
    for k in range(n // 2):
        for l, tap in enumerate(taps):
            mat[k, (2 * k + l) % n] += tap
    return mat


def transform_matrix(filt, n):
    J = n.bit_length() - 1
    detail_blocks = [None] * J
    approx_map = np.eye(n)
    size = n
    for j in range(J - 1, -1, -1):
        detail_blocks[j] = _stage_matrix(filt.highpass, size) @ approx_map
        approx_map = _stage_matrix(filt.lowpass, size) @ approx_map
        size //= 2
    return np.vstack([approx_map] + detail_blocks)


@pytest.mark.parametrize("wavelet", ["haar", "symmlet6"])
@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
def test_pyramid_matches_matrix_oracle(wavelet, n):
    filt = get_filter(wavelet)
    W = transform_matrix(filt, n)
    assert_allclose(W.T @ W, np.eye(n), atol=1e-10)
    curves = np.random.default_rng(n).normal(size=(5, n))
    coeffs = dwt_forward(curves, wavelet).coefficient_vector()
    assert_allclose(coeffs, curves @ W.T, atol=1e-10)


@pytest.mark.parametrize("wavelet", ["haar", "symmlet6"])
def test_filter_orthonormality(wavelet):
    h = get_filter(wavelet).lowpass
    assert_allclose(h.sum(), np.sqrt(2.0), atol=1e-10)
    assert_allclose(h @ h, 1.0, atol=1e-10)
    for m in range(1, len(h) // 2):
        assert abs(h[: -2 * m] @ h[2 * m:]) <= 1e-10


def test_haar_hand_example():
    """4x4 Haar on [1,-1,1,-1]: one finest-scale component only."""
    dec = dwt_forward([1.0, -1.0, 1.0, -1.0], "haar")
    assert_allclose(dec.approx, [0.0], atol=1e-12)
    assert_allclose(dec.details[0], [[0.0]], atol=1e-12)
    assert_allclose(dec.details[1], [[np.sqrt(2.0), np.sqrt(2.0)]], atol=1e-12)


def test_constant_curve_has_no_detail():
    c, J = 3.0, 5
    dec = dwt_forward(np.full(2 ** J, c), "symmlet6")
    assert_allclose(dec.approx, [c * 2 ** (J / 2)], atol=1e-10)
    for d in dec.details:
        assert_allclose(d, 0.0, atol=1e-10)


def test_affine_coefficient_law():
    rng = np.random.default_rng(10)
    z = rng.normal(size=64)
    a, b = -2.5, 3.25
    dz = dwt_forward(z)
    dx = dwt_forward(a + b * z)
    for d_x, d_z in zip(dx.details, dz.details):
        assert_allclose(d_x, b * d_z, atol=1e-10)
    assert_allclose(dx.approx, a * 8.0 + b * dz.approx, atol=1e-10)


def test_parseval_energy_identity():
    curves = np.random.default_rng(11).normal(size=(20, 128))
    dec = dwt_forward(curves)
    total = dec.approx ** 2 + sum((d ** 2).sum(axis=1) for d in dec.details)
    assert_allclose(total, (curves ** 2).sum(axis=1), rtol=1e-10)


def test_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        dwt_forward(np.arange(12.0))


def test_energy_contributions_haar_example():
    dec = dwt_forward([1.0, -1.0, 1.0, -1.0], "haar")
    assert_allclose(energy_contributions(dec), [[0.0, 4.0]], atol=1e-12)


def test_energy_scaling_quadratic():
    z = np.random.default_rng(14).normal(size=64)
    ac = energy_contributions(dwt_forward(z))
    ac_scaled = energy_contributions(dwt_forward(4.0 * z))
    assert_allclose(ac_scaled, 16.0 * ac, rtol=1e-10)


def test_relative_contributions_hand_values():
    rc, logit_rc = relative_contributions(np.array([[2.0, 2.0]]), 4.0)
    assert_allclose(rc, [[0.5, 0.5]])
    assert_allclose(logit_rc, [[0.0, 0.0]], atol=1e-12)

    rc, logit_rc = relative_contributions(np.array([[1.0, 3.0]]), 4.0)
    assert_allclose(rc, [[0.25, 0.75]])
    assert_allclose(logit_rc, [[-np.log(3.0), np.log(3.0)]], rtol=1e-12)


def test_relative_contributions_clamps_extremes():
    rc, logit_rc = relative_contributions(np.array([[0.0, 4.0]]), 4.0)
    assert_allclose(rc, [[0.0, 1.0]])
    edge = np.log((1.0 - LOGIT_EPS) / LOGIT_EPS)
    assert_allclose(logit_rc, [[-edge, edge]], rtol=1e-9)


def test_relative_contributions_judge_a_constant_curve_by_its_energy():
    curve = np.full((1, 64), 3.7)
    dec = dwt_forward(curve)
    ac = energy_contributions(dec)
    with pytest.raises(TypeError):
        relative_contributions(ac)
    with pytest.raises(DegenerateInputError, match="curve 0 is constant"):
        relative_contributions(ac, np.sum(curve ** 2, axis=1))


@pytest.mark.parametrize("name", ["sym6", "la12", "Haar", "SYMMLET6"])
def test_each_filter_has_one_spelling(name):
    with pytest.raises(ValueError, match="unknown wavelet filter"):
        get_filter(name)


def test_dwt_forward_takes_a_filter_name_only():
    with pytest.raises(ValueError, match="unknown wavelet filter"):
        dwt_forward(np.arange(8.0), get_filter("haar"))


def test_relative_contributions_zero_energy_degenerate():
    with pytest.raises(DegenerateInputError):
        relative_contributions(np.zeros((1, 4)), 0.0)


@pytest.mark.parametrize("wavelet", ["haar", "symmlet6"])
def test_constant_curves_are_degenerate_despite_roundoff(wavelet):
    curves = np.ones((6, 64))
    # The details are roundoff, not zeros, so only the relative test sees it.
    assert energy_contributions(dwt_forward(curves, wavelet)).sum() > 0
    with pytest.raises(DegenerateInputError, match="curve 0 is constant"):
        feature_matrix(curves, kind="logitRC", wavelet=wavelet)
    with pytest.raises(DegenerateInputError):
        feature_matrix(123.456 * curves, kind="RC", wavelet=wavelet)


def test_small_ripple_on_a_level_still_has_features():
    rng = np.random.default_rng(16)
    curves = 1.0 + 1e-6 * rng.normal(size=(4, 64))
    values = feature_matrix(curves, kind="logitRC").values
    assert np.isfinite(values).all()
    rc = feature_matrix(curves, kind="RC").values
    assert_allclose(rc.sum(axis=1), 1.0, atol=1e-9)


def test_rc_rows_sum_to_one():
    curves = np.random.default_rng(15).normal(size=(9, 64))
    rc = feature_matrix(curves, kind="RC").values
    assert_allclose(rc.sum(axis=1), 1.0, atol=1e-9)


def test_feature_matrix_affine_invariance_logit():
    rng = np.random.default_rng(16)
    z = rng.normal(size=(4, 64))
    base = feature_matrix(z, kind="logitRC").values
    shifted = feature_matrix(5.0 - 2.0 * z, kind="logitRC").values
    assert_allclose(shifted, base, atol=1e-8)


def test_feature_matrix_column_names_report_both_labels():
    fm = feature_matrix(np.random.default_rng(17).normal(size=(2, 16)))
    assert fm.values.shape == (2, 4)
    assert fm.column_names() == ["s0_L4", "s1_L3", "s2_L2", "s3_L1"]


def test_kind_aliases():
    assert canonical_kind("ac") == "AC"
    assert canonical_kind("logit-rc") == "logitRC"
    for spelling in ("nope", "absolute", "relative", "logitrc", "logit_rc",
                     "logit"):
        with pytest.raises(ValueError):
            canonical_kind(spelling)
