"""Property tests: invariants checked over generated inputs rather than a
few hand-picked ones. Kept small (N <= 256, at most 25 examples each) and
derandomized, so every run draws the same examples."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from test_clustering import swap_is_optimal
from waveclust import (
    build_dissimilarity_matrix,
    cwt_morlet,
    dwt_forward,
    dwt_inverse,
    kmeans,
    make_scale_grid,
    pam,
    wer_distance,
)
from waveclust.clustering import _lloyd, _plus_plus_centers
from waveclust.feature_selection import SELECT_MAX_ITER
from waveclust.rng import derived_rng

GRID = make_scale_grid(1, 3, 4)

SMALL = settings(max_examples=25, deadline=None, derandomize=True,
                 database=None)


@st.composite
def curve_sets(draw, min_curves=1, max_curves=5):
    """A few curves of one dyadic length, each with a nonzero sample.

    Values are tenths of integers, so no product underflows to zero.
    """
    n_samples = draw(st.sampled_from([16, 32, 64]))
    n_curves = draw(st.integers(min_curves, max_curves))
    curves = []
    for _ in range(n_curves):
        ints = draw(st.lists(st.integers(-1000, 1000), min_size=n_samples,
                             max_size=n_samples)
                    .filter(lambda v: any(v)))
        curves.append(np.asarray(ints, dtype=float) / 10.0)
    return np.vstack(curves)


@SMALL
@given(curve_sets(min_curves=1, max_curves=1))
def test_wer_self_distance_is_exactly_zero(curves):
    spec = cwt_morlet(curves[0], GRID)
    assert wer_distance(spec, spec) == 0.0


@SMALL
@given(curve_sets(min_curves=2))
def test_wer_matrix_symmetric_bounded_and_pairwise(curves):
    n, n_samples = curves.shape
    values = build_dissimilarity_matrix(curves, measure="WER",
                                        grid=GRID).values
    assert_array_equal(values, values.T)
    assert (values >= 0.0).all()
    assert (values <= np.sqrt(GRID.n_scales * n_samples)).all()
    spectra = [cwt_morlet(c, GRID) for c in curves]
    for i in range(n):
        for j in range(i + 1, n):
            assert values[i, j] == wer_distance(spectra[i], spectra[j])


@st.composite
def duplicated_rows(draw):
    """Up to 30 rows of 1-3 columns, drawn from at most 4 values per column,
    so most rows repeat another one exactly."""
    n = draw(st.integers(2, 30))
    p = draw(st.integers(1, 3))
    n_values = draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(0, n_values - 1), min_size=n * p,
                          max_size=n * p))
    return np.asarray(cells, dtype=float).reshape(n, p)


@SMALL
@given(duplicated_rows(), st.data())
def test_kmeans_never_returns_an_empty_cluster(rows, data):
    k = data.draw(st.integers(1, rows.shape[0]), label="k")
    part = kmeans(rows, k, restarts=3, seed=k)
    assert np.bincount(part.labels, minlength=k).min() > 0
    sse = ((rows - part.centers[part.labels]) ** 2).sum()
    assert np.isclose(part.cost, sse, rtol=1e-12, atol=1e-12)


@SMALL
@given(duplicated_rows())
def test_selection_engine_never_returns_an_empty_cluster(rows):
    n = rows.shape[0]
    for k in range(1, n + 1):
        centers = _plus_plus_centers(rows, k, 6, derived_rng(k, "property"))
        labels, _ = _lloyd(rows, centers, SELECT_MAX_ITER)
        for restart in labels:
            counts = np.bincount(restart, minlength=k)
            assert counts.size == k and counts.min() > 0, (k, counts)


@st.composite
def dyadic_batches(draw):
    """One to three curves of a dyadic length in 16..256, in hundredths of
    integers; most samples share one value, so flat runs and spikes mix."""
    n_samples = draw(st.sampled_from([16, 32, 64, 128, 256]))
    n_curves = draw(st.integers(1, 3))
    ints = draw(arrays(np.int64, (n_curves, n_samples),
                       elements=st.integers(-10000, 10000)))
    return ints / 100.0


@SMALL
@given(dyadic_batches(), st.sampled_from(["haar", "symmlet6"]))
def test_dwt_parseval_and_inverse_round_trip(curves, wavelet):
    dec = dwt_forward(curves, wavelet=wavelet)
    coeffs = dec.coefficient_vector()
    energy_in = (curves ** 2).sum(axis=1)
    energy_out = (coeffs ** 2).sum(axis=1)
    assert_allclose(energy_out, energy_in, rtol=1e-12, atol=0.0)
    scale = max(float(np.abs(curves).max()), 1.0)
    assert_allclose(dwt_inverse(dec), curves, rtol=0.0, atol=1e-12 * scale)


@st.composite
def tied_dissimilarities(draw):
    """A symmetric matrix over 2-10 points with entries in {0, 1, 2, 3}:
    many ties, and points drawn more than once sit 0 apart."""
    m = draw(st.integers(1, 6))
    upper = draw(st.lists(st.integers(0, 3), min_size=m * (m - 1) // 2,
                          max_size=m * (m - 1) // 2))
    base = np.zeros((m, m))
    base[np.triu_indices(m, 1)] = upper
    base += base.T
    picks = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=10))
    return base[np.ix_(picks, picks)]


@SMALL
@given(tied_dissimilarities(), st.data())
def test_pam_is_swap_optimal_with_ties_and_duplicates(values, data):
    k = data.draw(st.integers(1, values.shape[0]), label="k")
    part = pam(values, k)
    assert np.bincount(part.labels, minlength=k).min() > 0
    assert swap_is_optimal(values, list(part.medoids), part.labels)
