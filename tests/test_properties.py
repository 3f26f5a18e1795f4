"""Property tests: invariants checked over generated inputs rather than a
few hand-picked ones. Kept small (N <= 64, at most 25 examples each) and
derandomized, so every run draws the same examples."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from waveclust import (
    build_dissimilarity_matrix,
    cwt_morlet,
    kmeans,
    make_scale_grid,
    wer_distance,
)
from waveclust.feature_selection import (
    _batched_kmeans_labels,
    _plus_plus_centers,
)
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


@SMALL
@given(duplicated_rows())
def test_selection_engine_never_returns_an_empty_cluster(rows):
    n = rows.shape[0]
    for k in range(1, n + 1):
        centers = _plus_plus_centers(rows, k, 6, derived_rng(k, "property"))
        labels = _batched_kmeans_labels(rows, centers)
        counts = np.bincount(labels, minlength=k)
        assert counts.size == k and counts.min() > 0, (k, counts)
