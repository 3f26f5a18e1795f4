"""Property tests: invariants checked over generated inputs rather than a
few hand-picked ones. Kept small (N <= 256, at most 25 examples each) and
derandomized, so every run draws the same examples."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
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
    feature_matrix,
    kmeans,
    make_scale_grid,
    mca_distance,
    pam,
    validation_report,
    wer_distance,
)
from waveclust.cli import main
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


@SMALL
@given(curve_sets(min_curves=2))
def test_mca_matrix_symmetric_nonnegative_and_pairwise(curves):
    n = curves.shape[0]
    values = build_dissimilarity_matrix(curves, measure="MCA",
                                        grid=GRID).values
    assert_array_equal(values, values.T)
    assert_array_equal(np.diag(values), np.zeros(n))
    assert (values >= 0.0).all()
    spectra = [cwt_morlet(c, GRID) for c in curves]
    for i in range(n):
        for j in range(i + 1, n):
            assert values[i, j] == mca_distance(spectra[i], spectra[j])


@SMALL
@given(curve_sets(min_curves=2), st.data())
def test_one_non_finite_sample_is_rejected_at_every_curve_entry(curves, data):
    """A nan or inf anywhere in a stack is a ValueError at every entry
    that takes curves, raised before any arithmetic."""
    n, n_samples = curves.shape
    where = (data.draw(st.integers(0, n - 1), label="curve"),
             data.draw(st.integers(0, n_samples - 1), label="sample"))
    curves[where] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]),
                              label="value")
    entries = [dwt_forward, feature_matrix,
               lambda c: cwt_morlet(c, GRID),
               *[lambda c, m=m: build_dissimilarity_matrix(c, measure=m,
                                                           grid=GRID)
                 for m in ("WER", "MCA", "euclid-features", "euclid-raw")]]
    for entry in entries:
        with pytest.raises(ValueError, match="curve values must all be "
                                             "finite"):
            entry(curves)


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


def run_cli(*argv):
    """Exit code and standard error of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def assert_data_error(code, err):
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def write_rows(path, rows):
    path.write_text("".join(",".join(row) + "\n" for row in rows))


@st.composite
def broken_csv_rows(draw):
    """Rows of numbers in which one row after the first is cut short,
    grown, or holds a cell that is not a number."""
    n_rows = draw(st.integers(2, 6))
    width = draw(st.integers(2, 8))
    rows = [[repr(v / 10.0) for v in draw(st.lists(
        st.integers(-999, 999), min_size=width, max_size=width))]
        for _ in range(n_rows)]
    victim = draw(st.integers(1, n_rows - 1))
    fault = draw(st.sampled_from(["short", "long", "token"]))
    if fault == "short":
        rows[victim] = rows[victim][:-1]
    elif fault == "long":
        rows[victim] = rows[victim] + ["1.0"]
    else:
        cell = draw(st.integers(0, width - 1))
        rows[victim][cell] = draw(st.sampled_from(
            ["", "x", "1.0.0", "--1", "one", "1e", "0x1p3"]))
    return rows


@SMALL
@given(broken_csv_rows(), st.sampled_from(["features", "dissim", "select",
                                           "cluster"]))
def test_cli_malformed_or_ragged_csv_exits_two(rows, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        write_rows(path, rows)
        extra = ("--k", 2) if command == "cluster" else ()
        assert_data_error(*run_cli(command, "--input", path, "--output",
                                   Path(tmp) / "out.csv", *extra))


@SMALL
@given(st.integers(2, 8), st.integers(1, 4),
       st.sampled_from(["features", "spectrum", "choose-k"]))
def test_cli_k_above_row_count_exits_two(n, excess, command):
    rows = np.random.default_rng(n).normal(size=(n, 3))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        feats = tmp / "features.csv"
        write_rows(feats, [[repr(v) for v in row] for row in rows.tolist()])
        out = tmp / "out.csv"
        k = n + excess
        if command == "choose-k":
            argv = ("choose-k", "--input", feats, "--kmax", k)
        elif command == "features":
            argv = ("cluster", "--pipeline", "features", "--input", feats,
                    "--k", k)
        else:
            dissim = tmp / "dissim.csv"
            values = np.sqrt(((rows[:, None] - rows[None]) ** 2).sum(-1))
            write_rows(dissim, [[repr(v) for v in row]
                                for row in values.tolist()])
            argv = ("cluster", "--pipeline", "spectrum", "--input", feats,
                    "--dissim-input", dissim, "--k", k)
        assert_data_error(*run_cli(*argv, "--output", out))
        assert not out.exists()


@SMALL
@given(st.integers(13, 16), st.integers(2, 6), st.data())
def test_cli_more_than_twelve_clusters_with_truth_validates(k, extra, data):
    # The graph needs K + 2 rows, so ``extra`` starts at 2.
    n = k + extra
    labels = np.concatenate([np.arange(k), data.draw(st.lists(
        st.integers(0, k - 1), min_size=extra, max_size=extra),
        label="extra labels")]).astype(int)
    truth = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                      label="truth")
    rows = np.random.default_rng(k).normal(size=(n, 3))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        feats, part, truth_path = (tmp / "features.csv", tmp / "part.csv",
                                   tmp / "truth.csv")
        write_rows(feats, [[repr(v) for v in row] for row in rows.tolist()])
        part.write_text("observation,label,distance\n" + "".join(
            f"{i},{label},0.0\n" for i, label in enumerate(labels)))
        truth_path.write_text("".join(f"{t}\n" for t in truth))
        code, err = run_cli("diagnose", "--input", feats, "--partition",
                            part, "--truth", truth_path, "--output-prefix",
                            tmp / "diag")
        assert (code, err) == (0, "")
        written = json.loads((tmp / "diag.validation.json").read_text())
    report = validation_report(labels, truth)
    assert written["misclassified"] == report.misclassified
    assert written["matching"] == [list(pair) for pair in report.matching]
