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
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal
from scipy.spatial.distance import cdist

from test_clustering import swap_is_optimal
from waveclust import (
    build_dissimilarity_matrix,
    choose_k_by_jump,
    cwt_morlet,
    dwt_forward,
    feature_matrix,
    kmeans,
    make_scale_grid,
    mca_distance,
    pam,
    validation_report,
    wer_distance,
)
from waveclust.cli import main
from waveclust.clustering import _assign, _lloyd, _plus_plus_centers
from waveclust.feature_selection import (
    SELECT_MAX_ITER,
    _clusterability_rows,
    _partition_sse,
    _reference_indices,
    clusterability_index,
    screening_threshold,
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


def reference_plus_plus(rows, k, restarts, rng):
    """k-means++ seeding with both weight guards taken on every draw."""
    n, p = rows.shape
    centers = np.empty((restarts, k, p))
    centers[:, 0] = rows[rng.integers(n, size=restarts)]
    d2 = cdist(centers[:, 0], rows, "sqeuclidean")
    for j in range(1, k):
        totals = d2.sum(axis=1)
        u = rng.random(restarts) * np.where(totals > 0, totals, 1.0)
        cum = np.cumsum(np.where(totals[:, None] > 0, d2, 1.0), axis=1)
        idx = np.minimum((cum < u[:, None]).sum(axis=1), n - 1)
        centers[:, j] = rows[idx]
        d2 = np.minimum(d2, cdist(centers[:, j], rows, "sqeuclidean"))
    return centers


def reference_assign(rows, centers, offsets):
    """The assignment step in its first form: the argmin of the
    transposed (restarts, n, k) distance view, which NumPy copies into C
    order before it scans, and the same refill of empty clusters."""
    restarts, k, p = centers.shape
    n = rows.shape[0]
    dist = cdist(rows, centers.reshape(-1, p), "sqeuclidean")
    dist = dist.reshape(n, restarts, k).transpose(1, 0, 2)
    labels = dist.argmin(axis=2)
    counts = np.bincount((labels + offsets).ravel(),
                         minlength=restarts * k).reshape(restarts, k)
    refilled = not counts.all()
    if refilled:
        points = np.arange(n)
        for r in np.flatnonzero((counts == 0).any(axis=1)):
            for empty in np.flatnonzero(counts[r] == 0):
                d1 = dist[r, points, labels[r]]
                eligible = counts[r, labels[r]] > 1
                far = int(np.argmax(np.where(eligible, d1, -np.inf)))
                counts[r, labels[r, far]] -= 1
                counts[r, empty] += 1
                labels[r, far] = empty
                centers[r, empty] = rows[far]
                dist[r, :, empty] = cdist(rows, rows[far:far + 1],
                                          "sqeuclidean")[:, 0]
    return dist, labels, counts, refilled


def reference_lloyd(rows, centers, max_iter):
    """Lloyd steps that allocate afresh: a new ``arange`` each step, a
    bool one-hot times the rows and ``reference_assign``."""
    restarts, k, _ = centers.shape
    labels = np.full((restarts, rows.shape[0]), -1)
    for _ in range(max_iter):
        dist, new_labels, counts, refilled = reference_assign(
            rows, centers, k * np.arange(restarts)[:, None])
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        onehot = labels[:, None, :] == np.arange(k)[None, :, None]
        np.divide(onehot @ rows, counts[:, :, None], out=centers)
    else:
        refilled = True
    if refilled:
        dist, labels, _, _ = reference_assign(
            rows, centers, k * np.arange(restarts)[:, None])
    costs = np.take_along_axis(dist, labels[:, :, None], 2)[:, :, 0].sum(axis=1)
    return labels, costs


def reference_partition_sse(rows, total, labels, k):
    """Within-cluster sum of squares with the sums taken by ``np.add.at``."""
    counts = np.bincount(labels, minlength=k).astype(float)
    sums = np.zeros((k, rows.shape[1]))
    np.add.at(sums, labels, rows)
    nonzero = counts > 0
    return total - float(np.sum((sums[nonzero] ** 2).sum(axis=1)
                                / counts[nonzero]))


@st.composite
def engine_runs(draw):
    """Rows (mostly repeated, or up to 60 normal draws of width 1-8 at
    three scales, whose sums round), K in 1..n, 1-6 restarts and an
    iteration cap that is often hit."""
    if draw(st.booleans(), label="duplicated"):
        rows = draw(duplicated_rows())
    else:
        shape = (draw(st.integers(2, 60)), draw(st.integers(1, 8)))
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        rows = rng.standard_normal(shape) * scale
    k = draw(st.integers(1, rows.shape[0]), label="k")
    restarts = draw(st.integers(1, 6), label="restarts")
    max_iter = draw(st.sampled_from([1, 2, SELECT_MAX_ITER]),
                    label="max_iter")
    return rows, k, restarts, max_iter


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


@SMALL
@given(engine_runs())
@example((np.full((7, 3), 2.5), 4, 3, SELECT_MAX_ITER))
@example((np.repeat([[0.5, -1.0], [3.0, 2.0]], [9, 11], axis=0), 3, 4,
          SELECT_MAX_ITER))
def test_engine_equals_its_allocating_form_bit_for_bit(run):
    """Seeding, Lloyd steps and the partition SSE equal their reference
    forms in every bit. All-equal rows make every seeding total 0; two
    distinct rows under three centers seed one center onto another, so
    every step refills an empty cluster."""
    rows, k, restarts, max_iter = run
    seed = k * 7 + restarts
    centers = _plus_plus_centers(rows, k, restarts,
                                 derived_rng(seed, "property"))
    expected_centers = reference_plus_plus(rows, k, restarts,
                                           derived_rng(seed, "property"))
    assert same_bits(centers, expected_centers)
    labels, costs = _lloyd(rows, centers, max_iter)
    expected_labels, expected_costs = reference_lloyd(rows, expected_centers,
                                                      max_iter)
    assert same_bits(labels, expected_labels)
    assert same_bits(costs, expected_costs)
    assert same_bits(centers, expected_centers)
    # Each restart's partition, and the whole block as one cluster, whose
    # sums add many rows (two-member sums are exact in any order).
    total = float(np.sum(rows * rows))
    for partition in (*labels, np.zeros(rows.shape[0], dtype=int)):
        assert same_bits(_partition_sse(rows, total, partition, k),
                         reference_partition_sse(rows, total, partition, k))


@SMALL
@given(engine_runs(), st.data())
def test_one_seeding_serves_every_k_bit_for_bit(run, data):
    """The prefix property the k-means driver rests on: the first K
    centers of a k_max-center seeding are the K-center seeding of the
    same stream, and the jump rule, which seeds once for K = 1..k_max,
    gives every K the cost of a separate ``kmeans`` run, in every bit."""
    rows, k, restarts, _ = run
    n, p = rows.shape
    k_max = data.draw(st.integers(max(2, k), n), label="k_max")
    seed = k * 7 + restarts
    wide = _plus_plus_centers(rows, k_max, restarts,
                              derived_rng(seed, "property"))
    assert same_bits(wide[:, :k], _plus_plus_centers(
        rows, k, restarts, derived_rng(seed, "property")))
    _, curve = choose_k_by_jump(rows, k_max, restarts=restarts, seed=seed)
    separate = np.array([kmeans(rows, j, restarts=restarts, seed=seed).cost
                         for j in range(1, k_max + 1)]) / (n * p)
    assert same_bits(curve.distortions, separate)


def test_refill_equals_its_reference_bit_for_bit():
    """Coincident centers send every point to the lowest index, so the
    first assignment refills K - 1 clusters of each restart, on rows
    whose costs round: the step and the Lloyd run from there equal
    their reference forms in every bit."""
    rows = np.random.default_rng(5).standard_normal((40, 3))
    restarts, k = 3, 4
    centers = np.repeat(rows[:restarts, None, :], k, axis=1)
    offsets = k * np.arange(restarts)[:, None]
    moved, expected_moved = centers.copy(), centers.copy()
    step = _assign(rows, moved, offsets)
    expected = reference_assign(rows, expected_moved, offsets)
    assert step[3] and expected[3]
    for got, want in zip(step[:3], expected[:3]):
        assert same_bits(got, want)
    assert same_bits(moved, expected_moved)
    labels, costs = _lloyd(rows, centers.copy(), SELECT_MAX_ITER)
    expected_labels, expected_costs = reference_lloyd(rows, centers.copy(),
                                                      SELECT_MAX_ITER)
    assert same_bits(labels, expected_labels)
    assert same_bits(costs, expected_costs)


def one_column_index(col):
    """The clusterability index by 1-D operations on one column."""
    span = col.max() - col.min()
    if span == 0:
        return 0.0
    x = np.sort((col - col.min()) / span)
    tss = float(np.sum((x - x.mean()) ** 2))
    if tss == 0:
        return 0.0
    n = col.size
    cum1 = np.cumsum(x)
    cum2 = np.cumsum(x * x)
    sizes = np.arange(1, n)
    left = cum2[:-1] - cum1[:-1] ** 2 / sizes
    right = (cum2[-1] - cum2[:-1]) - (cum1[-1] - cum1[:-1]) ** 2 / (n - sizes)
    return max(0.0, 1.0 - float(np.min(left + right)) / tss)


@st.composite
def column_stacks(draw):
    """A few columns of one length as the rows of a stack: normal,
    constant, two-value or rounded, each at its own magnitude, laid out
    in C or Fortran order."""
    n = draw(st.integers(10, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["normal", "constant", "two-value",
                                     "rounded"]))
        if kind == "normal":
            row = rng.normal(size=n)
        elif kind == "constant":
            row = np.full(n, rng.normal())
        elif kind == "two-value":
            row = rng.choice(rng.normal(size=2), size=n)
        else:
            row = np.round(rng.normal(size=n), 1)
        rows.append(row * 10.0 ** draw(st.integers(-150, 150)))
    order = draw(st.sampled_from(["C", "F"]))
    return np.array(rows, order=order)


@SMALL
@given(column_stacks())
def test_stacked_clusterability_equals_each_column_bitwise(stack):
    by_row = np.array([clusterability_index(row) for row in stack])
    by_column = np.array([one_column_index(row) for row in stack])
    assert _clusterability_rows(stack).tobytes() == by_row.tobytes()
    assert by_row.tobytes() == by_column.tobytes()


@SMALL
@given(st.integers(10, 400),
       st.one_of(st.sampled_from([0, 1, 0.0, 0.5, 1.0]),
                 st.floats(0.0, 1.0)))
def test_screening_threshold_is_numpys_linear_quantile_bitwise(n, q):
    expected = float(np.quantile(np.array(_reference_indices(n)), q))
    assert np.float64(screening_threshold(n, q)).tobytes() == \
        np.float64(expected).tobytes()


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
def test_dwt_parseval(curves, wavelet):
    coeffs = dwt_forward(curves, wavelet=wavelet).coefficient_vector()
    energy_in = (curves ** 2).sum(axis=1)
    energy_out = (coeffs ** 2).sum(axis=1)
    assert_allclose(energy_out, energy_in, rtol=1e-12, atol=0.0)


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
