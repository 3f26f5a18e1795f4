import multiprocessing
import os
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from waveclust import feature_selection, parallel
from waveclust import (
    clusterability_index,
    feature_matrix,
    gen_benchmark,
    screening_threshold,
    select_features,
    select_features_stable,
)
from waveclust.rng import derived_rng


def planted_two_columns(seed, n=150, noise_cols=4):
    """Two informative columns carrying two separated Gaussian blobs.

    Each informative column mixes a tight half (sd 0.5) and a wide half
    (sd 2.2) offset by 5.6, with the wide side swapped between the two
    columns. The wide tails force single-column splits to misplace a few
    observations, so the pair beats either singleton on within-partition
    error, while the offset keeps both columns safely above the
    clusterability screen. Remaining columns are plain Gaussian noise.
    """
    delta, s_lo, s_hi = 5.6, 0.5, 2.2
    rng = derived_rng(seed, "planted")
    half = n // 2
    informative = np.empty((n, 2))
    informative[:half, 0] = rng.normal(0.0, s_lo, half)
    informative[half:, 0] = rng.normal(delta, s_hi, half)
    informative[:half, 1] = rng.normal(0.0, s_hi, half)
    informative[half:, 1] = rng.normal(delta, s_lo, half)
    noise = rng.normal(size=(n, noise_cols))
    return np.hstack([informative, noise])


# --- clusterability index ---

def test_two_point_mass_index_is_one():
    column = np.repeat([0.0, 1.0], 10)
    assert clusterability_index(column) == 1.0


def test_uniform_index_near_three_quarters():
    rng = np.random.default_rng(0)
    values = [clusterability_index(rng.uniform(size=1000)) for _ in range(20)]
    assert_allclose(np.mean(values), 0.75, atol=0.05)


def test_normal_index_between_uniform_and_mass():
    """Regression baseline: the Gaussian scores ~0.65 at n=1000."""
    rng = np.random.default_rng(1)
    values = [clusterability_index(rng.normal(size=1000)) for _ in range(20)]
    mean = np.mean(values)
    assert 0.60 < mean < 0.70
    assert_allclose(mean, 0.6493, atol=0.01)


def test_constant_column_scores_zero():
    assert clusterability_index(np.full(25, 3.0)) == 0.0


def test_index_needs_ten_points():
    with pytest.raises(ValueError):
        clusterability_index(np.arange(9.0))


def test_index_scale_and_shift_invariant():
    rng = np.random.default_rng(2)
    column = rng.normal(size=200)
    base = clusterability_index(column)
    assert_allclose(clusterability_index(7.0 - 3.0 * column), base, atol=1e-12)


def test_screening_threshold_fixed_reference():
    # frozen Monte-Carlo reference: median uniform-surrogate index at n=150
    assert_allclose(screening_threshold(150), 0.7535, atol=2e-3)
    assert screening_threshold(150) == screening_threshold(150)
    assert screening_threshold(150, quantile=0.25) < screening_threshold(150)


# --- subset selection ---

def test_planted_pair_selected_in_at_least_95_of_100_seeds():
    hits = 0
    for seed in range(100):
        report = select_features(planted_two_columns(seed), 2, seed=seed)
        hits += report.selected == (0, 1)
    assert hits >= 95


def test_single_informative_column_selected_alone():
    rng = derived_rng(3, "single")
    column = np.concatenate([rng.normal(0.0, 0.05, 75),
                             rng.normal(1.0, 0.05, 75)])
    features = np.column_stack([column, rng.normal(size=(150, 3))])
    report = select_features(features, 2, seed=3)
    assert report.selected == (0,)


def test_duplicated_column_never_evicts_original():
    X = planted_two_columns(11)
    doubled = np.column_stack([X, X[:, 0]])
    report = select_features(doubled, 2, seed=11)
    base = select_features(X, 2, seed=11)
    assert set(base.screened_in) <= set(report.screened_in)


def test_best_sse_nonincreasing_in_size():
    report = select_features(planted_two_columns(12), 2, seed=12)
    sizes = sorted(report.best_by_size)
    sses = [report.best_by_size[s][1] for s in sizes]
    assert all(a >= b - 1e-9 for a, b in zip(sses, sses[1:]))


def test_selected_subset_is_screened_in():
    report = select_features(planted_two_columns(13), 2, seed=13)
    assert set(report.selected) <= set(report.screened_in)


def test_no_structure_when_everything_screens_out():
    rng = derived_rng(14, "noise")
    report = select_features(rng.normal(size=(150, 5)), 2, seed=14)
    assert report.no_structure
    assert report.selected == ()
    assert report.screened_in == ()


def test_selection_deterministic():
    X = planted_two_columns(15)
    a = select_features(X, 2, seed=15)
    b = select_features(X, 2, seed=15)
    assert a.selected == b.selected
    assert a.selected_sse == b.selected_sse


def test_rejects_too_many_columns():
    with pytest.raises(ValueError):
        select_features(np.random.default_rng(16).normal(size=(40, 17)), 2)


def test_stable_selection_is_mode_across_k():
    X = planted_two_columns(17)
    final, reports = select_features_stable(X, 4, seed=17)
    assert sorted(reports) == [2, 3, 4]
    picks = [reports[k].selected for k in sorted(reports)]
    assert final in picks
    assert picks.count(final) == max(picks.count(p) for p in picks)


def _report_fields(report):
    return (report.index.tobytes(), report.threshold, report.screened_in,
            report.best_by_size, report.selected, report.selected_sse)


@pytest.mark.parametrize("case", ["planted", "benchmark"])
def test_one_pass_search_equals_per_k_runs(case):
    """Every K's report of the shared search matches its own run bitwise.

    The shared search seeds k_max centers once per subset and starts the
    run for K from the first K of them; this checks that the prefix is
    exactly the K-center seeding.
    """
    if case == "planted":
        X, seed, k_max = planted_two_columns(18), 18, 6
    else:
        dataset, _ = gen_benchmark(seed=5)
        X, seed, k_max = feature_matrix(dataset, kind="logitRC").values, 5, 20
    _, reports = select_features_stable(X, k_max, seed=seed)
    assert sorted(reports) == list(range(2, k_max + 1))
    for k, report in reports.items():
        alone = select_features(X, k, seed=seed)
        assert report.k == alone.k == k
        assert _report_fields(report) == _report_fields(alone)


def test_selection_rejects_k_above_rows():
    X = planted_two_columns(19, n=12)
    with pytest.raises(ValueError):
        select_features(X, 13)
    with pytest.raises(ValueError):
        select_features_stable(X, 13)


@pytest.mark.parametrize("structured", [True, False],
                         ids=["structured", "screened-out"])
def test_selection_rejects_fewer_than_one_restart(structured):
    """The restart count is checked before screening, so a search that
    screens every column out (and so runs no k-means) rejects it too."""
    X = (planted_two_columns(20) if structured
         else derived_rng(14, "noise").normal(size=(150, 5)))
    assert bool(select_features(X, 2, seed=14).screened_in) == structured
    for call in (lambda: select_features(X, 2, restarts=0),
                 lambda: select_features_stable(X, 3, restarts=0)):
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            call()


@pytest.mark.parametrize("penalty", [float("nan"), float("inf"), -0.5])
@pytest.mark.parametrize("structured", [True, False],
                         ids=["structured", "screened-out"])
def test_selection_rejects_a_non_finite_or_negative_penalty(structured,
                                                            penalty):
    X = (planted_two_columns(20) if structured
         else derived_rng(14, "noise").normal(size=(150, 5)))
    for call in (lambda: select_features(X, 2, penalty=penalty),
                 lambda: select_features_stable(X, 3, penalty=penalty)):
        with pytest.raises(ValueError, match="penalty must be finite and "
                                             "nonnegative"):
            call()


def test_a_penalty_that_overflows_every_score_selects_the_best_column():
    # At 1e308 every SSE * (1 + penalty * size) overflows to inf; at
    # 1e300 the scores stay finite, and the best single column wins.
    X = planted_two_columns(20)
    finite = select_features(X, 2, penalty=1e300)
    report = select_features(X, 2, penalty=1e308)
    assert report.screened_in == (0, 1)
    assert report.selected == finite.selected == (0,)
    assert (report.selected, report.selected_sse) == report.best_by_size[1]
    assert select_features_stable(X, 3, penalty=1e308)[0] == (0,)


# --- the split over forked children ---

def _benchmark_features(seed):
    dataset, _ = gen_benchmark(seed=seed)
    return feature_matrix(dataset, kind="logitRC").values


def _stable_fields(result):
    final, reports = result
    return final, {k: _report_fields(r) + (r.k, r.penalty, r.screen_quantile,
                                           r.seed, r.no_structure)
                   for k, r in reports.items()}


@pytest.mark.parametrize("seed, screened", [(5, 6), (11, 7)])
def test_reports_identical_for_any_worker_count(monkeypatch, forks, seed,
                                                screened):
    X = _benchmark_features(seed)
    results = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(parallel, "usable_cpus",
                            lambda workers=workers: workers)
        final, reports = select_features_stable(X, 20, seed=seed)
        results[workers] = _stable_fields((final, reports))
    assert len(reports[20].screened_in) == screened
    assert forks == ["fork", "fork"]
    assert results[2] == results[1]
    assert results[3] == results[1]


def _serial_reference(monkeypatch, X, k_max, seed):
    """The stable selection with one worker. Afterwards the search sees
    two CPUs, so only the condition under test can keep it serial."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    reference = _stable_fields(select_features_stable(X, k_max, seed=seed))
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    return reference


#: The forks fixture's record, as a forked pool worker inherits it.
_worker_forks = None


def _select_in_a_worker(X):
    return select_features_stable(X, 5, seed=5), list(_worker_forks)


def test_search_in_a_pool_worker_splits(monkeypatch, forks):
    # A pool worker is a daemonic process, which multiprocessing forbids
    # to start children; the split forks with os.fork, which allows it.
    X = _benchmark_features(5)
    reference = _serial_reference(monkeypatch, X, 5, 5)
    monkeypatch.setitem(globals(), "_worker_forks", forks)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        result, worker_forks = pool.apply(_select_in_a_worker, (X,))
    assert worker_forks == ["fork"]
    assert _stable_fields(result) == reference


def test_search_with_another_live_thread_is_serial(monkeypatch, forks):
    X = _benchmark_features(5)
    reference = _serial_reference(monkeypatch, X, 5, 5)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        result = select_features_stable(X, 5, seed=5)
    finally:
        release.set()
        waiter.join(timeout=30)
    assert not waiter.is_alive()
    assert forks == []
    assert _stable_fields(result) == reference


def test_search_without_fork_is_serial(monkeypatch, forks):
    X = _benchmark_features(5)
    reference = _serial_reference(monkeypatch, X, 5, 5)
    monkeypatch.delattr(os, "fork")
    assert _stable_fields(select_features_stable(X, 5, seed=5)) == reference
    assert forks == []


def _three_column_year(seed):
    """365 rows of three two-cluster columns, which all pass screening."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=365)
    return rng.normal(size=(365, 3)) + 6.0 * labels[:, None]


def test_search_below_the_run_threshold_is_serial(monkeypatch, forks):
    """The threshold counts runs times rows. At 75 rows six screened
    columns give 63 subsets x 1 K = 63 runs, below it; at 365 rows three
    give 7 runs. Either way one more K crosses it."""
    for X, runs in ((_benchmark_features(5), 63), (_three_column_year(5), 7)):
        rows = X.shape[0]
        assert runs * rows < feature_selection._PARALLEL_MIN_RUN_ROWS
        assert 2 * runs * rows >= feature_selection._PARALLEL_MIN_RUN_ROWS
        reference = _serial_reference(monkeypatch, X, 2, 5)
        result = select_features_stable(X, 2, seed=5)
        assert 2 ** len(result[1][2].screened_in) - 1 == runs
        assert _stable_fields(result) == reference
        assert forks == []
        select_features_stable(X, 3, seed=5)
        assert forks == ["fork"]
        forks.clear()
