import numpy as np
import pytest
from numpy.testing import assert_allclose

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
