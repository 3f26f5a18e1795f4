import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from waveclust import (
    DissimilarityMatrix,
    Partition,
    kmeans,
    misclassification,
    neighborhood_graph,
    pam,
    rand_indices,
    shadow_values,
    validation_report,
)
from waveclust.rng import derived_rng


def brute_force_rand(a, b):
    """Pair-by-pair enumeration of both indices, no contingency table."""
    a, b = np.asarray(a), np.asarray(b)
    n = len(a)
    iu = np.triu_indices(n, 1)
    same_a = (a[:, None] == a[None, :])[iu]
    same_b = (b[:, None] == b[None, :])[iu]
    total = n * (n - 1) // 2
    rand = (same_a == same_b).sum() / total
    both = (same_a & same_b).sum()
    in_a, in_b = same_a.sum(), same_b.sum()
    expected = in_a * in_b / total
    max_index = (in_a + in_b) / 2.0
    if max_index == expected:
        return rand, 1.0
    return rand, (both - expected) / (max_index - expected)


# --- misclassification ---

def test_relabeling_costs_nothing():
    truth = np.array([0, 0, 1, 1, 2, 2])
    pred = np.array([2, 2, 0, 0, 1, 1])
    count, rate = misclassification(pred, truth)
    assert count == 0 and rate == 0.0


def test_single_moved_observation():
    truth = np.array([0, 0, 0, 1, 1, 1])
    pred = np.array([0, 0, 1, 1, 1, 1])
    count, rate = misclassification(pred, truth)
    assert count == 1
    assert_allclose(rate, 1 / 6)


def test_misclassification_guards():
    with pytest.raises(ValueError):
        misclassification([0, 1], [0, 1, 2])


def test_matching_takes_any_number_of_clusters():
    # Thirteen clusters, and labels as large as 20, match as two do.
    labels = np.repeat(np.arange(13), 2)
    report = validation_report(labels, (labels + 5) % 13)
    assert (report.misclassified, report.rate) == (0, 0.0)
    assert report.matching == tuple((k, (k + 5) % 13) for k in range(13))
    assert misclassification([0, 0, 1, 1], [0, 0, 20, 20]) == (0, 0.0)
    assert rand_indices([0, 0, 1, 1], [0, 0, 20, 20]) == (1.0, 1.0)


def test_rate_never_exceeds_one_minus_one_over_k():
    rng = derived_rng(0, "rate")
    for _ in range(25):
        k = int(rng.integers(2, 6))
        truth = rng.integers(0, k, size=40)
        pred = rng.integers(0, k, size=40)
        if len(np.unique(truth)) < k or len(np.unique(pred)) < k:
            continue
        _, rate = misclassification(pred, truth)
        assert rate <= 1.0 - 1.0 / k + 1e-12


# --- Rand indices ---

def test_identical_partitions():
    labels = np.array([0, 1, 1, 2, 0])
    assert rand_indices(labels, labels) == (1.0, 1.0)


def test_hand_example_four_points():
    """All six pairs enumerated: 2 agreements, ARI -1/2."""
    rand, ari = rand_indices([1, 1, 2, 2], [1, 2, 1, 2])
    assert_allclose(rand, 1 / 3)
    assert_allclose(ari, -0.5)


def test_rand_matches_brute_force_enumeration():
    rng = derived_rng(1, "rand")
    for _ in range(50):
        n = int(rng.integers(5, 31))
        a = rng.integers(0, rng.integers(2, 6), size=n)
        b = rng.integers(0, rng.integers(2, 6), size=n)
        expect = brute_force_rand(a, b)
        got = rand_indices(a, b)
        assert_allclose(got, expect, atol=1e-12)


def test_rand_symmetry_and_label_permutation():
    rng = derived_rng(2, "perm")
    a = rng.integers(0, 3, size=30)
    b = rng.integers(0, 4, size=30)
    assert rand_indices(a, b) == rand_indices(b, a)
    remapped = np.array([2, 0, 1])[a]
    assert_allclose(rand_indices(remapped, b), rand_indices(a, b), atol=1e-12)


def test_rand_rejects_tiny_input():
    with pytest.raises(ValueError):
        rand_indices([0], [0])


def test_validation_report_round_numbers():
    report = validation_report([0, 0, 1, 1], [1, 1, 0, 0])
    assert report.misclassified == 0
    assert report.rand == 1.0 and report.adjusted_rand == 1.0
    assert np.asarray(report.contingency).sum() == 4


@pytest.mark.parametrize("truth", [[-1, -1, -1, 0, 0, 0],
                                   [0, 0, 0, -1, -1, 1]])
def test_negative_labels_are_rejected(truth):
    # Indexing the contingency table with -1 would wrap to its last row:
    # the first truth (the prediction shifted by -1) scored 3 misclassified
    # and ARI 0, the second (three groups) ARI 1.
    pred = [0, 0, 0, 1, 1, 1]
    for score in (misclassification, rand_indices, validation_report):
        with pytest.raises(ValueError, match="nonnegative"):
            score(pred, truth)


@pytest.mark.parametrize("truth", [[0.5, 0.5, 0.5, 1.5, 1.5, 1.5],
                                   [0, 0, 0, 1, 1, np.nan],
                                   [0, 0, 0, 1, 1, np.inf]])
def test_fractional_and_nonfinite_labels_are_rejected(truth):
    # Casting to int truncated them: 0.5 and 1.5 read as 0 and 1, a
    # perfect match.
    pred = [0, 0, 0, 1, 1, 1]
    for score in (misclassification, rand_indices, validation_report):
        with pytest.raises(ValueError, match="integers"):
            score(pred, truth)
        with pytest.raises(ValueError, match="integers"):
            score(truth, pred)


def test_integral_float_labels_are_accepted():
    assert misclassification([0, 0, 1, 1], [1.0, 1.0, 0.0, 0.0]) == (0, 0.0)
    assert rand_indices([0.0, 0.0, 2.0, 2.0], [0, 0, 1, 1]) == (1.0, 1.0)


def test_validation_report_agrees_with_its_parts():
    rng = derived_rng(8, "report")
    for _ in range(20):
        pred = rng.integers(0, 4, size=30)
        truth = rng.integers(0, 5, size=30)
        report = validation_report(pred, truth)
        assert (report.misclassified, report.rate) == \
            misclassification(pred, truth)
        assert (report.rand, report.adjusted_rand) == \
            rand_indices(pred, truth)
        agreement = sum(report.contingency[i][j] for i, j in report.matching)
        assert report.misclassified == 30 - agreement


# --- shadow values ---

def test_shadow_at_center_is_zero():
    features = np.array([[0.0], [0.0], [3.0], [3.0]])
    part = kmeans(features, 2, restarts=2, seed=0)
    assert_allclose(shadow_values(features, part), 0.0, atol=1e-12)


def test_shadow_hand_value_two_thirds():
    features = np.array([[0.0], [3.0], [1.0]])
    part = Partition(labels=np.array([0, 1, 0]), k=2, cost=1.0,
                     centers=np.array([[0.0], [3.0]]))
    assert_allclose(shadow_values(features, part)[2], 2 / 3)


def test_shadow_equidistant_is_one():
    features = np.array([[0.0, -1.0], [0.0, 0.5], [0.0, 1.0], [0.0, 2.0]])
    part = Partition(labels=np.array([0, 1, 0, 1]), k=2, cost=1.0,
                     centers=np.array([[-1.0, 0.0], [1.0, 0.0]]))
    assert_allclose(shadow_values(features, part), 1.0, atol=1e-12)


def test_shadow_scale_invariant():
    rng = derived_rng(3, "scale")
    features = rng.normal(size=(30, 3))
    part = kmeans(features, 3, restarts=5, seed=3)
    base = shadow_values(features, part)
    scaled_part = Partition(labels=part.labels, k=3, cost=part.cost,
                            centers=10.0 * part.centers)
    assert_allclose(shadow_values(10.0 * features, scaled_part), base,
                    atol=1e-9)


def test_shadow_on_dissimilarity_matrix():
    values = np.array([[0.0, 1.0, 4.0],
                       [1.0, 0.0, 4.0],
                       [4.0, 4.0, 0.0]])
    part = pam(DissimilarityMatrix(values, "euclid-raw"), 2)
    shadows = shadow_values(values, part)
    assert shadows.shape == (3,)
    assert (shadows >= 0.0).all() and (shadows <= 1.0).all()
    # the lone far observation is a medoid: distance 0, shadow 0
    assert shadows[2] == 0.0


def test_shadow_requires_two_clusters():
    features = np.zeros((4, 2))
    part = Partition(labels=np.zeros(4, dtype=int), k=1, cost=0.0,
                     centers=np.zeros((1, 2)))
    with pytest.raises(ValueError):
        shadow_values(features, part)


@pytest.mark.parametrize("n_labels", [10, 40])
def test_shadow_names_a_label_count_unlike_the_rows(n_labels):
    features = derived_rng(9, "count").normal(size=(30, 2))
    labels = np.arange(n_labels) % 2
    message = f"the partition has {n_labels} labels for 30 observations"
    centered = Partition(labels=labels, k=2, cost=1.0, centers=features[:2])
    with pytest.raises(ValueError, match=message):
        shadow_values(features, centered)
    values = np.abs(np.subtract.outer(features[:, 0], features[:, 0]))
    medoids = Partition(labels=labels, k=2, cost=1.0,
                        medoids=np.array([0, 1]))
    with pytest.raises(ValueError, match=message):
        shadow_values(values, medoids)


# --- neighborhood graph ---

def two_blobs(seed=4, spread=0.05):
    rng = derived_rng(seed, "graph")
    a = rng.normal(0.0, spread, size=(20, 2))
    b = rng.normal(0.0, spread, size=(20, 2)) + [10.0, 0.0]
    return np.vstack([a, b])


def test_far_blobs_single_weak_edge():
    features = two_blobs()
    part = kmeans(features, 2, restarts=5, seed=4)
    graph = neighborhood_graph(features, part)
    assert list(graph.edges) == [(0, 1)]
    assert graph.edges[(0, 1)] < 0.2
    assert not graph.degenerate


def test_three_collinear_blobs_skip_far_edge():
    rng = derived_rng(5, "collinear")
    blocks = [rng.normal(0.0, 0.05, size=(15, 2)) + [x, 0.0]
              for x in (0.0, 1.0, 2.0)]
    features = np.vstack(blocks)
    part = kmeans(features, 3, restarts=10, seed=5)
    graph = neighborhood_graph(features, part)
    # map cluster ids to their line position before checking edges
    x_order = np.argsort(part.centers[:, 0])
    left, mid, right = (int(x_order[i]) for i in range(3))
    assert tuple(sorted((left, mid))) in graph.edges
    assert tuple(sorted((mid, right))) in graph.edges
    assert tuple(sorted((left, right))) not in graph.edges


def test_equidistant_points_weight_one_and_degenerate_flag():
    features = np.array([[0.0, -1.0], [0.0, 0.5], [0.0, 1.0], [0.0, 2.0],
                         [0.0, -2.0], [0.0, 3.0]])
    part = Partition(labels=np.array([0, 1, 0, 1, 0, 1]), k=2, cost=1.0,
                     centers=np.array([[-1.0, 0.0], [1.0, 0.0]]))
    graph = neighborhood_graph(features, part)
    assert_allclose(graph.edges[(0, 1)], 1.0, atol=1e-12)
    assert graph.degenerate


def test_edge_weights_within_unit_interval():
    rng = derived_rng(6, "weights")
    features = rng.normal(size=(60, 4))
    part = kmeans(features, 4, restarts=5, seed=6)
    graph = neighborhood_graph(features, part)
    assert graph.edges
    for weight in graph.edges.values():
        assert 0.0 <= weight <= 1.0


def test_hull_vertices_are_cluster_members():
    features = two_blobs(seed=7, spread=0.3)
    part = kmeans(features, 2, restarts=5, seed=7)
    graph = neighborhood_graph(features, part)
    for k in range(2):
        members = set(np.flatnonzero(part.labels == k))
        assert set(graph.inner_hull[k]) <= members
        assert set(graph.outer_hull[k]) <= members
        assert set(graph.inner_hull[k]) <= set(graph.outer_hull[k]) | members


def test_graph_requires_centers():
    values = np.abs(np.random.default_rng(8).normal(size=(8, 8)))
    values = (values + values.T) / 2.0
    np.fill_diagonal(values, 0.0)
    part = pam(DissimilarityMatrix(values, "euclid-raw"), 2)
    with pytest.raises(ValueError):
        neighborhood_graph(values, part)


@pytest.mark.parametrize("n_labels", [10, 40])
def test_graph_names_a_label_count_unlike_the_rows(n_labels):
    features = two_blobs(seed=9, spread=0.3)[:30]
    labels = np.arange(n_labels) % 2
    part = Partition(labels=labels, k=2, cost=1.0,
                     centers=np.array([[0.0, 0.0], [10.0, 0.0]]))
    with pytest.raises(ValueError, match=f"the partition has {n_labels} "
                                         "labels for 30 observations"):
        neighborhood_graph(features, part)
