import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from waveclust import (
    DissimilarityMatrix,
    Partition,
    choose_k_by_jump,
    clusterability_index,
    feature_matrix,
    gen_benchmark,
    kmeans,
    neighborhood_graph,
    pam,
    relative_contributions,
    select_features,
    select_features_stable,
    shadow_values,
)
from waveclust.rng import derived_rng


def blobs(seed, centers, n_per, sd=0.05):
    rng = derived_rng(seed, "blobs")
    centers = np.asarray(centers, dtype=float)
    points = np.vstack([c + rng.normal(0.0, sd, size=(n_per, centers.shape[1]))
                        for c in centers])
    labels = np.repeat(np.arange(len(centers)), n_per)
    return points, labels


def relabel_agreement(a, b):
    """ARI == 1 iff partitions are identical up to label names."""
    from waveclust import rand_indices
    return rand_indices(a, b)[1]


# --- kmeans ---

def test_two_points_two_clusters():
    part = kmeans(np.array([[0.0, 0.0], [1.0, 1.0]]), 2, restarts=2, seed=0)
    assert part.cost == 0.0
    assert sorted(part.labels) == [0, 1]


def test_k1_center_is_column_mean():
    X = np.random.default_rng(1).normal(size=(20, 3))
    part = kmeans(X, 1, restarts=1, seed=0)
    assert_allclose(part.centers, X.mean(axis=0, keepdims=True), atol=1e-12)
    assert_allclose(part.cost, ((X - X.mean(axis=0)) ** 2).sum(), rtol=1e-12)


def test_blob_recovery_100_seeds():
    """Three tight planted blobs are recovered exactly in >= 99/100 runs."""
    hits = 0
    centers = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]
    for seed in range(100):
        X, truth = blobs(seed, centers, 50)
        part = kmeans(X, 3, restarts=20, seed=seed)
        hits += relabel_agreement(part.labels, truth) == 1.0
    assert hits >= 99


def test_cost_matches_reported_partition():
    X = np.random.default_rng(2).normal(size=(60, 4))
    part = kmeans(X, 4, restarts=5, seed=2)
    recomputed = ((X - part.centers[part.labels]) ** 2).sum()
    assert_allclose(part.cost, recomputed, rtol=1e-9)
    assert np.bincount(part.labels, minlength=4).min() >= 1


def test_best_of_restarts_never_worse_than_single():
    X = np.random.default_rng(3).normal(size=(80, 2))
    multi = kmeans(X, 5, restarts=12, seed=3)
    assert all(multi.cost <= kmeans(X, 5, restarts=1, seed=3 + r).cost + 1e-9
               for r in range(3))


def test_kmeans_rerun_deterministic():
    X = np.random.default_rng(4).normal(size=(50, 3))
    a = kmeans(X, 3, restarts=8, seed=4)
    b = kmeans(X, 3, restarts=8, seed=4)
    assert_array_equal(a.labels, b.labels)
    assert_array_equal(a.centers, b.centers)
    assert a.cost == b.cost


def test_kmeans_rejects_k_above_n():
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 4)


@pytest.mark.parametrize("restarts", [0, -1])
def test_kmeans_and_jump_reject_fewer_than_one_restart(restarts):
    rows, _ = blobs(3, np.eye(2) * 3.0, 5)
    for call in (lambda: kmeans(rows, 2, restarts=restarts),
                 lambda: choose_k_by_jump(rows, 4, restarts=restarts)):
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            call()


@pytest.mark.parametrize("labels, message", [
    ([0.5, 1.7, 0.2, 1.1], "labels must be integers, got 0.5"),
    ([0, 1, np.nan, 1], "labels must be integers, got nan"),
    ([0, 1, -1, 1], "labels must be nonnegative integers, got -1"),
])
def test_partition_takes_labels_by_the_label_rule(labels, message):
    with pytest.raises(ValueError) as info:
        Partition(labels=labels, k=2, cost=0.0)
    assert str(info.value) == message
    part = Partition(labels=[0.0, 1.0, 0.0, 1.0], k=2, cost=0.0)
    assert part.labels.dtype == np.int64
    assert_array_equal(part.labels, [0, 1, 0, 1])


#: A k-means partition of the four rows below, for the diagnostics.
TWO_CENTERS = Partition(labels=[0, 0, 1, 1], k=2, cost=0.0,
                        centers=np.array([[1.5, 1.5], [4.0, 5.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", [
    lambda rows: kmeans(rows, 2),
    lambda rows: choose_k_by_jump(rows, 3),
    lambda rows: select_features(rows, 2),
    lambda rows: select_features_stable(rows, 3),
    lambda rows: shadow_values(rows, TWO_CENTERS),
    lambda rows: neighborhood_graph(rows, TWO_CENTERS),
    lambda rows: clusterability_index(np.tile(rows[:, 0], 3)),
    lambda rows: relative_contributions(rows, rows.sum(axis=1)),
], ids=["kmeans", "choose_k_by_jump", "select_features",
        "select_features_stable", "shadow_values", "neighborhood_graph",
        "clusterability_index", "relative_contributions"])
def test_feature_consumers_reject_non_finite_values(call, bad):
    rows = np.array([[0.0, 1.0], [bad, 2.0], [3.0, 4.0], [5.0, 6.0]])
    with pytest.raises(ValueError, match="must be finite"):
        call(rows)


# --- jump method ---

def test_jump_finds_three_blobs():
    hits = 0
    centers = np.eye(3) * 4.0
    for seed in range(40):
        X, _ = blobs(seed, centers, 30, sd=0.1)
        k_star, curve = choose_k_by_jump(X, 10, restarts=5, seed=seed)
        assert (np.diff(curve.distortions) <= 1e-9).all()
        hits += k_star == 3
    assert hits >= 36  # >= 90%


def test_jump_duplicated_two_point_pattern():
    X = np.tile([[0.0, 0.0], [1.0, 1.0]], (10, 1))
    k_star, curve = choose_k_by_jump(X, 5, restarts=3, seed=0)
    assert k_star == 2
    assert curve.capped
    assert_allclose(curve.distortions[1], 0.0, atol=1e-15)


def test_jump_invariant_to_permutation_and_scale():
    X, _ = blobs(7, np.eye(4) * 3.0, 20, sd=0.2)
    k0, _ = choose_k_by_jump(X, 8, restarts=5, seed=7)
    k1, _ = choose_k_by_jump(X[:, ::-1], 8, restarts=5, seed=7)
    k2, _ = choose_k_by_jump(2.5 * X, 8, restarts=5, seed=7)
    assert k0 == k1 == k2


def separate_runs_jump(rows, k_max, restarts, seed):
    """The jump rule on one separately seeded ``kmeans`` run per K."""
    n, p = rows.shape
    distortions = np.array([kmeans(rows, k, restarts=restarts, seed=seed).cost
                            / (n * p) for k in range(1, k_max + 1)])
    with np.errstate(over="ignore", divide="ignore"):
        transformed = distortions ** (-p / 2.0)
    finite = np.isfinite(transformed)
    if not finite.all():
        transformed = np.where(finite, transformed,
                               10.0 * transformed[finite].max())
    jumps = np.diff(np.concatenate(([0.0], transformed)))
    return distortions, int(np.argmax(jumps)) + 1, not finite.all()


@pytest.mark.parametrize("case", ["planted", "benchmark", "duplicated"])
def test_jump_shared_seeding_matches_separate_kmeans_runs(case):
    if case == "planted":
        rows, _ = blobs(11, np.eye(3) * 4.0, 15, sd=0.3)
        k_max, restarts, seed = 10, 5, 11
    elif case == "benchmark":
        dataset, _ = gen_benchmark(seed=4, n_per_cluster=8, length=256)
        rows = feature_matrix(dataset, kind="logitRC").values
        k_max, restarts, seed = 12, 4, 4
    else:
        rows = np.tile([[0.0, 0.0], [1.0, 1.0]], (4, 1))
        k_max, restarts, seed = 8, 3, 0
    distortions, jump_k, capped = separate_runs_jump(rows, k_max, restarts,
                                                     seed)
    k_star, curve = choose_k_by_jump(rows, k_max, restarts=restarts,
                                     seed=seed)
    assert_array_equal(curve.distortions, distortions)
    assert k_star == curve.jump_k == jump_k
    assert curve.capped == capped


def test_jump_rejects_k_max_above_row_count():
    with pytest.raises(ValueError, match=r"k_max must be in 2\.\.6 .*got 9"):
        choose_k_by_jump(np.random.default_rng(2).normal(size=(6, 2)), 9)
    with pytest.raises(ValueError, match="k_max"):
        choose_k_by_jump(np.zeros((6, 2)), 1)


# --- PAM ---

def block_matrix(sizes, within=0.1, between=10.0):
    n = sum(sizes)
    values = np.full((n, n), between)
    start = 0
    for size in sizes:
        values[start:start + size, start:start + size] = within
        start += size
    np.fill_diagonal(values, 0.0)
    return DissimilarityMatrix(values, "euclid-raw")


def pam_cost(values, medoids, labels):
    return values[np.arange(len(labels)), np.asarray(medoids)[labels]].sum()


def swap_is_optimal(values, medoids, labels, tol=1e-9):
    """Exhaustive check: no single medoid swap lowers the total cost."""
    base = pam_cost(values, medoids, labels)
    n = values.shape[0]
    for pos in range(len(medoids)):
        for candidate in range(n):
            if candidate in medoids:
                continue
            trial = list(medoids)
            trial[pos] = candidate
            trial_labels = np.argmin(values[:, trial], axis=1)
            if pam_cost(values, trial, trial_labels) < base - tol:
                return False
    return True


def test_pam_k_equals_n():
    values = np.abs(np.random.default_rng(8).normal(size=(6, 6)))
    values = (values + values.T) / 2.0
    np.fill_diagonal(values, 0.0)
    part = pam(DissimilarityMatrix(values, "euclid-raw"), 6)
    assert part.cost == 0.0
    assert sorted(part.medoids) == list(range(6))


def test_pam_duplicated_points_each_keep_a_cluster():
    values = np.zeros((3, 3))
    values[2, :2] = values[:2, 2] = 1.0  # points 0 and 1 coincide
    part = pam(values, 2)
    assert_array_equal(part.labels[part.medoids], [0, 1])
    assert part.cost == pam_cost(values, part.medoids, part.labels)
    part = pam(np.zeros((2, 2)), 2)
    assert_array_equal(part.labels, [0, 1])
    assert part.cost == 0.0


def test_pam_k1_minimizes_column_sum():
    values = np.abs(np.random.default_rng(9).normal(size=(9, 9)))
    values = (values + values.T) / 2.0
    np.fill_diagonal(values, 0.0)
    part = pam(DissimilarityMatrix(values, "euclid-raw"), 1)
    assert part.medoids[0] == np.argmin(values.sum(axis=0))


def test_pam_recovers_blocks():
    part = pam(block_matrix([5, 5]), 2)
    assert_array_equal(part.labels, np.repeat([0, 1], 5))
    assert_allclose(part.cost, 8 * 0.1)


def test_pam_swap_optimal_random_instances():
    rng = np.random.default_rng(10)
    for trial in range(12):
        points = rng.normal(size=(40, 2))
        values = np.linalg.norm(points[:, None] - points[None], axis=2)
        mat = DissimilarityMatrix(values, "euclid-raw")
        k = int(rng.integers(2, 6))
        part = pam(mat, k)
        assert swap_is_optimal(values, list(part.medoids), part.labels)
        # labels assign to the nearest medoid, ties to the smaller index
        assert_array_equal(part.labels,
                           np.argmin(values[:, part.medoids], axis=1))


def test_pam_deterministic():
    mat = block_matrix([4, 4, 4], within=0.5, between=3.0)
    a = pam(mat, 3)
    b = pam(mat, 3)
    assert_array_equal(a.labels, b.labels)
    assert_array_equal(a.medoids, b.medoids)


def test_pam_rejects_k_above_n():
    with pytest.raises(ValueError):
        pam(block_matrix([2, 2]), 5)


def test_a_partition_names_its_method_by_what_it_holds():
    rows = np.array([[0.0], [0.1], [5.0], [5.1]])
    assert kmeans(rows, 2).method == "kmeans"
    assert pam(block_matrix([2, 2]), 2).method == "pam"
    with pytest.raises(TypeError):
        Partition(labels=[0, 1], k=2, cost=0.0, medoids=np.array([0, 1]),
                  method="kmeans")


#: Entries (0, 3) and (3, 0) that spoil a dissimilarity matrix, and the
#: error each one raises.
BAD_ENTRIES = {"nan": (np.nan, np.nan, "must be finite"),
               "inf": (np.inf, np.inf, "must be finite"),
               "negative": (-1.0, -1.0, "nonnegative"),
               "asymmetric": (1.0, 2.0, "symmetric")}

#: Every reader of a raw matrix checks it as a DissimilarityMatrix.
MATRIX_READERS = {
    "pam": lambda values: pam(values, 2),
    "shadow_values": lambda values: shadow_values(
        values, pam(block_matrix([2, 2]), 2)),
}


@pytest.mark.parametrize("call, bad", [
    *[pytest.param(lambda values: DissimilarityMatrix(values, "WER"), bad,
                   id=bad) for bad in ("nan", "inf")],
    *[pytest.param(call, bad, id=f"{name}-{bad}")
      for name, call in MATRIX_READERS.items() for bad in BAD_ENTRIES],
])
def test_dissimilarity_matrix_rejects_non_finite_entries(call, bad):
    upper, lower, message = BAD_ENTRIES[bad]
    values = block_matrix([2, 2]).values.copy()
    values[0, 3], values[3, 0] = upper, lower
    with pytest.raises(ValueError, match=message):
        call(values)
