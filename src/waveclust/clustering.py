"""Partitioning algorithms: restarted k-means on feature rows, PAM on
dissimilarity matrices, and cluster-count detection via the transformed
distortion jump.

k-means has one engine, which subset selection
(:mod:`waveclust.feature_selection`) shares and the jump rule runs as
``kmeans`` once per cluster count: k-means++ seeding and Lloyd
iterations run all restarts at once, and each step measures its squared
distances with one ``cdist`` call over every restart's centers. SciPy's
``cdist`` is imported on the first distance a k-means run measures, not
with the module, so PAM and the import of the package need no SciPy.
``kmeans`` seeds all its restarts from one random stream derived from
``seed``; the minimum-cost restart wins, ties to the lowest restart
index. PAM is fully deterministic: a greedy BUILD initialization
followed by best-improvement SWAP steps until no single medoid/non-medoid
exchange lowers the total dissimilarity.
"""

from dataclasses import dataclass

import numpy as np

from .dissimilarity import DissimilarityMatrix
from .rng import derived_rng

#: Lloyd iteration cap of a ``kmeans`` run.
MAX_ITER = 100

#: A swap must beat the current PAM cost by more than this to be taken.
SWAP_TOL = 1e-12


def _label_array(partition_or_labels):
    """Labels as an int array; ``2.0`` is label 2, while a fractional or
    non-finite label is an error rather than being truncated."""
    labels = np.asarray(getattr(partition_or_labels, "labels",
                                partition_or_labels))
    if labels.dtype.kind not in "biu":
        values = labels.astype(float)
        bad = values[~(np.isfinite(values) & (values == np.trunc(values)))]
        if bad.size:
            raise ValueError(f"labels must be integers, got "
                             f"{float(bad[0])!r}")
    labels = labels.astype(int, copy=False)
    if labels.size and labels.min() < 0:
        raise ValueError(f"labels must be nonnegative integers, got "
                         f"{int(labels.min())}")
    return labels


@dataclass
class Partition:
    """A clustering of n observations into K non-empty groups.

    Exactly one of ``centers`` (k-means: K x p array) and ``medoids``
    (PAM: K observation indices, ascending) is set. ``cost`` is the
    within-cluster total: squared Euclidean distances to centers, or
    dissimilarities to medoids.
    """

    labels: np.ndarray
    k: int
    cost: float
    centers: np.ndarray = None
    medoids: np.ndarray = None
    method: str = "kmeans"

    def __post_init__(self):
        self.labels = _label_array(self.labels)
        counts = np.bincount(self.labels, minlength=self.k)
        if counts.size > self.k or np.any(counts == 0):
            raise ValueError("every cluster must be non-empty")


def _cdist(*args):
    """SciPy's ``cdist``, imported on the first call: the import rebinds
    this module-level name, so later calls go to SciPy directly."""
    global _cdist
    from scipy.spatial.distance import cdist as _cdist
    return _cdist(*args)


def _feature_rows(features):
    values = getattr(features, "values", features)
    rows = np.atleast_2d(np.asarray(values, dtype=float))
    if not np.isfinite(rows).all():
        raise ValueError("feature values must be finite (found nan or inf)")
    return rows


def _plus_plus_centers(rows, k, restarts, rng):
    """k-means++ centers of ``restarts`` runs at once, shape (restarts, k, p).

    Centers are added one at a time, each from one vector of draws, so
    the first K centers of a k-center seeding equal the K-center seeding
    drawn from the same stream.
    """
    n, p = rows.shape
    centers = np.empty((restarts, k, p))
    centers[:, 0] = rows[rng.integers(n, size=restarts)]
    d2 = _cdist(centers[:, 0], rows, "sqeuclidean")
    for j in range(1, k):
        totals = d2.sum(axis=1)
        u = rng.random(restarts) * np.where(totals > 0, totals, 1.0)
        cum = np.cumsum(np.where(totals[:, None] > 0, d2, 1.0), axis=1)
        idx = np.minimum((cum < u[:, None]).sum(axis=1), n - 1)
        centers[:, j] = rows[idx]
        d2 = np.minimum(d2, _cdist(centers[:, j], rows, "sqeuclidean"))
    return centers


def _assign(rows, centers):
    """Nearest-center labels of every restart, with no cluster left empty.

    Returns ``(dist, labels, counts, refilled)``: squared distances
    (restarts, n, k), labels (restarts, n), cluster sizes (restarts, k)
    and whether any center was moved. The distances come from one
    ``cdist`` call over all restarts' centers; a (restarts, n, k, p)
    broadcast would make wide rows several times slower. An empty
    cluster's center moves onto the farthest point whose own cluster
    keeps another member (pigeonhole: one exists whenever a cluster is
    empty and k <= n), and that point joins it; ``dist`` is updated to
    match. So coincident centers, which send every tied point to the
    lower index, cannot leave a cluster empty.
    """
    restarts, k, p = centers.shape
    n = rows.shape[0]
    dist = _cdist(rows, centers.reshape(-1, p), "sqeuclidean")
    dist = dist.reshape(n, restarts, k).transpose(1, 0, 2)
    labels = dist.argmin(axis=2)
    offsets = k * np.arange(restarts)[:, None]
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
                dist[r, :, empty] = _cdist(rows, rows[far:far + 1],
                                           "sqeuclidean")[:, 0]
    return dist, labels, counts, refilled


def _lloyd(rows, centers, max_iter):
    """Lloyd iterations of every restart at once from seeded ``centers``.

    ``centers`` (restarts, k, p) is updated in place to each restart's
    final centers. Returns ``(labels, costs)``: labels (restarts, n) and
    within-cluster sums of squares (restarts,), each cost measured
    against the returned centers. Iteration stops when no restart's
    labels change, or after ``max_iter`` steps; no cluster of any
    restart is empty.
    """
    restarts, k, _ = centers.shape
    # Start from labels no assignment gives, so the first step always
    # moves the centers to means (a start at 0 would stop k = 1 at once).
    labels = np.full((restarts, rows.shape[0]), -1)
    for _ in range(max_iter):
        dist, new_labels, counts, refilled = _assign(rows, centers)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        onehot = labels[:, None, :] == np.arange(k)[None, :, None]
        np.divide(onehot @ rows, counts[:, :, None], out=centers)
    else:
        refilled = True
    if refilled:
        # Assign again to the final centers: the loop hit its cap, or
        # the converged assignment moved a center.
        dist, labels, _, _ = _assign(rows, centers)
    costs = np.take_along_axis(dist, labels[:, :, None], 2)[:, :, 0].sum(axis=1)
    return labels, costs


def kmeans(features, k, restarts=20, seed=0):
    """Best-of-restarts k-means.

    All restarts are seeded by k-means++ from one stream,
    ``derived_rng(seed, "kmeans")``, and iterate together for at most
    ``MAX_ITER`` Lloyd steps. The minimum-cost restart wins; ties in cost
    go to the lowest restart index.
    """
    rows = _feature_rows(features)
    n = rows.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    centers = _plus_plus_centers(rows, k, restarts,
                                 derived_rng(seed, "kmeans"))
    labels, costs = _lloyd(rows, centers, MAX_ITER)
    best = int(np.argmin(costs))
    return Partition(labels=labels[best], k=k, cost=float(costs[best]),
                     centers=centers[best], method="kmeans")


@dataclass
class DistortionCurve:
    """Per-K distortions and their transform used by the jump rule.

    ``distortions[K-1]`` is the mean squared distance to the nearest
    center divided by the feature dimension p; ``transformed`` holds
    d_K ** (-p/2) with the convention Y_0 = 0 kept implicitly, and
    ``jump_k`` the K maximizing the increase Y_K - Y_{K-1}. Where the
    transform overflows (zero distortion), values are capped at ten
    times the largest finite transform and ``capped`` is set.
    """

    k_values: np.ndarray
    distortions: np.ndarray
    transformed: np.ndarray
    jump_k: int
    p: int
    capped: bool = False


def choose_k_by_jump(features, k_max, restarts=10, seed=0):
    """Pick the cluster count at the largest jump of d_K ** (-p/2).

    Each K's distortion is the cost of ``kmeans(features, K, restarts,
    seed)`` divided by n * p, for K = 1..``k_max``.
    """
    rows = _feature_rows(features)
    n, p = rows.shape
    if not 2 <= k_max <= n:
        raise ValueError(f"k_max must be in 2..{n} (the number of rows), "
                         f"got {k_max}")
    distortions = np.array([kmeans(rows, k, restarts, seed).cost
                            for k in range(1, k_max + 1)]) / (n * p)
    with np.errstate(over="ignore", divide="ignore"):
        transformed = distortions ** (-p / 2.0)
    finite = np.isfinite(transformed)
    capped = not finite.all()
    if capped:
        ceiling = 10.0 * transformed[finite].max() if finite.any() else 1.0
        transformed = np.where(finite, transformed, ceiling)
    jumps = np.diff(np.concatenate(([0.0], transformed)))
    jump_k = int(np.argmax(jumps)) + 1
    curve = DistortionCurve(
        k_values=np.arange(1, k_max + 1),
        distortions=distortions,
        transformed=transformed,
        jump_k=jump_k,
        p=p,
        capped=capped,
    )
    return jump_k, curve


def _pam_build(d, k):
    """Greedy BUILD initialization: argmin column sum first, then the
    candidate with the largest total cost reduction; ties to the lowest
    index."""
    n = d.shape[0]
    medoids = [int(np.argmin(d.sum(axis=0)))]
    nearest = d[:, medoids[0]].copy()
    while len(medoids) < k:
        gains = np.maximum(nearest[:, None] - d, 0.0).sum(axis=0)
        gains[medoids] = -np.inf
        best = int(np.argmax(gains))
        medoids.append(best)
        nearest = np.minimum(nearest, d[:, best])
    return medoids


def pam(dissimilarity, k):
    """Partitioning around medoids, run to swap-optimality.

    ``dissimilarity`` is a :class:`DissimilarityMatrix`, taken as is, or
    an array checked as one: a nan or inf, a negative or asymmetric
    entry, or a nonzero diagonal is an error. BUILD greedily seeds the K
    medoids, then SWAP repeatedly applies the single (medoid,
    non-medoid) exchange that lowers the total cost the most, until no
    exchange improves it. Both phases are deterministic. Labels assign
    each observation to its nearest medoid, ties to the smaller medoid
    index; a medoid always belongs to its own cluster, even when another
    medoid is 0 away from it (a duplicated point).
    """
    if not isinstance(dissimilarity, DissimilarityMatrix):
        dissimilarity = DissimilarityMatrix(dissimilarity, measure=None)
    d = dissimilarity.values
    n = d.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    medoids = _pam_build(d, k)
    while k < n:
        sub = d[:, medoids]
        order = np.argsort(sub, axis=1)
        d1 = sub[np.arange(n), order[:, 0]]
        d2 = sub[np.arange(n), order[:, 1]] if k > 1 else np.full(n, np.inf)
        nearest_pos = order[:, 0]
        non_medoids = np.setdiff1d(np.arange(n), medoids)
        best_delta, best_swap = -SWAP_TOL, None
        for pos in range(k):
            mine = nearest_pos == pos
            # Cost change of replacing medoid `pos` by each candidate h:
            # points losing their medoid fall back to min(second-nearest,
            # h); the rest may only improve by moving to h.
            gain_mine = (
                np.minimum(d2[mine, None], d[np.ix_(mine, non_medoids)]).sum(0)
                - d1[mine].sum()
            )
            gain_rest = np.minimum(
                d[np.ix_(~mine, non_medoids)] - d1[~mine, None], 0.0
            ).sum(0)
            deltas = gain_mine + gain_rest
            h = int(np.argmin(deltas))
            if deltas[h] < best_delta:
                best_delta, best_swap = float(deltas[h]), (pos, int(non_medoids[h]))
        if best_swap is None:
            break
        medoids[best_swap[0]] = best_swap[1]
    medoids = np.sort(np.asarray(medoids, dtype=int))
    labels = np.argmin(d[:, medoids], axis=1)
    labels[medoids] = np.arange(k)
    cost = float(d[np.arange(n), medoids[labels]].sum())
    return Partition(labels=labels, k=k, cost=cost, medoids=medoids,
                     method="pam")
