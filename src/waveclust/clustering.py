"""Partitioning algorithms: restarted k-means on feature rows, PAM on
dissimilarity matrices, and cluster-count detection via the transformed
distortion jump.

k-means has one engine and one driver. The driver, ``_best_restarts``,
seeds every restart once by k-means++, runs the engine from those seeds
at each cluster count it is given and keeps each count's best restart;
``kmeans``, the jump rule and subset selection
(:mod:`waveclust.feature_selection`) all run through it, and its
docstring states the prefix property and the tie rule they rely on. The
engine runs all restarts' Lloyd iterations at once, and each step
measures its squared distances with one ``cdist`` call over every
restart's centers. The nearest center is the ``argmin`` over the last
axis of that call's own (n, restarts, k) output, which NumPy scans
without a copy; the labels are then made a C-contiguous (restarts, n)
array, because the cost's pairwise sum adds in an order its operand's
layout sets. Each step moves the centers in buffers made once per run:
the cluster sums are a 0/1 one-hot matrix, written as one scatter of
ones into a zeroed buffer, times the rows, a BLAS product, kept because
a ``bincount`` sum is not guaranteed to round as BLAS does. SciPy's
``cdist`` is imported on the first distance a k-means run measures, not
with the module, so PAM and the import of the package need no SciPy.
PAM is fully deterministic: a greedy BUILD initialization followed by
best-improvement SWAP steps until no single medoid/non-medoid exchange
lowers the total dissimilarity.
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

    Centers are added one at a time, each from one vector of draws; the
    driver ``_best_restarts`` states the prefix property this gives.
    """
    n, p = rows.shape
    centers = np.empty((restarts, k, p))
    centers[:, 0] = rows[rng.integers(n, size=restarts)]
    d2 = _cdist(centers[:, 0], rows, "sqeuclidean")
    for j in range(1, k):
        # A restart whose rows all sit on its centers has total 0: its u
        # is 0, no cumulative weight lies below it, and it takes row 0,
        # which sits on a center like every other row.
        u = rng.random(restarts) * d2.sum(axis=1)
        cum = np.cumsum(d2, axis=1)
        idx = np.minimum((cum < u[:, None]).sum(axis=1), n - 1)
        centers[:, j] = rows[idx]
        np.minimum(d2, _cdist(centers[:, j], rows, "sqeuclidean"), out=d2)
    return centers


def _assign(rows, centers, offsets):
    """Nearest-center labels of every restart, with no cluster left empty.

    This is the assignment half of a Lloyd step, whose constants and
    buffers ``_lloyd`` makes once per run. ``offsets`` is ``k *
    np.arange(restarts)[:, None]``: adding it to the labels numbers every
    restart's clusters apart, so one ``bincount`` counts them all. Counts
    are integers, so any order gives them exactly; the cluster sums are
    not, so ``_lloyd`` keeps them a BLAS product (see there).

    Returns ``(dist, labels, counts, refilled)``: squared distances
    (restarts, n, k), labels (restarts, n), cluster sizes (restarts, k)
    and whether any center was moved. The labels are a new array each
    call, so the caller may keep the previous step's. The distances come
    from one ``cdist`` call over all restarts' centers; a (restarts, n,
    k, p) broadcast would make wide rows several times slower. The
    ``cdist`` output is (n, restarts * k), so the ``argmin`` runs over
    the last axis of its contiguous (n, restarts, k) reshape; NumPy
    would copy the transposed (restarts, n, k) view returned as ``dist``
    before scanning it. The labels are then copied into C order.
    Transposed, they would make the gather of each point's distance in
    ``_lloyd`` come out in Fortran order, and its ``sum(axis=1)`` would
    add the costs in another order than the pairwise sum of a contiguous
    row.

    An empty cluster's center moves onto the farthest point whose own
    cluster keeps another member (pigeonhole: one exists whenever a
    cluster is empty and k <= n), and that point joins it; ``dist`` is
    updated to match. So coincident centers, which send every tied point
    to the lower index, cannot leave a cluster empty.
    """
    restarts, k, p = centers.shape
    n = rows.shape[0]
    dist = _cdist(rows, centers.reshape(-1, p), "sqeuclidean")
    dist = dist.reshape(n, restarts, k)
    labels = np.ascontiguousarray(dist.argmin(axis=2).T)
    dist = dist.transpose(1, 0, 2)
    counts = np.bincount((labels + offsets).ravel(),
                         minlength=restarts * k).reshape(restarts, k)
    refilled = np.count_nonzero(counts) < counts.size
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

    Each step runs in buffers made once per run. The labels become 0/1
    floats in a (restarts, k, n) one-hot buffer: it is zeroed, and one
    scatter writes a 1 at each point's flat index ``n * label + base``
    (``base`` places each restart's block and each point's column). Its
    product with ``rows`` fills a (restarts, k, p) buffer of cluster
    sums, and their quotient by the cluster sizes is written into
    ``centers``. The sum stays a matrix product, which NumPy hands to
    BLAS: a ``bincount`` or ``np.add.at`` sum adds in another order, and
    is not guaranteed to round as BLAS does, so it would move the
    centers' bits. The convergence test counts the changed labels.
    """
    restarts, k, p = centers.shape
    n = rows.shape[0]
    offsets = k * np.arange(restarts)[:, None]
    onehot = np.empty((restarts, k, n))
    cells = onehot.reshape(-1)
    base = n * offsets + np.arange(n)
    sums = np.empty((restarts, k, p))
    # Start from labels no assignment gives, so the first step always
    # moves the centers to means (a start at 0 would stop k = 1 at once).
    labels = np.full((restarts, n), -1)
    for _ in range(max_iter):
        dist, new_labels, counts, refilled = _assign(rows, centers, offsets)
        if not np.count_nonzero(new_labels != labels):
            break
        labels = new_labels
        onehot.fill(0.0)
        cells[n * labels + base] = 1.0
        np.matmul(onehot, rows, out=sums)
        np.divide(sums, counts[:, :, None], out=centers)
    else:
        refilled = True
    if refilled:
        # Assign again to the final centers: the loop hit its cap, or
        # the converged assignment moved a center.
        dist, labels, _, _ = _assign(rows, centers, offsets)
    costs = np.take_along_axis(dist, labels[:, :, None], 2)[:, :, 0].sum(axis=1)
    return labels, costs


def _check_restarts(restarts):
    """The restart count's one rule: at least one."""
    if restarts < 1:
        raise ValueError("restarts must be at least 1")


def _best_restarts(rows, ks, restarts, rng, max_iter):
    """The best of ``restarts`` k-means runs at each K in ``ks``.

    Yields one ``(labels, cost, centers)`` per K, in the order of
    ``ks``: the labels (n,), the within-cluster sum of squares and the
    centers (K, p) of the minimum-cost restart, ties in cost to the
    lowest restart index. Each K's runs are at most ``max_iter`` Lloyd
    steps of ``_lloyd``, made when the caller asks for that K, so a
    caller that keeps only costs holds one K's arrays at a time.

    Every restart is seeded once, with ``max(ks)`` k-means++ centers
    drawn from ``rng``, and the runs for K start from a copy of the
    first K of them, C-contiguous like a K-center seeding. This is exact,
    not an approximation. k-means++ adds centers one at a time, each
    from draws that do not depend on how many will follow, so the first
    K centers of a k-center seeding equal the K-center seeding drawn
    from the same stream (the prefix property), and each K's result
    equals a driver run with ``ks=[K]`` from that stream, bit for bit.
    """
    _check_restarts(restarts)
    seeds = _plus_plus_centers(rows, max(ks), restarts, rng)
    for k in ks:
        centers = seeds[:, :k].copy()
        labels, costs = _lloyd(rows, centers, max_iter)
        r = int(np.argmin(costs))
        yield labels[r], float(costs[r]), centers[r]


def kmeans(features, k, restarts=20, seed=0):
    """Best-of-restarts k-means.

    All restarts are seeded by k-means++ from one stream,
    ``derived_rng(seed, "kmeans")``, and iterate together for at most
    ``MAX_ITER`` Lloyd steps. The minimum-cost restart wins; ties in cost
    go to the lowest restart index (see ``_best_restarts``).
    """
    rows = _feature_rows(features)
    n = rows.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    [(labels, cost, centers)] = _best_restarts(
        rows, [k], restarts, derived_rng(seed, "kmeans"), MAX_ITER)
    return Partition(labels=labels, k=k, cost=cost, centers=centers,
                     method="kmeans")


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
    seed)`` divided by n * p, for K = 1..``k_max``. The restarts are
    seeded once per call, with ``k_max`` centers from ``kmeans``'s
    stream, and each K runs from the first K of them; by the prefix
    property (see ``_best_restarts``) every cost is ``kmeans``'s, bit
    for bit.
    """
    rows = _feature_rows(features)
    n, p = rows.shape
    if not 2 <= k_max <= n:
        raise ValueError(f"k_max must be in 2..{n} (the number of rows), "
                         f"got {k_max}")
    best = _best_restarts(rows, range(1, k_max + 1), restarts,
                          derived_rng(seed, "kmeans"), MAX_ITER)
    distortions = np.array([cost for _, cost, _ in best]) / (n * p)
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
