"""Partition quality: external validation against reference labels and
internal diagnostics on the cluster geometry.

External validation offers the optimally matched misclassification
count (labels are aligned by solving the assignment problem on the
contingency table, so arbitrary label numbering never inflates the
error) and the Rand / adjusted Rand pair-counting indices. Internal
diagnostics are Leisch-style: a shadow value per observation --
``2 d1 / (d1 + d2)`` with d1, d2 the distances to the two nearest
centers, near 0 deep inside a cluster and 1 on a boundary -- and a
neighborhood graph of cluster centers on the first principal plane,
with shadow-weighted edges and median-rule convex hulls.

The SciPy pieces (``linear_sum_assignment``, ``ConvexHull``, and
``cdist`` through ``clustering._cdist``) are imported on first use, so
importing the package loads no SciPy module.
"""

from dataclasses import dataclass

import numpy as np

from .clustering import _cdist, _feature_rows, _label_array
from .dissimilarity import DissimilarityMatrix


def _contingency(a, b):
    ka, kb = a.max() + 1, b.max() + 1
    table = np.zeros((ka, kb), dtype=int)
    np.add.at(table, (a, b), 1)
    return table


def _matching(a, b):
    """The contingency table of two label arrays and its optimal
    assignment (maximum total agreement), as ``(table, rows, cols)``."""
    from scipy.optimize import linear_sum_assignment

    if a.size != b.size:
        raise ValueError("prediction and truth must have equal length")
    table = _contingency(a, b)
    rows, cols = linear_sum_assignment(table, maximize=True)
    return table, rows, cols


def misclassification(pred, truth):
    """Misclassified count and rate under the best label matching.

    The contingency table between the two labelings is matched by the
    optimal assignment (maximum total agreement), so the result does not
    depend on how either side numbers its clusters.
    """
    a = _label_array(pred)
    table, rows, cols = _matching(a, _label_array(truth))
    count = a.size - int(table[rows, cols].sum())
    return count, count / a.size


def _rand_from_table(table):
    """Rand and adjusted Rand index of the labelings behind a contingency
    table."""
    n = int(table.sum())
    if n < 2:
        raise ValueError("need at least two observations")

    def pairs(x):
        return (x * (x - 1) // 2).sum()

    together = pairs(table)
    row_pairs = pairs(table.sum(axis=1))
    col_pairs = pairs(table.sum(axis=0))
    all_pairs = n * (n - 1) // 2
    agreements = all_pairs + 2 * together - row_pairs - col_pairs
    rand = agreements / all_pairs
    expected = row_pairs * col_pairs / all_pairs
    denom = 0.5 * (row_pairs + col_pairs) - expected
    ari = 1.0 if denom == 0 else (together - expected) / denom
    return float(rand), float(ari)


def rand_indices(labels1, labels2):
    """Rand index and adjusted Rand index of two labelings.

    Rand is the fraction of the n(n-1)/2 observation pairs on which the
    two partitions agree (both together or both apart); ARI rescales it
    so that independent partitions score 0 on average and identical ones
    score 1. When the chance-agreement denominator vanishes (both
    partitions trivially agree on every pair), ARI is 1 by convention.
    """
    a, b = _label_array(labels1), _label_array(labels2)
    if a.size != b.size:
        raise ValueError("labelings must have equal length")
    if a.size < 2:
        raise ValueError("need at least two observations")
    return _rand_from_table(_contingency(a, b))


@dataclass
class ValidationReport:
    """External validation summary of a partition against reference labels."""

    misclassified: int
    rate: float
    contingency: np.ndarray
    rand: float
    adjusted_rand: float
    matching: tuple


def validation_report(pred, truth):
    """Misclassification, matching, and Rand indices in one report."""
    a, b = _label_array(pred), _label_array(truth)
    table, rows, cols = _matching(a, b)
    count = a.size - int(table[rows, cols].sum())
    rand, ari = _rand_from_table(table)
    return ValidationReport(
        misclassified=count, rate=count / a.size, contingency=table,
        rand=rand, adjusted_rand=ari,
        matching=tuple(zip(rows.tolist(), cols.tolist())),
    )


def shadow_values(space, partition):
    """Per-observation boundary scores ``2 d1 / (d1 + d2)`` in [0, 1].

    ``d1`` is the distance to the assigned center (k-means partitions
    measure in the feature space given by ``space``, whose rows must be
    finite; PAM partitions read their dissimilarity matrix, a
    :class:`DissimilarityMatrix` or an array checked as one) and ``d2``
    the distance to the nearest other center. An observation exactly on
    its center scores 0, one equidistant between two centers scores 1; a
    0/0 (coincident centers) counts as 0.
    """
    if partition.k < 2:
        raise ValueError("shadow values need at least two clusters")
    if partition.centers is not None:
        dists = _cdist(_feature_rows(space), partition.centers)
    else:
        if not isinstance(space, DissimilarityMatrix):
            space = DissimilarityMatrix(space, measure=None)
        dists = space.values[:, partition.medoids]
    return _shadows(dists, partition.labels)


def _shadows(dists, labels):
    """Shadow values from (n, K) center distances and assigned labels."""
    n = dists.shape[0]
    d1 = dists[np.arange(n), labels]
    masked = dists.copy()
    masked[np.arange(n), labels] = np.inf
    d2 = masked.min(axis=1)
    total = d1 + d2
    out = np.zeros(n)
    np.divide(2.0 * d1, total, out=out, where=total > 0)
    return out


@dataclass
class NeighborhoodGraph:
    """Cluster centers on the principal plane, with shadow-weighted edges.

    ``edges`` maps center pairs (k, l), k < l, to the mean shadow value
    of the observations whose two nearest centers are exactly that pair.
    ``inner_hull``/``outer_hull`` list, per cluster, the observation
    indices on the convex hull of the members within the median
    (respectively 2.5 x median) distance of their center. ``components``
    holds the projection directions; ``degenerate`` flags feature
    covariance of rank < 2, in which case the missing direction is zero.
    """

    center_coords: np.ndarray
    point_coords: np.ndarray
    edges: dict
    inner_hull: dict
    outer_hull: dict
    components: np.ndarray
    degenerate: bool = False


def _principal_plane(rows):
    """Top-two covariance eigenvectors, sign-fixed, plus a rank flag."""
    centered = rows - rows.mean(axis=0)
    cov = centered.T @ centered / max(rows.shape[0] - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    tol = 1e-12 * max(eigvals[0], 1.0)
    rank = int((eigvals > tol).sum())
    components = np.zeros((2, rows.shape[1]))
    for i in range(min(2, rank)):
        vec = eigvecs[:, i]
        anchor = np.argmax(np.abs(vec))
        components[i] = vec if vec[anchor] >= 0 else -vec
    return components, rank < 2


def _hull_vertices(coords, members):
    """Dataset indices of the convex hull of the given projected points."""
    from scipy.spatial import ConvexHull, QhullError

    if members.size < 3:
        return [int(i) for i in members]
    try:
        hull = ConvexHull(coords[members])
    except QhullError:
        return [int(i) for i in members]
    return [int(members[v]) for v in hull.vertices]


def neighborhood_graph(features, partition):
    """Leisch-style cluster neighborhood graph in the principal plane.

    Edges connect center pairs that are the two nearest centers of at
    least one observation (nearness measured in the full feature space),
    weighted by the mean shadow value of those observations. Hull
    membership uses full-dimensional distances to the assigned center:
    within the cluster's median distance for the inner hull, within 2.5
    times it for the outer hull; the hulls themselves are taken on the
    projected plane.
    """
    rows = _feature_rows(features)
    if partition.k < 2:
        raise ValueError("the graph needs at least two clusters")
    if rows.shape[0] < partition.k + 2:
        raise ValueError("need at least K + 2 observations")
    centers = partition.centers
    if centers is None:
        raise ValueError("the neighborhood graph requires a k-means "
                         "partition with centers")
    components, degenerate = _principal_plane(rows)
    mean = rows.mean(axis=0)
    point_coords = (rows - mean) @ components.T
    center_coords = (centers - mean) @ components.T

    dists = _cdist(rows, centers)
    order = np.argsort(dists, axis=1)
    pair_lo = np.minimum(order[:, 0], order[:, 1])
    pair_hi = np.maximum(order[:, 0], order[:, 1])
    shadows = _shadows(dists, partition.labels)
    edges = {}
    for key in sorted({(int(a), int(b)) for a, b in zip(pair_lo, pair_hi)}):
        mask = (pair_lo == key[0]) & (pair_hi == key[1])
        edges[key] = float(shadows[mask].mean())

    inner_hull, outer_hull = {}, {}
    to_center = dists[np.arange(rows.shape[0]), partition.labels]
    for k in range(partition.k):
        members = np.flatnonzero(partition.labels == k)
        median = float(np.median(to_center[members]))
        inner = members[to_center[members] <= median]
        outer = members[to_center[members] <= 2.5 * median]
        inner_hull[k] = _hull_vertices(point_coords, inner)
        outer_hull[k] = _hull_vertices(point_coords, outer)
    return NeighborhoodGraph(
        center_coords=center_coords, point_coords=point_coords, edges=edges,
        inner_hull=inner_hull, outer_hull=outer_hull, components=components,
        degenerate=degenerate,
    )
