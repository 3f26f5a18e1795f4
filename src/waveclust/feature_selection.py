"""Unsupervised screening and subset selection of clustering features.

The procedure has two stages. Screening scores each feature column with
a clusterability index -- one minus the ratio of the best 1-D 2-means
split error to the total sum of squares on the range-transformed column
-- and drops columns scoring below a quantile (default: the median) of
the same index measured on uniform-noise surrogates of equal length.
Selection then searches all non-empty subsets of the surviving columns:
k-means (the engine of :mod:`waveclust.clustering`, capped at
``SELECT_MAX_ITER`` Lloyd steps) is run on each subset's columns (each
standardized to [0, 1]), the induced partition is scored by its
within-cluster sum of squares over *all* screened columns, and the
subset minimizing ``SSE * (1 + penalty * size)`` wins. Scoring every
candidate partition in the common screened space keeps subset scores
comparable, which is what lets a genuinely informative pair beat either
of its halves; the per-size best scores are then nonincreasing in size
whenever the larger subset's partition is at least as good, and the
multiplicative penalty arbitrates the remaining ties in favor of fewer
features.

A subset's k-means runs depend only on the standardized columns, the
seed and the subset, so a large search scores its subsets in a pool of
forked worker processes, one per usable CPU. The pool is used only when
the search holds at least ``_PARALLEL_MIN_RUNS`` (subset, K) runs and
forking is safe (the platform offers ``"fork"``, the caller is not a
daemonic process and runs no other thread); otherwise the subsets are
scored in the calling process. Either way the results are reduced in
one fixed subset order, so every report is identical for any worker
count. :mod:`multiprocessing` is imported only when a pool is opened.
"""

import os
import threading
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations

import numpy as np

from .clustering import _feature_rows, _lloyd, _plus_plus_centers
from .rng import _master_seed, derived_rng

#: Internal seed for the uniform-surrogate reference distribution.
_REFERENCE_SEED = 83230
#: Number of uniform surrogates behind the screening threshold.
_REFERENCE_COUNT = 200
#: Lloyd iteration cap of each subset k-means run.
SELECT_MAX_ITER = 40
#: Fewest (subset, K) runs a search must hold before its subsets are
#: scored in a worker pool. Measured on a 2-CPU machine, one BLAS
#: thread: a fork pool costs 17-21 ms to start and stop, one run takes
#: 0.7-0.9 ms, and two workers broke even with one process at 130-190
#: runs (0.87x at 105 runs, 1.00x at 133, 1.1-1.2x at 189-217 and
#: 1.2-1.4x at 589-1197).
_PARALLEL_MIN_RUNS = 200


def clusterability_index(column):
    """How well a single column splits into two groups, in [0, 1].

    The column is range-transformed to [0, 1]; the index is
    ``1 - SSE_best / TSS`` where SSE_best is the error of the best
    2-means split (found exactly by scanning all sorted split points)
    and TSS the total sum of squares. A constant column scores 0; a
    balanced two-point mass scores 1.
    """
    if np.ndim(column) != 1:
        raise ValueError("column must be one-dimensional")
    col = _feature_rows(column)[0]
    n = col.size
    if n < 10:
        raise ValueError("need at least 10 observations per column")
    span = col.max() - col.min()
    if span == 0:
        return 0.0
    x = np.sort((col - col.min()) / span)
    tss = float(np.sum((x - x.mean()) ** 2))
    if tss == 0:
        return 0.0
    cum1 = np.cumsum(x)
    cum2 = np.cumsum(x * x)
    sizes = np.arange(1, n)
    left = cum2[:-1] - cum1[:-1] ** 2 / sizes
    right = (cum2[-1] - cum2[:-1]) - (cum1[-1] - cum1[:-1]) ** 2 / (n - sizes)
    best = float(np.min(left + right))
    return max(0.0, 1.0 - best / tss)


@lru_cache(maxsize=None)
def _reference_indices(n):
    """Sorted clusterability indices of uniform surrogates of length n.

    Seeded independently of callers so the cache never depends on call
    order; this is the null distribution features must beat.
    """
    rng = np.random.default_rng([_REFERENCE_SEED, int(n)])
    return tuple(
        sorted(clusterability_index(rng.random(n))
               for _ in range(_REFERENCE_COUNT))
    )


def screening_threshold(n, quantile=0.5):
    """The uniform-reference quantile a feature's index must reach."""
    return float(np.quantile(np.array(_reference_indices(int(n))), quantile))


@dataclass
class SelectionReport:
    """Outcome of screening plus exhaustive subset search.

    ``index`` holds every column's clusterability; columns at or above
    ``threshold`` form ``screened_in``. ``best_by_size`` maps subset
    size to the minimum-SSE subset of that size (feature indices refer
    to the original matrix). ``selected`` minimizes the penalized score;
    it is empty and ``no_structure`` is set when nothing survives
    screening.
    """

    index: np.ndarray
    threshold: float
    screened_in: tuple
    best_by_size: dict
    selected: tuple
    selected_sse: float
    k: int
    penalty: float
    screen_quantile: float
    seed: int
    no_structure: bool = False


def _partition_sse(rows, labels, k):
    """Within-cluster sum of squares of ``rows`` under given labels."""
    total = float(np.sum(rows * rows))
    counts = np.bincount(labels, minlength=k).astype(float)
    sums = np.zeros((k, rows.shape[1]))
    np.add.at(sums, labels, rows)
    nonzero = counts > 0
    centered = float(
        np.sum((sums[nonzero] ** 2).sum(axis=1) / counts[nonzero])
    )
    return total - centered


def _subset_sses(standardized, screened, ks, restarts, seed, subset):
    """The partition SSE of every K in ``ks`` for one subset's k-means runs.

    ``standardized`` holds the screened columns, in the order of
    ``screened``; ``subset`` names original column indices. The subset
    draws its stream once and seeds ``max(ks)`` centers per restart; the
    run for K starts from a copy of the first K of them. The result
    depends only on the arguments, so any process may compute it.
    """
    rows = standardized[:, [screened.index(j) for j in subset]]
    rng = derived_rng(seed, "select", sum(1 << j for j in subset))
    seeds = _plus_plus_centers(rows, max(ks), restarts, rng)
    sses = []
    for k in ks:
        labels, costs = _lloyd(rows, seeds[:, :k].copy(), SELECT_MAX_ITER)
        sses.append(_partition_sse(standardized,
                                   labels[int(np.argmin(costs))], k))
    return sses


def _usable_cpus():
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_subsets(job, subsets, runs):
    """``job`` of every subset, in order, from a forked pool if it pays.

    The pool has one worker per usable CPU, at most one per subset, and
    is used only when the search holds at least ``_PARALLEL_MIN_RUNS``
    (subset, K) runs and forking is safe: the platform offers ``"fork"``,
    the caller is not a daemonic process (which cannot have children),
    and no other thread is alive to be copied mid-operation. Otherwise
    the subsets are scored here, one after another. ``Pool.map`` returns
    results in input order, so the two routes give identical lists.
    Workers are forked, not spawned: a spawned worker would import NumPy,
    SciPy and this package again, which costs more than most searches.
    """
    workers = min(_usable_cpus(), len(subsets))
    if workers < 2 or runs < _PARALLEL_MIN_RUNS:
        return list(map(job, subsets))
    import multiprocessing
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
            or threading.active_count() != 1):
        return list(map(job, subsets))
    # Import SciPy's cdist before forking, so the workers inherit it
    # instead of each importing it for its first distance.
    import scipy.spatial.distance  # noqa: F401
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return pool.map(job, subsets)


def _search(features, ks, screen_quantile, penalty, restarts, seed):
    """Screen once, then score every subset against every K in ``ks``.

    Subsets are scored by ``_subset_sses`` (possibly in worker
    processes) and reduced here in a fixed order, by size and then in
    ``combinations`` order, so ties resolve the same way however the
    scoring was spread. Returns a dict mapping each K to its
    SelectionReport.
    """
    values = _feature_rows(features)
    seed = _master_seed(seed)
    n, n_features = values.shape
    if min(ks) < 2:
        raise ValueError("k must be at least 2")
    if max(ks) > n:
        raise ValueError(f"k must be at most the number of rows, {n}")
    if n_features > 16:
        raise ValueError("exhaustive search supports at most 16 features")
    index = np.array([clusterability_index(values[:, j])
                      for j in range(n_features)])
    threshold = screening_threshold(n, screen_quantile)
    screened = tuple(int(j) for j in np.flatnonzero(index >= threshold))
    cols = values[:, screened]
    standardized = (cols - cols.min(axis=0)) / (cols.max(axis=0)
                                                - cols.min(axis=0))
    subsets = [subset for size in range(1, len(screened) + 1)
               for subset in combinations(screened, size)]
    job = partial(_subset_sses, standardized, screened, ks, restarts, seed)

    best_by_size = {k: {} for k in ks}
    picks = {k: ((), float("nan"), float("inf")) for k in ks}
    for subset, sses in zip(subsets, _map_subsets(
            job, subsets, len(subsets) * len(ks))):
        size = len(subset)
        for k, sse in zip(ks, sses):
            by_size = best_by_size[k]
            if size not in by_size or sse < by_size[size][1]:
                by_size[size] = (subset, sse)
            score = sse * (1.0 + penalty * size)
            if score < picks[k][2]:
                picks[k] = (subset, sse, score)
    return {
        k: SelectionReport(
            index=index.copy(), threshold=threshold, screened_in=screened,
            best_by_size=best_by_size[k], selected=picks[k][0],
            selected_sse=picks[k][1], k=k, penalty=penalty,
            screen_quantile=screen_quantile, seed=seed,
            no_structure=not screened,
        )
        for k in ks
    }


def select_features(features, k, screen_quantile=0.5, penalty=0.05,
                    restarts=6, seed=0):
    """Screen feature columns, then pick the subset best worth keeping.

    Parameters
    ----------
    features : FeatureMatrix or (n, J) array
    k : number of clusters the subsets are judged against, in 2..n.
    screen_quantile : quantile of the uniform-surrogate index
        distribution a column must reach to survive screening.
    penalty : size penalty; the winner minimizes
        ``SSE * (1 + penalty * |subset|)``.
    restarts, seed : k-means restarts per subset and the master seed.
    """
    return _search(features, [k], screen_quantile, penalty, restarts,
                   seed)[k]


def select_features_stable(features, k_max, screen_quantile=0.5,
                           penalty=0.05, restarts=6, seed=0):
    """Selection repeated for every K in 2..k_max, with the modal subset.

    Returns ``(final_subset, reports)`` where ``reports`` maps each K to
    its SelectionReport and ``final_subset`` is the most frequently
    selected subset (ties to the lexicographically smallest).

    Every K shares one pass: the columns are screened once, and each
    subset draws its random stream once and seeds ``k_max`` k-means++
    centers per restart. The run for K starts from the first K of those
    centers. This is exact, not an approximation: k-means++ adds centers
    one at a time, each from draws that do not depend on how many will
    follow, and the stream is derived from the seed and the subset alone,
    never from K. So the first K centers are the ones a K-only search
    would seed, and each report equals ``select_features(features, K)``
    bit for bit. Lloyd iterations stop at convergence or at a fixed cap
    of ``SELECT_MAX_ITER`` (40) per run.

    A search of at least ``_PARALLEL_MIN_RUNS`` (subset, K) runs scores
    its subsets in a pool of forked workers, one per usable CPU, when
    forking is safe (see the module docstring). The subsets are reduced
    in the same order either way, so the reports are identical for any
    worker count, including one.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    reports = _search(features, range(2, k_max + 1), screen_quantile,
                      penalty, restarts, seed)
    tallies = {}
    for report in reports.values():
        tallies[report.selected] = tallies.get(report.selected, 0) + 1
    final = min(tallies, key=lambda s: (-tallies[s], s))
    return final, reports
