"""Unsupervised screening and subset selection of clustering features.

The procedure has two stages. Screening scores each feature column with
a clusterability index -- one minus the ratio of the best 1-D 2-means
split error to the total sum of squares on the range-transformed column
-- and drops columns scoring below a quantile (default: the median) of
the same index measured on uniform-noise surrogates of equal length.
One kernel scores every row of a block at once, with the operations of
one column along each row, so a matrix's columns are screened in one
call and the surrogate reference of each length n is filled in one
blocked pass, cached: its 200 surrogates are drawn from one stream in
blocks of at most 2**14 values, so the pass holds one block at a time.
The threshold is NumPy's ``"linear"`` quantile rule on the sorted
reference, taken in plain floats with the bits of ``np.quantile``.
Selection then searches all non-empty subsets of the surviving columns:
one call of the k-means driver (``_best_restarts`` in
:mod:`waveclust.clustering`, capped at ``SELECT_MAX_ITER`` Lloyd steps;
its docstring states the prefix property that lets one seeding serve
every K) clusters each subset's columns (each standardized to [0, 1])
at every K the search covers, each induced partition is scored by its
within-cluster sum of squares over *all* screened columns, and the
subset minimizing ``SSE * (1 + penalty * size)`` wins. Scoring every
candidate partition in the common screened space keeps subset scores
comparable, which is what lets a genuinely informative pair beat either
of its halves; the per-size best scores are then nonincreasing in size
whenever the larger subset's partition is at least as good, and the
multiplicative penalty arbitrates the remaining ties in favor of fewer
features.

A subset's k-means runs depend only on the standardized columns, the
seed and the subset, so a search whose (subset, K) runs times rows
reach ``_PARALLEL_MIN_RUN_ROWS`` maps its subsets through
:func:`waveclust.parallel.split_map`, over one process per usable CPU:
the caller scores every ``w``-th subset from the first, and one forked
child per other CPU scores every ``w``-th from its own offset, when
forking is safe. A smaller search is scored in the calling process.
Either way the scores come back in subset order and are reduced in that
one fixed order, so every report is identical for any worker count.
"""

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations

import numpy as np

from .clustering import _best_restarts, _check_restarts, _feature_rows
from .parallel import split_map
from .rng import _master_seed, derived_rng

#: Internal seed for the uniform-surrogate reference distribution.
_REFERENCE_SEED = 83230
#: Number of uniform surrogates behind the screening threshold.
_REFERENCE_COUNT = 200
#: Most values in one block of surrogates the reference pass scores at
#: once (at least one surrogate per block).
_REFERENCE_BLOCK_CELLS = 1 << 14
#: Lloyd iteration cap of each subset k-means run.
SELECT_MAX_ITER = 40
#: Fewest (subset, K) runs times rows a search must hold before its
#: subsets are split over the usable CPUs: a run's cost grows with the
#: rows it clusters. Measured on a 2-CPU machine, one BLAS thread, on
#: 75-row searches: forking one child for a trivial share costs 2.2-6.0
#: ms (median 2.5), one run takes 0.29 ms on average over K = 2..20
#: (0.12 ms at K = 2), and two workers broke even with one process at
#: 24-35 runs mixing several K and at about 63 runs of K = 2 alone
#: (0.76x at 31 runs of K = 2, 0.96-1.11x at 63, 0.78x at 21 runs over
#: K = 2..4, 1.13x at 45, 1.44-1.54x at 126 over K = 2..3 and
#: 1.65-1.70x at 186-189). On 365 rows, 21 runs over K = 2..4 won
#: 1.21-1.29x. 64 runs of 75 rows keeps every 75-row decision.
#: Re-measured with ``parallel.last_split`` in two later sessions on the
#: same machine, 10 alternated pairs each: the 365-row split lost both
#: times (29.7 and 32.4 ms against 20.9 and 22.0 serial), but its
#: record showed the shares running one after the other (25.0 ms of
#: wall for 10.6 + 12.2 ms of CPU, and 27.2 for 11.8 + 12.9): the
#: second CPU was away, which no gate can fix, so the value stayed.
_PARALLEL_MIN_RUN_ROWS = 64 * 75


def _clusterability_rows(rows):
    """The clusterability index of every row of a 2-D block, as an array.

    Each row goes through the steps of one column along axis 1: the
    range transform, the sort, the total sum of squares, both cumulative
    sums and the scan of all split points. The block is made
    C-contiguous, so each row's sum is the pairwise sum NumPy takes of a
    1-D column (a Fortran-order block would be summed term by term), and
    every index has the bits of the one-column computation.
    """
    rows = np.ascontiguousarray(rows)
    n = rows.shape[1]
    if n < 10:
        raise ValueError("need at least 10 observations per column")
    low = rows.min(axis=1, keepdims=True)
    span = rows.max(axis=1, keepdims=True) - low
    x = np.sort((rows - low) / np.where(span == 0, 1.0, span), axis=1)
    tss = np.sum((x - x.mean(axis=1, keepdims=True)) ** 2, axis=1)
    cum1 = np.cumsum(x, axis=1)
    cum2 = np.cumsum(x * x, axis=1)
    sizes = np.arange(1, n)
    left = cum2[:, :-1] - cum1[:, :-1] ** 2 / sizes
    right = ((cum2[:, -1:] - cum2[:, :-1])
             - (cum1[:, -1:] - cum1[:, :-1]) ** 2 / (n - sizes))
    best = np.min(left + right, axis=1)
    score = 1.0 - best / np.where(tss == 0, 1.0, tss)
    # A constant row has tss == 0 and scores 0.
    return np.where((tss > 0) & (score > 0), score, 0.0)


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
    return float(_clusterability_rows(_feature_rows(column))[0])


@lru_cache(maxsize=None)
def _reference_indices(n):
    """Sorted clusterability indices of uniform surrogates of length n.

    Seeded independently of callers so the cache never depends on call
    order; this is the null distribution features must beat. The
    surrogates are drawn from one stream in blocks of at most
    ``_REFERENCE_BLOCK_CELLS`` values (at least one surrogate), each
    block scored in one pass, so the pass holds one block at a time.
    Drawing ``(b, n)`` values takes the stream's next ``b * n`` values,
    so every surrogate is the one ``rng.random(n)`` would draw in turn.
    """
    rng = np.random.default_rng([_REFERENCE_SEED, int(n)])
    step = max(1, _REFERENCE_BLOCK_CELLS // n)
    indices = np.concatenate([
        _clusterability_rows(rng.random((min(step, _REFERENCE_COUNT - start),
                                         n)))
        for start in range(0, _REFERENCE_COUNT, step)])
    return tuple(np.sort(indices).tolist())


def screening_threshold(n, quantile=0.5):
    """The uniform-reference quantile a feature's index must reach.

    This is NumPy's ``"linear"`` quantile rule (the default of
    ``np.quantile``), taken in plain floats on the sorted reference: at
    position ``(m - 1) * quantile`` between neighbors ``a`` and ``b``
    with fraction ``t``, ``a + (b - a) * t``, or ``b - (b - a) * (1 - t)``
    when ``t >= 0.5``, as NumPy interpolates. The value has the bits of
    ``np.quantile`` of the reference.
    """
    if not 0 <= quantile <= 1:
        raise ValueError("Quantiles must be in the range [0, 1]")
    reference = _reference_indices(int(n))
    position = (len(reference) - 1) * quantile
    if position >= len(reference) - 1:
        return reference[-1]
    low = int(position)
    t = position - low
    a, b = reference[low], reference[low + 1]
    if t >= 0.5:
        return b - (b - a) * (1 - t)
    return a + (b - a) * t


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


def _partition_sse(rows, total, labels, k):
    """Within-cluster sum of squares of ``rows`` under given labels;
    ``total`` is ``rows``' sum of squares.

    The cluster sums are one weighted ``bincount`` over the cells
    ``label * p + column``: like ``np.add.at``, it adds each cell's rows
    in row order, starting from 0.0, so the sums have its bits.
    """
    p = rows.shape[1]
    counts = np.bincount(labels, minlength=k).astype(float)
    cells = (labels[:, None] * p + np.arange(p)).ravel()
    sums = np.bincount(cells, weights=rows.ravel(),
                       minlength=k * p).reshape(k, p)
    nonzero = counts > 0
    centered = float(
        np.sum((sums[nonzero] ** 2).sum(axis=1) / counts[nonzero])
    )
    return total - centered


def _subset_sses(standardized, total, screened, ks, restarts, seed, subset):
    """The partition SSE of every K in ``ks`` for one subset's k-means runs.

    ``standardized`` holds the screened columns, in the order of
    ``screened``, and ``total`` is its sum of squares; ``subset`` names
    original column indices. The subset's stream, derived from the seed
    and the subset alone, drives one ``_best_restarts`` call over every
    K (its docstring states the prefix property that makes each K's run
    the one a K-only search would make). The result depends only on the
    arguments, so any process may compute it.
    """
    rows = standardized[:, [screened.index(j) for j in subset]]
    rng = derived_rng(seed, "select", sum(1 << j for j in subset))
    best = _best_restarts(rows, ks, restarts, rng, SELECT_MAX_ITER)
    return [_partition_sse(standardized, total, labels, k)
            for k, (labels, _, _) in zip(ks, best)]


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
    # Checked before screening, so a search that screens every column
    # out rejects them as one that runs k-means does.
    _check_restarts(restarts)
    if not 0 <= penalty < float("inf"):
        raise ValueError(
            f"penalty must be finite and nonnegative, got {penalty!r}")
    index = _clusterability_rows(values.T)
    threshold = screening_threshold(n, screen_quantile)
    screened = tuple(int(j) for j in np.flatnonzero(index >= threshold))
    cols = values[:, screened]
    standardized = (cols - cols.min(axis=0)) / (cols.max(axis=0)
                                                - cols.min(axis=0))
    subsets = [subset for size in range(1, len(screened) + 1)
               for subset in combinations(screened, size)]
    total = float(np.sum(standardized * standardized))
    job = partial(_subset_sses, standardized, total, screened, ks, restarts,
                  seed)
    # Below the break-even the search runs here; above it, on every
    # usable CPU (``split_map`` caps the workers at one per CPU).
    workers = 1
    if len(subsets) * len(ks) * n >= _PARALLEL_MIN_RUN_ROWS:
        # Import SciPy's cdist before forking, so the children inherit it
        # instead of each importing it for its first distance.
        import scipy.spatial.distance  # noqa: F401
        workers = len(subsets)

    best_by_size = {k: {} for k in ks}
    picks = {k: ((), float("nan"), float("inf")) for k in ks}
    for subset, sses in zip(subsets, split_map(job, subsets, workers)):
        size = len(subset)
        for k, sse in zip(ks, sses):
            by_size = best_by_size[k]
            if size not in by_size or sse < by_size[size][1]:
                by_size[size] = (subset, sse)
            score = sse * (1.0 + penalty * size)
            if score < picks[k][2]:
                picks[k] = (subset, sse, score)
    for k in ks:
        # A penalty so large that every score overflows picks what a
        # growing penalty tends to: the best single column.
        if screened and picks[k][2] == float("inf"):
            picks[k] = (*best_by_size[k][1], None)
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
        ``SSE * (1 + penalty * |subset|)``, or is the best single column
        when every score overflows.
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
    subset's k-means runs are one ``_best_restarts`` call over K =
    2..k_max, seeded once from a stream derived from the seed and the
    subset alone, never from K. By the driver's prefix property each
    report equals ``select_features(features, K)`` bit for bit. Lloyd
    iterations stop at convergence or at a fixed cap of
    ``SELECT_MAX_ITER`` (40) per run.

    A search of at least ``_PARALLEL_MIN_RUN_ROWS`` (subset, K) runs
    times rows splits its subsets over one process per usable CPU, the
    caller and one forked child per other CPU, when forking is safe (see
    :func:`waveclust.parallel.split_map`). The subsets are reduced in
    the same order either way, so the reports are identical for any
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
