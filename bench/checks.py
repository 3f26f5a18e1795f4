"""Reference checks, written apart from the program.

Each check recomputes a result, or tests a property the result must have,
without calling the waveclust function that produced it, and raises
``CheckError`` with a one-line reason when the result is wrong. The
benchmark runs them outside its timed spans; ``selfcheck.py`` plants wrong
results to show that each one fires.
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist


class CheckError(AssertionError):
    """A program output disagrees with its reference."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

def brute_force_misclassified(pred, truth):
    """Fewest disagreements over every one-to-one relabelling of ``pred``."""
    pred, truth = np.asarray(pred), np.asarray(truth)
    p_labels, t_labels = np.unique(pred), np.unique(truth)
    size = max(p_labels.size, t_labels.size)
    targets = list(t_labels) + [None] * (size - t_labels.size)
    best = 0
    for perm in itertools.permutations(targets, size):
        agree = sum(int(np.sum((pred == p) & (truth == t)))
                    for p, t in zip(p_labels, perm) if t is not None)
        best = max(best, agree)
    return pred.size - best


def pair_count_ari(a, b):
    """Adjusted Rand index from the four pair counts (Hubert & Arabie)."""
    a, b = np.asarray(a), np.asarray(b)
    i, j = np.triu_indices(a.size, k=1)
    same_a, same_b = a[i] == a[j], b[i] == b[j]
    n11 = float(np.sum(same_a & same_b))
    n10 = float(np.sum(same_a & ~same_b))
    n01 = float(np.sum(~same_a & same_b))
    n00 = float(np.sum(~same_a & ~same_b))
    denom = (n00 + n01) * (n01 + n11) + (n00 + n10) * (n10 + n11)
    if denom == 0:
        return 1.0
    return 2.0 * (n00 * n11 - n01 * n10) / denom


def check_scores(pred, truth, misclassified, ari):
    ref_mis = brute_force_misclassified(pred, truth)
    require(misclassified == ref_mis,
            f"misclassified {misclassified}, brute force gives {ref_mis}")
    ref_ari = pair_count_ari(pred, truth)
    require(abs(ari - ref_ari) <= 1e-12,
            f"ARI {ari!r}, pair counting gives {ref_ari!r}")


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def check_lloyd_fixed_point(rows, labels, centers, cost, k):
    """The partition is a fixed point of Lloyd's iteration.

    No cluster is empty, every row is nearest its own center (ties
    allowed), every center is its members' mean, and the cost is the
    recomputed within-cluster sum of squares.
    """
    rows = np.asarray(rows, dtype=float)
    labels = np.asarray(labels)
    centers = np.asarray(centers, dtype=float)
    require(centers.shape == (k, rows.shape[1]),
            f"centers have shape {centers.shape}, expected "
            f"{(k, rows.shape[1])}")
    counts = np.bincount(labels, minlength=k)
    require(counts.size == k and np.all(counts > 0),
            f"cluster sizes {counts.tolist()} include an empty cluster")
    scale = max(float(np.max(np.abs(rows))), 1.0)
    for j in range(k):
        mean = rows[labels == j].sum(axis=0) / counts[j]
        err = float(np.max(np.abs(mean - centers[j])))
        require(err <= 1e-9 * scale,
                f"center {j} is {err:.3g} away from its members' mean")
    d2 = ((rows[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    own = d2[np.arange(rows.shape[0]), labels]
    worst = float(np.max(own - d2.min(axis=1)))
    require(worst <= 1e-9 * max(float(own.max()), 1.0),
            f"a row is {worst:.3g} closer to another center than its own")
    sse = float(own.sum())
    require(abs(sse - cost) <= 1e-9 * max(sse, 1.0),
            f"cost {cost!r}, recomputed SSE {sse!r}")


# ---------------------------------------------------------------------------
# Feature selection
# ---------------------------------------------------------------------------

def brute_force_clusterability(column):
    """1 - best two-group SSE / TSS on the range-scaled column, by trying
    every split point of the sorted values with direct sums."""
    col = np.asarray(column, dtype=float)
    span = col.max() - col.min()
    if span == 0:
        return 0.0
    x = np.sort((col - col.min()) / span)
    tss = float(np.sum((x - x.mean()) ** 2))
    if tss == 0:
        return 0.0
    best = min(float(np.sum((x[:s] - x[:s].mean()) ** 2)
                     + np.sum((x[s:] - x[s:].mean()) ** 2))
               for s in range(1, x.size))
    return max(0.0, 1.0 - best / tss)


def check_selection(values, final, reports):
    """Mode over K, per-K penalized pick, and the screening indices.

    ``reports`` maps K to a dict with the keys of a selection report
    (``index``, ``threshold``, ``screened_in``, ``best_by_size`` as
    ``{size: (subset, sse)}``, ``selected``, ``selected_sse``, ``penalty``).
    """
    values = np.asarray(values, dtype=float)
    ref_index = np.array([brute_force_clusterability(values[:, j])
                          for j in range(values.shape[1])])
    tallies = {}
    for k, rep in sorted(reports.items()):
        index = np.asarray(rep["index"], dtype=float)
        err = float(np.max(np.abs(index - ref_index)))
        require(err <= 1e-9,
                f"K={k}: clusterability index off by {err:.3g} "
                "from the split-point scan")
        screened = tuple(int(j) for j in np.flatnonzero(
            index >= rep["threshold"]))
        require(tuple(rep["screened_in"]) == screened,
                f"K={k}: screened {rep['screened_in']}, threshold gives "
                f"{screened}")
        selected = tuple(rep["selected"])
        if rep["best_by_size"]:
            scores = {size: sse * (1.0 + rep["penalty"] * size)
                      for size, (subset, sse) in rep["best_by_size"].items()}
            size = min(scores, key=lambda s: (scores[s], s))
            subset, sse = rep["best_by_size"][size]
            require(selected == tuple(subset)
                    and rep["selected_sse"] == sse,
                    f"K={k}: selected {selected}, the penalized minimum over "
                    f"best_by_size is {tuple(subset)}")
        else:
            require(selected == (), f"K={k}: selected {selected} with "
                    "nothing screened in")
        tallies[selected] = tallies.get(selected, 0) + 1
    mode = min(tallies, key=lambda s: (-tallies[s], s))
    require(tuple(final) == mode,
            f"final subset {tuple(final)}, the mode over K is {mode}")


def report_as_dict(report):
    """A SelectionReport's fields in the form ``check_selection`` reads."""
    return {
        "index": report.index, "threshold": report.threshold,
        "screened_in": report.screened_in,
        "best_by_size": dict(report.best_by_size),
        "selected": report.selected, "selected_sse": report.selected_sse,
        "penalty": report.penalty,
    }


def payload_as_dict(payload):
    """A per-K entry of the CLI's selection JSON, read the same way."""
    return {
        "index": payload["index"], "threshold": payload["threshold"],
        "screened_in": payload["screened_in"],
        "best_by_size": {int(size): (tuple(entry["subset"]), entry["sse"])
                         for size, entry in payload["best_by_size"].items()},
        "selected": payload["selected"],
        "selected_sse": payload["selected_sse"],
        "penalty": payload["penalty"],
    }


# ---------------------------------------------------------------------------
# Continuous wavelet spectra, by direct sums
# ---------------------------------------------------------------------------

def _signed(offsets, n):
    """Signed representative in [-n/2, n/2) of each offset modulo n."""
    offsets = np.mod(offsets, n)
    return np.where(offsets >= n - n // 2, offsets - n, offsets)


class DirectSpectra:
    """Morlet CWT and time/scale smoother as explicit circular sums.

    ``scales`` are ``2 ** (o_min + m / voices)``. The transform is
    ``W[a, k] = a**-1 * sum_i z[i] * conj(psi(signed(i - k) / a))`` with
    ``psi(u) = pi**-0.25 * exp(6iu) * exp(-u**2 / 2)``. The smoother
    convolves row ``a`` circularly in time with a unit-sum Gaussian of
    standard deviation ``a`` samples, then each column circularly across
    scales with a unit-sum boxcar of the odd width nearest ``0.6 *
    voices``.
    """

    def __init__(self, n, o_min, o_max, voices, omega0=6.0):
        self.n = n
        self.scales = 2.0 ** (o_min + np.arange((o_max - o_min) * voices + 1)
                              / voices)
        i = np.arange(n)
        offset = _signed(i[None, :] - i[:, None], n)  # [k, i] -> i - k
        u = offset[None, :, :] / self.scales[:, None, None]
        psi = np.pi ** -0.25 * np.exp(1j * omega0 * u) * np.exp(-0.5 * u * u)
        self.analysis = np.conj(psi) / self.scales[:, None, None]
        lag = _signed(i[:, None] - i[None, :], n)  # [k, m] -> k - m
        gauss = np.exp(-0.5 * (lag[None, :, :]
                               / self.scales[:, None, None]) ** 2)
        self.time_smoother = gauss / gauss.sum(axis=2, keepdims=True)
        j_s = self.scales.size
        width = int(2 * np.floor(0.6 * voices / 2) + 1)
        width = min(width, j_s if j_s % 2 else j_s - 1)
        r = np.arange(j_s)
        scale_lag = np.abs(_signed(r[:, None] - r[None, :], j_s))
        self.scale_smoother = (scale_lag <= width // 2) / width

    def cwt(self, curves):
        """(n_curves, n_scales, n) coefficients."""
        curves = np.atleast_2d(np.asarray(curves, dtype=float))
        return np.einsum("aki,ci->cak", self.analysis, curves)

    def smooth(self, field):
        timed = np.einsum("akm,am->ak", self.time_smoother, field)
        return self.scale_smoother @ timed

    def wer(self, wz, wx):
        cross = np.abs(self.smooth(wz * np.conj(wx))).sum(axis=1)
        auto_z = np.abs(self.smooth(wz * np.conj(wz))).sum(axis=1)
        auto_x = np.abs(self.smooth(wx * np.conj(wx))).sum(axis=1)
        wer2 = float((cross ** 2).sum() / (auto_z * auto_x).sum())
        return np.sqrt(wz.size * max(0.0, 1.0 - wer2))

    @staticmethod
    def mca(wz, wx, theta=0.95):
        u, lam, vh = np.linalg.svd(wz @ np.conj(wx.T))
        share = np.cumsum(lam ** 2) / np.sum(lam ** 2)
        keep = int(np.argmax(share >= theta - 1e-12)) + 1
        pz = np.conj(u[:, :keep].T) @ wz
        px = vh[:keep] @ wx
        d2 = np.sum(np.abs(np.diff(pz - px, axis=1)) ** 2, axis=1)
        lam2 = lam[:keep] ** 2
        return float(np.sum(lam2 * d2) / np.sum(lam2))

    @staticmethod
    def signatures(spectra):
        mag = np.abs(spectra)
        mag = mag - mag.mean(axis=2, keepdims=True)
        rms = np.sqrt(np.mean(mag ** 2, axis=(1, 2)))
        return (mag / rms[:, None, None]).reshape(mag.shape[0], -1)


def check_dissimilarity(values, name, upper=None):
    """Symmetric, non-negative, zero diagonal, and at most ``upper``."""
    values = np.asarray(values, dtype=float)
    require(values.ndim == 2 and values.shape[0] == values.shape[1],
            f"{name}: matrix of shape {values.shape} is not square")
    require(np.array_equal(values, values.T), f"{name}: not symmetric")
    require(np.all(np.diag(values) == 0), f"{name}: nonzero diagonal")
    require(np.all(np.isfinite(values)) and np.all(values >= 0),
            f"{name}: negative or non-finite entry")
    if upper is not None:
        require(float(values.max()) <= upper * (1 + 1e-12),
                f"{name}: entry {float(values.max())!r} above {upper!r}")


def sample_pairs(n):
    """A fixed set of curve pairs, spread over the matrix."""
    picks = {(0, 1), (0, n - 1), (1, n - 2), (n // 3, 2 * n // 3),
             (n // 2 - 1, n // 2), (n - 2, n - 1), (2, n // 2 + 3),
             (n // 4, n - 4)}
    return sorted((min(i, j), max(i, j)) for i, j in picks if i != j)


def check_wer_pairs(values, direct, spectra):
    for i, j in sample_pairs(values.shape[0]):
        ref = direct.wer(spectra[i], spectra[j])
        scale = spectra[i].size
        require(abs(values[i, j] ** 2 - ref ** 2) <= 1e-9 * scale,
                f"WER[{i}, {j}] = {float(values[i, j])!r}, direct sums give "
                f"{float(ref)!r}")


def check_mca_pairs(values, direct, spectra, theta=0.95):
    for i, j in sample_pairs(values.shape[0]):
        ref = direct.mca(spectra[i], spectra[j], theta)
        require(abs(values[i, j] - ref) <= 1e-7 * max(abs(ref), 1e-12),
                f"MCA[{i}, {j}] = {float(values[i, j])!r}, its own SVD of Q "
                f"gives {ref!r}")


def check_euclid_features(values, direct, spectra):
    signatures = direct.signatures(spectra)
    ref = cdist(signatures, signatures)
    np.fill_diagonal(ref, 0.0)
    err = float(np.max(np.abs(values - ref)))
    require(err <= 1e-9 * max(float(ref.max()), 1.0),
            f"euclid-features off by {err:.3g} from cdist on signatures")


def check_euclid_raw(values, curves):
    ref = cdist(curves, curves)
    np.fill_diagonal(ref, 0.0)
    err = float(np.max(np.abs(values - ref)))
    require(err <= 1e-9 * max(float(ref.max()), 1.0),
            f"euclid-raw off by {err:.3g} from cdist on the curves")


# ---------------------------------------------------------------------------
# PAM
# ---------------------------------------------------------------------------

def check_pam(d, medoids, labels, cost):
    """Labels go to the nearest medoid, the cost adds up, and no single
    swap of a medoid for a non-medoid lowers the cost."""
    d = np.asarray(d, dtype=float)
    medoids = [int(m) for m in medoids]
    n, k = d.shape[0], len(medoids)
    require(len(set(medoids)) == k, f"repeated medoid in {medoids}")
    to_medoids = d[:, medoids]
    nearest = to_medoids.min(axis=1)
    total = float(nearest.sum())
    gap = float(np.max(to_medoids[np.arange(n), labels] - nearest))
    require(gap <= 1e-9 * max(float(d.max()), 1e-300),
            "a point is not assigned to its nearest medoid")
    require(abs(total - cost) <= 1e-9 * max(total, 1e-300),
            f"cost {cost!r}, recomputed {total!r}")
    others = np.setdiff1d(np.arange(n), medoids)
    for pos in range(k):
        rest = np.delete(to_medoids, pos, axis=1).min(axis=1) if k > 1 \
            else np.full(n, np.inf)
        swapped = np.minimum(rest[:, None], d[:, others]).sum(axis=0)
        h = int(np.argmin(swapped))
        require(swapped[h] >= total - 1e-9 * max(total, 1e-300),
                f"swapping medoid {medoids[pos]} for {int(others[h])} lowers "
                f"the cost from {total!r} to {float(swapped[h])!r}")


# ---------------------------------------------------------------------------
# CLI artifacts
# ---------------------------------------------------------------------------

def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_manifest(path, inputs, outputs):
    """Every digest in a run manifest is the SHA-256 of its file.

    ``inputs`` and ``outputs`` map each role the manifest must list to the
    file the command was given for it.
    """
    manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    for side, expected in (("inputs", inputs), ("outputs", outputs)):
        recorded = manifest[side]
        require(set(recorded) == set(expected),
                f"{path}: {side} {sorted(recorded)}, expected "
                f"{sorted(expected)}")
        for role, target in expected.items():
            require(recorded[role] == sha256_file(target),
                    f"{path}: digest of {role} does not match its bytes")


def load_csv_matrix(path):
    """A numeric CSV artifact, skipping '#' comments and a header row."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [ln for ln in handle if not ln.startswith("#")]
    try:
        [float(v) for v in lines[0].split(",")]
    except ValueError:
        lines = lines[1:]
    return np.loadtxt(lines, delimiter=",", ndmin=2)


def check_bitwise(name, loaded, expected):
    expected = np.asarray(expected, dtype=float)
    require(loaded.shape == expected.shape
            and np.array_equal(loaded.view(np.uint64),
                               expected.view(np.uint64)),
            f"{name}: parsed CSV differs from the in-memory result")
