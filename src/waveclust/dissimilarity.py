"""Curve-pair dissimilarities built on continuous wavelet spectra.

Three spectral measures are provided. Wavelet coherence is a local
(time-scale resolved) correlation field in [0, 1]. The WER distance
collapses smoothed cross- and auto-spectra into the single similarity
WER^2 in [0, 1] and maps it to the distance sqrt(J_s * N * (1 - WER^2)).
The MCA distance decomposes the cross-spectral covariance Q = Wz Wx^H by
SVD and compares the curves' leading patterns, weighting each direction
by its share of squared singular value. Two plain Euclidean measures
(on normalized spectrum magnitudes and on raw curves) complete the set
so spectral measures can be benchmarked against naive ones.

All pair computations are pure. ``build_dissimilarity_matrix`` fills
the upper triangle one row at a time (optionally on a thread pool over
rows) and mirrors it into a symmetric matrix with a zero diagonal. Both
spectral measures have a row formula, which the pair functions call
with a one-element row. For WER, all curves' auto-spectra are smoothed
in one call and a row's cross-spectra in one more. The smoother
(``cwt.smooth_spectrum``) works in time by FFT and across scales by one
real boxcar matrix, whose window wraps circularly around the ends of
the scale grid and weights every scale outside it by exactly zero. For
MCA, the fields are conjugated once per build; a row's covariances come
from one batched product and go through one stacked SVD, checked and
phase-fixed together, and its patterns come from one batched product
pair per distinct retained D. No measure holds more than one row of
cross fields or differences.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cwt import ScaleGrid, cwt_morlet, smooth_spectrum
from .errors import DegenerateInputError

#: Smoothed auto-spectra at or below this are treated as identically zero.
_AUTO_FLOOR = 1e-300

#: Measure tags accepted by build_dissimilarity_matrix.
MEASURES = ("WER", "MCA", "euclid-features", "euclid-raw")


@dataclass
class CoherenceField:
    """Squared-coherence-style field R(a, tau) in [0, 1] on a scale grid."""

    values: np.ndarray
    grid: ScaleGrid


@dataclass
class DissimilarityMatrix:
    """Symmetric nonnegative n x n dissimilarities with a zero diagonal."""

    values: np.ndarray
    measure: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n, m = self.values.shape
        if n != m:
            raise ValueError("dissimilarity matrix must be square")
        if not np.isfinite(self.values).all():
            raise ValueError("dissimilarities must be finite (found nan or "
                             "inf)")
        if np.any(np.abs(self.values - self.values.T) > 1e-9):
            raise ValueError("dissimilarity matrix must be symmetric")
        if np.any(np.diag(self.values) != 0):
            raise ValueError("dissimilarity matrix needs a zero diagonal")
        if np.any(self.values < 0):
            raise ValueError("dissimilarities must be nonnegative")

    @property
    def n(self):
        return self.values.shape[0]


def _check_same_layout(wz, wx):
    if wz.grid != wx.grid:
        raise ValueError("spectra must share one scale grid")
    if wz.n_samples != wx.n_samples:
        raise ValueError("spectra must share the sample count")


def wavelet_coherence(wz, wx):
    """Wavelet coherence field of two spectra on the same grid.

        R = |S(Wz * conj(Wx))| / (S(|Wz|^2)^(1/2) * S(|Wx|^2)^(1/2)),

    with S the time/scale smoother. Without smoothing the ratio would be
    identically 1; with it, R measures local co-oscillation and lies in
    [0, 1] (clipped; entries where either smoothed auto-spectrum
    vanishes are set to 0).
    """
    _check_same_layout(wz, wx)
    grid = wz.grid
    # The auto-spectra take the same product path as the cross term (not
    # abs()**2, which rounds differently) so that for x = z all three
    # smoothed fields are bitwise equal and the ratio is exactly 1.
    cross = np.abs(smooth_spectrum(wz.matrix * np.conj(wx.matrix), grid))
    auto_z = np.abs(smooth_spectrum(wz.matrix * np.conj(wz.matrix), grid))
    auto_x = np.abs(smooth_spectrum(wx.matrix * np.conj(wx.matrix), grid))
    ok = (auto_z > _AUTO_FLOOR) & (auto_x > _AUTO_FLOOR)
    r = np.zeros(cross.shape)
    np.divide(cross, np.sqrt(auto_z * auto_x), out=r, where=ok)
    return CoherenceField(values=np.clip(r, 0.0, 1.0), grid=grid)


def time_averaged_coherence(wz, wx):
    """Per-scale time average of the squared coherence field.

    A diagnostic profile over scales; not used by any distance here.
    """
    field = wavelet_coherence(wz, wx)
    return (field.values ** 2).mean(axis=1)


def _pair_prefix(row, k):
    """Error prefix naming pair k of matrix row ``row``, if one is given."""
    return "" if row is None else f"pair ({row}, {row + 1 + k}): "


def _auto_sums(fields, grid):
    """Per-scale time sums of the smoothed auto-spectra of a sequence of
    fields, shape (len(fields), n_scales), from one smoothing call.

    Each product is formed on its own field and takes the same path as
    the cross term in ``_wer_row`` (not abs()**2, which rounds
    differently) so that for x = z the smoothed fields agree bitwise,
    WER^2 is exactly 1 and the distance exactly 0.
    """
    return np.abs(smooth_spectrum(np.stack([w * np.conj(w) for w in fields]),
                                  grid)).sum(axis=-1)


def _wer_row(w, auto, others, auto_others, grid, row=None):
    """WER distances from field ``w`` to each field in the sequence
    ``others``, given the ``_auto_sums`` of all of them.

    When ``row`` is given, ``w`` is curve ``row`` and ``others`` are the
    curves after it, and an error names the first pair that fails.
    """
    den = (auto * auto_others).sum(axis=-1)
    bad = np.flatnonzero(den <= 0)
    if bad.size:
        raise DegenerateInputError(_pair_prefix(row, bad[0]) + "zero "
                                   "auto-spectra: the WER distance is "
                                   "undefined")
    # One product per pair, then one smoothing call for the row: the
    # product broadcast over a stack of fields can round differently.
    cross = np.abs(smooth_spectrum(np.stack([w * np.conj(x) for x in others]),
                                   grid))
    cross_sums = cross.sum(axis=-1)
    wer2 = (cross_sums * cross_sums).sum(axis=-1) / den
    j_s, n = w.shape
    return np.sqrt(j_s * n * np.maximum(0.0, 1.0 - wer2))


def wer_distance(wz, wx):
    """WER distance between two spectra.

    With S the smoother and sums running over the discrete scale and
    time grids,

        WER^2 = sum_a (sum_tau |S(Wz conj(Wx))|)^2
                / sum_a (sum_tau S(|Wz|^2) * sum_tau S(|Wx|^2)),

    which lies in [0, 1] (Cauchy-Schwarz, attained at x = z), and

        d(z, x) = sqrt(J_s * N * (1 - WER^2))  in  [0, sqrt(J_s * N)].
    """
    _check_same_layout(wz, wx)
    auto = _auto_sums([wz.matrix, wx.matrix], wz.grid)
    return float(_wer_row(wz.matrix, auto[0], [wx.matrix], auto[1:],
                          wz.grid)[0])


@dataclass
class McaResult:
    """SVD of the cross-spectral covariance Q = Wz Wx^H, with patterns.

    ``lam`` holds the singular values in nonincreasing order; ``u`` and
    ``v`` their singular vectors as columns (phase-fixed: each u_j is
    rotated so its largest-modulus entry is real positive, v_j by the
    same compensating phase, which preserves Q = U Gamma V^H).
    ``retained`` is the smallest D whose squared singular values reach
    the inertia fraction ``theta``; ``pattern_z[j] = u_j^H Wz`` and
    ``pattern_x[j] = v_j^H Wx`` are the leading patterns for j < D.
    """

    lam: np.ndarray
    u: np.ndarray
    v: np.ndarray
    retained: int
    theta: float
    pattern_z: np.ndarray
    pattern_x: np.ndarray


def _mca_decomposition(w, conj_others, theta, row=None):
    """Phase-fixed SVDs of the covariances ``Q_k = w others[k]^H``, given
    the conjugated fields ``conj_others`` (m, J_s, N) stacked.

    Returns ``(lam, u, v, retained)`` stacked over the pairs: singular
    values (m, J_s), singular vectors as columns (m, J_s, J_s) and each
    pair's retained D (m,). All Q come from one batched product and go
    through one stacked SVD call. When ``row`` is given, ``w`` is curve
    ``row`` and the others are the curves after it, and an error names
    the first pair that fails.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    q = w @ conj_others.transpose(0, 2, 1)
    fro2 = np.sum(np.abs(q) ** 2, axis=(1, 2))
    bad = np.flatnonzero(fro2 <= 0)
    if bad.size:
        raise DegenerateInputError(_pair_prefix(row, bad[0]) + "all-zero "
                                   "cross covariance: MCA is undefined")
    u, lam, vh = np.linalg.svd(q)
    lam2 = lam ** 2
    total = lam2.sum(axis=1)
    bad = np.flatnonzero(np.abs(total - fro2) > 1e-8 * fro2)
    if bad.size:
        raise FloatingPointError(_pair_prefix(row, bad[0]) + "SVD failed "
                                 "the Frobenius identity sum(lam^2) = "
                                 "||Q||_F^2")
    # Remove the joint phase indeterminacy of each (u_j, v_j) pair.
    anchor = np.argmax(np.abs(u), axis=1)
    phase = np.take_along_axis(u, anchor[:, None, :], axis=1)
    phase = phase / np.abs(phase)
    u = u / phase
    v = np.conj(vh.transpose(0, 2, 1)) / phase
    # Inertia is nondecreasing, so counting the entries below theta is
    # the left searchsorted position.
    inertia = np.cumsum(lam2, axis=1) / total[:, None]
    retained = np.minimum((inertia < theta - 1e-12).sum(axis=1) + 1,
                          lam.shape[1])
    return lam, u, v, retained


def _mca_patterns(u, v, d, w, others):
    """The leading D patterns ``u_j^H W`` and ``v_j^H X_k`` of a stack
    of pairs, each of shape (m, D, N), from two batched products."""
    return (np.conj(u[:, :, :d]).transpose(0, 2, 1) @ w,
            np.conj(v[:, :, :d]).transpose(0, 2, 1) @ others)


def _mca_row(w, others, conj_others, theta, row=None):
    """MCA distances from field ``w`` to each field of the stack
    ``others``, given its conjugate; ``row`` as in ``_mca_decomposition``.

    The pairs are batched by their retained D: each distinct D takes one
    pattern product pair and one reduction. A one-direction pattern is a
    matrix-vector BLAS product, which rounds otherwise than the same row
    of a taller matrix product, so padding every pair to the row's
    largest D would change the distances.
    """
    lam, u, v, retained = _mca_decomposition(w, conj_others, theta, row=row)
    out = np.empty(len(others))
    for d in np.unique(retained):
        k = np.flatnonzero(retained == d)
        pattern_z, pattern_x = _mca_patterns(u[k], v[k], d, w, others[k])
        deltas = np.diff(pattern_z - pattern_x, axis=-1)
        d2 = np.sum(np.abs(deltas) ** 2, axis=-1)
        lam2 = lam[k, :d] ** 2
        out[k] = np.sum(lam2 * d2, axis=-1) / np.sum(lam2, axis=-1)
    return out


def mca_analysis(wz, wx, theta=0.95):
    """Maximum-covariance decomposition of two spectra.

    Raises
    ------
    DegenerateInputError
        If Q is identically zero (an all-zero spectrum).
    FloatingPointError
        If the SVD violates the Frobenius identity
        ``sum lam^2 = ||Q||_F^2`` beyond 1e-8 relative -- a numerical
        failure, checked on every call.
    """
    _check_same_layout(wz, wx)
    others = wx.matrix[None]
    lam, u, v, retained = _mca_decomposition(wz.matrix, np.conj(others),
                                             theta)
    d = int(retained[0])
    pattern_z, pattern_x = _mca_patterns(u, v, d, wz.matrix, others)
    return McaResult(lam=lam[0], u=u[0], v=v[0], retained=d, theta=theta,
                     pattern_z=pattern_z[0], pattern_x=pattern_x[0])


def mca_distance(wz, wx, theta=0.95):
    """Leading-pattern distance from the maximum-covariance analysis.

    Each retained direction contributes
    ``d_j = || diff(pattern_z[j] - pattern_x[j]) ||_2`` (first forward
    difference along time), and the distance is the inertia-weighted
    combination ``sum_j lam_j^2 d_j^2 / sum_j lam_j^2`` over j < D.
    """
    _check_same_layout(wz, wx)
    others = wx.matrix[None]
    return float(_mca_row(wz.matrix, others, np.conj(others), theta)[0])


def _spectrum_feature_rows(fields):
    """Per-curve magnitude signatures for the euclid-features measure.

    Each |CWT| row is mean-centered in time (dropping the vertical
    offset the Morlet barely sees anyway) and the whole field is scaled
    to squared norm J_s * N, so amplitude is factored out and only the
    shape of the time-scale energy distribution is compared.
    """
    rows = []
    for field in fields:
        mag = np.abs(field)
        mag = mag - mag.mean(axis=1, keepdims=True)
        rms = np.sqrt(np.mean(mag ** 2))
        if rms <= 0:
            raise DegenerateInputError(
                "flat spectrum magnitude: features are undefined"
            )
        rows.append((mag / rms).ravel())
    return np.vstack(rows)


def build_dissimilarity_matrix(dataset, measure="WER", grid=None,
                               omega0=6.0, normalization="L1", theta=0.95,
                               threads=1):
    """All-pairs dissimilarity matrix for a dataset of curves.

    Parameters
    ----------
    dataset : FunctionalDataset or array_like
    measure : {"WER", "MCA", "euclid-features", "euclid-raw"}
    grid, omega0, normalization : CWT settings for spectral measures.
    theta : inertia threshold for MCA.
    threads : size of the worker pool over matrix rows (curve i against
        every curve after it). The result is identical for any thread
        count (rows are independent and each lands in its own slots).
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; pick from {MEASURES}")
    curves = np.atleast_2d(getattr(dataset, "curves", dataset))
    n = curves.shape[0]
    if n < 2:
        raise ValueError("need at least two curves")
    grid = grid if grid is not None else ScaleGrid()
    fields = [] if measure == "euclid-raw" else [
        cwt_morlet(c, grid=grid, omega0=omega0,
                   normalization=normalization).matrix for c in curves]

    if measure in ("euclid-raw", "euclid-features"):
        rows = curves if measure == "euclid-raw" else \
            _spectrum_feature_rows(fields)

        def row(i):
            return np.linalg.norm(rows[i + 1:] - rows[i], axis=1)
    elif measure == "WER":
        auto = _auto_sums(fields, grid)

        def row(i):
            return _wer_row(fields[i], auto[i], fields[i + 1:],
                            auto[i + 1:], grid, row=i)
    else:
        fields = np.stack(fields)
        conj_fields = np.conj(fields)

        def row(i):
            return _mca_row(fields[i], fields[i + 1:], conj_fields[i + 1:],
                            theta, row=i)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            upper = list(pool.map(row, range(n - 1)))
    else:
        upper = [row(i) for i in range(n - 1)]
    values = np.zeros((n, n))
    for i, d in enumerate(upper):
        values[i, i + 1:] = d
        values[i + 1:, i] = d
    return DissimilarityMatrix(values=values, measure=measure)
