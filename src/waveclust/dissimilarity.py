"""Curve-pair dissimilarities built on continuous wavelet spectra.

Three spectral measures are provided. Wavelet coherence is a local
(time-scale resolved) correlation field in [0, 1]. The WER distance
collapses smoothed cross- and auto-spectra into the single similarity
WER^2 in [0, 1] and maps it to the distance sqrt(J_s * N * (1 - WER^2)).
The MCA distance takes the leading singular directions of the
cross-spectral covariance Q = Wz Wx^H and compares the curves' leading
patterns, weighting each direction by its share of squared singular
value. Two plain Euclidean measures (on normalized spectrum magnitudes
and on raw curves) complete the set so spectral measures can be
benchmarked against naive ones.

All pair computations are pure. ``build_dissimilarity_matrix`` makes
one ``cwt_morlet`` call, into the (n, J_s, N) stack every spectral
measure reads, and computes the matrix one row at a time, writing each
row into the upper triangle and the lower. A build of at least
``_PARALLEL_MIN_PAIRS`` pairs (per measure) with ``threads`` above 1
splits its rows over forked processes
(:func:`waveclust.parallel.split_map`), which hand them back in row
order. Both spectral measures have a row formula, which the pair
functions call with a one-element row. WER and the coherence are
ratios, so they first divide each field by a power of two near its
largest magnitude, an exact step that keeps curves at any level in
range; MCA's values depend on level, so it is not rescaled
and names a pair whose covariance or distance leaves the float range.
For WER, the auto-spectra and each row's cross-spectra are smoothed in
chunks of at most ``_WER_CHUNK`` fields, through two buffers a build
allocates once and every chunk reuses. The smoother
(``cwt.smooth_spectrum``) works in time by FFT and across scales by one
real boxcar matrix, whose window wraps circularly around the ends of
the scale grid and weights every scale outside it by exactly zero. For
MCA, the fields are conjugated once per build. A row's covariances Q
come from one batched product, and their left singular vectors u and
squared singular values lam^2 from one batched ``eigh`` of Q Q^H,
checked against ||Q||_F^2 together. No full SVD is taken: per distinct
retained D, the row forms exactly D right vectors v_j = Q^H u_j / lam_j
and its patterns with one batched product pair. No measure holds more
than one row of cross fields or differences, and WER no more than two
chunks of them.
"""

from dataclasses import dataclass

import numpy as np

from .cwt import ScaleGrid, _smooth, cwt_morlet, smooth_spectrum
from .data import FunctionalDataset
from .errors import DegenerateInputError
from .parallel import split_map

#: Smoothed auto-spectra at or below this are treated as identically zero.
_AUTO_FLOOR = 1e-300

#: Largest rms of a time-centered |CWT|, as a share of its curve's rms,
#: that euclid-features takes for rounding (a constant curve's is <4e-16).
FLAT_MAGNITUDE_RTOL = 1e-12

#: Measure tags accepted by build_dissimilarity_matrix.
MEASURES = ("WER", "MCA", "euclid-features", "euclid-raw")

#: Fewest pairs a build of each measure must hold before its rows are
#: split over worker processes. Measured on a 2-CPU machine, one BLAS
#: thread, on the first build of a fresh process at two workers, on days
#: of 64 samples and 33 scales, against the same build in one process
#: (medians of 5; the split imports nothing, and each fork and pipe cost
#: about 2.5 ms): WER lost at 1225 and 1770 pairs (99 against 87 ms, 135
#: against 119), lost or won at 2415 in two sessions (179 against 162,
#: 142 against 159) and won at 3486 (160 against 274); MCA lost at 136
#: and 210 (50 against 33, 64 against 49) and won at 378 (74 against
#: 82); euclid-features lost at 19900 (133 against 111), was level or
#: won at 31125 (204 against 207, 129 against 186) and won at 44850
#: (154 against 260); euclid-raw, whose pairs are 64-sample differences,
#: never won up to 1460 curves (1 065 570 pairs). Larger fields cost
#: more per pair, so they break even at fewer pairs. WER was re-measured
#: after its rows got faster (chunked smoothing), with
#: ``parallel.last_split``, in two sessions, 5 runs per side, on days of
#: 64 samples (1225 to 7140 pairs) and of 256 samples on octaves 3-7
#: (435 to 4005 pairs): the split's median lost at most sizes and was
#: at most 4% ahead at the rest (3486, 4005 and 4950 pairs), and in
#: each of the 85 split runs its record's wall time was 1.01-1.30 times
#: the caller's and the child's CPU time added: the shares ran one
#: after the other. Neither session had the second CPU for a split
#: this short, so the gate stayed at 3000.
_PARALLEL_MIN_PAIRS = {"WER": 3000, "MCA": 300, "euclid-features": 40000,
                       "euclid-raw": float("inf")}

#: Most fields, or pairs, a WER computation smooths at once. Its two
#: chunk buffers are allocated once per build and reused by every chunk,
#: so no row maps and faults in pages of its own. Chosen by the CPU
#: time of builds alternated in one process (2-CPU machine, one BLAS
#: thread): on 49 days of 64 samples and 33 scales, 16 fields beat 8 in
#: 139 of 210 alternations and 32 in 69 of 100; on 120 days it beat 8
#: in 20 of 30 and 32 in 20 of 24; on 365 days it beat 32 in 3 of 4 and
#: split 10 runs with 8; on 120 days of 256 samples, 8 won one session
#: (4 of 5) and tied another (3 of 6). 8, 16 and 32 stayed within 10%
#: of each other everywhere, and 64 was slower than 32 at 49 days.
_WER_CHUNK = 16


@dataclass
class CoherenceField:
    """Coherence field R(a, tau) in [0, 1] on a scale grid: the ratio of
    the smoothed cross-spectrum's modulus to the geometric mean of the
    smoothed auto-spectra, R itself and not R^2."""

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
    for name in ("grid", "omega0", "normalization"):
        a, b = getattr(wz, name), getattr(wx, name)
        if a != b:
            raise ValueError(f"spectra must share one {name}, got {a!r} "
                             f"and {b!r}")
    if wz.matrix.ndim != 2 or wx.matrix.shape != wz.matrix.shape:
        raise ValueError("spectra must be single fields of one length")


def wavelet_coherence(wz, wx):
    """Wavelet coherence field of two spectra on the same grid.

        R = |S(Wz * conj(Wx))| / (S(|Wz|^2)^(1/2) * S(|Wx|^2)^(1/2)),

    with S the time/scale smoother. Without smoothing the ratio would be
    identically 1; with it, R measures local co-oscillation and lies in
    [0, 1] (clipped; entries where either smoothed auto-spectrum
    vanishes are set to 0). R is a ratio, so each field is scaled as WER
    scales it, and curves at any level work.
    """
    _check_same_layout(wz, wx)
    grid = wz.grid
    w, x = _scaled_to_unit(np.stack([wz.matrix, wx.matrix]))
    # The auto-spectra take the same product path as the cross term (not
    # abs()**2, which rounds differently) so that for x = z all three
    # smoothed fields are bitwise equal and the ratio is exactly 1.
    cross, auto_z, auto_x = np.abs(smooth_spectrum(np.stack([
        w * np.conj(x), w * np.conj(w), x * np.conj(x)]), grid))
    ok = (auto_z > _AUTO_FLOOR) & (auto_x > _AUTO_FLOOR)
    r = np.zeros(cross.shape)
    np.divide(cross, np.sqrt(auto_z * auto_x), out=r, where=ok)
    return CoherenceField(values=np.clip(r, 0.0, 1.0), grid=grid)


def _pair_prefix(row, k):
    """Error prefix naming pair k of matrix row ``row``, if one is given."""
    return "" if row is None else f"pair ({row}, {row + 1 + k}): "


def _scaled_to_unit(fields):
    """Divide each field of the stack ``fields`` in place by a power of
    two near its largest magnitude, so that no product of two fields
    overflows or underflows at any level. The division is exact and
    WER^2 is a ratio, so WER keeps its bits wherever no product over- or
    underflowed unscaled."""
    scale = _power_of_two_near(np.abs(fields).max(axis=(1, 2)))
    fields /= scale[:, None, None]
    return fields


def _wer_buffers(fields):
    """The two complex buffers a WER computation on the stack ``fields``
    smooths its chunks in, each with room for ``_WER_CHUNK`` fields, or
    for all of them when there are fewer."""
    shape = (min(len(fields), _WER_CHUNK),) + fields.shape[1:]
    return np.empty(shape, complex), np.empty(shape, complex)


def _smoothed_sums(lefts, rights, grid, buffers):
    """Per-scale time sums of |S(w conj(x))|, shape (len(rights),
    n_scales), for each pair (w, x) of the sequences ``lefts`` and
    ``rights``, given ``_wer_buffers``.

    The pairs go through the two buffers in chunks of as many as they
    hold: each chunk's products are copied into the first buffer, which
    ``cwt._smooth`` transforms in place and smooths into the second, and
    only then are the chunk's sums taken. Each field's sums depend on
    that field alone, so they have the bits of any other chunking, or of
    one ``smooth_spectrum`` call over every product at once.

    Each product is formed on its own pair with a fresh conjugate (not
    abs()**2 for an auto-spectrum, which rounds differently, nor one
    product over a whole stack or a held conjugate stack), so that for
    x = z the cross and auto sums agree bitwise, WER^2 is exactly 1 and
    the distance exactly 0. It keeps the expression ``w * np.conj(x)``
    and is then copied into its slot. At 256 KiB or more per field
    (J_s * N >= 16 384) NumPy elides the conjugate temporary and
    computes the product as ``np.multiply(conj_temp, w, out=conj_temp)``,
    operands swapped, and the swapped operands round otherwise than
    ``np.multiply(w, np.conj(x), out=slot)`` would.
    """
    work, smoothed = buffers
    sums = np.empty((len(rights), grid.n_scales))
    for start in range(0, len(rights), len(work)):
        stop = min(start + len(work), len(rights))
        chunk, out = work[:stop - start], smoothed[:stop - start]
        for slot, w, x in zip(chunk, lefts[start:stop], rights[start:stop]):
            slot[...] = w * np.conj(x)
        _smooth(chunk, grid, chunk, out)
        sums[start:stop] = np.abs(out).sum(axis=-1)
    return sums


def _wer_row(w, auto, others, auto_others, grid, buffers, row=None):
    """WER distances from field ``w`` to each field of the stack
    ``others``, given the auto-spectrum sums of all of them
    (``_smoothed_sums`` of the fields with themselves); the cross-spectra
    are smoothed in chunks through ``buffers``.

    When ``row`` is given, ``w`` is curve ``row`` and ``others`` are the
    curves after it, and an error names the first pair that fails, before
    any cross-spectrum is formed.
    """
    den = (auto * auto_others).sum(axis=-1)
    bad = np.flatnonzero(den <= 0)
    if bad.size:
        raise DegenerateInputError(_pair_prefix(row, bad[0]) + "zero "
                                   "auto-spectra: the WER distance is "
                                   "undefined")
    cross_sums = _smoothed_sums(np.broadcast_to(w, others.shape), others,
                                grid, buffers)
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

    The spectra must share grid, omega0 and normalization. Each field is
    divided by a power of two near its largest magnitude first, which
    leaves WER^2 exact, so curves at any level work.
    """
    _check_same_layout(wz, wx)
    fields = _scaled_to_unit(np.stack([wz.matrix, wx.matrix]))
    buffers = _wer_buffers(fields)
    auto = _smoothed_sums(fields, fields, wz.grid, buffers)
    return float(_wer_row(fields[0], auto[0], fields[1:], auto[1:],
                          wz.grid, buffers)[0])


@dataclass
class McaResult:
    """Decomposition of the cross-spectral covariance Q = Wz Wx^H, with
    patterns.

    ``lam`` holds the singular values of Q in nonincreasing order: the
    square roots of the eigenvalues of Q Q^H, clipped at 0. ``u`` holds
    all left singular vectors as columns, the eigenvectors of Q Q^H; ``v``
    only the ``retained`` right vectors, ``v_j = Q^H u_j / lam_j`` (a
    zero column where lam_j = 0). Each u_j is rotated so its
    largest-modulus entry is real positive, and v_j, being formed from
    it, carries the same phase, which preserves Q = U Gamma V^H.
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
    """Leading directions of the covariances ``Q_k = w others[k]^H``,
    given the conjugated fields ``conj_others`` (m, J_s, N) stacked.

    Returns ``(q, lam, u, retained)`` stacked over the pairs: the
    covariances (m, J_s, J_s), singular values (m, J_s) in nonincreasing
    order, left singular vectors as columns (m, J_s, J_s), not yet
    phase-fixed, and each pair's retained D (m,). All Q come from one
    batched product, and u and lam^2 from one batched ``eigh`` of
    Q Q^H, whose trace is ||Q||_F^2; no right vector is formed here.
    When ``row`` is given, ``w`` is curve ``row`` and the others are the
    curves after it, and an error names the first pair that fails.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    with np.errstate(over="ignore", invalid="ignore"):
        q = w @ conj_others.transpose(0, 2, 1)
        qqh = q @ np.conj(q).transpose(0, 2, 1)
    fro2 = np.trace(qqh, axis1=1, axis2=2).real
    # nan, inf, zero and subnormal sums all fail this test.
    bad = np.flatnonzero(~((fro2 >= np.finfo(float).tiny) & (fro2 < np.inf)))
    if bad.size:
        k = bad[0]
        if not (w.any() and conj_others[k].any()):
            why = "all-zero cross covariance: MCA is undefined"
        else:
            side = "underflows" if fro2[k] < 1 else "overflows"
            why = f"cross covariance {side}: MCA is undefined at this level"
        raise DegenerateInputError(_pair_prefix(row, k) + why)
    # eigh sorts ascending; rounding can leave null directions slightly
    # negative.
    eig, u = np.linalg.eigh(qqh)
    lam = np.sqrt(np.maximum(eig[:, ::-1], 0.0))
    u = u[:, :, ::-1]
    # Squared back, not the eigenvalues themselves: the rule and the
    # weights must see what McaResult.lam reports, to the bit.
    lam2 = lam ** 2
    total = lam2.sum(axis=1)
    bad = np.flatnonzero(np.abs(total - fro2) > 1e-8 * fro2)
    if bad.size:
        raise FloatingPointError(_pair_prefix(row, bad[0]) + "eigh failed "
                                 "the Frobenius identity sum(lam^2) = "
                                 "||Q||_F^2")
    # Inertia is nondecreasing, so counting the entries below theta is
    # the left searchsorted position.
    inertia = np.cumsum(lam2, axis=1) / total[:, None]
    retained = np.minimum((inertia < theta - 1e-12).sum(axis=1) + 1,
                          lam.shape[1])
    return q, lam, u, retained


def _phase_fixed(u):
    """Rotate each column so its largest-modulus entry is real positive,
    which removes the joint phase indeterminacy of each (u_j, v_j)."""
    anchor = np.argmax(np.abs(u), axis=-2)
    phase = np.take_along_axis(u, anchor[..., None, :], axis=-2)
    return u / (phase / np.abs(phase))


def _mca_directions(q, lam, u):
    """The leading directions of a stack of pairs, given their first D
    left vectors ``u`` (m, J_s, D): ``(uh, vh)`` (m, D, J_s) hold the
    phase-fixed u_j^H and ``v_j^H = u_j^H Q / lam_j`` as rows, with v_j
    zero where lam_j = 0."""
    uh = np.conj(_phase_fixed(u)).transpose(0, 2, 1)
    vh = uh @ q
    lam = lam[:, :u.shape[2], None]
    return uh, np.divide(vh, lam, out=np.zeros_like(vh), where=lam > 0)


def _mca_row(w, others, conj_others, theta, row=None):
    """MCA distances from field ``w`` to each field of the stack
    ``others``, given its conjugate; ``row`` as in ``_mca_decomposition``.

    The pairs are batched by their retained D: each distinct D forms
    exactly D right vectors and takes one pattern product pair and one
    reduction. A one-direction product is a matrix-vector BLAS product,
    which rounds otherwise than the same row of a taller matrix product,
    so padding every pair to the row's largest D would change the
    distances.
    """
    q, lam, u, retained = _mca_decomposition(w, conj_others, theta, row=row)
    out = np.empty(len(others))
    with np.errstate(over="ignore", invalid="ignore"):
        for d in np.unique(retained):
            k = np.flatnonzero(retained == d)
            uh, vh = _mca_directions(q[k], lam[k], u[k, :, :d])
            deltas = np.diff(uh @ w - vh @ others[k], axis=-1)
            d2 = np.sum(np.abs(deltas) ** 2, axis=-1)
            lam2 = lam[k, :d] ** 2
            out[k] = np.sum(lam2 * d2, axis=-1) / np.sum(lam2, axis=-1)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise DegenerateInputError(_pair_prefix(row, bad[0]) + "the MCA "
                                   "distance overflows: MCA is undefined at "
                                   "this level")
    return out


def mca_analysis(wz, wx, theta=0.95):
    """Maximum-covariance decomposition of two spectra.

    Raises
    ------
    DegenerateInputError
        If Q is identically zero (an all-zero spectrum), or if ||Q||_F^2
        overflows or underflows: Q scales with both curves' levels.
    FloatingPointError
        If the eigenvalues of Q Q^H violate the Frobenius identity
        ``sum lam^2 = ||Q||_F^2`` beyond 1e-8 relative -- a numerical
        failure, checked on every call.
    """
    _check_same_layout(wz, wx)
    others = wx.matrix[None]
    q, lam, u, retained = _mca_decomposition(wz.matrix, np.conj(others),
                                             theta)
    d = int(retained[0])
    uh, vh = _mca_directions(q, lam, u[:, :, :d])
    return McaResult(lam=lam[0], u=_phase_fixed(u[0]),
                     v=np.conj(vh[0]).T, retained=d, theta=theta,
                     pattern_z=uh[0] @ wz.matrix,
                     pattern_x=vh[0] @ wx.matrix)


def mca_distance(wz, wx, theta=0.95):
    """Leading-pattern distance from the maximum-covariance analysis.

    Each retained direction contributes
    ``d_j = || diff(pattern_z[j] - pattern_x[j]) ||_2`` (first forward
    difference along time), and the distance is the inertia-weighted
    combination ``sum_j lam_j^2 d_j^2 / sum_j lam_j^2`` over j < D.

    So the distance is in squared units (no square root is taken, unlike
    WER), and its patterns scale with each curve's amplitude: it sees a
    curve's level as much as its shape. On a year of daily demand curves
    (``bench/inputs.demand_record``, 33 scales, PAM at K = 2) its ARI
    against weekday/weekend is 0.083 and -0.013 for seeds 1 and 2, where
    WER scores 1.0, and 0.859 when each curve is first divided by its
    rms. Rouyer et al. (2008) define a scale-invariant MCA dissimilarity
    from angles between the leading patterns and between the singular
    vectors; whether to adopt it is open.
    """
    _check_same_layout(wz, wx)
    others = wx.matrix[None]
    return float(_mca_row(wz.matrix, others, np.conj(others), theta)[0])


def _power_of_two_near(values):
    """The power of two 2**e with 2**(e-1) <= |v| < 2**e for each value,
    and 1 for a zero."""
    return np.ldexp(1.0, np.frexp(values)[1])


def _spectrum_feature_rows(fields, curves):
    """Per-curve magnitude signatures for the euclid-features measure.

    Each |CWT| row is mean-centered in time (dropping the vertical
    offset the Morlet barely sees anyway) and the whole field is scaled
    to squared norm J_s * N, so amplitude is factored out and only the
    shape of the time-scale energy distribution is compared.

    A zero or constant curve, whose centered magnitudes are rounding
    (``FLAT_MAGNITUDE_RTOL``), is a ``DegenerateInputError`` naming it.
    Each field and each curve is divided by a power of two near its
    largest magnitude before it is squared, so no square overflows or
    underflows at any scale. That division is exact, so where no square
    over- or underflowed unscaled, the signatures keep their bits.
    """
    mag = np.abs(fields)
    field_scale = _power_of_two_near(mag.max(axis=(1, 2)))
    mag /= field_scale[:, None, None]
    mag -= mag.mean(axis=2, keepdims=True)
    rms = np.sqrt(np.mean(mag ** 2, axis=(1, 2)))
    curve_scale = _power_of_two_near(np.abs(curves).max(axis=1))
    curve_rms = np.sqrt(np.mean((curves / curve_scale[:, None]) ** 2,
                                axis=1))
    flat = np.flatnonzero(rms <= FLAT_MAGNITUDE_RTOL * curve_rms
                          * (curve_scale / field_scale))
    if flat.size:
        raise DegenerateInputError(f"curve {flat[0]}: flat spectrum "
                                   "magnitude: features are undefined")
    mag /= rms[:, None, None]
    return mag.reshape(len(fields), -1)


def build_dissimilarity_matrix(dataset, measure="WER", grid=None,
                               omega0=6.0, normalization="L1", theta=0.95,
                               threads=1):
    """All-pairs dissimilarity matrix for a dataset of curves.

    Parameters
    ----------
    dataset : FunctionalDataset, taken as is, or array_like curves,
        checked as one (a nan or inf sample is an error).
    measure : {"WER", "MCA", "euclid-features", "euclid-raw"}
        WER and the Euclidean measures take curves at any level. MCA's
        covariances scale with the product of two curves' levels; a pair
        whose covariance or distance leaves the float range is a
        ``DegenerateInputError`` naming it.
    grid, omega0, normalization : CWT settings for spectral measures.
    theta : inertia threshold for MCA.
    threads : the most processes the matrix rows (curve i against every
        curve after it) are split over, at least 1. The split uses at
        most one process per usable CPU, and a build of fewer than its
        measure's ``_PARALLEL_MIN_PAIRS`` runs in the calling process. The
        result is identical for any count (rows are independent and each
        lands in its own slots).
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; pick from {MEASURES}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    curves = (dataset if isinstance(dataset, FunctionalDataset)
              else FunctionalDataset(dataset)).curves
    n = curves.shape[0]
    if n < 2:
        raise ValueError("need at least two curves")
    grid = grid if grid is not None else ScaleGrid()
    if measure != "euclid-raw":
        fields = cwt_morlet(curves, grid=grid, omega0=omega0,
                            normalization=normalization).matrix

    if measure in ("euclid-raw", "euclid-features"):
        rows = curves if measure == "euclid-raw" else \
            _spectrum_feature_rows(fields, curves)

        def row(i):
            return np.linalg.norm(rows[i + 1:] - rows[i], axis=1)
    elif measure == "WER":
        fields = _scaled_to_unit(fields)
        buffers = _wer_buffers(fields)
        auto = _smoothed_sums(fields, fields, grid, buffers)

        def row(i):
            return _wer_row(fields[i], auto[i], fields[i + 1:],
                            auto[i + 1:], grid, buffers, row=i)
    else:
        conj_fields = np.conj(fields)

        def row(i):
            return _mca_row(fields[i], fields[i + 1:], conj_fields[i + 1:],
                            theta, row=i)

    split = n * (n - 1) // 2 >= _PARALLEL_MIN_PAIRS[measure]
    workers = threads if split else 1
    values = np.zeros((n, n))
    for i, d in enumerate(split_map(row, range(n - 1), workers)):
        values[i, i + 1:] = d
        values[i + 1:, i] = d
    return DissimilarityMatrix(values=values, measure=measure)
