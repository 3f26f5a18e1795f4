import os
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.signal import lfilter

from waveclust import (
    DegenerateInputError,
    FunctionalDataset,
    build_dissimilarity_matrix,
    cwt_morlet,
    gen_far,
    make_scale_grid,
    mca_analysis,
    mca_distance,
    wavelet_coherence,
    wer_distance,
)
from waveclust import dissimilarity, parallel
from waveclust.dissimilarity import (MEASURES, _mca_decomposition,
                                     _mca_directions)
from test_imports import run_fresh

GRID = make_scale_grid(1, 5, 8)


def spectra(seed, n=2, length=256):
    rng = np.random.default_rng(seed)
    return [cwt_morlet(rng.normal(size=length), GRID) for _ in range(n)]


# --- wavelet coherence ---

def test_self_coherence_is_one():
    (wz,) = spectra(0, n=1)
    field = wavelet_coherence(wz, wz)
    assert_allclose(field.values, 1.0, atol=1e-9)


def test_coherence_is_phase_blind():
    # x = -z is perfectly coherent with z: coherence sees magnitude only
    z = np.random.default_rng(2).normal(size=256)
    wz = cwt_morlet(z, GRID)
    wx = cwt_morlet(-z, GRID)
    assert_allclose(wavelet_coherence(wz, wx).values, 1.0, atol=1e-9)


def test_coherence_bounded():
    wz, wx = spectra(3)
    values = wavelet_coherence(wz, wx).values
    assert (values >= 0.0).all() and (values <= 1.0 + 1e-9).all()


def test_independent_white_noise_coherence_baseline():
    """Field mean over independent pairs stays well below 1.

    Empirical mean over these exact seeds is ~0.54 (max single-pair mean
    ~0.59); the 0.65 ceiling leaves margin while still separating the
    independent case from self-coherence.
    """
    rng = np.random.default_rng(100)
    means = []
    for _ in range(20):
        wz = cwt_morlet(rng.normal(size=512), GRID)
        wx = cwt_morlet(rng.normal(size=512), GRID)
        means.append(wavelet_coherence(wz, wx).values.mean())
    assert max(means) < 0.65


def test_coherence_grid_mismatch_rejected():
    (wz,) = spectra(4, n=1)
    other = cwt_morlet(np.random.default_rng(4).normal(size=256),
                       make_scale_grid(1, 4, 8))
    with pytest.raises(ValueError):
        wavelet_coherence(wz, other)


@pytest.mark.parametrize("pair", [wer_distance, mca_distance, mca_analysis,
                                  wavelet_coherence])
@pytest.mark.parametrize("setting, value", [("omega0", 4.0),
                                            ("normalization", "L2")])
def test_pair_measures_reject_spectra_of_other_transforms(pair, setting,
                                                          value):
    """Spectra of two transforms are not compared, as spectra on two grids
    are not: without the check, WER between a curve's L1 and L2 spectra
    was a finite distance."""
    curve = np.random.default_rng(4).normal(size=64)
    with pytest.raises(ValueError, match=f"share one {setting}"):
        pair(cwt_morlet(curve, GRID), cwt_morlet(curve, GRID,
                                                 **{setting: value}))


# --- WER distance ---

def test_wer_reflexive_symmetric_bounded():
    wz, wx = spectra(6)
    bound = np.sqrt(GRID.n_scales * 256)
    assert wer_distance(wz, wz) <= 1e-6
    assert abs(wer_distance(wz, wx) - wer_distance(wx, wz)) <= 1e-12
    assert 0.0 <= wer_distance(wz, wx) <= bound


def test_wer_independent_white_noise_near_upper_bound():
    """Independent noise shares no ridge: distance lands near the cap.

    The minimum ratio over these seeds measured ~0.82 of sqrt(Js*N).
    """
    rng = np.random.default_rng(101)
    bound = np.sqrt(GRID.n_scales * 512)
    for _ in range(10):
        wz = cwt_morlet(rng.normal(size=512), GRID)
        wx = cwt_morlet(rng.normal(size=512), GRID)
        assert wer_distance(wz, wx) > 0.75 * bound


def test_wer_vertical_shift_robust():
    z = np.random.default_rng(7).normal(size=256).cumsum()
    wz = cwt_morlet(z, GRID)
    wzs = cwt_morlet(z + 5.0, GRID)
    bound = np.sqrt(GRID.n_scales * 256)
    assert wer_distance(wz, wzs) <= 1e-3 * bound


def test_wer_zero_curve_degenerate():
    wz = cwt_morlet(np.zeros(64), make_scale_grid(1, 4, 4))
    wx = cwt_morlet(np.random.default_rng(8).normal(size=64),
                    make_scale_grid(1, 4, 4))
    with pytest.raises(DegenerateInputError):
        wer_distance(wz, wx)


# --- MCA distance ---

def test_mca_reflexive():
    (wz,) = spectra(9, n=1)
    assert mca_distance(wz, wz) <= 1e-6


def test_mca_symmetric_over_pairs():
    for seed in range(10, 20):
        wz, wx = spectra(seed, length=128)
        assert abs(mca_distance(wz, wx) - mca_distance(wx, wz)) <= 1e-6


def test_mca_analysis_contracts():
    wz, wx = spectra(20, length=128)
    res = mca_analysis(wz, wx)
    assert (np.diff(res.lam) <= 1e-12).all()
    assert (res.lam >= 0.0).all()
    # orthonormal singular vector sets
    assert_allclose(res.u.conj().T @ res.u, np.eye(res.u.shape[1]), atol=1e-8)
    assert_allclose(res.v.conj().T @ res.v, np.eye(res.v.shape[1]), atol=1e-8)
    # retained count reaches the inertia threshold
    inertia = np.cumsum(res.lam ** 2) / (res.lam ** 2).sum()
    assert inertia[res.retained - 1] >= res.theta - 1e-9
    if res.retained > 1:
        assert inertia[res.retained - 2] < res.theta


def test_mca_deterministic_rerun():
    wz, wx = spectra(21, length=128)
    assert mca_distance(wz, wx) == mca_distance(wz, wx)


def test_mca_vertical_shift_robust():
    z = np.random.default_rng(22).normal(size=256).cumsum()
    wz = cwt_morlet(z, GRID)
    wzs = cwt_morlet(z + 5.0, GRID)
    base = mca_distance(wz, cwt_morlet(np.random.default_rng(23).normal(
        size=256), GRID))
    assert mca_distance(wz, wzs) <= 1e-3 * base


def test_mca_rejects_bad_theta_and_zero_spectra():
    wz, wx = spectra(24, length=64)
    with pytest.raises(ValueError):
        mca_distance(wz, wx, theta=0.0)
    zero = cwt_morlet(np.zeros(64), GRID)
    with pytest.raises(DegenerateInputError):
        mca_distance(zero, zero)


# --- matrix assembly ---

def far_dataset(seed, n=6, length=128):
    ds, _ = gen_far(n, length=length, seed=seed)
    return ds


def test_identical_pair_wer_matrix_is_zero():
    curve = np.random.default_rng(30).normal(size=64)
    ds = FunctionalDataset(np.vstack([curve, curve]))
    mat = build_dissimilarity_matrix(ds, measure="WER",
                                     grid=make_scale_grid(1, 4, 4))
    assert_allclose(mat.values, 0.0, atol=1e-6)


def test_identical_long_curves_are_exactly_zero_apart():
    """On 41 x 512 fields, whose products NumPy computes with the
    conjugate temporary elided, and on 33 x 75 ones, whose odd J_s * N
    puts the fields of a build's stack at every alignment, each cross
    product must round like the auto product. A product over a whole
    stack of fields, or conjugates sliced from a held conjugate stack,
    can take another rounding path, depending on the arrays' alignment,
    and then leaves a distance of ~1e-6 between a curve and its copy.
    Each copy sits more than one chunk of pairs after its curve, at a
    different place in the row's second chunk, and the auto-spectra of
    curve and copy are smoothed in different chunks."""
    chunk = dissimilarity._WER_CHUNK
    for length, grid in ((512, make_scale_grid()),
                         (75, make_scale_grid(1, 5, 8))):
        curves = np.random.default_rng(37).normal(size=(chunk + 8, length))
        mat = build_dissimilarity_matrix(
            np.vstack([curves, curves[7::-1]]), measure="WER", grid=grid)
        for i in range(8):
            copy = len(curves) + 7 - i
            assert copy - i > chunk
            assert mat.values[i, copy] == 0.0, (length, i)
        for curve in curves[:8]:
            spec = cwt_morlet(curve, grid)
            assert wer_distance(spec, spec) == 0.0


@pytest.mark.parametrize("measure", ["WER", "MCA", "euclid-features",
                                     "euclid-raw"])
def test_matrix_symmetry_zero_diagonal(measure):
    ds = far_dataset(31, n=5)
    mat = build_dissimilarity_matrix(ds, measure=measure,
                                     grid=make_scale_grid(1, 4, 4))
    assert mat.measure == measure
    assert_array_equal(mat.values, mat.values.T)
    assert_array_equal(np.diag(mat.values), np.zeros(5))
    assert (mat.values >= 0.0).all()


def test_matrix_determinism_and_thread_invariance(split_rows):
    """Every off-diagonal entry is the pair function's value, bitwise, for
    WER and MCA at any worker count, with the rows split whatever the
    build's size. The WER build has more curves than a chunk holds pairs
    plus one, so its first rows span two chunks, and its auto-spectra
    are smoothed in two chunks too."""
    for measure, pair, n in (
            ("WER", wer_distance, dissimilarity._WER_CHUNK + 4),
            ("MCA", mca_distance, 8)):
        ds = far_dataset(32, n=n)
        grid = make_scale_grid(1, 4, 4)
        spec = [cwt_morlet(c, grid) for c in ds.curves]
        expected = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                expected[i, j] = expected[j, i] = pair(spec[i], spec[j])
        for threads in (1, 2, 4):
            mat = build_dissimilarity_matrix(ds, measure=measure, grid=grid,
                                             threads=threads)
            assert_array_equal(mat.values, expected, err_msg=(
                f"{measure} at threads={threads}"))


@pytest.fixture
def split_rows(monkeypatch):
    """Every build of two or more workers splits its rows: no pair gate,
    and three usable CPUs."""
    monkeypatch.setattr(dissimilarity, "_PARALLEL_MIN_PAIRS",
                        dict.fromkeys(dissimilarity.MEASURES, 0))
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)


def test_rows_run_on_the_calling_thread_at_one_thread(monkeypatch, forks,
                                                      split_rows):
    """At one thread no other process or thread runs a row, whatever the
    build's size: a pool thread there cost a second malloc arena, about
    5 MB of peak memory on a small build, and a fork costs more."""
    ran_on = set()
    wer_row = dissimilarity._wer_row

    def recording_row(*args, **kwargs):
        ran_on.add((os.getpid(), threading.get_ident()))
        return wer_row(*args, **kwargs)

    monkeypatch.setattr(dissimilarity, "_wer_row", recording_row)
    build_dissimilarity_matrix(far_dataset(32, n=4), measure="WER",
                               grid=make_scale_grid(1, 4, 4), threads=1)
    assert ran_on == {(os.getpid(), threading.get_ident())}
    assert forks == []


@pytest.mark.parametrize("measure", MEASURES)
def test_split_builds_equal_the_serial_bytes(forks, split_rows, measure):
    ds = far_dataset(33, n=9)
    grid = make_scale_grid(1, 4, 4)
    serial = build_dissimilarity_matrix(ds, measure=measure, grid=grid)
    for threads in (1, 2, 3):
        split = build_dissimilarity_matrix(ds, measure=measure, grid=grid,
                                           threads=threads)
        assert split.values.tobytes() == serial.values.tobytes(), threads
    assert forks == ["fork", "fork"]


@pytest.mark.parametrize("threads", [2, 3])
def test_a_degenerate_pair_in_a_childs_row_is_named(forks, split_rows,
                                                    threads):
    """Curves 1 and 3 at 1e-100 give every pair but (1, 3) a covariance
    in range, so only row 1, a child's, fails; its error reaches the
    caller with its type, its message and the child's traceback."""
    curves = np.random.default_rng(35).normal(size=(5, 64))
    curves[[1, 3]] *= 1e-100
    grid = make_scale_grid(1, 4, 4)
    match = r"^pair \(1, 3\): cross covariance underflows"
    with pytest.raises(DegenerateInputError, match=match):
        build_dissimilarity_matrix(curves, measure="MCA", grid=grid)
    with pytest.raises(DegenerateInputError, match=match) as raised:
        build_dissimilarity_matrix(curves, measure="MCA", grid=grid,
                                   threads=threads)
    assert "_mca_decomposition" in str(raised.value.__cause__)
    assert forks == ["fork"]
    with pytest.raises(ChildProcessError):  # no child left, not even exited
        os.waitpid(-1, os.WNOHANG)


def test_a_build_below_its_gate_forks_nothing(monkeypatch, forks):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    ds = far_dataset(34, n=8)
    for measure in MEASURES:
        assert 8 * 7 // 2 < dissimilarity._PARALLEL_MIN_PAIRS[measure]
        build_dissimilarity_matrix(ds, measure=measure,
                                   grid=make_scale_grid(1, 4, 4), threads=3)
    assert forks == []


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_rejected(threads):
    with pytest.raises(ValueError, match="threads must be at least 1"):
        build_dissimilarity_matrix(far_dataset(32, n=3), measure="MCA",
                                   threads=threads)


def test_spectral_matrices_do_not_depend_on_any_thread_count():
    """WER and MCA bytes are equal at 1 and 2 row workers, with the rows
    split whatever the build's size, and at 1 and 2 BLAS threads. BLAS
    reads its thread count when it loads, so each BLAS setting runs in a
    fresh interpreter."""
    code = """
import hashlib
import numpy as np
import waveclust as wc
from waveclust import dissimilarity, parallel
dissimilarity._PARALLEL_MIN_PAIRS = dict.fromkeys(dissimilarity.MEASURES, 0)
parallel.usable_cpus = lambda: 2
rng = np.random.default_rng(40)
cases = [(rng.normal(size=(10, 256)).cumsum(axis=1), wc.make_scale_grid()),
         (rng.normal(size=(16, 64)), wc.make_scale_grid(1, 5, 8))]
digest = hashlib.sha256()
for curves, grid in cases:
    for measure in ("WER", "MCA"):
        one, two = (wc.build_dissimilarity_matrix(
            curves, measure=measure, grid=grid, threads=threads).values
            for threads in (1, 2))
        assert np.array_equal(one, two), measure
        digest.update(one.tobytes())
print(digest.hexdigest())
"""
    digests = {run_fresh(code, OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas,
                         MKL_NUM_THREADS=blas) for blas in ("1", "2")}
    assert len(digests) == 1


def build_peak_bytes(curves, measure, grid=None):
    """Allocation peak of one matrix build, from tracemalloc."""
    tracemalloc.start()
    try:
        build_dissimilarity_matrix(curves, measure=measure, grid=grid)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_euclid_builds_stay_linear_in_memory():
    """No n x n x L temporaries: 100 curves of 256 samples on the default
    41-scale grid (an n x n x L difference tensor would need ~825 MiB)."""
    curves = np.random.default_rng(36).normal(size=(100, 256))
    for measure in ("euclid-raw", "euclid-features"):
        peak = build_peak_bytes(curves, measure)
        assert peak < 100 * 2 ** 20, f"{measure} peaked at {peak} bytes"


def test_spectral_builds_stay_linear_in_memory():
    """WER and MCA hold a few n x J_s x N stacks (one is 16.8 MB here),
    never n^2 fields: WER one stack and two buffers of a chunk of cross
    fields each, MCA one row of cross fields. 100 curves of 256 samples
    on the default 41-scale grid peak near 24 and 50 MiB, where all cross
    fields at once would take 1.6 GB."""
    curves = np.random.default_rng(36).normal(size=(100, 256))
    for measure in ("WER", "MCA"):
        peak = build_peak_bytes(curves, measure)
        assert peak < 100 * 2 ** 20, f"{measure} peaked at {peak} bytes"


@pytest.mark.parametrize("n", [60, 240])
def test_wer_build_memory_does_not_grow_with_its_rows(n):
    """A WER build holds its field stack and two chunk buffers, whatever
    its row count: its allocation peak stays under 2.5 times the stack's
    bytes (about 1.8 times at 60 curves and 1.5 at 240, where the peak
    is the transform's). Smoothing each row as one fresh stack of cross
    fields peaked at about 4 times."""
    grid = make_scale_grid(1, 5, 8)
    curves = np.random.default_rng(38).normal(size=(n, 64))
    stack = n * grid.n_scales * 64 * np.dtype(complex).itemsize
    peak = build_peak_bytes(curves, "WER", grid)
    assert peak < 2.5 * stack, f"peaked at {peak / stack:.2f} stacks"


def day_curves(seed, n=14, length=64):
    """Demand-like days: weekdays with sharp morning and evening peaks,
    weekends with a broad hump, a random level and AR(1) noise."""
    rng = np.random.default_rng(seed)
    hours = (np.arange(length) + 0.5) * 24.0 / length

    def bump(center, width):
        return np.exp(-0.5 * ((hours - center) / width) ** 2)

    weekday = 0.55 + 0.45 * bump(8.0, 1.2) + 0.6 * bump(19.0, 1.2)
    weekend = 0.55 + 0.5 * bump(11.5, 3.5) + 0.45 * bump(19.5, 2.5)
    shapes = np.where((np.arange(n) % 7 >= 5)[:, None], weekend, weekday)
    noise = lfilter([1.0], [1.0, -0.8], rng.normal(0.0, 0.03, n * length))
    return (shapes * rng.normal(1.0, 0.05, (n, 1))
            * (1.0 + noise.reshape(n, length)))


@pytest.mark.parametrize("curves, retained", [
    (day_curves(0), {2, 3}),
    (np.random.default_rng(30).normal(size=(12, 64)).cumsum(axis=1),
     {1, 2, 3, 4}),
], ids=["days", "random-walks"])
def test_mca_row_matches_a_per_pair_formula(curves, retained):
    """Row 0 of the MCA matrix, whose pairs retain different D, against
    each pair's distance from mca_analysis's u, v and lam with that
    pair's own D, by a plain per-pair formula, bitwise. A one-direction
    pattern product rounds otherwise than a row of a taller one, so
    patterns padded to the row's largest D fail on the random walks."""
    grid = make_scale_grid(1, 5, 8)
    spec = [cwt_morlet(c, grid) for c in curves]
    mat = build_dissimilarity_matrix(curves, measure="MCA", grid=grid)
    seen = set()
    for j in range(1, len(spec)):
        res = mca_analysis(spec[0], spec[j])
        d = res.retained
        seen.add(d)
        pattern_z = np.conj(res.u[:, :d].T) @ spec[0].matrix
        pattern_x = np.conj(res.v[:, :d].T) @ spec[j].matrix
        lam2 = res.lam[:d] ** 2
        d2 = np.sum(np.abs(np.diff(pattern_z - pattern_x, axis=1)) ** 2,
                    axis=1)
        assert mat.values[0, j] == np.sum(lam2 * d2) / np.sum(lam2), (
            f"pair (0, {j}), D={d}")
    assert retained <= seen


def svd_mca(wz, wx, theta):
    """The MCA distance and retained D of two fields from a full complex
    SVD of Q = Wz Wx^H, independent of the library's route to them."""
    u, lam, vh = np.linalg.svd(wz @ np.conj(wx.T))
    lam2 = lam ** 2
    inertia = np.cumsum(lam2) / lam2.sum()
    d = min(int(np.sum(inertia < theta - 1e-12)) + 1, lam.size)
    deltas = np.diff(np.conj(u[:, :d].T) @ wz - vh[:d] @ wx, axis=1)
    d2 = np.sum(np.abs(deltas) ** 2, axis=1)
    return np.sum(lam2[:d] * d2) / np.sum(lam2[:d]), d


def walks(seed, n, length):
    return np.random.default_rng(seed).normal(size=(n, length)).cumsum(axis=1)


@pytest.mark.parametrize("curves, grid, theta", [
    (day_curves(1, n=8), GRID, 0.95),
    (day_curves(2, n=8, length=256), GRID, 0.95),
    (walks(3, 8, 64), GRID, 0.95),
    (walks(4, 8, 256), GRID, 0.95),
    # Q has rank at most N < J_s = 41: most eigenvalues of Q Q^H are
    # rounding noise, some of it negative.
    (walks(5, 6, 16), make_scale_grid(), 1.0),
    (walks(6, 6, 8), make_scale_grid(), 1.0),
], ids=["days-64", "days-256", "walks-64", "walks-256", "rank-16",
        "rank-8"])
def test_mca_matches_a_full_svd_reference(curves, grid, theta):
    """Every MCA distance, taken from eigh(Q Q^H), against a full SVD of
    Q: the same retained D and at most 1e-9 relative difference."""
    spec = [cwt_morlet(c, grid) for c in curves]
    values = build_dissimilarity_matrix(curves, measure="MCA", grid=grid,
                                        theta=theta).values
    for i in range(len(spec)):
        for j in range(i + 1, len(spec)):
            ref, d = svd_mca(spec[i].matrix, spec[j].matrix, theta)
            res = mca_analysis(spec[i], spec[j], theta=theta)
            assert res.retained == d, f"pair ({i}, {j})"
            assert np.isfinite(res.v).all()
            assert abs(values[i, j] - ref) <= 1e-9 * ref, f"pair ({i}, {j})"


def test_mca_zero_singular_value_gives_a_zero_right_vector():
    """A direction with lam = 0 has v = Q^H u / lam = 0/0; when it is
    among the D formed, it is a zero vector, not nan. Q with one nonzero
    row has one nonzero eigenvalue and exact zeros."""
    w = np.zeros((4, 16), dtype=complex)
    w[0] = np.exp(0.3j * np.arange(16))
    x = np.random.default_rng(41).normal(size=(1, 4, 16)) + 0j
    q, lam, u, _ = _mca_decomposition(w, np.conj(x), 0.95)
    assert_array_equal(lam[0, 1:], 0.0)
    _, vh = _mca_directions(q, lam, u[:, :, :2])
    assert np.isfinite(vh).all()
    assert_array_equal(vh[0, 1], 0.0)


def test_euclid_raw_matches_plain_distances():
    ds = far_dataset(33, n=4)
    mat = build_dissimilarity_matrix(ds, measure="euclid-raw")
    i, j = 1, 3
    assert_allclose(mat.values[i, j],
                    np.linalg.norm(ds.curves[i] - ds.curves[j]), rtol=1e-12)


@pytest.mark.parametrize("measure", ["WER", "MCA", "euclid-features"])
def test_degenerate_pair_error_names_the_pair(measure):
    """WER and MCA name the first pair with a zero curve; euclid-features
    names the zero or constant curve itself."""
    rng = np.random.default_rng(34)
    flat = [np.zeros(64)]
    if measure == "euclid-features":
        # A constant curve's centered |CWT| is rounding (rms ~1e-23 here),
        # not a shape to scale up to unit norm, at any level.
        flat += [np.full(64, level) for level in (5.0, 5e200, 5e-200)]
    match = r"curve 2:" if measure == "euclid-features" else r"pair \(0, 2\)"
    for curve in flat:
        curves = np.vstack([rng.normal(size=64), rng.normal(size=64), curve])
        ds = FunctionalDataset(curves)
        with pytest.raises(DegenerateInputError, match=match):
            build_dissimilarity_matrix(ds, measure=measure,
                                       grid=make_scale_grid(1, 4, 4))


@pytest.mark.parametrize("scale, rtol", [
    (1e155, 1e-12), (1e-170, 1e-12), (1e300, 1e-12), (1e-300, 1e-12),
    (2.0 ** 520, 0.0), (2.0 ** -560, 0.0)])
def test_euclid_features_take_a_curve_at_any_scale(scale, rtol):
    """The signatures factor amplitude out, so a curve scaled until its
    square or its |CWT|'s square over- or underflows leaves the matrix
    as it was: bit for bit when the scale is a power of two, which the
    transform carries exactly."""
    curves = np.random.default_rng(41).normal(size=(3, 64))
    grid = make_scale_grid(1, 4, 4)
    expected = build_dissimilarity_matrix(curves, measure="euclid-features",
                                          grid=grid).values
    curves[2] *= scale
    values = build_dissimilarity_matrix(curves, measure="euclid-features",
                                        grid=grid).values
    assert_allclose(values, expected, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("scale, rtol", [
    (1e155, 1e-12), (1e-170, 1e-12), (1e300, 1e-12), (1e-300, 1e-12),
    (2.0 ** 520, 0.0), (2.0 ** -560, 0.0)])
def test_wer_and_coherence_take_a_curve_at_any_level(scale, rtol):
    """WER^2 and the coherence are ratios, and each field is scaled before
    it is squared, so a curve scaled until its |CWT|'s square over- or
    underflows leaves the WER matrix, wer_distance and the coherence
    field as they were: bit for bit when the scale is a power of two."""
    curves = np.random.default_rng(1).normal(size=(3, 64))
    curves[2] = np.roll(curves[0], 7)
    grid = make_scale_grid(1, 4, 4)
    expected = build_dissimilarity_matrix(curves, measure="WER",
                                          grid=grid).values
    field = wavelet_coherence(cwt_morlet(curves[0], grid),
                              cwt_morlet(curves[2], grid)).values
    curves[2] *= scale
    values = build_dissimilarity_matrix(curves, measure="WER",
                                        grid=grid).values
    assert_allclose(values, expected, rtol=rtol, atol=0.0)
    wz, wx = cwt_morlet(curves[0], grid), cwt_morlet(curves[2], grid)
    assert_allclose(wer_distance(wz, wx), values[0, 2], rtol=rtol, atol=0.0)
    assert_allclose(wavelet_coherence(wz, wx).values, field, rtol=rtol,
                    atol=1e-15 if rtol else 0.0)


@pytest.mark.parametrize("scale, match", [
    (1e155, "cross covariance overflows"),
    (1e300, "cross covariance overflows"),
    (1e100, "the MCA distance overflows"),
    (1e-170, "cross covariance underflows"),
    (1e-300, "cross covariance underflows"),
])
def test_mca_names_a_pair_out_of_the_float_range(scale, match):
    """MCA's covariance scales with the curves' levels, so it is not
    rescaled. A pair whose covariance or distance leaves the float range
    is named, not reported as a zero covariance or an eigh failure."""
    z = np.random.default_rng(1).normal(size=64)
    curves = np.vstack([z, np.roll(z, 3), scale * np.roll(z, 7)])
    grid = make_scale_grid(1, 4, 4)
    with pytest.raises(DegenerateInputError, match=r"pair \(0, 2\): " + match):
        build_dissimilarity_matrix(curves, measure="MCA", grid=grid)
    with pytest.raises(DegenerateInputError, match=match):
        mca_distance(cwt_morlet(z, grid), cwt_morlet(curves[2], grid))


@pytest.mark.parametrize("normalization", ["L1", "L2"])
def test_euclid_features_keeps_a_small_ripple_on_a_level(normalization):
    """A ripple of 1e-6 of its level is a shape, not rounding; a constant
    curve is rounding at any level and length, the first one named."""
    t = np.arange(64)
    curves = np.vstack([5.0 + 5e-6 * np.sin(2 * np.pi * t / 16),
                        np.random.default_rng(38).normal(size=64),
                        -3.0 + 1e-6 * np.cos(2 * np.pi * t / 8)])
    mat = build_dissimilarity_matrix(curves, measure="euclid-features",
                                     grid=make_scale_grid(1, 4, 4),
                                     normalization=normalization)
    assert np.isfinite(mat.values).all() and (mat.values[0, 1:] > 0).all()
    for length, level in ((61, 123456.7), (1009, -3.3), (256, 1e-5)):
        curves = np.vstack([np.random.default_rng(39).normal(size=length),
                            np.full(length, level), np.full(length, 1.0)])
        with pytest.raises(DegenerateInputError, match=r"curve 1:"):
            build_dissimilarity_matrix(curves, measure="euclid-features",
                                       normalization=normalization)


@pytest.mark.parametrize("pair", [wer_distance, mca_distance, mca_analysis,
                                  wavelet_coherence])
def test_pair_measures_reject_a_stacked_spectrum(pair):
    curves = np.random.default_rng(41).normal(size=(3, 64))
    stack = cwt_morlet(curves, GRID)
    one = cwt_morlet(curves[0], GRID)
    for wz, wx in ((stack, one), (one, stack), (stack, stack)):
        with pytest.raises(ValueError, match="single fields"):
            pair(wz, wx)


def test_mca_failed_frobenius_identity_raises(monkeypatch):
    """A decomposition whose squared singular values miss ||Q||_F^2 is a
    numerical failure, in mca_distance and build_dissimilarity_matrix."""
    eigh = np.linalg.eigh

    def inflated(a):
        eig, u = eigh(a)
        eig = eig.copy()
        eig[-1, -1] *= 1.02
        return eig, u

    monkeypatch.setattr(np.linalg, "eigh", inflated)
    wz, wx = spectra(25, length=64)
    with pytest.raises(FloatingPointError, match="Frobenius"):
        mca_distance(wz, wx)
    with pytest.raises(FloatingPointError, match=r"pair \(0, 3\)"):
        build_dissimilarity_matrix(far_dataset(36, n=4, length=64),
                                   measure="MCA",
                                   grid=make_scale_grid(1, 4, 4))


def test_unknown_measure_rejected():
    ds = far_dataset(35, n=3)
    with pytest.raises(ValueError):
        build_dissimilarity_matrix(ds, measure="manhattan")
