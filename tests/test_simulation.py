import tracemalloc
import zlib

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import solve_discrete_lyapunov

from waveclust import (
    FarModel,
    far_operator,
    feature_matrix,
    gen_benchmark,
    gen_far,
    gen_sinus,
)
from waveclust.rng import derived_rng
from waveclust.simulation import _full_kernel, _kms_norm, _operator
from test_imports import run_fresh


def sinus_mean(length):
    x = np.arange(length)
    return np.sin(5 * np.pi * x / length) + np.sin(2 * np.pi * x / length)


# --- sinus model ---

def test_sinus_noiseless_is_the_two_sine_curve():
    ds, labels = gen_sinus(3, length=512, sigma=0.0, seed=4)
    assert_array_equal(labels, np.zeros(3, dtype=int))
    for curve in ds.curves:
        assert_array_equal(curve, sinus_mean(512))


def test_sinus_noise_variance_near_one():
    ds, _ = gen_sinus(50, length=1024, sigma=1.0, seed=5)
    residual = ds.curves - sinus_mean(1024)
    assert_allclose(residual.var(), 1.0, atol=0.1)


def test_sinus_coarse_scales_dominate():
    """The noiseless curve is low-frequency: detail energy sits in the
    three coarsest scales."""
    ds, _ = gen_sinus(1, length=1024, sigma=0.0, seed=0)
    rc = feature_matrix(ds.curves, kind="RC").values[0]
    assert rc[:3].sum() >= 0.9


def test_sinus_deterministic_per_seed():
    a, _ = gen_sinus(4, length=256, seed=9)
    b, _ = gen_sinus(4, length=256, seed=9)
    assert_array_equal(a.curves, b.curves)


# --- FAR models ---

@pytest.mark.parametrize("kernel", ["diagonal", "full"])
def test_operator_norm_equals_rho(kernel):
    for m in (8, 64, 1024):
        model = FarModel(kernel=kernel, rho=0.8, m=m)
        norm = np.linalg.norm(far_operator(model), 2)
        assert_allclose(norm, 0.8, rtol=1e-12)


@pytest.mark.parametrize("m,bandwidth", [
    (m, bandwidth) for m in (8, 64, 1024)
    for bandwidth in (0.1, 1.0, m / 64, m / 4)])
def test_kms_norm_matches_a_dense_eigen_solve(m, bandwidth):
    offsets = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    expected = np.linalg.eigvalsh(np.exp(-offsets / bandwidth))[-1]
    assert_allclose(_kms_norm(m, bandwidth), expected, rtol=1e-12)


def test_full_operator_is_cached_and_read_only():
    model = FarModel(kernel="full", rho=0.8, m=64)
    a = far_operator(model)
    assert far_operator(FarModel(kernel="full", rho=0.8, m=64)) is a
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 0.0


GRID = [(m, bandwidth) for m in (8, 64, 1000, 1024)
        for bandwidth in (0.1, 1.0, m / 64, m / 4)]


@pytest.mark.parametrize("m,bandwidth", GRID)
def test_full_operator_is_the_dense_definition_bit_for_bit(m, bandwidth):
    a = _full_kernel(m, 0.8, bandwidth)
    offsets = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    dense = 0.8 * np.exp(-offsets / bandwidth) / _kms_norm(m, bandwidth)
    assert a.shape == (m, m)
    assert np.array(a).tobytes() == dense.tobytes()


@pytest.mark.parametrize("m,bandwidth", GRID)
def test_einsum_on_the_toeplitz_view_is_the_dense_einsum(m, bandwidth):
    """The chain steps with ``einsum`` on the strided view of the 2m - 1
    kernel values; its sums must be the dense matrix's bit for bit, so a
    NumPy whose einsum sums a strided operand in another order fails
    here rather than changing the curves."""
    a = _full_kernel(m, 0.8, bandwidth)
    # A view onto 2m - 1 values, not a dense copy.
    assert a.strides == (-a.itemsize, a.itemsize)
    dense = np.array(a)
    rng = np.random.default_rng(m)
    for magnitude in 10.0 ** np.arange(-5, 6):
        state = magnitude * rng.standard_normal(m)
        step = np.einsum("ij,j->i", a, state)
        expected = np.einsum("ij,j->i", dense, state)
        assert step.tobytes() == expected.tobytes()


def test_full_kernel_chain_allocates_no_dense_operator():
    """A dense m = 4096 operator alone is 128 MiB."""
    # A first call's lazy set-up allocates too; it is not the operator.
    gen_far(2, model=FarModel(kernel="full", m=8))
    _operator.cache_clear()
    tracemalloc.start()
    try:
        gen_far(2, model=FarModel(kernel="full", m=4096))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_rho_zero_gives_iid_white_noise():
    model = FarModel(kernel="diagonal", rho=0.0, m=64)
    ds, _ = gen_far(500, model=model, seed=9)
    assert_allclose(ds.curves.var(), 1.0, atol=0.05)
    lag1 = np.mean(np.sum(ds.curves[:-1] * ds.curves[1:], axis=1))
    assert abs(lag1) < 2.0


@pytest.mark.parametrize("kernel,rel_tol", [("diagonal", 0.05),
                                            ("full", 0.12)])
def test_lag1_inner_product_matches_lyapunov_solution(kernel, rel_tol):
    """Stationary lag-1 cross moment E<f_n, f_n+1> equals tr(A @ Sigma)
    where Sigma solves the discrete Lyapunov equation of the chain."""
    model = FarModel(kernel=kernel, rho=0.8, m=64, sigma=1.0)
    A = far_operator(model)
    Sigma = solve_discrete_lyapunov(A, np.eye(64))
    expected = np.trace(A @ Sigma)
    ds, _ = gen_far(3000, model=model, seed=11)
    observed = np.mean(np.sum(ds.curves[:-1] * ds.curves[1:], axis=1))
    assert_allclose(observed, expected, rtol=rel_tol)
    assert expected > 0.0


def test_lag1_moment_increases_with_rho():
    moments = []
    for rho in (0.3, 0.6, 0.9):
        model = FarModel(kernel="diagonal", rho=rho, m=32)
        ds, _ = gen_far(2000, model=model, seed=13)
        moments.append(np.mean(np.sum(ds.curves[:-1] * ds.curves[1:],
                                      axis=1)))
    assert moments[0] < moments[1] < moments[2]


def test_norms_do_not_drift():
    model = FarModel(kernel="full", rho=0.9, m=64)
    ds, _ = gen_far(300, model=model, seed=14)
    norms = np.linalg.norm(ds.curves, axis=1)
    early = norms[100:200].mean()
    late = norms[200:300].mean()
    assert abs(late - early) <= 0.1 * early


def test_far_curves_take_their_length_from_the_model():
    ds, labels = gen_far(7, model=FarModel(kernel="full", m=64))
    assert ds.curves.shape == (7, 64)
    assert_array_equal(labels, np.zeros(7, dtype=int))
    assert gen_far(2)[0].curves.shape == (2, 1024)


def test_far_takes_no_length_burn_in_or_bandwidth():
    assert list(FarModel.__dataclass_fields__) == ["kernel", "rho", "m",
                                                   "sigma"]
    for setting in ({"burn_in": 50}, {"bandwidth": 16.0}):
        with pytest.raises(TypeError):
            FarModel(kernel="full", m=64, **setting)
    with pytest.raises(TypeError):
        gen_far(2, length=64)


def test_far_validates_model():
    with pytest.raises(ValueError):
        FarModel(kernel="diagonal", rho=1.0, m=64)
    with pytest.raises(ValueError):
        FarModel(kernel="circular", rho=0.5, m=64)
    with pytest.raises(ValueError):
        FarModel(kernel="full", rho=0.5, m=4)
    model = FarModel(kernel="full", rho=0.5, m=64)
    with pytest.raises(ValueError, match="n_curves must be at least 1"):
        gen_far(0, model=model)


@pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
def test_noise_scale_is_finite_and_nonnegative(sigma):
    match = "sigma must be finite and nonnegative"
    with pytest.raises(ValueError, match=match):
        FarModel(kernel="full", rho=0.5, m=64, sigma=sigma)
    with pytest.raises(ValueError, match=match):
        gen_sinus(2, length=64, sigma=sigma)


@pytest.mark.parametrize("n_curves", [0, -1])
def test_sinus_needs_a_curve(n_curves):
    with pytest.raises(ValueError, match="n_curves must be at least 1"):
        gen_sinus(n_curves, length=64)


@pytest.mark.parametrize("name, whole, call", [
    ("n_curves", 2, lambda v: gen_sinus(v, length=64)),
    ("length", 64, lambda v: gen_sinus(2, length=v)),
    ("n_curves", 2, lambda v: gen_far(v, model=FarModel(m=64))),
    ("m", 64, lambda v: gen_far(2, model=FarModel(kernel="full", m=v))),
    ("n_per_cluster", 2, lambda v: gen_benchmark(n_per_cluster=v,
                                                  length=64)),
    ("length", 64, lambda v: gen_benchmark(n_per_cluster=2, length=v)),
], ids=["sinus-n_curves", "sinus-length", "far-n_curves", "far-m",
        "benchmark-n_per_cluster", "benchmark-length"])
def test_simulator_sizes_follow_the_integer_rule(name, whole, call):
    ds, labels = call(whole)
    ds_float, labels_float = call(float(whole))
    assert ds_float.curves.tobytes() == ds.curves.tobytes()
    assert labels_float.tobytes() == labels.tobytes()
    with pytest.raises(ValueError, match=f"{name} must be an integer, got "
                                         f"{whole + 0.5}"):
        call(whole + 0.5)


# --- benchmark assembly ---

def test_benchmark_shape_and_labels():
    ds, labels = gen_benchmark(seed=1, n_per_cluster=25, length=1024)
    assert ds.curves.shape == (75, 1024)
    assert_array_equal(np.bincount(labels), [25, 25, 25])
    assert_array_equal(labels, np.repeat([0, 1, 2], 25))


def test_benchmark_bitwise_deterministic():
    a, la = gen_benchmark(seed=2, n_per_cluster=5, length=128)
    b, lb = gen_benchmark(seed=2, n_per_cluster=5, length=128)
    assert_array_equal(a.curves, b.curves)
    assert_array_equal(la, lb)


def test_benchmark_seeds_differ():
    a, _ = gen_benchmark(seed=3, n_per_cluster=5, length=128)
    b, _ = gen_benchmark(seed=4, n_per_cluster=5, length=128)
    assert not np.array_equal(a.curves, b.curves)


def test_seeds_do_not_alias():
    # No two seeds share a stream: 2**32 is not 0, and the seeds that
    # would alias one (-1 for 2**32 - 1, 1.7 for 1) are errors.
    a, _ = gen_benchmark(seed=0, n_per_cluster=2, length=64)
    b, _ = gen_benchmark(seed=2 ** 32, n_per_cluster=2, length=64)
    assert not np.array_equal(a.curves, b.curves)
    for seed, message in ((-1, "seed must be nonnegative, got -1"),
                          (1.7, "seed must be an integer, got 1.7")):
        with pytest.raises(ValueError) as info:
            gen_benchmark(seed=seed, n_per_cluster=2, length=64)
        assert str(info.value) == message


@pytest.mark.parametrize("seed", [0, 1, 7.0, 2 ** 31, 2 ** 32 - 1])
def test_seeds_below_two_to_the_32_keep_their_streams(seed):
    expected = np.random.default_rng(np.random.SeedSequence(
        [int(seed), zlib.crc32(b"sinus")])).random(4)
    assert_array_equal(derived_rng(seed, "sinus").random(4), expected)


def test_benchmark_bytes_do_not_depend_on_the_blas_thread_count():
    code = """
import hashlib
import waveclust as wc
digest = hashlib.sha256()
for seed, n, length in [(s, 5, 128) for s in range(1, 6)] + [(1, 25, 1024)]:
    curves = wc.gen_benchmark(seed=seed, n_per_cluster=n,
                              length=length)[0].curves
    digest.update(curves.tobytes())
print(digest.hexdigest())
"""
    digests = set()
    for threads in ("1", "2"):
        digests.add(run_fresh(code, OPENBLAS_NUM_THREADS=threads,
                              OMP_NUM_THREADS=threads,
                              MKL_NUM_THREADS=threads))
    assert len(digests) == 1
