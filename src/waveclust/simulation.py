"""Synthetic curve generators for the three-cluster benchmark.

Cluster one is a noisy two-sine curve; clusters two and three are
consecutive states of discretized functional autoregressions
``f_n = A f_{n-1} + eps_n`` whose operators differ in structure: a
decaying diagonal (coordinates evolve independently, so each curve
looks like heteroscedastic noise) versus a full exponential-band kernel
(coordinates are coupled, so curves are smooth and coarse-scale heavy).
Both operators are scaled to a prescribed spectral norm below one,
which keeps the chains stationary; a burn-in prefix is discarded so the
kept states start near the stationary law.

Every generator derives its random stream from the master seed and a
fixed label, so the 75-curve benchmark is reproducible from one integer
and its three blocks never share draws.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import FunctionalDataset
from .rng import derived_rng


@dataclass(frozen=True)
class FarModel:
    """Configuration of a discretized FAR(1) process on an m-point grid.

    ``kernel`` picks the operator structure: "diagonal" uses
    ``B = diag(exp(-DIAGONAL_DECAY * i / m))``, "full" uses ``B[i, j] =
    exp(-|i - j| / bandwidth)`` with bandwidth defaulting to m / 64.
    The operator is ``A = rho * B / ||B||_2`` so its spectral norm is
    exactly ``rho``; ``rho < 1`` keeps the chain stationary. The full
    kernel is a Kac-Murdock-Szego matrix (Kac, Murdock & Szego 1953), so
    ``||B||_2`` comes from its tridiagonal inverse in scalar arithmetic,
    without a dense eigen-solve. It is Toeplitz too, so it is stored as
    its 2m - 1 values and never as an m x m array: ``far_operator``
    returns a read-only strided view of them.

    The two defaults set the benchmark's contrast. The fast diagonal
    decay confines persistence to a thin band of leading coordinates, so
    diagonal-kernel curves are close to flat white noise in space and
    nearly independent across steps; the narrow bandwidth concentrates
    the full kernel's persistent modes in the lowest few frequencies, so
    its curves carry excess energy precisely at the coarsest detail
    scales while staying white elsewhere. Euclidean clustering of the
    raw curves then has to separate two almost isometric point clouds,
    whereas coarse scale energies separate them well.
    """

    kernel: str = "diagonal"
    rho: float = 0.8
    m: int = 1024
    sigma: float = 1.0
    burn_in: int = 50
    bandwidth: float = None

    def __post_init__(self):
        if self.kernel not in ("diagonal", "full"):
            raise ValueError("kernel must be 'diagonal' or 'full'")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1) for stationarity")
        if self.m < 8:
            raise ValueError("grid size m must be at least 8")
        _check_sigma(self.sigma)
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        if self.bandwidth is None:
            object.__setattr__(self, "bandwidth", self.m / 64.0)
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")


DIAGONAL_DECAY = 20.0
"""Decay rate of the diagonal kernel entries exp(-DIAGONAL_DECAY * i / m)."""


def _kms_norm(m, bandwidth):
    """``||B||_2`` of the m x m matrix ``B[i, j] = r ** |i - j|``, with
    ``r = exp(-1 / bandwidth)``, in scalar arithmetic.

    B is a Kac-Murdock-Szego matrix, whose inverse is ``T / (1 - r**2)``
    with T tridiagonal: diagonal ``(1, 1 + r**2, ..., 1 + r**2, 1)`` and
    ``-r`` beside it. So ``||B||_2 = (1 - r**2) / lambda_min(T)``. B's
    largest eigenvalue lies between 1 (a diagonal entry) and its
    symbol's maximum ``(1 + r) / (1 - r)``, so ``lambda_min(T)`` lies in
    ``[(1 - r)**2, 1 - r**2]``, and bisection narrows that bracket to
    adjacent doubles. A shift lies above ``lambda_min(T)`` when a pivot
    of ``T - shift = L+ D+ L+^T`` is negative. The pivots come from
    ``T = L D L^T`` (``D = (1, ..., 1, 1 - r**2)``, ``L`` with ``-r``
    below its unit diagonal) by the differential stationary qd
    transform, which never forms ``1 + r**2 - shift`` and so keeps the
    small eigenvalue's relative accuracy.
    """
    r2 = math.exp(-2.0 / bandwidth)
    one_minus_r2 = -math.expm1(-2.0 / bandwidth)

    def above_lambda_min(shift):
        s = -shift
        for _ in range(m - 1):
            d = 1.0 + s
            if d <= 0.0:
                return True
            s = r2 * s / d - shift
        return one_minus_r2 + s < 0.0

    lo, hi = math.expm1(-1.0 / bandwidth) ** 2, one_minus_r2
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if above_lambda_min(mid):
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return one_minus_r2 / lo


@lru_cache(maxsize=8)
def _operator(kernel, m, rho, bandwidth):
    """The FAR operator in the form its structure allows, cached per
    (kernel, m, rho, bandwidth) and read-only, since every caller shares
    it: the vector of A's diagonal for the "diagonal" kernel, and for
    the "full" kernel a Toeplitz view of its 2m - 1 values.

    ``A[i, j]`` of the full kernel depends on ``|i - j|`` alone, so the
    m values ``v[k] = rho * exp(-k / bandwidth) / ||B||_2`` (the dense
    definition's arithmetic for each offset, so the same bits) fix it.
    Row i of ``sliding_window_view(band, m)`` over ``band = (v[m - 1],
    ..., v[1], v[0], v[1], ..., v[m - 1])`` is A's row m - 1 - i, so the
    reversed window is A as an m x m strided view of 2m - 1 doubles.
    """
    if kernel == "diagonal":
        a = rho * np.exp(-DIAGONAL_DECAY * np.arange(m) / m)
        a.flags.writeable = False
        return a
    v = rho * np.exp(-np.arange(m) / bandwidth) / _kms_norm(m, bandwidth)
    band = np.concatenate((v[:0:-1], v))
    band.flags.writeable = False
    return sliding_window_view(band, m)[::-1]


def far_operator(model):
    """The autoregression matrix A = rho * B / ||B||_2 of a FarModel.

    For the full kernel this is the cached operator the chain steps
    with: a read-only m x m strided view of the 2m - 1 values that store
    the kernel, never a dense matrix; ``np.array(far_operator(model))``
    gives a dense copy. For the diagonal kernel it is ``np.diag`` of the
    cached diagonal, since the chain steps with that vector alone.
    """
    a = _operator(model.kernel, model.m, model.rho, model.bandwidth)
    return np.diag(a) if model.kernel == "diagonal" else a


def _check_n_curves(n_curves):
    if n_curves < 1:
        raise ValueError(f"n_curves must be at least 1, got {n_curves}")


def _check_sigma(sigma):
    """The noise scale's one rule: finite and nonnegative (zero draws
    noiseless curves), checked before anything is drawn."""
    if not 0 <= sigma < float("inf"):
        raise ValueError(
            f"sigma must be finite and nonnegative, got {sigma!r}")


def gen_sinus(n_curves, length=1024, sigma=1.0, seed=0):
    """Noisy two-sine curves: sin(5 pi x / L) + sin(2 pi x / L) + noise.

    Returns ``(dataset, labels)`` with all labels 0; x runs over the
    integer sample positions 0 .. length - 1.
    """
    _check_n_curves(n_curves)
    _check_sigma(sigma)
    if length < 8:
        raise ValueError("length must be at least 8")
    rng = derived_rng(seed, "sinus")
    x = np.arange(length)
    base = np.sin(5 * np.pi * x / length) + np.sin(2 * np.pi * x / length)
    curves = base + rng.normal(0.0, sigma, size=(n_curves, length))
    dataset = FunctionalDataset(curves=curves)
    return dataset, np.zeros(n_curves, dtype=int)


def gen_far(n_curves, length=1024, model=None, seed=0):
    """Curves from a discretized FAR(1) chain.

    The returned curves are consecutive post-burn-in states of one chain
    (temporally dependent, as segments sliced from a long record would
    be). Each step applies the operator in the form its structure
    allows: an elementwise product with the diagonal, or an ``einsum``
    row-by-row product with the full kernel's Toeplitz view, which reads
    its 2m - 1 values in place and gives the bits of the same ``einsum``
    on the dense matrix. Neither calls BLAS, so the curves are the same
    bits at every thread count. Returns ``(dataset, labels)`` with all
    labels 0.
    """
    _check_n_curves(n_curves)
    model = model if model is not None else FarModel(m=length)
    if model.m != length:
        raise ValueError(f"model grid size {model.m} != length {length}")
    a = _operator(model.kernel, model.m, model.rho, model.bandwidth)
    rng = derived_rng(seed, f"far-{model.kernel}")
    state = np.zeros(model.m)
    curves = np.empty((n_curves, model.m))
    for step in range(model.burn_in + n_curves):
        if model.kernel == "diagonal":
            state = a * state
        else:
            state = np.einsum("ij,j->i", a, state)
        state += rng.normal(0.0, model.sigma, size=model.m)
        if step >= model.burn_in:
            curves[step - model.burn_in] = state
    dataset = FunctionalDataset(curves=curves)
    return dataset, np.zeros(n_curves, dtype=int)


def gen_benchmark(seed=0, n_per_cluster=25, length=1024, rho=0.8,
                  sigma=1.0):
    """The three-cluster benchmark: sinus, diagonal FAR, full FAR.

    Returns ``(dataset, labels)`` with ``n_per_cluster`` curves per
    cluster, labeled 0 (sinus), 1 (diagonal FAR) and 2 (full FAR); all
    three generators draw from independent streams derived from the one
    master seed, so the output is reproducible bitwise.
    """
    sinus, _ = gen_sinus(n_per_cluster, length=length, sigma=sigma,
                         seed=seed)
    far_diag, _ = gen_far(
        n_per_cluster, length=length, seed=seed,
        model=FarModel(kernel="diagonal", rho=rho, m=length, sigma=sigma),
    )
    far_full, _ = gen_far(
        n_per_cluster, length=length, seed=seed,
        model=FarModel(kernel="full", rho=rho, m=length, sigma=sigma),
    )
    curves = np.vstack([sinus.curves, far_diag.curves, far_full.curves])
    labels = np.repeat(np.arange(3), n_per_cluster)
    dataset = FunctionalDataset(curves=curves)
    return dataset, labels
