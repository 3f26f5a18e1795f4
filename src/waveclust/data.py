"""Sampled signals, curve datasets, and the slicing/resampling front end.

A long equally sampled record is cut into consecutive non-overlapping
segments of ``delta`` samples; each segment becomes one curve of a
:class:`FunctionalDataset`. Curves live on the normalized abscissa
``[0, 1]`` and can be resampled onto a dyadic grid of ``2**J`` points with
a natural cubic spline so that the pyramidal wavelet transform applies.

The spline runs on NumPy alone and agrees bit for bit with SciPy's
``CubicSpline(bc_type="natural")``, because it repeats SciPy's arithmetic
step for step. It builds the same tridiagonal system for the slopes
(de Boor 1978) and solves it in the order of LAPACK ``dgtsv``: the system
is diagonally dominant, so no rows are swapped, and the solve is one
forward sweep ``fact = dl / d`` and one back substitution, each
vectorized over the curves. The slopes give ``CubicHermiteSpline``'s
coefficients, which are summed as ``PPoly`` sums them.
"""

import warnings
from dataclasses import dataclass

import numpy as np

#: Every resample J up to this is accepted whatever the input length:
#: 2**10 points per curve cost little (see ``resample_dyadic``).
_RESAMPLE_J_ANY_LENGTH = 10


@dataclass
class SampledSignal:
    """A finite, equally sampled record of an underlying continuous process.

    Parameters
    ----------
    values : array_like
        Sample values, one per grid point.
    sampling_step : float
        Time units per sample; must be positive.
    """

    values: np.ndarray
    sampling_step: float = 1.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("signal must be a non-empty one-dimensional sequence")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("signal values must all be finite")
        if not self.sampling_step > 0:
            raise ValueError("sampling_step must be positive")

    def __len__(self):
        return self.values.size


@dataclass
class FunctionalDataset:
    """Ordered collection of curves sampled on a shared grid.

    ``curves`` is an (n, N) array, one curve per row. ``origin_index``
    records, per curve, the position of its first sample in the source
    signal when the dataset was produced by slicing. ``remainder`` is the
    number of trailing source samples the slicer dropped.
    """

    curves: np.ndarray
    segment_length: int | None = None
    origin_index: np.ndarray | None = None
    remainder: int = 0

    def __post_init__(self):
        self.curves = np.atleast_2d(np.asarray(self.curves, dtype=float))
        n, width = self.curves.shape
        if n < 1:
            raise ValueError("dataset needs at least one curve")
        if width < 2:
            raise ValueError("curves need at least two samples")
        if not np.all(np.isfinite(self.curves)):
            raise ValueError("curve values must all be finite")
        if self.segment_length is None:
            self.segment_length = width
        if self.origin_index is not None:
            self.origin_index = np.asarray(self.origin_index, dtype=int)
            if self.origin_index.shape != (n,):
                raise ValueError("origin_index must hold one entry per curve")

    @property
    def n_curves(self):
        return self.curves.shape[0]

    @property
    def n_samples(self):
        return self.curves.shape[1]


def _integer(value, name):
    """``value`` as an int; a fractional or non-finite value is an error
    rather than being truncated."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    if not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def slice_series(signal, delta):
    """Cut a signal into consecutive non-overlapping segments of length delta.

    Parameters
    ----------
    signal : SampledSignal
    delta : int
        Segment length in samples, at least 2 and at most ``len(signal)``;
        a fractional value is an error.

    Returns
    -------
    FunctionalDataset
        ``len(signal) // delta`` curves in temporal order. A trailing
        remainder shorter than ``delta`` is dropped, never padded; its
        length is reported in ``remainder``.
    """
    delta = _integer(delta, "delta")
    if delta < 2:
        raise ValueError("delta must be at least 2")
    if delta > len(signal):
        raise ValueError(
            f"delta ({delta}) exceeds the signal length ({len(signal)})"
        )
    n = len(signal) // delta
    used = n * delta
    curves = signal.values[:used].reshape(n, delta)
    return FunctionalDataset(
        curves=curves.copy(),
        segment_length=delta,
        origin_index=np.arange(n) * delta,
        remainder=len(signal) - used,
    )


def _natural_spline(curves, targets):
    """Natural cubic spline through each row of ``curves``, placed at
    ``i / (N - 1)``, evaluated at ``targets``.

    Bitwise equal to SciPy's ``CubicSpline(bc_type="natural")``, in the
    same memory layout: the transpose of a C-ordered (targets, rows)
    array. The system and its solve order are described in the module
    docstring; the sum over ``z``, the offset into the interval, is
    ``PPoly``'s ``0.0 + c3 + c2 z + c1 z**2 + c0 z**3``.
    """
    n = curves.shape[-1]
    x = np.arange(n) / (n - 1)
    dx = np.diff(x)
    y = curves.reshape(-1, n).T  # spline axis first, one column per row
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    # Natural ends (zero second derivative) close rows 0 and n - 1.
    d = [2 * dx[0], *(2 * (dx[:-1] + dx[1:])).tolist(), 2 * dx[-1]]
    du = [dx[0], *dx[:-1].tolist()]  # A[i, i + 1]
    dl = [*dx[1:].tolist(), dx[-1]]  # A[i + 1, i]
    s = np.empty_like(y)
    s[0] = 3 * (y[1] - y[0])
    s[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    s[-1] = 3 * (y[-1] - y[-2])
    for i in range(n - 1):
        fact = dl[i] / d[i]
        d[i + 1] = d[i + 1] - fact * du[i]
        s[i + 1] -= fact * s[i]
    s[-1] /= d[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (s[i] - du[i] * s[i + 1]) / d[i]
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    c0, c1, c2, c3 = t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]
    interval = np.clip(np.searchsorted(x, targets, side="right") - 1,
                       0, n - 2)
    z = (targets - x[interval])[:, None]
    out = 0.0 + c3[interval]
    out += c2[interval] * z
    z2 = z * z
    out += c1[interval] * z2
    out += c0[interval] * (z2 * z)
    return out.T.reshape(curves.shape[:-1] + targets.shape)


def _resample_rows(curves, J):
    """Resample the last axis of ``curves`` onto ``2**J`` points with one
    natural cubic spline fit over every row; see :func:`resample_dyadic`."""
    n = curves.shape[-1]
    if n < 4:
        raise ValueError("need at least 4 samples for the cubic spline")
    J = _integer(J, "J")
    if J < 1:
        raise ValueError("J must be a positive integer")
    most = max(_RESAMPLE_J_ANY_LENGTH, (n - 1).bit_length() + 1)
    if J > most:
        raise ValueError(f"J must be at most {most} for curves of {n} "
                         f"samples, got {J}")
    target = 2 ** J
    if target == n:
        return curves.copy()
    if target < n:
        warnings.warn(
            f"resampling {n} samples down to {target} discards detail",
            stacklevel=3,
        )
    return _natural_spline(curves, np.arange(target) / (target - 1))


def resample_dyadic(curve, J):
    """Resample a curve onto ``2**J`` equispaced points of [0, 1].

    A natural cubic spline is fit through the N input samples placed at
    ``i / (N - 1)`` and evaluated at ``k / (2**J - 1)``. When the input
    length already equals ``2**J`` the curve is returned unchanged (the
    grids coincide). Downsampling (``2**J < N``) is allowed but flagged
    with a warning because detail is discarded. The curve is checked as a
    :class:`FunctionalDataset` first, so a nan or inf sample is an error
    at every length, the dyadic one included. A fractional ``J`` is an
    error.

    ``J`` is bounded relative to the input length N, and checked before
    anything is allocated: it may be at most ``ceil(log2(N)) + 1``, one
    octave above the smallest dyadic grid that holds every sample (so
    ``2**J < 4 * N``), or at most 10 at any N. A spline through N
    samples carries no detail finer than its own grid, so a finer
    output grid only interpolates, while its size doubles with each J:
    J = 40 would ask for 8 TiB per curve. The floor of 10 keeps every
    grid up to 1024 points, which costs at most 8 KB per curve, open to
    short curves. J = 6, for 48- to 64-sample days, is valid either way.
    """
    if np.ndim(curve) != 1:
        raise ValueError("curve must be one-dimensional")
    return _resample_rows(FunctionalDataset(curve).curves, J)[0]


def resample_dataset(dataset, J):
    """Resample every curve of a dataset as :func:`resample_dyadic` does.

    One spline call fits all curves at once, and downsampling warns once
    per dataset; each row equals ``resample_dyadic`` of that curve.
    """
    return FunctionalDataset(
        curves=_resample_rows(dataset.curves, J),
        segment_length=dataset.segment_length,
        origin_index=dataset.origin_index,
        remainder=dataset.remainder,
    )
