"""Continuous wavelet transform on a voiced dyadic scale grid, plus the
time/scale smoothing operator used by coherence and spectral distances.

The analyzing wavelet is the analytic Morlet

    psi(u) = pi**(-1/4) * exp(i * omega0 * u) * exp(-u**2 / 2),

with ``omega0 = 6`` by default, so scale is essentially the inverse of
Fourier frequency (an oscillation of period P samples peaks near scale
``a = P * omega0 / (2*pi)``). For a curve ``z`` of length N the transform
at scale ``a`` and time ``k`` is

    W[a, k] = a**(-p) * sum_i z[i] * conj(psi)((i - k) / a),

evaluated under circular (periodic) boundary treatment; ``p = 1`` gives
the L1 normalization (default: flat response to equal-amplitude
oscillations across scales) and ``p = 1/2`` the unit-energy L2 one.
Rows whose scale exceeds N/2 are dominated by wraparound and carry a
cone-of-influence flag rather than trustworthy coefficients.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .data import FunctionalDataset, _integer


@dataclass(frozen=True)
class ScaleGrid:
    """Scales ``2 ** (octave_min + m / voices)``, endpoints included.

    ``m`` runs from 0 to ``(octave_max - octave_min) * voices``, so
    consecutive scales keep the fixed ratio ``2 ** (1 / voices)``.
    """

    octave_min: int = 1
    octave_max: int = 6
    voices: int = 8

    def __post_init__(self):
        for key in ("octave_min", "octave_max", "voices"):
            object.__setattr__(self, key, _integer(getattr(self, key), key))
        if self.octave_max <= self.octave_min:
            raise ValueError("octave_max must exceed octave_min")
        if self.voices < 1:
            raise ValueError("voices must be a positive integer")

    @property
    def n_scales(self):
        return (self.octave_max - self.octave_min) * self.voices + 1

    @property
    def scales(self):
        m = np.arange(self.n_scales)
        return 2.0 ** (self.octave_min + m / self.voices)


def make_scale_grid(o_min=1, o_max=6, voices=8):
    """Construct the voiced dyadic grid covering octaves [o_min, o_max]."""
    return ScaleGrid(octave_min=o_min, octave_max=o_max, voices=voices)


def morlet_kernel(scale, n_samples, omega0=6.0):
    """Morlet samples psi(signed(i) / a) on the circular offset grid.

    Offsets are the signed representatives of ``0 .. N-1`` modulo N (the
    fastest-decaying placement for a periodized kernel), so the kernel is
    one period of the wavelet wrapped onto the circle.
    """
    n = int(n_samples)
    signed = ((np.arange(n) + n // 2) % n) - n // 2
    u = signed / float(scale)
    return np.pi ** (-0.25) * np.exp(1j * omega0 * u) * np.exp(-0.5 * u * u)


@dataclass
class Spectrum:
    """CWT coefficients of one curve, an (n_scales, N) complex matrix, or
    of a stack of curves, (n, n_scales, N), as a build holds them; any
    other shape, or a nan or inf, is an error.

    ``coi_flag[j]`` is True where row ``j``'s scale exceeds N/2, meaning
    the periodized kernel wraps enough to contaminate the whole row.
    """

    matrix: np.ndarray
    grid: ScaleGrid
    omega0: float = 6.0
    normalization: str = "L1"
    coi_flag: np.ndarray = field(default=None)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix)
        shape = self.matrix.shape
        if len(shape) not in (2, 3) or shape[-2] != self.grid.n_scales:
            raise ValueError(f"a spectrum on {self.grid.n_scales} scales is "
                             f"(n_scales, N) or (n, n_scales, N), got {shape}")
        if not np.isfinite(self.matrix).all():
            raise ValueError("spectrum values must be finite (found nan or "
                             "inf)")
        if self.coi_flag is None:
            self.coi_flag = self.grid.scales > self.n_samples / 2

    @property
    def n_scales(self):
        return self.matrix.shape[-2]

    @property
    def n_samples(self):
        return self.matrix.shape[-1]


@lru_cache(maxsize=16)
def _morlet_bank(grid, n, omega0, p):
    """``conj(fft(psi_a))`` of every scale of the grid, shape (n_scales, n),
    and the normalizers ``a ** p``, shape (n_scales, 1). Cached per
    (grid, n, omega0, p) and read-only, since every caller shares them.

    ``omega0 * u`` overflows for an omega0 near the float maximum, which
    leaves a nan in the bank: that is a ``ValueError``, raised before
    NumPy warns of the overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        bank = np.array([
            np.conj(np.fft.fft(morlet_kernel(a, n, omega0=omega0)))
            for a in grid.scales])
    if not np.isfinite(bank).all():
        raise ValueError(f"omega0 = {omega0!r} overflows the Morlet kernel "
                         f"on {n} samples")
    bank.flags.writeable = False
    # Scalar powers, as in the defining sum: an array power may take
    # sqrt for p = 1/2 and round differently.
    norm = np.array([a ** p for a in grid.scales])[:, None]
    norm.flags.writeable = False
    return bank, norm


def cwt_morlet(curve, grid=None, omega0=6.0, normalization="L1"):
    """Morlet CWT over the scale grid of one curve or of an (n, N) stack.

    The circular correlation at every scale is evaluated exactly via the
    FFT: ``ifft(fft(z) * conj(fft(psi_a)))[k]`` equals the direct sum
    ``sum_i z[i] * conj(psi_a)[(i - k) mod N]``. The kernel spectra
    ``conj(fft(psi_a))`` depend only on the grid, N and omega0, so they
    are computed once and cached as one (n_scales, N) filter bank; a
    call is one forward FFT per curve, one product with the bank, one
    inverse FFT per row and the division by ``a ** p``. A dissimilarity
    build transforms all its curves in one call; field ``i`` of the
    result equals the transform of curve ``i`` alone, bit for bit. The
    curves are checked as a :class:`FunctionalDataset`, so a nan or inf
    sample is an error rather than a field of nan.

    ``omega0`` must be finite and positive: the Morlet above is the
    analytic wavelet, oscillating at a positive frequency, only for
    omega0 > 0. At 0 it is a plain Gaussian, which is no wavelet, and a
    negative omega0 mirrors its spectrum onto the negative frequencies.
    An omega0 so large that the kernel overflows is an error too.
    """
    rows = FunctionalDataset(curve).curves
    if rows.shape[-1] < 8:
        raise ValueError("curves must have at least 8 samples")
    if not 0 < omega0 < float("inf"):
        raise ValueError(f"omega0 must be finite and positive, got "
                         f"{omega0!r}")
    grid = grid if grid is not None else ScaleGrid()
    if grid.scales[0] < 1.0:
        raise ValueError("smallest scale must be at least one sample")
    if normalization == "L1":
        p = 1.0
    elif normalization == "L2":
        p = 0.5
    else:
        raise ValueError(f"unknown normalization: {normalization!r}")
    bank, norm = _morlet_bank(grid, rows.shape[-1], omega0, p)
    # C order keeps each field contiguous, whatever the curves' layout.
    fields = np.fft.ifft(np.multiply(np.fft.fft(rows)[:, None, :], bank,
                                     order="C"), axis=-1)
    fields /= norm
    return Spectrum(matrix=fields if np.ndim(curve) == 2 else fields[0],
                    grid=grid, omega0=omega0, normalization=normalization)


def _gaussian_row_kernel(sigma, n):
    """Unit-sum circular Gaussian of standard deviation ``sigma`` samples."""
    signed = ((np.arange(n) + n // 2) % n) - n // 2
    k = np.exp(-0.5 * (signed / float(sigma)) ** 2)
    return k / k.sum()


def _boxcar_width(voices):
    """Nearest odd count to 0.6 * voices. It lies in 1..voices + 1, so it
    fits every grid, which has at least voices + 1 scales."""
    return int(np.floor(0.6 * voices / 2)) * 2 + 1


@lru_cache(maxsize=16)
def _smoothing_kernels(grid, n):
    """FFTs of the per-row Gaussians, shape (n_scales, n), and the scale
    boxcar as a real (n_scales, n_scales) matrix. Row ``j`` of the matrix
    holds ``1 / width`` at the ``width`` columns ``j - width // 2`` to
    ``j + width // 2`` taken modulo n_scales (the window wraps around the
    grid's ends) and exact zeros elsewhere. Cached per (grid, n) and
    read-only, since every caller shares them."""
    time_hat = np.array([np.fft.fft(_gaussian_row_kernel(a, n))
                         for a in grid.scales])
    time_hat.flags.writeable = False
    j_s = grid.n_scales
    width = _boxcar_width(grid.voices)
    rows = np.arange(j_s)[:, None]
    box = np.zeros((j_s, j_s))
    box[rows, (rows + np.arange(width) - width // 2) % j_s] = 1.0 / width
    box.flags.writeable = False
    return time_hat, box


def smooth_spectrum(values, grid):
    """Smooth time-scale fields in time, then across scales.

    ``values`` is one (n_scales, N) field or a stack of them with shape
    (..., n_scales, N); each field is smoothed on its own, and a stacked
    call gives the same values as one call per field. In time, row ``j``
    is circularly convolved with a unit-sum Gaussian whose standard
    deviation equals the row's scale in samples (wider scales get
    proportionally wider smoothing), by one FFT pair along the time axis.
    Across scales, row ``j`` becomes the mean of a boxcar window of the
    nearest odd count to ``0.6 * voices`` rows centred on it, applied as
    one real (n_scales, n_scales) matrix to the real and imaginary parts.
    The scale window is circular: near the grid's ends it wraps around,
    so the finest rows are averaged with the coarsest, and every row
    outside a row's window gets a weight of exactly zero. Unit-sum
    kernels preserve constant fields and the total sum of the field.
    """
    values = np.asarray(values)
    if values.ndim < 2 or values.shape[-2] != grid.n_scales:
        raise ValueError("row count must match the scale grid")
    time_hat, box = _smoothing_kernels(grid, values.shape[-1])
    out = np.fft.ifft(np.fft.fft(values, axis=-1) * time_hat, axis=-1)
    out = np.matmul(box, out.view(float)).view(complex)
    return out if np.iscomplexobj(values) else out.real
