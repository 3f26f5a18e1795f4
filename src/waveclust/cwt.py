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
        if self.octave_max <= self.octave_min:
            raise ValueError("octave_max must exceed octave_min")
        if self.voices < 1:
            raise ValueError("voices must be a positive integer")

    @property
    def voices_per_octave(self):
        return self.voices

    @property
    def n_scales(self):
        return (self.octave_max - self.octave_min) * self.voices + 1

    @property
    def scales(self):
        m = np.arange(self.n_scales)
        return 2.0 ** (self.octave_min + m / self.voices)


def make_scale_grid(o_min=1, o_max=6, voices=8):
    """Construct the voiced dyadic grid covering octaves [o_min, o_max]."""
    return ScaleGrid(octave_min=int(o_min), octave_max=int(o_max),
                     voices=int(voices))


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
    of a stack of curves, (..., n_scales, N), as a build holds them.

    ``coi_flag[j]`` is True where row ``j``'s scale exceeds N/2, meaning
    the periodized kernel wraps enough to contaminate the whole row.
    """

    matrix: np.ndarray
    grid: ScaleGrid
    omega0: float = 6.0
    normalization: str = "L1"
    coi_flag: np.ndarray = field(default=None)

    def __post_init__(self):
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
    (grid, n, omega0, p) and read-only, since every caller shares them."""
    bank = np.array([np.conj(np.fft.fft(morlet_kernel(a, n, omega0=omega0)))
                     for a in grid.scales])
    bank.flags.writeable = False
    # Scalar powers, as in the defining sum: an array power may take
    # sqrt for p = 1/2 and round differently.
    norm = np.array([a ** p for a in grid.scales])[:, None]
    norm.flags.writeable = False
    return bank, norm


def cwt_morlet(curve, grid=None, omega0=6.0, normalization="L1"):
    """Morlet CWT over the scale grid of one curve or of an (..., N) stack.

    The circular correlation at every scale is evaluated exactly via the
    FFT: ``ifft(fft(z) * conj(fft(psi_a)))[k]`` equals the direct sum
    ``sum_i z[i] * conj(psi_a)[(i - k) mod N]``. The kernel spectra
    ``conj(fft(psi_a))`` depend only on the grid, N and omega0, so they
    are computed once and cached as one (n_scales, N) filter bank; a
    call is one forward FFT per curve, one product with the bank, one
    inverse FFT per row and the division by ``a ** p``. A dissimilarity
    build transforms all its curves in one call; field ``i`` of the
    result equals the transform of curve ``i`` alone, bit for bit.
    """
    curve = np.asarray(curve, dtype=float)
    if curve.ndim < 1 or curve.shape[-1] < 8:
        raise ValueError("curves must have at least 8 samples")
    grid = grid if grid is not None else ScaleGrid()
    if grid.scales[0] < 1.0:
        raise ValueError("smallest scale must be at least one sample")
    if normalization == "L1":
        p = 1.0
    elif normalization == "L2":
        p = 0.5
    else:
        raise ValueError(f"unknown normalization: {normalization!r}")
    bank, norm = _morlet_bank(grid, curve.shape[-1], omega0, p)
    # C order keeps each field contiguous, whatever the curves' layout.
    rows = np.fft.ifft(np.multiply(np.fft.fft(curve)[..., None, :], bank,
                                   order="C"), axis=-1)
    rows /= norm
    return Spectrum(matrix=rows, grid=grid, omega0=omega0,
                    normalization=normalization)


def _gaussian_row_kernel(sigma, n):
    """Unit-sum circular Gaussian of standard deviation ``sigma`` samples."""
    signed = ((np.arange(n) + n // 2) % n) - n // 2
    k = np.exp(-0.5 * (signed / float(sigma)) ** 2)
    return k / k.sum()


def _boxcar_width(voices, n_scales):
    """Nearest odd count to 0.6 * voices, at least 1, capped to the grid."""
    w = int(np.floor(0.6 * voices / 2)) * 2 + 1
    if w > n_scales:
        w = n_scales if n_scales % 2 == 1 else n_scales - 1
    return max(w, 1)


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
    width = _boxcar_width(grid.voices, j_s)
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
