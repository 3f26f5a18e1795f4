"""Periodized orthonormal discrete wavelet transform and scale-energy features.

The forward transform runs Mallat's pyramid on curves of dyadic length
``N = 2**J``: each stage convolves with the scaling (lowpass) and wavelet
(highpass) filter pair under periodic wraparound and keeps every second
output, halving the block until a single approximation coefficient
remains. The transform is orthonormal, so energy is conserved exactly
(Parseval) and the detail coefficients respond to an affine map
``a + b*z(t)`` of a curve by a pure rescaling ``b * d``.

Scale-energy features summarize a curve by the energy its details carry
per scale: absolute contributions, relative (unit-sum) contributions, and
the logit of the relative ones. Relative contributions are invariant to
amplitude scaling, and their logit places the features on an unbounded
scale better suited to Euclidean clustering.
"""

from dataclasses import dataclass

import numpy as np

from .clustering import _feature_rows
from .data import FunctionalDataset
from .errors import DegenerateInputError

#: Clamp for relative contributions before the logit, keeping it finite.
LOGIT_EPS = 1e-6

#: A curve is constant when its detail energy is at most this share of
#: its total energy, i.e. its detail RMS is within 1e-12 of its own.
CONSTANT_ENERGY_RTOL = 1e-24

# Scaling (lowpass) filter taps. The symmlet-6 taps solve the defining
# system -- even-shift orthonormality plus six vanishing moments for the
# quadrature-mirror highpass -- to within 7e-14; sum h = sqrt(2) and
# sum h^2 = 1 hold to machine precision.
_HAAR_H = np.array([1.0, 1.0]) / np.sqrt(2.0)
_SYMMLET6_H = np.array(
    [
        0.015404109327044991,
        0.0034907120842218196,
        -0.11799011114852118,
        -0.04831174258569601,
        0.4910559419279785,
        0.78764114102865,
        0.3379294217281611,
        -0.07263752278637708,
        -0.021060292512369704,
        0.044724901770781054,
        0.0017677118642537893,
        -0.0078007083250322675,
    ]
)


@dataclass(frozen=True)
class WaveletFilter:
    """An orthonormal filter pair: scaling taps ``h`` and wavelet taps ``g``."""

    name: str
    lowpass: np.ndarray
    highpass: np.ndarray


def get_filter(name):
    """Return the named filter pair, "haar" or "symmlet6" (exactly these
    spellings; any other name is a ValueError).

    The highpass is the quadrature mirror of the lowpass:
    ``g[k] = (-1)**k * h[L-1-k]``.
    """
    if name == "haar":
        h = _HAAR_H
    elif name == "symmlet6":
        h = _SYMMLET6_H
    else:
        raise ValueError(f"unknown wavelet filter: {name!r}")
    signs = (-1.0) ** np.arange(h.size)
    g = signs * h[::-1]
    return WaveletFilter(name=name, lowpass=h, highpass=g)


def _analysis_step(rows, taps):
    """One periodized filter-and-decimate step applied to every row.

    out[:, k] = sum_l taps[l] * rows[:, (2k + l) mod n]  for k < n // 2.
    """
    n = rows.shape[1]
    half = n // 2
    idx = (2 * np.arange(half)[:, None] + np.arange(taps.size)[None, :]) % n
    return rows[:, idx] @ taps


@dataclass
class WaveletDecomposition:
    """Pyramid output for a batch of curves.

    ``approx`` holds the single coarsest scaling coefficient per curve.
    ``details[j]`` holds the detail coefficients of scale ``j`` with
    ``2**j`` columns; ``j = 0`` is the coarsest scale and ``j = J - 1``
    the finest. For a constant curve ``z = c`` of length ``2**J`` all
    details vanish and ``approx = c * 2**(J/2)``.
    """

    approx: np.ndarray
    details: list
    filter: WaveletFilter

    @property
    def levels(self):
        return len(self.details)

    @property
    def n_curves(self):
        return self.approx.size

    def coefficient_vector(self):
        """Concatenate ``[approx, details[0], ..., details[J-1]]`` per curve."""
        blocks = [self.approx[:, None]] + list(self.details)
        return np.hstack(blocks)


def dwt_forward(curves, wavelet="symmlet6"):
    """Full periodized pyramid down to one approximation coefficient.

    Parameters
    ----------
    curves : array_like
        One curve, or an (n, N) batch of curves, with N a power of two.
    wavelet : str
    """
    filt = get_filter(wavelet)
    rows = FunctionalDataset(curves).curves
    n_samples = rows.shape[1]
    J = int(n_samples).bit_length() - 1
    if 2 ** J != n_samples:
        raise ValueError(
            f"curve length must be a power of two >= 2, got {n_samples}"
        )
    details = [None] * J
    approx = rows
    for j in range(J - 1, -1, -1):
        details[j] = _analysis_step(approx, filt.highpass)
        approx = _analysis_step(approx, filt.lowpass)
    return WaveletDecomposition(approx=approx[:, 0], details=details, filter=filt)


def energy_contributions(decomposition):
    """Absolute scale energies: ``cont[:, j] = ||d_j||**2`` per curve.

    The approximation coefficient is excluded; only detail energy counts.
    """
    cont = np.empty((decomposition.n_curves, decomposition.levels))
    for j, d in enumerate(decomposition.details):
        cont[:, j] = np.einsum("ij,ij->i", d, d)
    return cont


def relative_contributions(ac, energy):
    """Relative and logit-relative contributions from absolute ones.

    Returns the pair ``(rc, logit_rc)`` where ``rc`` normalizes each
    curve's contributions to unit sum and ``logit_rc`` maps them through
    ``log(p / (1 - p))`` after clamping ``p`` into
    ``[LOGIT_EPS, 1 - LOGIT_EPS]`` so the features stay finite.

    ``energy`` is each curve's total energy ``||x||**2``; by Parseval it
    is the detail energy plus the squared approximation coefficient.
    The constant-curve rule below needs it.

    Raises
    ------
    DegenerateInputError
        If a curve's detail energy is at most ``CONSTANT_ENERGY_RTOL``
        (1e-24) times its total energy: a constant curve, whose relative
        energy distribution is undefined. The details of a constant
        curve are roundoff, not exact zeros; they carry at most about
        1e-31 of its energy for lengths 2 to 8192 with either filter,
        while a ripple of 1e-6 of the level carries about 1e-12.
    """
    ac = _feature_rows(ac)
    total = ac.sum(axis=1)
    constant = total <= CONSTANT_ENERGY_RTOL * np.asarray(energy)
    if np.any(constant):
        bad = int(np.flatnonzero(constant)[0])
        raise DegenerateInputError(
            f"curve {bad} is constant (detail energy {total[bad]:.3g}); "
            "relative contributions are undefined for constant curves"
        )
    rc = ac / total[:, None]
    p = np.clip(rc, LOGIT_EPS, 1.0 - LOGIT_EPS)
    return rc, np.log(p / (1.0 - p))


@dataclass
class FeatureMatrix:
    """An (n_curves, J) matrix of per-scale features plus its provenance.

    ``kind`` is one of ``"AC"`` (absolute contributions), ``"RC"``
    (relative) or ``"logitRC"``. Column ``j`` holds pyramid scale ``j``
    (0 = coarsest).
    """

    values: np.ndarray
    kind: str
    wavelet: str

    @property
    def n_curves(self):
        return self.values.shape[0]

    @property
    def n_scales(self):
        return self.values.shape[1]

    def column_names(self):
        """``s{j}_L{J - j}`` per column: its pyramid scale ``j`` and the
        complementary resolution level ``J - j``, which counts scales
        from the finest side."""
        return [f"s{j}_L{self.n_scales - j}" for j in range(self.n_scales)]


#: Each feature kind's two spellings: canonical, then the CLI's.
_KIND_ALIASES = {
    "AC": ("AC", "ac"),
    "RC": ("RC", "rc"),
    "logitRC": ("logitRC", "logit-rc"),
}


def canonical_kind(kind):
    """Map a feature-kind spelling, canonical ("AC", "RC", "logitRC") or
    the CLI's ("ac", "rc", "logit-rc"), to its canonical name; any other
    spelling is a ValueError."""
    for canonical, spellings in _KIND_ALIASES.items():
        if kind in spellings:
            return canonical
    raise ValueError(f"unknown feature kind: {kind!r}")


def feature_matrix(dataset_or_curves, kind="logitRC", wavelet="symmlet6"):
    """Compute scale-energy features for every curve of a dataset.

    Parameters
    ----------
    dataset_or_curves : FunctionalDataset or array_like
    kind : {"AC", "RC", "logitRC"}
        Which representation to return. AC keeps raw scale energies, RC
        normalizes them to unit sum per curve, and logitRC (default) maps
        the relative values through the logit.
    wavelet : str
    """
    kind = canonical_kind(kind)
    curves = getattr(dataset_or_curves, "curves", dataset_or_curves)
    dec = dwt_forward(curves, wavelet=wavelet)
    cont = energy_contributions(dec)
    if kind == "AC":
        values = cont
    else:
        rc, logit_rc = relative_contributions(
            cont, energy=cont.sum(axis=1) + dec.approx ** 2)
        values = rc if kind == "RC" else logit_rc
    return FeatureMatrix(values=values, kind=kind, wavelet=dec.filter.name)
