"""Read a nonstationary curve through its Morlet time-scale spectrum.

A curve that switches oscillation speed halfway through has no single
spectral signature; the continuous transform localizes energy in time and
scale simultaneously. Smoothed wavelet coherence then quantifies, per
time-scale cell, how strongly two curves co-oscillate: near 1 for a curve
and its slightly lagged copy, small for independent noise.

Run:  python demos/03_time_scale_spectra.py
"""

import numpy as np

from waveclust import cwt_morlet, make_scale_grid, wavelet_coherence

N = 512
rng = np.random.default_rng(3)
t = np.arange(N)

# Fast oscillation in the first half, four times slower in the second.
curve = np.where(t < N // 2,
                 np.sin(2 * np.pi * t / 16),
                 np.sin(2 * np.pi * t / 64)) + 0.2 * rng.normal(size=N)

grid = make_scale_grid(o_min=1, o_max=6, voices=8)
print(f"scale grid: {grid.n_scales} scales, 2^{1}..2^{6}, "
      f"{grid.voices} voices per octave")

spectrum = cwt_morlet(curve, grid=grid)
power = np.abs(spectrum.matrix) ** 2

print("\ndominant scale by time window (Morlet, omega0 = 6):")
for name, sl in (("first half", slice(0, N // 2)),
                 ("second half", slice(N // 2, N))):
    profile = power[:, sl].mean(axis=1)
    j = int(np.argmax(profile))
    # For omega0 = 6 the Fourier period is close to 1.03 * scale.
    period = 4 * np.pi * grid.scales[j] / (6 + np.sqrt(2 + 6 ** 2))
    print(f"  {name:12s} scale {grid.scales[j]:6.2f} "
          f"(~period {period:5.1f} samples)")
print("  (true periods: 16 then 64)")

# Coherence: lagged copy versus independent noise.
lagged = np.roll(curve, 5)
noise = rng.normal(size=N)
w_curve = cwt_morlet(curve, grid=grid)
w_lag = cwt_morlet(lagged, grid=grid)
w_noise = cwt_morlet(noise, grid=grid)

field = wavelet_coherence(w_curve, w_lag)
print(f"\ncoherence with the 5-sample lagged copy: "
      f"mean {field.values.mean():.3f}, all entries in "
      f"[{field.values.min():.3f}, {field.values.max():.3f}]")

field_noise = wavelet_coherence(w_curve, w_noise)
print(f"coherence with independent noise:        "
      f"mean {field_noise.values.mean():.3f}")

print("\nper-scale time-averaged coherence (lagged copy), coarse to fine:")
profile = (field.values ** 2).mean(axis=1)[::-1]
scales = grid.scales[::-1]
for j in range(0, grid.n_scales, 8):
    bar = "#" * int(round(40 * profile[j]))
    print(f"  scale {scales[j]:6.2f}  {profile[j]:5.3f}  {bar}")
