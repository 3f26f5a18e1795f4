"""Seeded inputs the benchmark hands to the program.

``demand_record`` builds a synthetic half-hourly electricity demand record:
each day is a weekday shape (sharp morning and evening peaks on a midday
shoulder) or a weekend shape (a broad late-morning hump and a softer
evening), scaled by a seasonal level (high in winter), a per-day amplitude
and AR(1) multiplicative noise. The day types are the reference labels
the partitions are scored against.
"""

import numpy as np
from scipy.signal import lfilter

#: Samples per day (half-hourly).
DAY = 48


def _bump(hours, center, width):
    return np.exp(-0.5 * ((hours - center) / width) ** 2)


def demand_record(seed, n_days, start_day=None):
    """``(record, truth)``: ``n_days * 48`` values and 1 for weekend days.

    ``start_day`` is the day of the year the record starts on; by default
    it is drawn from the seed. The weekday of the first day is always
    drawn from the seed.
    """
    rng = np.random.default_rng([int(seed), 48])
    drawn_start = int(rng.integers(365))
    start_day = drawn_start if start_day is None else int(start_day)
    first_weekday = int(rng.integers(7))
    hours = (np.arange(DAY) + 0.5) / 2.0
    weekday = (0.55 + 0.45 * _bump(hours, 8.0, 1.2)
               + 0.35 * _bump(hours, 13.0, 2.5)
               + 0.6 * _bump(hours, 19.0, 1.2))
    weekend = (0.55 + 0.5 * _bump(hours, 11.5, 3.5)
               + 0.45 * _bump(hours, 19.5, 2.5))
    days = np.arange(n_days)
    truth = ((first_weekday + days) % 7 >= 5).astype(int)
    level = 1.0 + 0.25 * np.cos(2 * np.pi * ((start_day + days) % 365 - 15)
                                / 365.0)
    amplitude = rng.normal(1.0, 0.05, size=n_days)
    noise = lfilter([1.0], [1.0, -0.8],
                    rng.normal(0.0, 0.03, size=n_days * DAY))
    shape = np.where(truth[:, None] == 1, weekend, weekday)
    record = 100.0 * ((level * amplitude)[:, None] * shape).ravel() \
        * (1.0 + noise)
    return record, truth


def write_column(path, values):
    """One value per line, in the shortest text that round-trips."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(f"{float(v)!r}\n" for v in values)


def write_rows(path, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(",".join(repr(float(v)) for v in row) + "\n"
                          for row in rows)
