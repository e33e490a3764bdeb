"""Loop versions of the plateau helpers in ``cutjump.reconstruct``.

The package finds flat runs from the edges of the padded mask and bins the
energy envelope with ``np.maximum.reduceat``; these are the step-by-step
and ``np.array_split`` forms they replaced, kept as oracles.
"""

import numpy as np


def flat_runs_loop(growth, theta):
    """Maximal runs [start, stop) of ``growth <= theta``, one step at a time."""
    runs = []
    start = None
    for m, flat in enumerate(growth <= theta):
        if flat and start is None:
            start = m
        if not flat and start is not None:
            runs.append((start, m))
            start = None
    if start is not None:
        runs.append((start, len(growth)))
    return runs


def energy_decay_exponent_loop(c_sq, lo, hi):
    """Log-log slope of the binned |c_n|^2 maxima over [lo, hi], bin by bin."""
    if hi - lo < 4:
        return 0.0
    idx = np.arange(lo, hi + 1)
    seg = c_sq[lo : hi + 1]
    n_bins = max(3, len(seg) // 5)
    mids, tops = [], []
    for chunk_i, chunk_m in zip(np.array_split(seg, n_bins), np.array_split(idx, n_bins)):
        top = chunk_i.max()
        if top > 0.0:
            tops.append(top)
            mids.append(chunk_m.mean())
    if len(tops) < 3:
        return 0.0
    slope = np.polyfit(np.log(mids), np.log(tops), 1)[0]
    return float(-slope)
