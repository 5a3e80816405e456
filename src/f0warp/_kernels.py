"""The pitch tracker's hot kernel: the normalized difference function."""

import numpy as np


def cumulative_mean_difference(frames, tau_max, span):
    """Cumulative-mean-normalized difference function, one row per frame.

    ``d[t, tau] = sum_j (x[t, j] - x[t, j + tau])**2`` over ``j < span``,
    each lag normalized by the running mean of ``d`` over lags ``1..tau``.
    Lag 0 is fixed at 1.  A frame that is silent up to some lag keeps the
    neutral value 1 there.
    """
    frames = np.ascontiguousarray(frames, dtype=np.float64)
    n_frames = frames.shape[0]
    d = np.empty((n_frames, tau_max + 1))
    d[:, 0] = 0.0
    base = frames[:, :span]
    for tau in range(1, tau_max + 1):
        diff = base - frames[:, tau:tau + span]
        d[:, tau] = np.einsum("ij,ij->i", diff, diff)
    cum = np.cumsum(d[:, 1:], axis=1)
    taus = np.arange(1, tau_max + 1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = d[:, 1:] * taus / cum
    norm[~np.isfinite(norm)] = 1.0
    out = np.ones((n_frames, tau_max + 1))
    out[:, 1:] = norm
    return out
