"""The pitch tracker's hot kernel: the normalized difference function.

The squared difference of a frame and its lag-``tau`` copy is computed in
the form of YIN's eq. 7 (de Cheveigne & Kawahara, JASA 2002)::

    d(tau) = e_0 + e_tau - 2 r(tau)

where ``e_0`` and ``e_tau`` are the energies of the ``span`` samples at
lags 0 and ``tau`` (one cumulative sum of squares gives both) and ``r`` is
their cross-correlation (one batched real-FFT cross-correlation per
call, so the cost per frame is O(n log n) rather than O(span * tau_max)).
The FFTs are numpy's, at the 2*3*5-smooth sizes ``next_fast_len`` picks.

Block contract: every row is computed on its own, with operations that do
not depend on how many rows the call holds, so a frame's output is
bit-identical whether it is passed alone or inside a block of any size.
Callers pass blocks of frames to bound the memory of the spectra.

Memory: a call holds at most two complex spectra of its block, and only
until their product is formed; the lag-0 spectrum goes once it is
multiplied in and the product once it is inverted.  The squares for the
energies are written over the call's offset-free copy of the frames, so
after the FFTs the call holds that copy, the inverse transform (the
output is a view of it), the cumulative sums and the energies.

Cancellation: ``e_0 + e_tau - 2 r`` leaves rounding residue of the order
of the energies where ``d`` is (nearly) zero, and the normalization turns
that residue into dips: a DC stretch would read as voiced.  Two steps keep
the plain sum's exact zeros.  Each frame's first sample is taken off
first (``d`` is blind to a constant offset), so a frame that is silent or
at a DC offset up to some lag is exact zeros there.  Then any ``d`` within
``CANCELLATION_FLOOR`` of ``e_0 + e_tau`` is set to 0, as at an exact
period.
"""

import numpy as np

# Relative to ``e_0 + e_tau``: well above the FFT's rounding residue (a
# few 1e-16) and far below any difference a real frame shows.
CANCELLATION_FLOOR = 1e-12


def next_fast_len(n):
    """Smallest 2*3*5-smooth integer >= ``n`` (``n >= 1``), as
    ``scipy.fft.next_fast_len(n, real=True)`` returns."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two times p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def cumulative_mean_difference(frames, tau_max):
    """Cumulative-mean-normalized difference function, one row per frame.

    ``d[t, tau] = sum_j (x[t, j] - x[t, j + tau])**2`` over ``j < span``,
    where ``span`` is the frames' width less ``tau_max``, each lag
    normalized by the running mean of ``d`` over lags ``1..tau``.  Lag 0 is
    fixed at 1.  A frame that is silent (or constant) up to some lag keeps
    the neutral value 1 there.  ``frames`` may be a strided view.
    """
    frames = np.asarray(frames, dtype=np.float64)
    frames = frames - frames[:, :1]
    width = frames.shape[1]
    span = width - tau_max
    n_fft = next_fast_len(width)

    # For j < span and tau <= tau_max, j + tau < width <= n_fft: the
    # circular correlation of the zero-padded rows is the linear one.
    spec = np.fft.rfft(frames, n_fft, axis=1)
    base = np.fft.rfft(frames[:, :span], n_fft, axis=1)
    np.conjugate(base, out=base)
    spec *= base
    del base
    d = np.fft.irfft(spec, n_fft, axis=1)[:, :tau_max + 1]
    del spec

    # frames is this call's own offset-free copy: square it in place.
    cum_sq = np.empty((frames.shape[0], width + 1))
    cum_sq[:, 0] = 0.0
    np.cumsum(np.square(frames, out=frames), axis=1, out=cum_sq[:, 1:])
    energy = cum_sq[:, span:span + tau_max + 1] - cum_sq[:, :tau_max + 1]
    energy += cum_sq[:, span, None]
    d *= -2.0
    d += energy
    energy *= CANCELLATION_FLOOR
    d[d <= energy] = 0.0

    d[:, 0] = 1.0
    norm = d[:, 1:]
    cum = np.cumsum(norm, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        norm *= np.arange(1, tau_max + 1, dtype=np.float64)
        norm /= cum
    norm[~np.isfinite(norm)] = 1.0
    return d
