"""The LP model of a row of sorted LSFs, as the tests rebuild it.

The codec never forms A's coefficients from LSFs: ``lp.lsf_envelope`` takes
|A| on the unit circle straight from the LSFs.  The tests that need the model
itself, or |A| at another precision, take it from here.
"""

import numpy as np


def ref_lsf_to_lpc(lsf):
    """a_1..a_p of A = (P + Q) / 2 from one row of sorted LSFs: P grows from 1 + z^-1 over the
    even-indexed LSFs and Q from 1 - z^-1 over the odd-indexed ones, by np.convolve."""
    def expand(angles, edge_sign):
        poly = np.array([1.0, edge_sign])
        for w in angles:
            poly = np.convolve(poly, [1.0, -2.0 * np.cos(w), 1.0])
        return poly

    a = 0.5 * (expand(lsf[0::2], 1.0) + expand(lsf[1::2], -1.0))
    return a[1:lsf.size + 1]


def ref_lsf_magnitude(lsf, n_bins, dtype=float):
    """|A| of one row of sorted LSFs on the one-sided bin grid of a 2(n_bins-1) DFT, evaluated in
    ``dtype`` as hypot(cos(w/2) prod 2(cos w - cos w_i) over the even-indexed LSFs, sin(w/2) prod
    over the odd-indexed ones), one factor at a time; the grid and the LSFs are float64 values."""
    omega = (2.0 * np.pi * np.arange(n_bins) / (2 * (n_bins - 1))).astype(dtype)
    x, p, q = np.cos(omega), np.cos(omega / 2), np.sin(omega / 2)
    for i, cos_w in enumerate(np.cos(np.asarray(lsf, dtype=float).astype(dtype))):
        if i % 2:
            q = q * (2 * (x - cos_w))
        else:
            p = p * (2 * (x - cos_w))
    return np.hypot(p, q)
