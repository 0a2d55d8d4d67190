"""Small numeric helpers shared across the codec."""

import numpy as np


def round_half_up(x):
    """Round to nearest integer with ties away from the floor (0.5 -> 1).

    Works on scalars and arrays; quantizer index maps rely on this exact
    tie-breaking rule, so plain ``round``/``np.round`` (banker's rounding)
    must not be used in their place.  A few ulps of slack keep ties that are
    only broken by floating-point representation error on the intended side.
    """
    x = np.asarray(x, dtype=float)
    return np.floor(x + 0.5 + 8.0 * np.spacing(np.abs(x) + 0.5)).astype(int)


def wrap_phase(theta):
    """Wrap angles into [-pi, pi)."""
    theta = np.asarray(theta, dtype=float)
    return theta - 2.0 * np.pi * np.floor((theta + np.pi) / (2.0 * np.pi))
