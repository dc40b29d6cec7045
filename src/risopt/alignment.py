"""1-bit sign alignment of a complex vector.

The kernel behind every RIS configuration in this package: given a target
vector b, pick phi in {+1, -1}^N to make |b^T phi| large.  Trying the two
patterns sign(Re b) and sign(Im b) and keeping the better one is enough to
reach at least half of sum(|b_n|), hence at least a quarter of the
continuous optimum once squared.
"""

from __future__ import annotations

import numpy as np


def _signs(x: np.ndarray) -> np.ndarray:
    # the package's one sign tie, sign(0) := +1, which keeps outputs
    # deterministic; complex so that b @ signs needs no float-to-complex cast
    return np.where(x >= 0.0, 1.0 + 0.0j, -1.0 + 0.0j)


def sign_align(b) -> np.ndarray:
    """Best of the two 1-bit patterns sign(Re b) and sign(Im b).

    Parameters
    ----------
    b : array_like of complex
        Target vector.

    Returns
    -------
    numpy.ndarray
        The winning pattern as +/-1 floats, sign(Re b) on a tie.
        Guarantee: abs(b @ phi) >= 0.5 * sum(|b_n|).

    Raises
    ------
    ValueError
        If the vector is empty, or not finite.  With +/-1 weights
        any inf or nan entry makes a pattern sum non-finite, so the two
        sums are checked instead of every entry (a finite vector whose
        sum overflows is refused too).
    """
    bm = np.asarray(b, dtype=complex).ravel()
    if bm.size == 0:
        raise ValueError("empty vector")
    phi_re = _signs(bm.real)
    phi_im = _signs(bm.imag)
    with np.errstate(invalid="ignore", over="ignore"):
        sum_re = bm @ phi_re
        sum_im = bm @ phi_im
    if not (np.isfinite(sum_re) and np.isfinite(sum_im)):
        raise ValueError("input must be finite")
    return (phi_re if abs(sum_re) >= abs(sum_im) else phi_im).real.copy()
