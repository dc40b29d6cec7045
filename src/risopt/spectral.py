"""SVD bundling and closed-form asymptotic singular-value prediction.

For a Ricean n_ris x n_array channel with K-factor K, the squared
singular values converge (n_ris large, n_array fixed) to

    d_1^2   -> K/(K+1) * n_ris * n_array          (deterministic spike)
    d_i^2   -> (n_ris + 2 r sqrt(n_ris n_array)) / (K+1),  i >= 2,

where r runs over the roots, mapped to the variable
x = (y - n_ris) / (2 sqrt(n_ris n_array)), of the generalized Laguerre
polynomial whose zeros locate the bulk eigenvalues of the Gaussian part.
Entry 2 takes the largest mapped root, entry 3 the next, and so on; the
smallest retained root goes unused.  In the tall regime n_ris >> n_array
the mapped roots fall inside [-1, 1] (semicircle limit), which is what
bounds the bulk entries away from the spike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import _los_weight
from .geometry import _check_count


@dataclass(frozen=True)
class SvdBundle:
    """Thin SVD h = left @ diag(singular_values) @ right_h of an m x n
    channel, k = min(m, n): the columns of left (m x k) are u_i and the
    rows of right_h (k x n) are v_i^H, as LAPACK returns V^H."""

    left: np.ndarray
    singular_values: np.ndarray
    right_h: np.ndarray


@dataclass(frozen=True)
class AsymptoticSpectrum:
    """Predicted squared singular values for an (n_ris, n_array) channel.

    bulk_regime flags a K-factor below 1/n_array, where the spike formula
    for entry 1 is not trusted and the bulk value is reported instead.
    Their square roots are the singular values of statistical-CSI W-SA:
    allocate_sca and capacity_lower_bound read them as they read an
    SvdBundle's.
    """

    predicted_sq_singular_values: np.ndarray
    bulk_regime: bool


def svd_bundle(h: np.ndarray) -> SvdBundle:
    """Thin dense SVD with descending singular values; V^H is kept as
    LAPACK returns it, with no conjugate-transposed copy."""
    h = np.asarray(h, dtype=complex)
    if not np.isfinite(h).all():
        raise ValueError("non-finite channel")
    u, s, vh = np.linalg.svd(h, full_matrices=False)
    return SvdBundle(u, s, vh)


def laguerre_top_roots(n_big: int, n_small: int) -> np.ndarray:
    """Mapped nonzero Laguerre roots, ascending, length n_small.

    Returns the images, under x = (y - n_big)/(2 sqrt(n_big n_small)),
    of the n_small nonzero roots in y of the degree-n_big generalized
    Laguerre polynomial with parameter n_small - n_big.  The remaining
    n_big - n_small roots sit degenerate at y = 0 and are dropped.
    """
    _check_count("n_big", n_big)
    _check_count("n_small", n_small)
    if n_small > n_big:
        raise ValueError("n_small must not exceed n_big")
    # Via L_n^{-m}(y) = (-y)^m ((n-m)!/n!) L_{n-m}^{m}(y), m = n_big - n_small,
    # the nonzero roots are the n_small roots of L_{n_small}^{n_big - n_small}:
    # the eigenvalues of the symmetric tridiagonal Jacobi matrix of the
    # generalized-Laguerre recurrence (Golub-Welsch, nodes only), of which
    # eigvalsh reads the lower triangle.
    alpha = n_big - n_small
    k = np.arange(1, n_small)
    jacobi = (np.diag(2.0 * np.arange(n_small) + alpha + 1.0)
              + np.diag(np.sqrt(k * (k + alpha)), -1))
    y = np.linalg.eigvalsh(jacobi)
    return (y - n_big) / (2.0 * math.sqrt(n_big * n_small))


def asymptotic_spectrum(n_ris: int, n_array: int, k_factor: float) -> AsymptoticSpectrum:
    """Closed-form prediction of the squared singular values.

    Entry 1 is the deterministic spike K/(K+1)*n_ris*n_array; entries
    2..n_array take the bulk values built from the mapped Laguerre
    roots, largest root first.  When k_factor < 1/n_array the spike
    has not separated from the bulk, so entry 1 reports the bulk edge
    value instead and the result is flagged bulk_regime.
    """
    _check_count("n_ris", n_ris)
    _check_count("n_array", n_array)
    spike = _los_weight(k_factor) * n_ris * n_array
    roots = laguerre_top_roots(n_ris, n_array)
    scale = 2.0 * math.sqrt(n_ris * n_array)
    if math.isinf(k_factor):
        bulk = np.zeros(n_array)
    else:
        bulk = (n_ris + scale * roots) / (k_factor + 1.0)
    pred = np.empty(n_array)
    bulk_regime = k_factor < 1.0 / n_array
    # entry i (i >= 2) uses the (i-1)-th largest mapped root
    if n_array > 1:
        pred[1:] = bulk[::-1][: n_array - 1]
    pred[0] = bulk[-1] if bulk_regime else spike
    return AsymptoticSpectrum(pred, bulk_regime)
