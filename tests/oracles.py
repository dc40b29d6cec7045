"""Reference implementations the package is checked against.

Each is an independent, slow or exhaustive restatement of something the
package computes another way; none of them is on a path the package
runs.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from risopt.channels import LosSpec
from risopt.manifold import _objective
from risopt.spectral import SvdBundle


def brute_force_value(b) -> float:
    """Exhaustive 1-bit optimum max |b^T phi| over all 2^N sign patterns,
    the reference sign_align is checked against (short vectors only)."""
    b = np.asarray(b, dtype=complex).ravel()
    return float(max(abs(b @ np.array(s))
                     for s in product((1.0, -1.0), repeat=b.size)))


def water_level_bisect(gains, weights, budget: float) -> float:
    """Reference for capacity._water_level on gain and weight arrays: bisection
    on the level s = 1/eta of the increasing budget residual, independent
    of its active-set logic."""
    lo, hi = 0.0, 1e9
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if float(np.sum(weights * np.clip(mid / weights - 1.0 / gains, 0.0, None))) > budget:
            hi = mid
        else:
            lo = mid
    return 1.0 / lo


def finite_difference_error(objective: str, h_r_herm: np.ndarray,
                            h_t: np.ndarray, phi,
                            snr: float | None = None) -> float:
    """Gradient oracle: largest entrywise gap between the Euclidean gradient
    and central differences of the value along the real and imaginary
    axes (combined as d/dRe + j d/dIm, the g = 2 df/d(conj phi)
    convention), relative to the largest gradient entry."""
    eps = 1e-6
    phi = np.asarray(phi, dtype=complex).ravel()
    evaluate, grad = _objective(objective, h_r_herm, h_t, snr)
    g = grad(phi, evaluate(phi)[1])
    fd = np.zeros(phi.size, dtype=complex)
    for i in range(phi.size):
        for unit in (1.0, 1.0j):
            e = np.zeros(phi.size, dtype=complex)
            e[i] = unit * eps
            d = (evaluate(phi + e)[0] - evaluate(phi - e)[0]) / (2.0 * eps)
            fd[i] += d if unit == 1.0 else 1.0j * d
    return float(np.max(np.abs(fd - g)) / max(np.max(np.abs(g)), 1e-12))


def gain_expansion(bundle_r: SvdBundle, bundle_t: SvdBundle, phi) -> float:
    """Diagnostic evaluation of the gain as the double sum over SVD terms.

    Equals channel_gain of the cascade (same phi) up to roundoff; kept as
    an independent oracle, not used on the production path.
    """
    v = np.asarray(phi).ravel()
    d_r = bundle_r.singular_values
    d_t = bundle_t.singular_values
    # rows: v_R,i^H in bundle_r.right_h; columns: u_T,j in bundle_t.left
    zr = bundle_r.right_h.T * v[:, None]             # conj(v_R,i) * phi
    inner = zr.T @ bundle_t.left                     # (i, j) -> (conj(v_i) * u_j)^T phi
    return float(np.sum((d_r[:, None] ** 2) * (d_t[None, :] ** 2)
                        * np.abs(inner) ** 2))


def los_part(k_factor: float, los: LosSpec) -> np.ndarray:
    """The weighted deterministic component sqrt(K/(K+1)) * los of a
    channel sampled with linear K-factor k_factor from los."""
    w = 1.0 if math.isinf(k_factor) else math.sqrt(k_factor / (k_factor + 1.0))
    return w * los.los_matrix()


def scattered_part(matrix: np.ndarray, k_factor: float, los: LosSpec) -> np.ndarray:
    """The weighted random component of a channel matrix sampled with
    k_factor from los: the matrix minus los_part."""
    return matrix - los_part(k_factor, los)
