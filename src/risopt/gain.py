"""Channel-gain maximization via sign alignment on the LoS components.

The squared Frobenius norm of the cascade separates, through the SVDs of
both channels, into terms d_R,i^2 d_T,j^2 |(conj(v_R,i) * u_T,j)^T phi|^2.
For strong K-factors the (1,1) term dominates and its singular vectors
converge to the LoS steering vectors, so a single sign alignment on
conj(a_ris_rx) * a_ris_tx configures the RIS with statistical CSI only.
"""

from __future__ import annotations

import math

import numpy as np

from .alignment import sign_align
from .channels import LosSpec


def channel_gain(h_tilde: np.ndarray) -> float:
    """Squared Frobenius norm of the end-to-end channel."""
    h = np.asarray(h_tilde)
    return float(np.sum(np.abs(h) ** 2))


def configure_gain_los(los_t: LosSpec, los_r: LosSpec) -> np.ndarray:
    """Sign-align the product of RIS-side LoS steering vectors: the +/-1
    configuration.

    los_t describes the transmitter-to-RIS path, los_r the RIS-to-
    receiver path.  The target vector is conj(a_ris of los_r) * a_ris of
    los_t; under pure LoS the resulting 1-bit gain is at least
    0.25 * n_r * n_t * n_ris^2.  It reads the steering vectors that the
    specs cache, so once a channel was sampled from each spec it builds
    none.
    """
    if los_t.ris_geometry != los_r.ris_geometry:
        raise ValueError("LoS specs must share the RIS geometry")
    b = los_r.ris_steering.conj() * los_t.ris_steering
    return sign_align(b)


def gain_lower_bound(n_ris: int, n_t: int, n_r: int,
                     k_t: float, k_r: float) -> float:
    """Asymptotic lower bound 0.25 * K-weights * n_ris^2 * n_t * n_r.

    k_t and k_r are linear K-factors; each contributes K/(1+K), with
    +inf giving weight 1.  Rayleigh on either side makes the bound 0.
    """
    def w(k: float) -> float:
        if math.isinf(k):
            return 1.0
        if math.isnan(k) or k < 0:
            raise ValueError("k factors must be non-negative")
        return k / (1.0 + k)

    return 0.25 * w(k_t) * w(k_r) * float(n_ris) ** 2 * n_t * n_r
