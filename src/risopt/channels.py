"""Ricean MIMO channel sampling and the RIS-parametrized cascade.

Channels between an array of n_array elements and the RIS of n_ris
elements are stored as n_ris x n_array matrices (RIS rows).  The
receive-side channel enters the cascade Hermitian-transposed, so the
end-to-end matrix is h_r_herm @ diag(phi) @ h_t with shapes
(n_r x n_s) (n_s x n_s) (n_s x n_t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import AnglePair, UpaGeometry, upa_steering


@dataclass(frozen=True)
class LosSpec:
    """Deterministic-path description between one array and the RIS.

    Each steering vector, ris_steering (n_ris) and array_steering
    (n_array), is built once per spec and kept read-only, so sampling
    and the LoS configuration read the same array.  The cache
    lives in the instance __dict__, outside the four fields that make
    equality, hash and repr.
    """

    ris_geometry: UpaGeometry
    array_geometry: UpaGeometry
    ris_side_angles: AnglePair
    array_side_angles: AnglePair

    @cached_property
    def ris_steering(self) -> np.ndarray:
        return _read_only(upa_steering(self.ris_geometry, self.ris_side_angles))

    @cached_property
    def array_steering(self) -> np.ndarray:
        return _read_only(upa_steering(self.array_geometry,
                                       self.array_side_angles))

    def los_matrix(self) -> np.ndarray:
        """Rank-1 deterministic component a_ris a_array^H (n_ris x n_array),
        a fresh writable array on every call."""
        return np.outer(self.ris_steering, self.array_steering.conj())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """I.i.d. circular complex Gaussian entries, zero mean, unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _los_weight(k_factor: float) -> float:
    """The LoS share K/(K+1) of a linear K-factor, 1 at +inf; the
    package's one check of a K-factor refuses NaN and a negative K."""
    if math.isnan(k_factor) or k_factor < 0:
        raise ValueError(f"k_factor must be non-negative; got {k_factor!r}")
    return 1.0 if math.isinf(k_factor) else k_factor / (k_factor + 1.0)


def sample_ricean(k_factor: float, los: LosSpec,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw one Ricean channel realization, an n_ris x n_array matrix,
    the sizes of los's two geometries.

    matrix = sqrt(K/(K+1)) * los + sqrt(1/(K+1)) * B with B i.i.d.
    circular complex Gaussian of unit variance, so E[tr(H H^H)] equals
    n_ris * n_array for every K.  k_factor is linear (not dB) and must
    be >= 0; +inf returns the pure deterministic matrix with no Gaussian
    draw (identical rng state consumption is not preserved in that case).
    """
    w_los = _los_weight(k_factor)
    los_mat = los.los_matrix()
    if math.isinf(k_factor):
        return los_mat
    # The textbook w_los * los + w_sc * complex_gaussian(rng, shape),
    # built in the LoS buffer that np.outer allocated, with one draw as
    # the only temporary array.  The draw is the stream of the real-part
    # call followed by the imaginary-part call.  numpy divides a complex
    # array by d as by d + 0j, multiplying both parts with 1/d, and
    # multiplies it by a real w as by w + 0j, which gives w times each
    # part (the zero adds only a signed zero); so scaling the real draw
    # by the same constants, in the same order, and adding its two parts
    # into the LoS matrix gives the bits of the complex expression.
    los_mat *= math.sqrt(w_los)
    draw = rng.standard_normal((2, *los_mat.shape))
    draw *= _INV_SQRT2
    draw *= math.sqrt(1.0 / (k_factor + 1.0))
    los_mat.real += draw[0]
    los_mat.imag += draw[1]
    return los_mat


def _finite(h: np.ndarray) -> np.ndarray:
    """h, refused unless every entry is finite: the one channel check."""
    if not np.isfinite(h).all():
        raise ValueError("non-finite channel")
    return h


def _same_size(*sizes: int) -> int:
    """The element count every factor of a cascade has, if they agree."""
    if len(set(sizes)) != 1:
        raise ValueError("dimension mismatch in cascade")
    return sizes[0]


def cascaded_channel(h_r_herm: np.ndarray, phi, h_t: np.ndarray) -> np.ndarray:
    """End-to-end channel h_r_herm @ diag(phi) @ h_t.

    phi is any length-n_ris vector: a 1-bit configuration or a
    continuous unit-modulus one.  The diagonal is never materialized;
    rows of h_t are scaled instead.  The package's one cascade: it
    refuses sizes that disagree and a non-finite product.
    """
    v = np.asarray(phi).ravel()
    h_r_herm = np.asarray(h_r_herm)
    h_t = np.asarray(h_t)
    _same_size(h_r_herm.shape[1], v.size, h_t.shape[0])
    return _finite(h_r_herm @ (v[:, None] * h_t))
