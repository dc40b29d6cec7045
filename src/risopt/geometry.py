"""Uniform planar array geometry and unnormalized steering vectors."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_HALF_WAVELENGTH = 0.5    # element pitch of every panel, in wavelengths


def _check_count(name: str, value, minimum: int = 1) -> int:
    """The package's one check of an integer with a minimum: value as an
    int, refused unless it is a Python or numpy integer (not a bool) of at
    least minimum.  It lives here, in the module every other one imports,
    so that each reader of a size or count can call it."""
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or value < minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}; "
                         f"got {value!r}")
    return int(value)


@dataclass(frozen=True)
class UpaGeometry:
    """Rectangular antenna panel.

    Parameters
    ----------
    n_horizontal : int
        Element count along the first (horizontal) axis.
    n_vertical : int
        Element count along the second (vertical) axis.
    """

    n_horizontal: int
    n_vertical: int

    def __post_init__(self) -> None:
        _check_count("n_horizontal", self.n_horizontal)
        _check_count("n_vertical", self.n_vertical)

    @property
    def size(self) -> int:
        return self.n_horizontal * self.n_vertical


@dataclass(frozen=True)
class AnglePair:
    """Azimuth/elevation direction in radians.

    Azimuth lies in (-pi, pi], elevation in [0, pi].
    """

    azimuth: float
    elevation: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.azimuth) and math.isfinite(self.elevation)):
            raise ValueError("angles must be finite")
        if not (-math.pi < self.azimuth <= math.pi):
            raise ValueError("azimuth outside (-pi, pi]")
        if not (0.0 <= self.elevation <= math.pi):
            raise ValueError("elevation outside [0, pi]")


def upa_steering(geometry: UpaGeometry, angles: AnglePair) -> np.ndarray:
    """Unnormalized steering vector of a planar array.

    Element (m, n) of the panel carries the phase

        2*pi*d*(m*sin(el)*cos(az) + n*sin(el)*sin(az)),

    with the pitch d = 1/2 wavelength, m in [0, n_horizontal) and n in
    [0, n_vertical).  Element (0, 0) is the zero-phase reference.  The
    panel is flattened with the horizontal index m running fastest, i.e.
    entry n*n_horizontal + m, and the same order is assumed everywhere a
    steering vector meets a channel matrix.  Every entry has unit
    modulus, so ||a||^2 = N.
    """
    m = np.arange(geometry.n_horizontal)
    n = np.arange(geometry.n_vertical)
    sin_el = math.sin(angles.elevation)
    phase_h = 2.0 * math.pi * _HALF_WAVELENGTH * sin_el * math.cos(angles.azimuth) * m
    phase_v = 2.0 * math.pi * _HALF_WAVELENGTH * sin_el * math.sin(angles.azimuth) * n
    # shape (n_vertical, n_horizontal); C-order ravel keeps m fastest
    phase = phase_v[:, None] + phase_h[None, :]
    return np.exp(1j * phase).ravel()


def near_square_geometry(n: int) -> UpaGeometry:
    """Most-square factorization of n elements, n_horizontal <= n_vertical."""
    _check_count("n", n)
    n_h = int(math.isqrt(n))
    while n % n_h:
        n_h -= 1
    return UpaGeometry(n_h, n // n_h)
