import math

import numpy as np
import pytest

from risopt.geometry import (AnglePair, UpaGeometry, near_square_geometry,
                             upa_steering)


def test_steering_two_element_broadside():
    # half-wavelength pair along the horizontal axis, endfire incidence:
    # phases {0, pi} so the vector is exactly [1, -1]
    geo = UpaGeometry(n_horizontal=2, n_vertical=1)
    a = upa_steering(geo, AnglePair(azimuth=0.0, elevation=math.pi / 2))
    assert np.allclose(a, [1.0, -1.0])


def test_steering_unit_modulus_and_reference_element():
    geo = UpaGeometry(3, 4)
    a = upa_steering(geo, AnglePair(1.1, 2.0))
    assert a.shape == (12,)
    assert np.allclose(np.abs(a), 1.0)
    assert a[0] == 1.0 + 0.0j
    assert np.isclose(np.vdot(a, a).real,
                      geo.n_horizontal * geo.n_vertical)


def test_steering_flattening_order_horizontal_fastest():
    geo = UpaGeometry(n_horizontal=3, n_vertical=2)
    ang = AnglePair(0.7, 1.3)
    a = upa_steering(geo, ang)
    s = math.pi * math.sin(ang.elevation)       # 2*pi times the half-wavelength pitch
    for n in range(2):
        for m in range(3):
            expect = np.exp(1j * s * (m * math.cos(ang.azimuth)
                                      + n * math.sin(ang.azimuth)))
            assert np.isclose(a[n * 3 + m], expect)


def test_steering_separable_as_kronecker():
    geo = UpaGeometry(4, 5)
    ang = AnglePair(-2.0, 0.9)
    a = upa_steering(geo, ang)
    ah = upa_steering(UpaGeometry(4, 1), ang)
    av = upa_steering(UpaGeometry(1, 5), ang)
    assert np.allclose(a, np.kron(av, ah))


def test_zenith_gives_flat_vector():
    geo = UpaGeometry(3, 3)
    a = upa_steering(geo, AnglePair(0.5, 0.0))
    assert np.allclose(a, 1.0)


def test_azimuth_negation_conjugates_vertical_column():
    # a 1 x N column sees azimuth only through sin(az), so negating the
    # azimuth conjugates every entry
    geo = UpaGeometry(n_horizontal=1, n_vertical=6)
    a_pos = upa_steering(geo, AnglePair(0.8, 1.1))
    a_neg = upa_steering(geo, AnglePair(-0.8, 1.1))
    assert np.allclose(a_neg, a_pos.conj())


def test_angle_validation():
    AnglePair(math.pi, 0.0)          # boundary included
    with pytest.raises(ValueError):
        AnglePair(-math.pi, 0.5)     # open boundary excluded
    with pytest.raises(ValueError):
        AnglePair(0.0, -0.1)
    with pytest.raises(ValueError):
        AnglePair(0.0, math.pi + 0.1)
    with pytest.raises(ValueError):
        AnglePair(math.nan, 0.5)


def test_geometry_validation():
    with pytest.raises(ValueError):
        UpaGeometry(0, 4)


@pytest.mark.parametrize("n,expect", [
    (16, (4, 4)),
    (12, (3, 4)),
    (7, (1, 7)),
    (100, (10, 10)),
    (1, (1, 1)),
    (2000, (40, 50)),
])
def test_near_square_geometry(n, expect):
    geo = near_square_geometry(n)
    assert (geo.n_horizontal, geo.n_vertical) == expect
    assert geo.n_horizontal * geo.n_vertical == n
    assert geo.n_horizontal <= geo.n_vertical


def test_near_square_geometry_rejects_nonpositive():
    with pytest.raises(ValueError):
        near_square_geometry(0)
