import numpy as np
import pytest

from risopt.alignment import sign_align
from tests.oracles import brute_force_value


def test_brute_force_value_on_real_input_is_the_absolute_sum():
    # for real b the pattern sign(b) reaches sum(|b_n|), the optimum
    b = np.array([3.0, -2.0, 0.5, -0.1, 0.0])
    assert brute_force_value(b) == pytest.approx(np.sum(np.abs(b)))
    assert brute_force_value(np.array([1j])) == 1.0


def test_half_sum_guarantee_and_brute_force_envelope():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        res = sign_align(b)
        opt = brute_force_value(b)
        assert res.achieved_value <= opt + 1e-9
        assert res.achieved_value >= 0.5 * np.sum(np.abs(b)) - 1e-12
        # achieved value is consistent with the returned pattern
        assert np.isclose(abs(b @ res.phi), res.achieved_value)
        assert set(np.unique(res.phi)) <= {1.0, -1.0}


def test_real_branch_is_exact_on_real_input():
    b = np.array([3.0, -2.0, 0.5, -0.1]) + 0j
    res = sign_align(b)
    assert res.branch == "real"
    assert np.allclose(res.phi, [1.0, -1.0, 1.0, -1.0])
    assert np.isclose(res.achieved_value, np.sum(np.abs(b)))


def test_imaginary_branch_wins_on_imaginary_input():
    b = 1j * np.array([1.0, -4.0, 2.0])
    res = sign_align(b)
    assert res.branch == "imaginary"
    assert np.isclose(res.achieved_value, 7.0)


def test_sign_of_zero_is_plus_one():
    res = sign_align(np.array([0.0 + 0.0j, 1.0 + 0.0j]))
    assert res.phi[0] == 1.0


def test_tie_prefers_real_branch():
    # |b @ sign(Re b)| == |b @ sign(Im b)| for b = [1 + 1j]
    res = sign_align(np.array([1.0 + 1.0j]))
    assert res.branch == "real"


def test_masked_strided_column_matches_a_contiguous_copy():
    # a column of a C-ordered matrix is a strided view
    rng = np.random.default_rng(3)
    cols = rng.normal(size=(500, 6)) + 1j * rng.normal(size=(500, 6))
    for i in range(cols.shape[1]):
        strided = sign_align(cols[:, i])
        contiguous = sign_align(np.ascontiguousarray(cols[:, i]))
        assert np.array_equal(strided.phi, contiguous.phi)
        assert strided.phi.flags.c_contiguous
        assert strided.achieved_value == contiguous.achieved_value
        assert strided.branch == contiguous.branch


def test_empty_vector_is_refused():
    with pytest.raises(ValueError, match="^empty vector$"):
        sign_align(np.array([], dtype=complex))


def reference_sign_align(b):
    """The two patterns as float signs, each sum cast to complex by numpy."""
    phi_re = np.where(b.real >= 0.0, 1.0, -1.0)
    phi_im = np.where(b.imag >= 0.0, 1.0, -1.0)
    val_re, val_im = abs(b @ phi_re), abs(b @ phi_im)
    if val_re >= val_im:
        return phi_re, float(val_re), "real"
    return phi_im, float(val_im), "imaginary"


def test_bit_identical_to_reference_expressions():
    rng = np.random.default_rng(11)
    for i in range(200):
        n = int(rng.integers(1, 3000))
        b = (rng.normal(size=n) * 10.0 ** rng.uniform(-5, 5)
             + 1j * rng.normal(size=n))
        if i % 5 == 0:
            b.real[: n // 3] = 0.0
        res = sign_align(b)
        phi, value, branch = reference_sign_align(b)
        assert res.phi.dtype == np.float64
        assert np.array_equal(res.phi, phi)
        assert res.achieved_value == value
        assert res.branch == branch


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("align", [sign_align])
def test_non_finite_entries_are_refused(bad, part, align):
    b = np.array([1.0 + 2.0j, -0.5 + 0.25j, 3.0 - 1.0j, 0.0 + 0.0j])
    getattr(b, part)[2] = bad
    assert np.isfinite(getattr(b, "imag" if part == "real" else "real")).all()
    with pytest.raises(ValueError, match="^input must be finite$"):
        align(b)
