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
        phi = sign_align(b)
        value = abs(b @ phi)
        assert value <= brute_force_value(b) + 1e-9
        assert value >= 0.5 * np.sum(np.abs(b)) - 1e-12
        assert set(np.unique(phi)) <= {1.0, -1.0}


def test_real_branch_is_exact_on_real_input():
    b = np.array([3.0, -2.0, 0.5, -0.1]) + 0j
    phi = sign_align(b)
    assert np.array_equal(phi, [1.0, -1.0, 1.0, -1.0])
    assert np.isclose(abs(b @ phi), np.sum(np.abs(b)))


def test_imaginary_branch_wins_on_imaginary_input():
    b = 1j * np.array([1.0, -4.0, 2.0])
    phi = sign_align(b)
    assert np.array_equal(phi, [1.0, -1.0, 1.0])     # sign(Im b)
    assert np.isclose(abs(b @ phi), 7.0)


def test_sign_of_zero_is_plus_one():
    assert sign_align(np.array([0.0 + 0.0j, 1.0 + 0.0j]))[0] == 1.0


def test_tie_prefers_real_branch():
    # sign(Re b) = [1, 1] and sign(Im b) = [1, -1] both reach |2|
    b = np.array([1.0 + 1.0j, 1.0 - 1.0j])
    assert abs(b @ [1.0, 1.0]) == abs(b @ [1.0, -1.0])
    assert np.array_equal(sign_align(b), [1.0, 1.0])


def test_masked_strided_column_matches_a_contiguous_copy():
    # a column of a C-ordered matrix is a strided view
    rng = np.random.default_rng(3)
    cols = rng.normal(size=(500, 6)) + 1j * rng.normal(size=(500, 6))
    for i in range(cols.shape[1]):
        strided = sign_align(cols[:, i])
        contiguous = sign_align(np.ascontiguousarray(cols[:, i]))
        assert np.array_equal(strided, contiguous)
        assert strided.flags.c_contiguous


def test_empty_vector_is_refused():
    with pytest.raises(ValueError, match="^empty vector$"):
        sign_align(np.array([], dtype=complex))


def reference_sign_align(b):
    """The two patterns as float signs, each sum cast to complex by numpy."""
    phi_re = np.where(b.real >= 0.0, 1.0, -1.0)
    phi_im = np.where(b.imag >= 0.0, 1.0, -1.0)
    val_re, val_im = abs(b @ phi_re), abs(b @ phi_im)
    if val_re >= val_im:
        return phi_re, float(val_re)
    return phi_im, float(val_im)


def test_bit_identical_to_reference_expressions():
    rng = np.random.default_rng(11)
    for i in range(200):
        n = int(rng.integers(1, 3000))
        b = (rng.normal(size=n) * 10.0 ** rng.uniform(-5, 5)
             + 1j * rng.normal(size=n))
        if i % 5 == 0:
            b.real[: n // 3] = 0.0
        phi = sign_align(b)
        want, value = reference_sign_align(b)
        assert phi.dtype == np.float64
        assert np.array_equal(phi, want)
        # the value callers read off the pattern is the reference's
        assert abs(b @ phi) == value


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("align", [sign_align])
def test_non_finite_entries_are_refused(bad, part, align):
    b = np.array([1.0 + 2.0j, -0.5 + 0.25j, 3.0 - 1.0j, 0.0 + 0.0j])
    getattr(b, part)[2] = bad
    assert np.isfinite(getattr(b, "imag" if part == "real" else "real")).all()
    with pytest.raises(ValueError, match="^input must be finite$"):
        align(b)
