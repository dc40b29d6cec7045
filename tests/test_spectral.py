import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import roots_genlaguerre

import risopt
from risopt.channels import complex_gaussian
from risopt.spectral import (asymptotic_spectrum, laguerre_top_roots,
                             svd_bundle)


def exact_laguerre_coeffs(n, alpha):
    """Coefficients of L_n^(alpha), exact rationals, ascending powers."""
    coeffs = []
    for k in range(n + 1):
        binom = Fraction(math.comb(n + alpha, n - k))
        coeffs.append((-1) ** k * binom / Fraction(math.factorial(k)))
    return coeffs


def eval_poly(coeffs, y):
    acc = 0.0
    for c, p in zip(coeffs, range(len(coeffs))):
        acc += float(c) * y ** p
    return acc


def test_svd_bundle_reconstruction_and_orientation():
    rng = np.random.default_rng(0)
    h = complex_gaussian(rng, (12, 5))
    b = svd_bundle(h)
    assert b.left.shape == (12, 5)
    assert b.right_h.shape == (5, 5)
    assert np.all(np.diff(b.singular_values) <= 0)
    rebuilt = (b.left * b.singular_values) @ b.right_h
    assert np.allclose(rebuilt, h)
    # orthonormal columns of U and rows of V^H
    assert np.allclose(b.left.conj().T @ b.left, np.eye(5), atol=1e-12)
    assert np.allclose(b.right_h @ b.right_h.conj().T, np.eye(5), atol=1e-12)


def test_svd_bundle_rejects_nonfinite():
    with pytest.raises(ValueError):
        svd_bundle(np.array([[np.inf + 0j]]))


def test_roots_4_2_closed_form():
    # alpha = 2, degree 2: 6 - 4y + y^2/2, roots y = 2 and y = 6,
    # mapped through (y - 4) / (2 sqrt(8))
    roots = laguerre_top_roots(4, 2)
    expect = np.array([-1.0, 1.0]) / (2.0 * math.sqrt(2.0))
    assert np.allclose(np.sort(roots), expect, atol=1e-14)


def test_degree_one_root_is_exactly_zero():
    # L_1^(n-1) has its single root at y = n, which maps to x = 0
    for n_big in (2, 7, 50, 2000):
        roots = laguerre_top_roots(n_big, 1)
        assert roots.shape == (1,)
        assert roots[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n_big,n_small", [(6, 3), (10, 4), (20, 20), (30, 7)])
def test_roots_annihilate_exact_polynomial(n_big, n_small):
    coeffs = exact_laguerre_coeffs(n_small, n_big - n_small)
    scale = 2.0 * math.sqrt(n_big * n_small)
    for x in laguerre_top_roots(n_big, n_small):
        y = x * scale + n_big
        # compare against the polynomial's scale at that point
        mag = sum(abs(float(c)) * abs(y) ** p for p, c in enumerate(coeffs))
        assert abs(eval_poly(coeffs, y)) < 1e-10 * mag


@pytest.mark.parametrize("n_big,n_small", [(12, 5), (100, 10), (2000, 20)])
def test_roots_match_quadrature_oracle(n_big, n_small):
    # independent path: Gauss quadrature nodes of the same polynomial
    nodes, _ = roots_genlaguerre(n_small, n_big - n_small)
    expect = (np.sort(nodes) - n_big) / (2.0 * math.sqrt(n_big * n_small))
    got = np.sort(laguerre_top_roots(n_big, n_small))
    assert np.allclose(got, expect, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("n_big,n_small", [(500, 20), (2000, 20), (5000, 10),
                                           (8192, 8), (640, 4)])
def test_tall_regime_roots_inside_unit_interval(n_big, n_small):
    roots = laguerre_top_roots(n_big, n_small)
    assert roots.shape == (n_small,)
    assert np.all(np.diff(roots) > 0)
    assert roots.min() >= -1.0 and roots.max() <= 1.0


def test_laguerre_argument_validation():
    with pytest.raises(ValueError):
        laguerre_top_roots(5, 0)
    with pytest.raises(ValueError):
        laguerre_top_roots(5, 6)


def test_spectrum_pure_los():
    spec = asymptotic_spectrum(100, 4, math.inf)
    assert spec.predicted_sq_singular_values[0] == pytest.approx(400.0)
    assert np.allclose(spec.predicted_sq_singular_values[1:], 0.0)
    assert not spec.bulk_regime


def test_spectrum_shapes_and_ordering():
    spec = asymptotic_spectrum(2000, 20, 10.0)
    pred = spec.predicted_sq_singular_values
    assert pred.shape == (20,)
    # spike above the bulk, bulk strictly decreasing
    assert pred[0] > pred[1]
    assert np.all(np.diff(pred[1:]) < 0)
    assert not spec.bulk_regime
    assert pred[0] == pytest.approx(10.0 / 11.0 * 2000 * 20)


def test_spectrum_bulk_entries_use_descending_roots():
    n_ris, n_array, k = 1000, 8, 5.0
    spec = asymptotic_spectrum(n_ris, n_array, k)
    roots = laguerre_top_roots(n_ris, n_array)
    scale = 2.0 * math.sqrt(n_ris * n_array)
    bulk = (n_ris + scale * roots) / (k + 1.0)
    # entry i >= 2 carries the (i-1)-th largest bulk value; the smallest
    # bulk value is not represented
    assert np.allclose(spec.predicted_sq_singular_values[1:],
                       bulk[::-1][: n_array - 1])


def test_spectrum_bulk_regime_flag_and_fallback():
    n_ris, n_array = 1000, 10
    low = asymptotic_spectrum(n_ris, n_array, 0.05)     # below 1/n_array
    high = asymptotic_spectrum(n_ris, n_array, 0.2)     # above
    assert low.bulk_regime and not high.bulk_regime
    roots = laguerre_top_roots(n_ris, n_array)
    scale = 2.0 * math.sqrt(n_ris * n_array)
    bulk_top = (n_ris + scale * roots[-1]) / (0.05 + 1.0)
    assert low.predicted_sq_singular_values[0] == pytest.approx(bulk_top)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        asymptotic_spectrum(100, 4, -1.0)
    with pytest.raises(ValueError):
        asymptotic_spectrum(100, 4, math.nan)


def test_spectrum_against_monte_carlo_at_moderate_size():
    # pin the root-to-entry convention against simulated Ricean spectra:
    # the second eigenvalue must track the top of the bulk, not its foot
    rng = np.random.default_rng(2024)
    n_ris, n_array, k = 500, 10, 10.0
    a_ris = np.exp(1j * rng.uniform(-math.pi, math.pi, n_ris))
    a_arr = np.exp(1j * rng.uniform(-math.pi, math.pi, n_array))
    los = np.outer(a_ris, a_arr.conj())
    acc = np.zeros(n_array)
    trials = 40
    for _ in range(trials):
        h = (math.sqrt(k / (k + 1)) * los
             + math.sqrt(1 / (k + 1)) * complex_gaussian(rng, (n_ris, n_array)))
        acc += np.linalg.eigvalsh(h.conj().T @ h)[::-1]
    emp = acc / trials
    pred = asymptotic_spectrum(n_ris, n_array, k).predicted_sq_singular_values
    rel = np.abs(pred - emp) / emp
    assert rel[0] < 0.02       # spike
    assert rel[1] < 0.05       # top of the bulk
    assert np.all(rel[:5] < 0.08)


NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None         # every import of scipy now fails
import numpy as np
import risopt
from risopt.harness import preset_spec, run_experiment

fig1b = run_experiment(preset_spec("fig1b", scale=0.05))
rng = np.random.default_rng(0)
# statistical-CSI W-SA from the public steps
spectrum = risopt.asymptotic_spectrum(64, 4, 1.0)
d = np.sqrt(spectrum.predicted_sq_singular_values)
plan = risopt.allocate_sca(d, d, 10.0, 4)
counts = risopt.round_allocation(plan.fractions, 64)
phi = risopt.configure_capacity(
    risopt.svd_bundle(risopt.complex_gaussian(rng, (4, 64))),
    risopt.svd_bundle(risopt.complex_gaussian(rng, (64, 4))), counts)
bound = risopt.capacity_lower_bound(plan.fractions, d, d, 10.0, 4)
fig2b = run_experiment(preset_spec("fig2b", trials=1, n_ris_list=(1024,)))
assert not fig2b.rows[0]["error"], fig2b.rows[0]["error"]
assert sys.modules["scipy"] is None
assert not [name for name in sys.modules if name.startswith("scipy.")]
print(len(fig1b.aggregates), bound > 0 and phi.size == 64)
"""


def test_runs_need_no_scipy():
    # numpy is the only runtime dependency: a fresh interpreter that cannot
    # import scipy runs fig1b, statistical-CSI W-SA and a fig2b trial
    src = os.path.dirname(os.path.dirname(os.path.abspath(risopt.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[-2:] == ["60", "True"]
