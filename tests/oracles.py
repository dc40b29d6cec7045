"""References and seeded instances the tests share.

Each reference is an independent, slow or exhaustive restatement of
something the package computes another way; none of them is on a path
the package runs.  The instances are seeded, so every test that draws
one sees the same arrays.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from risopt import capacity
from risopt.channels import LosSpec, sample_ricean
from risopt.geometry import AnglePair, near_square_geometry
from risopt.manifold import _objective
from risopt.spectral import SvdBundle


def bits(x):
    """The IEEE bit patterns of a float or complex array, so that equal
    bits means equal values and equal signs of zero."""
    return np.ascontiguousarray(x).view(np.uint64)


def make_los(n_ris=16, n_array=4, seed=0) -> LosSpec:
    """A seeded LoS spec: near-square arrays, uniform random angles."""
    rng = np.random.default_rng(seed)
    def ang():
        return AnglePair(float(rng.uniform(-math.pi, math.pi)),
                         float(rng.uniform(0.0, math.pi)))
    return LosSpec(near_square_geometry(n_ris), near_square_geometry(n_array),
                   ang(), ang())


def ricean_pair(seed, n_s, n_t):
    """A seeded K = 1 channel pair (a, t): the receive side as it enters
    the cascade (n_t x n_s) and the transmit side (n_s x n_t)."""
    rng = np.random.default_rng(seed)
    h_t = sample_ricean(1.0, make_los(n_s, n_t, seed=seed + 100), rng)
    h_r = sample_ricean(1.0, make_los(n_s, n_t, seed=seed + 200), rng)
    return h_r.conj().T, h_t


def brute_force_value(b) -> float:
    """Exhaustive 1-bit optimum max |b^T phi| over all 2^N sign patterns,
    the reference sign_align is checked against (short vectors only)."""
    b = np.asarray(b, dtype=complex).ravel()
    return float(max(abs(b @ np.array(s))
                     for s in product((1.0, -1.0), repeat=b.size)))


def nmse(estimates, references) -> float:
    """The textbook normalized mean squared error sum((e-r)^2) / sum(r^2),
    the reference the harness's NMSE cells are checked against."""
    e = np.asarray(estimates, dtype=float)
    r = np.asarray(references, dtype=float)
    return float(np.sum((e - r) ** 2) / np.sum(r ** 2))


def stream_gains(d_r, d_t, snr, n_t):
    """allocate_sca's stream gains, in its order of operations."""
    d_r, d_t = np.asarray(d_r, dtype=float), np.asarray(d_t, dtype=float)
    nmin = min(d_r.size, d_t.size)
    return 0.25 * snr * (d_r[:nmin] ** 2) * (d_t[:nmin] ** 2) / n_t


def two_stream_grid_optimum(gains, points: int) -> float:
    """The best two-stream allocation objective, in bits, by dense grid
    search over `points` amplitude splits t, 1 - t of [0, 1]: the global
    optimum allocate_sca is checked against, to the grid's resolution."""
    t = np.linspace(0.0, 1.0, points)
    obj = (np.log1p(gains[0] * t ** 2)
           + np.log1p(gains[1] * (1.0 - t) ** 2)) / math.log(2.0)
    return float(obj.max())


def best_single_start(d_r, d_t, snr, n_t):
    """Oracle for allocate_sca's multi-start: one _sca_from run per
    documented start (uniform, each live single-stream corner, then
    gain-proportional), the incumbent replaced only on a strictly larger
    final objective.  Returns the winning plan and its kind of start."""
    a = stream_gains(d_r, d_t, snr, n_t)
    nmin = a.size
    starts = [("uniform", np.full(nmin, 1.0 / nmin ** 2))]
    for i in np.flatnonzero(a > 0):
        corner = np.zeros(nmin)
        corner[i] = 1.0
        starts.append(("corner", corner))
    if nmin > 1:
        w = np.clip(a, 0.0, None)
        starts.append(("proportional", (w / w.sum()) ** 2))
    best = kind = None
    for name, p0 in starts:
        plan = capacity._sca_from(a, p0)
        assert plan is not None, (name, p0)
        if best is None or plan.objective_trace[-1] > best.objective_trace[-1]:
            best, kind = plan, name
    return best, kind


def assert_same_plan(got, want):
    """Two allocation plans are equal bit for bit, field by field."""
    for field in ("fractions", "objective_trace"):
        assert np.array_equal(bits(getattr(got, field)),
                              bits(getattr(want, field))), field
    assert got.iterations_used == want.iterations_used
    assert got.converged == want.converged


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


def textbook_stream_columns(bundle_r: SvdBundle, bundle_t: SvdBundle):
    """The stream columns conj(V_R) * U_T of the first min(n_r, n_t)
    streams and their weights d_R^2 * d_T^2.  The columns are F-ordered,
    as stream_columns lays them out: the layout picks BLAS's kernel for
    cols.T @ phi."""
    nmin = min(bundle_r.singular_values.size, bundle_t.singular_values.size)
    right = bundle_r.right_h.conj().T                 # V_R
    cols = np.asfortranarray(right[:, :nmin].conj() * bundle_t.left[:, :nmin])
    w = (bundle_r.singular_values[:nmin] ** 2) * (bundle_t.singular_values[:nmin] ** 2)
    return cols, w


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
