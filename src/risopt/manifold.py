"""Riemannian ascent over the unit-modulus circle manifold.

The benchmark optimizer: relax the 1-bit constraint to |phi_n| = 1,
ascend the chosen objective along the Riemannian gradient with a
retraction back to the circle, then quantize the result to {+1, -1}.
Gradients use the convention g = 2 * df/d(conj phi), so the first-order
change of the objective is Re <g, dphi> and the finite-difference vector
(d/dRe + j d/dIm) reproduces g entrywise.  The gain and exact-capacity
values are the harness's scores, gain.channel_gain and
capacity.capacity_exact of channels.cascaded_channel, so RMO climbs the
value a trial reports; the surrogate's is capacity.capacity_diag_approx's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import (_LN2, _capacity_bits, _check_snr, stream_bits,
                       stream_columns)
from .channels import cascaded_channel
from .gain import channel_gain
from .geometry import _check_count
from .spectral import svd_bundle

OBJECTIVES = ("gain", "capacity_exact", "capacity_surrogate")

# rmo_optimize stops as converged below this Riemannian gradient norm
_GRADIENT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class RmoSettings:
    """Optimizer knobs; the iteration limit defines the benchmark cost."""

    objective: str = "gain"
    max_iters: int = 500

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        _check_count("max_iters", self.max_iters)


@dataclass(frozen=True)
class RmoResult:
    """Continuous iterate, objective trace of accepted steps, and exit state."""

    phi: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    final_grad_norm: float
    stop_reason: str


def _objective(objective: str, h_r_herm: np.ndarray, h_t: np.ndarray,
               snr: float | None, bundles: tuple | None = None):
    """Callables evaluate(phi) -> (value, state) and grad(phi, state).

    The gain and exact-capacity values are channel_gain and capacity_exact
    of cascaded_channel(a, phi, t), which refuses a non-finite or
    mismatched channel.  The capacity objectives scale by snr / n_t, n_t
    the column count of h_t (n_ris x n_t), and refuse an snr through
    capacity._check_snr, once per run: the exact capacity is then
    capacity_exact's core, _capacity_bits, on the checked cascade.  The
    surrogate reads its stream columns from bundles, the SVDs of
    (h_r_herm, h_t), and makes them itself if None; its value is
    capacity_diag_approx's bit for bit, from columns made once per run.

    The state is what the value computed on the way: the cascade
    a @ diag(phi) @ t, or for the surrogate the stream projections
    z = cols.T @ phi with their powers |z|^2, which the gradient reads in
    place of recomputing them.  The gradient makes no conjugate copy of
    the N_S-row channels, using the exact identity
    conj(x) * y == conj(x * conj(y)), so it equals the textbook form
    rowsum((a^H @ G) * conj(t)) bit for bit.
    """
    a = np.asarray(h_r_herm, dtype=complex)
    t = np.asarray(h_t, dtype=complex)

    def backproject(x):
        # rowsum((a^H @ x) * conj(t)) as conj(rowsum((a^T @ conj(x)) * t))
        y = a.T @ x.conj()
        y *= t
        y = np.sum(y, axis=1)
        return np.conjugate(y, out=y)

    if objective == "gain":
        def evaluate(phi):
            g_mat = cascaded_channel(a, phi, t)
            return channel_gain(g_mat), g_mat

        def grad(phi, g_mat):
            return 2.0 * backproject(g_mat)

        return evaluate, grad

    _check_snr(snr)
    rho = snr / t.shape[1]

    if objective == "capacity_exact":
        eye = np.eye(a.shape[0])

        def evaluate(phi):
            g_mat = cascaded_channel(a, phi, t)
            return _capacity_bits(g_mat, rho), g_mat

        def grad(phi, g_mat):
            m = eye + rho * (g_mat @ g_mat.conj().T)
            x = np.linalg.solve(m, g_mat)
            return (2.0 * rho / _LN2) * backproject(x)

        return evaluate, grad

    # capacity_surrogate: per-stream rank-1 quadratics through the SVDs
    cols, w = stream_columns(*(bundles or (svd_bundle(a), svd_bundle(t))))
    rho_w = rho * w
    coef_w = (2.0 * rho / _LN2) * w

    def evaluate(phi):
        z = cols.T @ phi
        q = np.abs(z) ** 2
        return stream_bits(rho_w, q), (z, q)

    def grad(phi, state):
        z, q = state
        coef = coef_w / (1.0 + rho_w * q)
        g = cols @ (coef * z).conj()
        return np.conjugate(g, out=g)

    return evaluate, grad


def _check_finite(g: np.ndarray, where: str = "") -> None:
    if not np.isfinite(g).all():
        raise FloatingPointError(f"non-finite gradient{where}")


def euclidean_gradient(objective: str, h_r_herm: np.ndarray, h_t: np.ndarray,
                       phi, snr: float | None = None) -> np.ndarray:
    """Euclidean gradient g = 2 df/d(conj phi) of the chosen objective."""
    phi = np.asarray(phi, dtype=complex).ravel()
    evaluate, grad = _objective(objective, h_r_herm, h_t, snr)
    g = grad(phi, evaluate(phi)[1])
    _check_finite(g)
    return g


def riemannian_gradient(g: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Project g onto the tangent space: xi = g - Re{g conj(phi)} phi."""
    radial = g.real * phi.real + g.imag * phi.imag
    return g - radial * phi


def rmo_optimize(h_r_herm: np.ndarray, h_t: np.ndarray, settings: RmoSettings,
                 snr: float | None = None,
                 bundles: tuple | None = None) -> RmoResult:
    """Gradient ascent on the circle manifold with Armijo backtracking.

    snr is linear and needed by the capacity objectives, which scale it
    by 1/n_t with n_t the column count of h_t.  bundles, if given, is
    (svd_bundle(h_r_herm), svd_bundle(h_t)): the surrogate objective
    reads it in place of decomposing both sides, the others ignore it.
    Starts from all-ones.
    Backtracking uses factor 0.5 and sufficient increase 1e-4 (the
    directional derivative along xi is ||xi||^2), and a trial must also
    raise the objective strictly, so every accepted step raises it.  The
    first trial step is sized so the largest element moves by one
    radian, later ones start at twice the last accepted step.  Stops with
    stop_reason "gradient_tolerance" (converged) on a gradient norm below
    _GRADIENT_TOLERANCE, "max_iters" after max_iters steps, or
    "line_search" when 60 halvings fail or a trial fails
    once the target f + 1e-4*mu*||xi||^2 rounds to f itself: the
    required increase is then below the resolution of f, and shorter
    steps cannot be told apart from rounding.

    A non-finite gradient raises FloatingPointError naming the iteration.
    It always makes the squared step norm non-finite, so that scalar is
    tested, and the gradient is scanned only when it fails.

    Cost: one cascade product (or stream projection for the surrogate)
    per line-search trial, each trial retracted by one reciprocal of its
    moduli and one multiply, not numpy's complex division; the gradient
    reuses the accepted trial's cascade (or projections and their
    powers) and makes no conjugate copy of the channels.

    The retraction is the division z / |z| bit for bit except in the
    sign of a part that is exactly zero.  numpy divides by r + 0j as
    ((x + y*0) * (1/r), (y - x*0) * (1/r)), and multiplying by s + 0j,
    s = 1/r, gives (x*s - y*0, x*0 + y*s), rounded once also where its
    SIMD loop fuses the multiply-add; both round x/r and y/r the same.
    1/r is finite because |z| >= 1 up to rounding.  A part that is
    exactly zero may come out with the other sign: complex(-0.5, -0.0)
    gives -1+0j by division and -1-0j by the product.  The sign of a
    zero changes no nonzero value that sums and products make from it,
    and quantize_1bit tests Re >= 0, true for both zeros.
    """
    phi = np.ones(np.shape(h_t)[0], dtype=complex)
    evaluate, grad = _objective(settings.objective, h_r_herm, h_t, snr, bundles)

    f, state = evaluate(phi)
    trace = [f]
    last_step = None
    iterations = 0
    stop_reason = "max_iters"
    grad_norm = math.inf
    for _ in range(settings.max_iters):
        g = grad(phi, state)
        xi = riemannian_gradient(g, phi)
        sq_norm = float(np.sum(xi.real ** 2 + xi.imag ** 2))
        if not math.isfinite(sq_norm):
            # a finite gradient whose norm overflows passes and runs on
            _check_finite(g, f" at iteration {iterations}")
        grad_norm = math.sqrt(sq_norm)
        if grad_norm < _GRADIENT_TOLERANCE:
            stop_reason = "gradient_tolerance"
            break
        if last_step is None:
            mu = 1.0 / max(float(np.max(np.abs(xi))), 1e-300)
        else:
            mu = 2.0 * last_step
        accepted = False
        for _ in range(60):
            # retract phi + mu*xi to the circle; tangency makes its modulus
            # >= 1 entrywise, so no zero guard is needed
            cand = mu * xi
            cand += phi
            scale = np.abs(cand)
            np.divide(1.0, scale, out=scale)
            cand *= scale
            f_new, cand_state = evaluate(cand)
            target = f + 1e-4 * mu * sq_norm
            if f_new >= target and f_new > f:
                accepted = True
                break
            if target == f:
                # the required increase is below the resolution of f:
                # shorter steps cannot be told apart from rounding
                break
            mu *= 0.5
        if not accepted:
            stop_reason = "line_search"
            break
        last_step = mu
        phi, f, state = cand, f_new, cand_state
        trace.append(f)
        iterations += 1
    return RmoResult(phi, np.asarray(trace), iterations, grad_norm,
                     stop_reason)


def quantize_1bit(phi_continuous) -> np.ndarray:
    """Nearest point of {+1, -1} per element: +1 iff Re >= 0 (ties to +1)."""
    phi = np.asarray(phi_continuous, dtype=complex).ravel()
    # written so that a NaN modulus fails the test: NaN > 1e-6 is False
    if phi.size == 0 or not np.all(np.abs(np.abs(phi) - 1.0) <= 1e-6):
        raise ValueError("input must be unit modulus")
    return np.where(phi.real >= 0.0, 1.0, -1.0)
