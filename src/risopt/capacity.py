"""Capacity evaluation and waterfilling-style RIS element allocation.

The end-to-end capacity with identity precoding is log2 det(I + snr/n_t *
H H^H).  Through the channel SVDs the cascade is asymptotically
diagonalized by aligning disjoint groups of RIS elements to one stream
each, which turns the capacity into a separable surrogate over the
per-stream fractions p_i under the coupling constraint sum(sqrt(p_i)) = 1.
That non-convex program is solved by successive convex approximation:
linearize the constraint at the current iterate, solve the resulting
waterfilling subproblem in closed form, restore feasibility by rescaling.
Each step can only raise the surrogate, so the objective trace is
monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alignment import sign_align
from .channels import _finite, _same_size, cascaded_channel
from .gain import channel_gain
from .geometry import _check_count
from .spectral import SvdBundle, svd_bundle

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class AllocationPlan:
    """Per-stream RIS element allocation.

    fractions are the p_i of the continuous program; round_allocation
    turns them into element counts, and stream i is served by the i-th
    contiguous block of counts[i] elements.  objective_trace
    records the surrogate value at the initial point and after every SCA
    step; converged is False when the iteration budget ran out before the
    objective settled (the last iterate is still returned, the flag is
    the caller's signal).
    """

    fractions: np.ndarray
    iterations_used: int
    objective_trace: np.ndarray
    converged: bool


@dataclass(frozen=True)
class CapacityReport:
    """One configured instance: the +/-1 RIS configuration plus the
    capacity metrics."""

    phi: np.ndarray
    capacity_exact: float
    capacity_diag: float
    capacity_lb: float
    offdiag_ratio: float


def _check_snr(snr: float | None) -> None:
    """The package's one check of a linear snr, for every function that
    reads one: refuse None, NaN, zero or a negative value as not positive,
    and +inf as not finite (it makes inf gains and NaN gradients)."""
    if snr is None or not snr > 0:
        raise ValueError(f"snr must be positive; got {snr!r}")
    if math.isinf(snr):
        raise ValueError(f"snr must be finite; got {snr!r}")


def _rho(snr: float | None, n_t: int) -> float:
    """snr / n_t, identity precoding's per-antenna SNR, once checked."""
    _check_snr(snr)
    return snr / n_t


def capacity_exact(h_tilde: np.ndarray, snr: float) -> float:
    """log2 det(I + snr/n_t * H H^H) in bits, via singular values; n_t is
    the column count of the n_r x n_t cascade H, and snr is linear,
    positive and finite."""
    h = _finite(np.asarray(h_tilde, dtype=complex))
    return _capacity_bits(h, _rho(snr, h.shape[1]))


def _capacity_bits(h: np.ndarray, rho: float) -> float:
    """capacity_exact's value after its checks, for a finite complex
    cascade h and rho = snr / n_t."""
    return stream_bits(rho, np.linalg.svd(h, compute_uv=False) ** 2)


def effective_channel(bundle_r: SvdBundle, phi, bundle_t: SvdBundle) -> np.ndarray:
    """D_R V_R^H diag(phi) U_T D_T, sharing nonzero singular values with
    the cascade.

    bundle_r is the SVD of the receive-side channel in its n_r x n_s
    orientation (right vectors live on the RIS side); bundle_t is the
    SVD of the n_s x n_t transmit-side channel (left vectors on the RIS
    side).  The core V_R^H diag(phi) U_T is cascaded_channel's.
    """
    core = cascaded_channel(bundle_r.right_h, phi, bundle_t.left)
    return bundle_r.singular_values[:, None] * core * bundle_t.singular_values


def _stream_target(bundle_r: SvdBundle, bundle_t: SvdBundle, i: int, block: slice):
    """Stream i's target conj(v_R,i) * u_T,i on the elements of block;
    conj(v_R,i) is row i of V_R^H."""
    return bundle_r.right_h[i, block] * bundle_t.left[block, i]


def stream_columns(bundle_r: SvdBundle, bundle_t: SvdBundle) -> tuple[np.ndarray, np.ndarray]:
    """Per-stream targets on every element (as columns) and weights
    d_R,i^2 d_T,i^2, for the min(n_r, n_t) streams.

    Each column is _stream_target's, written into an F-ordered array.
    The layout picks BLAS's kernel for cols.T @ phi and so fixes the bits
    of the stream projections.  Bundles of different element counts are
    refused as the cascade refuses them.
    """
    n_s = _same_size(bundle_r.right_h.shape[1], bundle_t.left.shape[0])
    nmin = min(bundle_r.singular_values.size, bundle_t.singular_values.size)
    cols = np.empty((n_s, nmin), dtype=complex, order="F")
    for i in range(nmin):
        cols[:, i] = _stream_target(bundle_r, bundle_t, i, slice(None))
    w = (bundle_r.singular_values[:nmin] ** 2) * (bundle_t.singular_values[:nmin] ** 2)
    return cols, w


def stream_bits(rho_w, q: np.ndarray) -> float:
    """sum_i log2(1 + rho_w_i * q_i), the package's one log-sum: the exact
    capacity from rho = snr/n_t and the squared singular values, the
    diagonal surrogate from rho * w_i and the stream powers |z_i|^2, the
    lower bound and SCA's objective from the stream gains and fractions."""
    return float(np.log1p(rho_w * q).sum() / _LN2)


def capacity_diag_approx(bundle_r: SvdBundle, bundle_t: SvdBundle, phi,
                         snr: float) -> float:
    """Diagonal surrogate: per-stream terms only, in bits; snr is linear,
    positive and finite."""
    rho = _rho(snr, bundle_t.right_h.shape[1])
    cols, w = stream_columns(bundle_r, bundle_t)
    z = cols.T @ np.asarray(phi).ravel()
    return stream_bits(rho * w, np.abs(z) ** 2)


def _water_level(a: np.ndarray, c: np.ndarray, budget: float) -> float:
    """Solve sum_i c_i * max(1/(eta*c_i) - 1/a_i, 0) = budget for eta.

    Exact active-set solve: in the variable s = 1/eta the residual is
    piecewise linear and increasing with breakpoints at c_i/a_i, so
    sorting the breakpoints gives the active segment in closed form.
    The SCA step's gains a, weights c and budget are positive by
    construction, so none is checked.  The segment search walks Python
    floats; cumsum adds in order, so every value is the one numpy
    scalars would give."""
    cut = np.sort(c / a)
    prefix = cut.cumsum().tolist()
    cut_sorted = cut.tolist()
    n = len(cut_sorted)
    s = (budget + prefix[-1]) / n
    for m in range(1, n):
        cand = (budget + prefix[m - 1]) / m
        if cut_sorted[m - 1] <= cand <= cut_sorted[m]:
            s = cand
            break
    return 1.0 / s


def _stream_gains(singvals_r, singvals_t, snr: float, n_t: int) -> np.ndarray:
    """The stream gains a_i = 0.25 * snr * d_R,i^2 * d_T,i^2 / n_t of the
    min(len) streams, after the checks of allocate_sca's inputs: the one
    home of the gains that SCA maximizes over and the bound scores."""
    _check_snr(snr)
    d_r = np.asarray(singvals_r, dtype=float)
    d_t = np.asarray(singvals_t, dtype=float)
    if not (np.isfinite(d_r).all() and np.isfinite(d_t).all()):
        raise ValueError("singular values must be finite")
    _check_count("n_t", n_t)
    nmin = min(d_r.size, d_t.size)
    return 0.25 * snr * (d_r[:nmin] ** 2) * (d_t[:nmin] ** 2) / n_t


def allocate_sca(singvals_r, singvals_t, snr: float, n_t: int) -> AllocationPlan:
    """Per-stream fraction allocation by SCA generalized waterfilling.

    singvals are the descending singular values of the two channels; the
    stream gains a_i = 0.25 * snr * d_R,i^2 * d_T,i^2 / n_t come from
    _stream_gains, as capacity_lower_bound's do.  The constraint
    sum(sqrt(p_i)) = 1 is non-convex and both single-stream corners of a
    two-stream instance are local maxima, so the iteration
    is run from the uniform point, every single-stream corner, and a
    gain-proportional point, in that order, and the best endpoint wins;
    a later start replaces the best so far only with a strictly larger
    final objective.  A corner e_i is skipped when the best final
    objective so far already exceeds log2(1 + a_i * (1 + 1e-9)): from e_i
    only stream i stays active and its fraction stays 1 to within a few
    ulps, so that start cannot win and the returned plan is bit for bit
    the one of running every start.  At the presets' 10 dB every corner
    is skipped; at low SNR, where a corner can win, corners run.  Streams
    driven to zero are frozen (the linearization is undefined at p = 0)
    and cannot re-enter.  Each start stops when the objective moves by
    less than 1e-6 bits; converged=False means its budget of 200 steps
    ran out first.

    n_t, an integer, is an argument because singular values do not fix it.
    """
    a = _stream_gains(singvals_r, singvals_t, snr, n_t)
    nmin = a.size
    if nmin < 1:
        raise ValueError("need at least one stream")
    if not np.any(a > 0):
        raise ValueError("no stream has positive gain")

    # each start with the value its endpoint cannot exceed (inf: no bound)
    starts = [(np.full(nmin, 1.0 / nmin ** 2), math.inf)]
    for i in np.flatnonzero(a > 0):
        corner = np.zeros(nmin)
        corner[i] = 1.0
        starts.append((corner, _corner_ceiling(a[i])))
    if nmin > 1:
        w = np.clip(a, 0.0, None)
        starts.append(((w / w.sum()) ** 2, math.inf))
    best = None
    for p0, ceiling in starts:
        # a NaN incumbent or an inf ceiling compares False: the start runs
        if best is not None and best.objective_trace[-1] > ceiling:
            continue
        plan = _sca_from(a, p0)
        if plan is None:
            continue
        if best is None or plan.objective_trace[-1] > best.objective_trace[-1]:
            best = plan
    if best is None:
        raise ValueError("no feasible start: every active gain is zero or too small")
    return best


def _corner_ceiling(gain: float) -> float:
    """Bound on every objective value of the SCA run from a single-stream
    corner with stream gain `gain`.  Only that stream stays active, and
    each step renormalizes its fraction as x / sqrt(x)**2, which is 1 to
    within a few ulps; the 1e-9 margin covers them."""
    return math.log1p(gain * (1.0 + 1e-9)) / _LN2


def _sca_from(a: np.ndarray, p0: np.ndarray, epsilon: float = 1e-6,
              max_iters: int = 200) -> AllocationPlan | None:
    """One SCA run from p0 on the stream gains a, stopping when the
    objective moves by less than epsilon bits or after max_iters steps;
    None when it is left with no active stream."""
    p = p0.copy()
    p[a <= 0] = 0.0                       # dead streams never get elements
    p = p / np.sqrt(p).sum() ** 2

    trace = [stream_bits(a, p)]
    converged = False
    iters = 0
    for _ in range(max_iters):
        active = p > 0
        p_act, a_act = p[active], a[active]
        sq = np.sqrt(p_act)
        c = 0.5 / sq
        gamma = 1.0 - float((sq - p_act * c).sum())   # = 1 - sum(sq)/2
        s_level = 1.0 / _water_level(a_act, c, gamma)
        p_next = np.zeros_like(p)
        p_next[active] = np.maximum(s_level - c / a_act, 0.0) / c
        root_sum = np.sqrt(p_next).sum()
        if not 0.0 < root_sum < math.inf:   # every level rounded to c / a
            return None
        p_next /= root_sum ** 2
        iters += 1
        trace.append(stream_bits(a, p_next))
        delta = trace[-1] - trace[-2]
        p = p_next
        if abs(delta) < epsilon:
            converged = True
            break
    return AllocationPlan(fractions=p, iterations_used=iters,
                          objective_trace=np.asarray(trace), converged=converged)


def _checked_fractions(fractions) -> np.ndarray:
    """The fractions as floats, refused unless finite and non-negative
    with square roots summing to 1 within 1e-9, the budget allocate_sca
    keeps."""
    p = np.asarray(fractions, dtype=float)
    if not (np.isfinite(p).all() and np.all(p >= 0)
            and abs(np.sqrt(p).sum() - 1.0) <= 1e-9):
        raise ValueError(f"fractions must be finite, non-negative and have "
                         f"square roots summing to 1; got {p.tolist()}")
    return p


def round_allocation(fractions, n_ris: int) -> np.ndarray:
    """Integer element counts per stream (int64), summing to n_ris.

    Counts come from largest-remainder rounding of sqrt(p_i) * n_ris
    (ties to the lower stream index); zero-fraction streams get zero
    elements.  The fractions p_i must keep allocate_sca's budget.
    """
    _check_count("n_ris", n_ris)
    p = _checked_fractions(fractions)
    targets = np.sqrt(p) * n_ris
    counts = np.floor(targets).astype(np.int64)
    leftover = int(n_ris - counts.sum())
    if leftover > 0:
        rem = targets - counts
        order = np.lexsort((np.arange(rem.size), -rem))
        counts[order[:leftover]] += 1
    return counts


def configure_capacity(bundle_r: SvdBundle, bundle_t: SvdBundle,
                       counts) -> np.ndarray:
    """Per-stream sign alignment on contiguous blocks: the +/-1
    configuration.

    Stream i holds elements [sum(counts[:i]), sum(counts[:i+1])) and
    aligns them to conj(v_R,i) * u_T,i restricted to that block.  The
    counts, round_allocation's, must be non-negative integers covering
    every element of the bundles, on no more streams than the bundles have
    columns.
    """
    counts = np.asarray(counts)
    if counts.dtype.kind not in "iu" or (counts < 0).any():
        raise ValueError(f"counts must be non-negative integers; "
                         f"got {counts.tolist()}")
    n_s = bundle_r.right_h.shape[1]
    columns = min(bundle_r.right_h.shape[0], bundle_t.left.shape[1])
    placed = int(counts.sum())
    if placed != n_s or counts.size > columns:
        raise ValueError(f"plan places {placed} elements on {counts.size} "
                         f"streams; the bundles have {n_s} elements and "
                         f"{columns} stream columns")
    states = np.ones(n_s)
    # each stream's target is formed on its own elements only
    start = 0
    for i, end in enumerate(np.cumsum(counts).tolist()):
        if end > start:
            states[start:end] = sign_align(_stream_target(
                bundle_r, bundle_t, i, slice(start, end)))
        start = end
    return states


def capacity_lower_bound(fractions, singvals_r, singvals_t, snr: float,
                         n_t: int) -> float:
    """Deterministic bound sum_i log2(1 + 0.25*snr/n_t * d_R,i^2 d_T,i^2 p_i).

    It reads allocate_sca's inputs: the descending singular values of the
    two channels, the instantaneous ones of an SvdBundle or the square
    roots of an AsymptoticSpectrum's predicted values (statistical CSI),
    a linear snr, positive and finite, and the integer n_t.  The fractions
    keep allocate_sca's budget, on no more streams than the singular
    values have.  The gains are allocate_sca's, so on the singular values
    a plan was made from the bound is its final SCA objective, bit for bit.
    """
    a = _stream_gains(singvals_r, singvals_t, snr, n_t)
    p = _checked_fractions(fractions)
    if p.size > a.size:
        raise ValueError(f"{p.size} fractions for {a.size} streams")
    return stream_bits(a[:p.size], p)


def offdiag_ratio(h_eff: np.ndarray) -> float:
    """Off-diagonal energy fraction of the effective channel, in [0, 1];
    both energies are channel_gain's."""
    h = np.asarray(h_eff)
    total = channel_gain(h)
    if total == 0.0:
        return 0.0
    return (total - channel_gain(np.diagonal(h))) / total


def configure_wsa(bundle_r: SvdBundle, bundle_t: SvdBundle, snr: float
                  ) -> tuple[np.ndarray, AllocationPlan]:
    """W-SA configuration from the two channel SVDs: allocate fractions on
    their singular values, round them to element counts, and align each
    stream; returns the +/-1 configuration and the plan allocate_sca made.

    Statistical-CSI W-SA runs the same steps on other singular values:
    allocate_sca on the square roots of each side's asymptotic_spectrum,
    then round_allocation and configure_capacity on the bundles.
    """
    plan = allocate_sca(bundle_r.singular_values, bundle_t.singular_values,
                        snr, bundle_t.right_h.shape[1])
    counts = round_allocation(plan.fractions, bundle_t.left.shape[0])
    return configure_capacity(bundle_r, bundle_t, counts), plan


def wsa_report(h_r_herm: np.ndarray, h_t: np.ndarray, bundle_r: SvdBundle,
               bundle_t: SvdBundle, phi: np.ndarray, plan: AllocationPlan,
               snr: float) -> CapacityReport:
    """The capacity metrics of W-SA's phi and plan on the channel pair with
    SVDs bundle_r and bundle_t."""
    cap = capacity_exact(cascaded_channel(h_r_herm, phi, h_t), snr)
    cap_diag = capacity_diag_approx(bundle_r, bundle_t, phi, snr)
    cap_lb = capacity_lower_bound(plan.fractions, bundle_r.singular_values,
                                  bundle_t.singular_values, snr,
                                  bundle_t.right_h.shape[1])
    ratio = offdiag_ratio(effective_channel(bundle_r, phi, bundle_t))
    return CapacityReport(phi, cap, cap_diag, cap_lb, ratio)


def run_wsa(h_r_herm: np.ndarray, h_t: np.ndarray, snr: float
            ) -> tuple[CapacityReport, AllocationPlan]:
    """Full waterfilling-SA pipeline on one channel pair (instantaneous CSI).

    SVD both channels, configure them with configure_wsa, and score the
    configuration with wsa_report; n_t is the column count of h_t
    (n_ris x n_t).  Returns the report plus the plan;
    round_allocation(plan.fractions, n_ris) gives its counts.
    """
    h_r_herm = np.asarray(h_r_herm, dtype=complex)
    h_t = np.asarray(h_t, dtype=complex)
    bundle_r = svd_bundle(h_r_herm)
    bundle_t = svd_bundle(h_t)
    phi, plan = configure_wsa(bundle_r, bundle_t, snr)
    return wsa_report(h_r_herm, h_t, bundle_r, bundle_t, phi, plan, snr), plan
