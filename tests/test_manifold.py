import math
import warnings

import numpy as np
import pytest

from risopt.capacity import capacity_exact
from risopt.channels import cascaded_channel, complex_gaussian, sample_ricean
from risopt.gain import channel_gain
from risopt import manifold
from risopt.manifold import (OBJECTIVES, RmoSettings, euclidean_gradient,
                             quantize_1bit, riemannian_gradient, rmo_optimize)
from risopt.spectral import svd_bundle
from tests.oracles import finite_difference_error
from tests.test_channels import make_los


def bits(x):
    """The IEEE bit patterns of a float or complex array, so that equal
    bits means equal values and equal signs of zero."""
    return np.ascontiguousarray(x).view(np.uint64)


def random_instance(seed, n_r=8, n_s=4, n_t=8):
    rng = np.random.default_rng(seed)
    a = complex_gaussian(rng, (n_r, n_s))
    t = complex_gaussian(rng, (n_s, n_t))
    phi = np.exp(1j * rng.uniform(-math.pi, math.pi, n_s))
    return a, t, phi


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_gradients_match_finite_differences(objective):
    for seed in range(5):
        a, t, phi = random_instance(seed)
        assert finite_difference_error(objective, a, t, phi, snr=5.0) < 1e-5


def textbook_gradient(objective, a, t, phi, snr):
    """The gradients written with explicit conjugate copies of the channels."""
    rho = snr / t.shape[1]
    if objective == "gain":
        return 2 * np.sum((a.conj().T @ (a @ (phi[:, None] * t))) * t.conj(),
                          axis=1)
    if objective == "capacity_exact":
        g_mat = a @ (phi[:, None] * t)
        x = np.linalg.solve(np.eye(a.shape[0]) + rho * (g_mat @ g_mat.conj().T),
                            g_mat)
        return (2.0 * rho / math.log(2.0)) * np.sum((a.conj().T @ x) * t.conj(),
                                                    axis=1)
    bundle_r, bundle_t = svd_bundle(a), svd_bundle(t)
    nmin = min(bundle_r.singular_values.size, bundle_t.singular_values.size)
    right = bundle_r.right_h.conj().T                 # V_R
    cols = right[:, :nmin].conj() * bundle_t.left[:, :nmin]
    w = (bundle_r.singular_values[:nmin] ** 2) * (bundle_t.singular_values[:nmin] ** 2)
    z = cols.T @ phi
    coef = (2.0 * rho / math.log(2.0)) * w / (1.0 + rho * w * np.abs(z) ** 2)
    return cols.conj() @ (coef * z)


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("n_r,n_s,n_t", [(8, 4, 8), (3, 200, 5), (6, 1024, 4)])
def test_gradient_is_bit_identical_to_textbook_form(objective, n_r, n_s, n_t):
    for seed in range(3):
        a, t, phi = random_instance(seed, n_r=n_r, n_s=n_s, n_t=n_t)
        evaluate, grad = manifold._objective(objective, a, t, 5.0)
        g = grad(phi, evaluate(phi)[1])
        assert np.array_equal(g, textbook_gradient(objective, a, t, phi, 5.0))


def count_calls(monkeypatch):
    """Record every evaluate output and every state passed to grad."""
    evaluated, graded = [], []
    real = manifold._objective

    def counting(*args):
        evaluate, grad = real(*args)

        def counted_evaluate(phi):
            out = evaluate(phi)
            evaluated.append(out)
            return out

        def counted_grad(phi, state):
            graded.append(state)
            return grad(phi, state)
        return counted_evaluate, counted_grad

    monkeypatch.setattr(manifold, "_objective", counting)
    return evaluated, graded


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_rmo_evaluates_each_trial_once(objective, monkeypatch):
    evaluated, graded = count_calls(monkeypatch)
    a, t, _ = random_instance(7, n_r=4, n_s=64, n_t=4)
    res = rmo_optimize(a, t, RmoSettings(objective=objective, max_iters=40),
                       snr=10.0)
    # walk the evaluations: each one is either the next accepted value of
    # the trace or a rejected line-search trial
    trace = list(res.objective_trace)
    assert evaluated[0][0] == trace[0]
    accepted, rejected = [evaluated[0]], 0
    for out in evaluated[1:]:
        if len(accepted) < len(trace) and out[0] == trace[len(accepted)]:
            accepted.append(out)
        else:
            rejected += 1
    assert len(accepted) == res.iterations + 1
    assert len(evaluated) == 1 + res.iterations + rejected
    # every gradient reuses the state of an accepted evaluation as is
    assert len(graded) in (res.iterations, res.iterations + 1)
    assert all(state is out[1] for state, out in zip(graded, accepted))


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_every_accepted_step_strictly_raises_the_objective(objective):
    # run to the stop: near it, the sufficient-increase target rounds to
    # f itself, where a step of zero increase must not be accepted
    for seed in range(4):
        a, t, _ = random_instance(seed, n_r=4, n_s=64, n_t=4)
        res = rmo_optimize(a, t, RmoSettings(objective=objective), snr=10.0)
        assert np.all(np.diff(res.objective_trace) > 0)


def test_stalled_gain_run_stops_at_the_resolution_of_the_objective(monkeypatch):
    # a Ricean 1024x16 gain instance whose objective stops changing in
    # floating point long before max_iters
    evaluated, _ = count_calls(monkeypatch)
    rng = np.random.default_rng(2)
    h_t = sample_ricean(1.0, make_los(1024, 16, seed=4), rng)
    h_r = sample_ricean(1.0, make_los(1024, 16, seed=5), rng)
    settings = RmoSettings(objective="gain")
    res = rmo_optimize(h_r.conj().T, h_t, settings)
    assert res.stop_reason == "line_search" and not res.converged
    assert res.iterations < settings.max_iters
    # the trials of the last line search follow the last accepted value
    values = [value for value, _ in evaluated]
    last_accepted = len(values) - 1 - values[::-1].index(res.objective_trace[-1])
    assert 1 <= len(values) - 1 - last_accepted < 60


def test_capacity_objectives_require_snr():
    a, t, phi = random_instance(0)
    with pytest.raises(ValueError):
        euclidean_gradient("capacity_exact", a, t, phi)


@pytest.mark.parametrize("objective", ["capacity_exact", "capacity_surrogate"])
@pytest.mark.parametrize("snr", [float("nan"), 0.0, -1.0, math.inf])
def test_capacity_objectives_refuse_a_non_positive_or_nan_snr(objective, snr):
    # an infinite snr used to pass with RuntimeWarnings and a NaN gradient
    a, t, phi = random_instance(0)
    message = ("^snr must be finite; got inf$" if math.isinf(snr)
               else "positive linear snr")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=message):
            euclidean_gradient(objective, a, t, phi, snr=snr)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_finiteness_checks_see_either_part(bad, part):
    h = np.ones((3, 2), dtype=complex)
    h[1, 1] = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
    with pytest.raises(ValueError, match="^non-finite entries$"):
        svd_bundle(h)
    with pytest.raises(ValueError, match="^non-finite channel$"):
        capacity_exact(h, 1.0)
    with pytest.raises(FloatingPointError,
                       match="^non-finite gradient at iteration 3$"):
        manifold._check_finite(h, " at iteration 3")


def test_riemannian_projection_is_tangent_and_idempotent():
    a, t, phi = random_instance(1)
    g = euclidean_gradient("gain", a, t, phi)
    xi = riemannian_gradient(g, phi)
    assert np.max(np.abs((xi * phi.conj()).real)) < 1e-9
    assert np.allclose(riemannian_gradient(xi, phi), xi)


def retract(z):
    """rmo_optimize's retraction: one reciprocal of the moduli, one multiply."""
    z = z.copy()
    scale = np.abs(z)
    np.divide(1.0, scale, out=scale)
    z *= scale
    return z


@pytest.mark.parametrize("n_s", [1, 3, 7, 64, 1001, 4096])
def test_retraction_is_the_division_bit_for_bit(n_s):
    # the line search's candidates phi + mu*xi, xi tangent, over step
    # sizes from far below to far above one radian; odd sizes reach the
    # scalar tails of numpy's vector loops
    rng = np.random.default_rng(n_s)
    for _ in range(5):
        phi = np.exp(1j * rng.uniform(-math.pi, math.pi, n_s))
        g = complex_gaussian(rng, (n_s,)) * 10.0 ** rng.uniform(-3, 3)
        xi = riemannian_gradient(g, phi)
        for mu in 10.0 ** np.arange(-12.0, 4.0):
            z = phi + mu * xi
            assert np.all(np.abs(z) >= 1.0 - 1e-12)  # 1 but for rounding
            assert np.array_equal(bits(retract(z)), bits(z / np.abs(z)))
    # the one difference: a part that is exactly zero may flip its sign
    z = np.array([complex(-0.5, -0.0)])
    assert np.array_equal(bits(z / np.abs(z)), bits(np.array([complex(-1, 0.0)])))
    assert np.array_equal(bits(retract(z)), bits(np.array([complex(-1, -0.0)])))


def test_optimizer_trace_monotone_and_unit_modulus():
    a, t, _ = random_instance(2, n_r=6, n_s=24, n_t=6)
    res = rmo_optimize(a, t, RmoSettings(objective="gain", max_iters=80))
    assert np.all(np.diff(res.objective_trace) >= 0)
    assert np.max(np.abs(np.abs(res.phi) - 1.0)) < 1e-12
    assert res.iterations == res.objective_trace.size - 1
    assert res.stop_reason in ("max_iters", "gradient_tolerance", "line_search")


def test_optimizer_improves_capacity_objectives():
    a, t, _ = random_instance(3, n_r=4, n_s=32, n_t=4)
    for objective in ("capacity_exact", "capacity_surrogate"):
        res = rmo_optimize(a, t, RmoSettings(objective=objective,
                                             max_iters=60), snr=10.0)
        assert res.objective_trace[-1] > res.objective_trace[0]


def test_optimizer_near_continuous_optimum_on_rank_one():
    # single-antenna pure LoS: every |b_n| = 1 and the continuous
    # optimum of the gain is exactly n_s^2
    n_s = 64
    los_t = make_los(n_ris=n_s, n_array=1, seed=40)
    los_r = make_los(n_ris=n_s, n_array=1, seed=41)
    h_t = sample_ricean(math.inf, los_t, np.random.default_rng(0))
    h_r_herm = sample_ricean(math.inf, los_r, np.random.default_rng(0)).conj().T
    res = rmo_optimize(h_r_herm, h_t,
                       RmoSettings(objective="gain", max_iters=500))
    assert res.objective_trace[-1] >= (1.0 - 1e-3) * n_s ** 2
    # quantizing costs at most the quarter-guarantee factor
    cfg = quantize_1bit(res.phi)
    g = channel_gain(cascaded_channel(h_r_herm, cfg, h_t))
    assert g >= 0.2 * n_s ** 2


def test_gradient_tolerance_stop_sets_converged():
    # a zero receive channel makes every gradient exactly zero, so the
    # first check stops the run as converged, before any step
    _, t, _ = random_instance(5, n_r=3, n_s=12, n_t=3)
    a = np.zeros((3, 12), dtype=complex)
    for objective in ("gain", "capacity_exact"):
        res = rmo_optimize(a, t, RmoSettings(objective=objective), snr=10.0)
        assert res.stop_reason == "gradient_tolerance"
        assert res.converged
        assert res.iterations == 0 and res.objective_trace.size == 1
        assert res.final_grad_norm == 0.0
        assert np.all(res.phi == 1.0)


def test_settings_validation():
    with pytest.raises(ValueError):
        RmoSettings(objective="throughput")
    with pytest.raises(ValueError):
        RmoSettings(max_iters=0)
    # a count the loop can run: no bool, float or string
    for bad in (2.5, 3.0, True, "3", None):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            RmoSettings(max_iters=bad)
    assert RmoSettings(max_iters=np.int64(3)).max_iters == 3


def test_quantize_1bit():
    phi = np.exp(1j * np.array([0.1, 3.0, -3.0, 1.5707963]))
    assert quantize_1bit(phi).tolist() == [1.0, -1.0, -1.0, 1.0]
    with pytest.raises(ValueError):
        quantize_1bit(np.array([0.5 + 0.0j]))
    # boundary: Re == 0 quantizes to +1
    assert quantize_1bit(np.array([1j]))[0] == 1.0
    # a NaN part is not unit modulus, whichever part holds it
    for bad in (complex(np.nan, 0.0), complex(0.0, np.nan)):
        with pytest.raises(ValueError, match="unit modulus"):
            quantize_1bit(np.array([bad, 1 + 0j]))


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_given_bundles_change_no_bit(monkeypatch, objective):
    # the surrogate reads the given SVDs in place of making its own; the
    # run must be the one that decomposes both sides itself
    for seed, (n_r, n_s, n_t) in enumerate([(4, 64, 4), (3, 50, 6), (8, 256, 8)]):
        a, t, _ = random_instance(seed, n_r=n_r, n_s=n_s, n_t=n_t)
        settings = RmoSettings(objective=objective, max_iters=80)
        plain = rmo_optimize(a, t, settings, snr=10.0)
        bundles = (svd_bundle(a), svd_bundle(t))
        with monkeypatch.context() as m:
            m.setattr(manifold, "svd_bundle", None)  # any call would raise
            given = rmo_optimize(a, t, settings, snr=10.0, bundles=bundles)
        assert np.array_equal(bits(given.phi), bits(plain.phi))
        assert np.array_equal(bits(given.objective_trace),
                              bits(plain.objective_trace))
        assert given.iterations == plain.iterations
        assert given.final_grad_norm == plain.final_grad_norm


def reference_objective(objective, a, t, snr):
    """The value/gradient pair as first written: the surrogate recomputes
    rho * w and |z|^2 in its gradient, and its state is z alone."""
    ln2 = math.log(2.0)

    def backproject(x):
        y = a.T @ x.conj()
        y *= t
        y = np.sum(y, axis=1)
        return np.conjugate(y, out=y)

    if objective == "gain":
        def evaluate(phi):
            g_mat = a @ (phi[:, None] * t)
            return float(np.sum(np.abs(g_mat) ** 2)), g_mat

        def grad(phi, g_mat):
            return 2.0 * backproject(g_mat)
        return evaluate, grad

    rho = snr / t.shape[1]
    if objective == "capacity_exact":
        eye = np.eye(a.shape[0])

        def evaluate(phi):
            g_mat = a @ (phi[:, None] * t)
            s = np.linalg.svd(g_mat, compute_uv=False)
            return float(np.sum(np.log1p(rho * s ** 2)) / ln2), g_mat

        def grad(phi, g_mat):
            m = eye + rho * (g_mat @ g_mat.conj().T)
            x = np.linalg.solve(m, g_mat)
            return (2.0 * rho / ln2) * backproject(x)
        return evaluate, grad

    bundle_r, bundle_t = svd_bundle(a), svd_bundle(t)
    nmin = min(bundle_r.singular_values.size, bundle_t.singular_values.size)
    right = bundle_r.right_h.conj().T                 # V_R
    cols = right[:, :nmin].conj() * bundle_t.left[:, :nmin]
    w = (bundle_r.singular_values[:nmin] ** 2) * (bundle_t.singular_values[:nmin] ** 2)

    def evaluate(phi):
        z = cols.T @ phi
        return float(np.sum(np.log1p(rho * w * np.abs(z) ** 2)) / ln2), z

    def grad(phi, z):
        coef = (2.0 * rho / ln2) * w / (1.0 + rho * w * np.abs(z) ** 2)
        g = cols @ (coef * z).conj()
        return np.conjugate(g, out=g)
    return evaluate, grad


def reference_rmo(a, t, objective, max_iters, snr):
    """The ascent loop as first written: a full finiteness pass over every
    gradient and a retraction through fresh temporaries."""
    phi = np.ones(t.shape[0], dtype=complex)
    evaluate, grad = reference_objective(objective, a, t, snr)
    f, state = evaluate(phi)
    trace = [f]
    last_step = None
    iterations = 0
    converged = False
    stop_reason = "max_iters"
    grad_norm = math.inf
    for _ in range(max_iters):
        g = grad(phi, state)
        if not np.isfinite(g).all():
            raise FloatingPointError(
                f"non-finite gradient at iteration {iterations}")
        xi = g - (g.real * phi.real + g.imag * phi.imag) * phi
        sq_norm = float(np.sum(xi.real ** 2 + xi.imag ** 2))
        grad_norm = math.sqrt(sq_norm)
        if grad_norm < 1e-6:
            converged = True
            stop_reason = "gradient_tolerance"
            break
        if last_step is None:
            mu = 1.0 / max(float(np.max(np.abs(xi))), 1e-300)
        else:
            mu = 2.0 * last_step
        accepted = False
        for _ in range(60):
            z = phi + mu * xi
            cand = z / np.abs(z)
            f_new, cand_state = evaluate(cand)
            target = f + 1e-4 * mu * sq_norm
            if f_new >= target and f_new > f:
                accepted = True
                break
            if target == f:
                break
            mu *= 0.5
        if not accepted:
            stop_reason = "line_search"
            break
        last_step = mu
        phi, f, state = cand, f_new, cand_state
        trace.append(f)
        iterations += 1
    return phi, np.asarray(trace), iterations, converged, grad_norm, stop_reason


def ricean_pair(seed, n_s, n_t):
    rng = np.random.default_rng(seed)
    h_t = sample_ricean(1.0, make_los(n_s, n_t, seed=seed + 100), rng)
    h_r = sample_ricean(1.0, make_los(n_s, n_t, seed=seed + 200), rng)
    return h_r.conj().T, h_t


def trajectory_instances():
    """Ricean instances across n_t and N_S, then a zero receive channel,
    whose gradient is exactly zero at the start."""
    for n_t, n_s in ((1, 64), (4, 256), (8, 2048), (10, 512), (16, 1024),
                     (1, 2048), (4, 64), (8, 256)):
        yield ricean_pair(7 * n_t + n_s, n_s, n_t)
    _, t = ricean_pair(5, 128, 4)
    yield np.zeros((4, 128), dtype=complex), t


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_trajectory_is_the_reference_loop_bit_for_bit(objective):
    # every returned field equals the loop as first written, each run to
    # its own stop; together the runs reach all three stop reasons
    reasons = set()
    for a, t in trajectory_instances():
        got = rmo_optimize(a, t, RmoSettings(objective=objective), snr=10.0)
        phi, trace, iters, converged, grad_norm, stop = reference_rmo(
            a, t, objective, 500, 10.0)
        assert np.array_equal(bits(got.phi), bits(phi))
        assert np.array_equal(bits(got.objective_trace), bits(trace))
        assert got.iterations == iters and got.converged == converged
        assert got.final_grad_norm == grad_norm
        assert got.stop_reason == stop
        reasons.add(stop)
    assert reasons == {"max_iters", "line_search", "gradient_tolerance"}


def test_gradient_turning_non_finite_part_way_raises_at_the_reference_step():
    # the scaled cascade's capacity overflows to inf after a few accepted
    # steps; the next gradient then solves against an inf matrix
    a, t = ricean_pair(0, 256, 4)
    a = a * 10.0 ** 151.9
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError) as expected:
            reference_rmo(a, t, "capacity_exact", 500, 10.0)
        message = str(expected.value)
        assert message != "non-finite gradient at iteration 0"
        with pytest.raises(FloatingPointError, match=f"^{message}$"):
            rmo_optimize(a, t, RmoSettings(objective="capacity_exact"),
                         snr=10.0)
