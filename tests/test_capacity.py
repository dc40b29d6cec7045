import math
import warnings

import numpy as np
import pytest

from risopt import capacity
from risopt.alignment import sign_align
from risopt.capacity import (allocate_sca, capacity_diag_approx,
                             capacity_exact, capacity_lower_bound,
                             configure_capacity, configure_wsa,
                             effective_channel, offdiag_ratio,
                             round_allocation, run_wsa, stream_columns)
from risopt.channels import cascaded_channel, complex_gaussian, sample_ricean
from risopt.gain import configure_gain_los
from risopt.manifold import quantize_1bit
from risopt.spectral import asymptotic_spectrum, svd_bundle
from tests.oracles import water_level_bisect
from tests.test_channels import make_los


def test_water_level_matches_bisection():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        gains = rng.uniform(0.2, 8.0, n)
        weights = rng.uniform(0.05, 2.0, n)
        budget = float(rng.uniform(0.1, 5.0))
        eta = capacity._water_level(gains, weights, budget)
        assert eta == pytest.approx(water_level_bisect(gains, weights, budget),
                                    rel=1e-6)
        # residual of the budget equation at the returned level
        per = np.clip(1.0 / (eta * weights) - 1.0 / gains, 0.0, None)
        assert abs(np.sum(weights * per) - budget) < 1e-10


def test_capacity_exact_against_logdet():
    rng = np.random.default_rng(1)
    h = complex_gaussian(rng, (5, 7))
    snr, n_t = 6.0, 7
    sign, logdet = np.linalg.slogdet(np.eye(5) + (snr / n_t) * h @ h.conj().T)
    assert sign == pytest.approx(1.0)
    assert capacity_exact(h, snr) == pytest.approx(logdet / math.log(2.0))
    with pytest.raises(ValueError):
        capacity_exact(h, 0.0)
    with pytest.raises(ValueError, match="^snr must be finite; got inf$"):
        capacity_exact(h, math.inf)
    with pytest.raises(ValueError):
        capacity_exact(np.array([[np.nan + 0j]]), 1.0)


@pytest.mark.parametrize("snr, message", [
    (math.inf, "^snr must be finite; got inf$"),
    (math.nan, "^snr must be positive; got nan$"),
    (0.0, "^snr must be positive; got 0.0$"),
    (-1.0, "^snr must be positive; got -1.0$"),
], ids=["inf", "nan", "zero", "negative"])
@pytest.mark.parametrize("evaluate", [
    lambda r, t, snr: capacity_diag_approx(r, t, np.ones(64), snr),
    lambda r, t, snr: capacity_lower_bound(
        np.full(4, 1.0 / 16.0), r.singular_values, t.singular_values, snr, 4),
], ids=["capacity_diag_approx", "capacity_lower_bound"])
def test_capacity_bounds_refuse_the_snr_capacity_exact_refuses(evaluate, snr,
                                                               message):
    # on this 4x64 pair both used to return inf, nan, 0.0, and nan with a
    # RuntimeWarning
    rng = np.random.default_rng(13)
    bundle_r = svd_bundle(complex_gaussian(rng, (4, 64)))
    bundle_t = svd_bundle(complex_gaussian(rng, (64, 4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=message):
            evaluate(bundle_r, bundle_t, snr)


def test_effective_channel_shares_singular_values_with_cascade():
    rng = np.random.default_rng(2)
    n_s, n_t, n_r = 30, 3, 4
    h_t = complex_gaussian(rng, (n_s, n_t))
    h_r_herm = complex_gaussian(rng, (n_r, n_s))
    phi = np.where(rng.random(n_s) < 0.5, 1.0, -1.0)
    h_eff = effective_channel(svd_bundle(h_r_herm), phi, svd_bundle(h_t))
    s_eff = np.linalg.svd(h_eff, compute_uv=False)
    s_dir = np.linalg.svd(cascaded_channel(h_r_herm, phi, h_t),
                          compute_uv=False)
    assert np.allclose(np.sort(s_eff)[::-1][:3], np.sort(s_dir)[::-1][:3])


@pytest.mark.parametrize("n_r,n_t", [(2, 3), (3, 2)])
def test_effective_channel_entrywise_rank_one_expansion(n_r, n_t):
    # each entry is a weighted alignment of phi with one stream vector
    rng = np.random.default_rng(4)
    n_s = 12
    h_t = complex_gaussian(rng, (n_s, n_t))
    h_r_herm = complex_gaussian(rng, (n_r, n_s))
    phi = np.exp(1j * rng.uniform(-np.pi, np.pi, n_s))
    br = svd_bundle(h_r_herm)
    bt = svd_bundle(h_t)
    h_eff = effective_channel(br, phi, bt)
    for i in range(n_r):
        for j in range(n_t):
            expect = (br.singular_values[i] * bt.singular_values[j]
                      * ((br.right_h[i] * bt.left[:, j]) @ phi))
            assert abs(h_eff[i, j] - expect) <= 1e-10 * max(1.0, abs(expect))


def test_allocation_monotone_trace_and_budget():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        d_r = np.sort(rng.uniform(0.5, 4.0, n))[::-1]
        d_t = np.sort(rng.uniform(0.5, 4.0, n))[::-1]
        plan = allocate_sca(d_r, d_t, snr=10.0, n_t=n)
        assert np.all(np.diff(plan.objective_trace) >= -1e-9)
        assert abs(np.sum(np.sqrt(plan.fractions)) - 1.0) < 1e-9
        assert np.all(plan.fractions >= 0)
        assert plan.converged


def test_allocation_dominant_stream_takes_everything():
    plan = allocate_sca(np.array([50.0, 0.02]), np.array([50.0, 0.02]),
                        snr=10.0, n_t=2)
    assert plan.fractions[0] == pytest.approx(1.0, abs=1e-6)
    assert plan.fractions[1] == pytest.approx(0.0, abs=1e-6)


def stream_gains(d_r, d_t, snr, n_t):
    """allocate_sca's stream gains, in its order of operations."""
    d_r, d_t = np.asarray(d_r, dtype=float), np.asarray(d_t, dtype=float)
    nmin = min(d_r.size, d_t.size)
    return 0.25 * snr * (d_r[:nmin] ** 2) * (d_t[:nmin] ** 2) / n_t


def test_allocation_equal_gains_recovers_uniform_split():
    # the symmetric point is a fixed point of the iteration; from the
    # uniform start it is held exactly (the multi-start may instead
    # report a corner when concentration wins globally)
    n = 5
    plan = capacity._sca_from(stream_gains(np.full(n, 2.0), np.full(n, 3.0), 8.0, n),
                              np.full(n, 1.0 / n ** 2))
    assert np.allclose(plan.fractions, 1.0 / n ** 2, atol=1e-6)
    assert plan.converged


def test_equal_gains_high_snr_prefers_the_split():
    # once the per-stream gains are large the multi-start default keeps
    # the symmetric interior point rather than a corner
    n = 4
    plan = allocate_sca(np.full(n, 30.0), np.full(n, 30.0), snr=10.0, n_t=n)
    assert np.allclose(plan.fractions, 1.0 / n ** 2, atol=1e-6)


def test_allocation_beats_two_stream_grid_search():
    rng = np.random.default_rng(4)
    for _ in range(12):
        d_r = rng.uniform(0.5, 3.0, 2)
        d_t = rng.uniform(0.5, 3.0, 2)
        snr = float(rng.uniform(2.0, 20.0))
        a = 0.25 * snr * d_r ** 2 * d_t ** 2 / 2.0
        t = np.linspace(0.0, 1.0, 20001)
        obj = (np.log1p(a[0] * t ** 2)
               + np.log1p(a[1] * (1.0 - t) ** 2)) / math.log(2.0)
        best = float(obj.max())
        plan = allocate_sca(d_r, d_t, snr, 2)
        got = float(np.sum(np.log1p(a * plan.fractions)) / math.log(2.0))
        assert got >= best - 1e-3


def test_allocation_nonconvergence_flag():
    a = stream_gains([3.0, 2.0, 1.0], [2.0, 1.5, 1.0], 10.0, 3)
    plan = capacity._sca_from(a, np.full(3, 1.0 / 9.0), epsilon=1e-15,
                              max_iters=2)
    assert not plan.converged
    assert plan.iterations_used == 2


def test_allocation_validation():
    with pytest.raises(ValueError):
        allocate_sca(np.array([1.0]), np.array([1.0]), snr=-1.0, n_t=1)
    with pytest.raises(ValueError):
        allocate_sca(np.array([]), np.array([]), snr=1.0, n_t=1)


@pytest.mark.parametrize("d_r, d_t, n_t, message", [
    # a NaN singular value used to end in an IndexError inside the level
    # search, n_t = 0 divided the gains by zero, n_t = 2.5 divided them
    # by 2.5 and n_t = True was taken as 1
    ([2.0, math.nan], [2.0, 1.0], 2, "^singular values must be finite$"),
    ([2.0, 1.0], [math.inf, 1.0], 2, "^singular values must be finite$"),
    ([2.0, 1.0], [2.0, 1.0], 0, "^n_t must be an integer >= 1; got 0$"),
    ([2.0, 1.0], [2.0, 1.0], 2.5, "^n_t must be an integer >= 1; got 2.5$"),
    ([2.0, 1.0], [2.0, 1.0], True, "^n_t must be an integer >= 1; got True$"),
], ids=["nan-receive", "inf-transmit", "n_t-zero", "n_t-fraction", "n_t-bool"])
def test_allocation_refuses_non_finite_singular_values_and_no_antenna(
        d_r, d_t, n_t, message):
    with pytest.raises(ValueError, match=message):
        allocate_sca(d_r, d_t, 10.0, n_t)
    # the lower bound reads the same inputs and refuses them alike
    with pytest.raises(ValueError, match=message):
        capacity_lower_bound([0.25, 0.25], d_r, d_t, 10.0, n_t)
    # numpy integers are sizes too
    assert allocate_sca([2.0, 1.0], [2.0, 1.0], 10.0, np.int64(2)).converged


def test_a_non_finite_snr_is_refused_before_any_start():
    # inf gains used to make the proportional start NaN and end in an
    # IndexError; NaN gives the message the pinned nan-snr rows hold
    for streams in (1, 3):
        d = np.arange(streams, 0, -1, dtype=float)
        with pytest.raises(ValueError, match="^snr must be finite; got inf$"):
            allocate_sca(d, d, math.inf, streams)
        with pytest.raises(ValueError, match="^snr must be positive; got nan$"):
            allocate_sca(d, d, math.nan, streams)


def test_gains_too_small_for_a_step_are_a_value_error():
    # below a gain of about 1e-16 the water level rounds every fraction
    # of the step to 0; no start is feasible, and nothing divides 0 by 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no feasible start"):
            allocate_sca([1.0, 1.0], [1.0, 1.0], 1e-30, 2)


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
    for field in ("fractions", "objective_trace"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.iterations_used == want.iterations_used
    assert got.converged == want.converged


def test_skipped_corners_leave_the_plan_bit_identical():
    # gains from 2e-12 up: far above the ~1e-16 where a single-stream run
    # loses its fraction to cancellation and cannot be an oracle
    rng = np.random.default_rng(2024)
    wins = {"uniform": 0, "corner": 0, "proportional": 0}
    dead = 0
    for _ in range(2000):
        len_r, len_t = (int(x) for x in rng.integers(1, 9, 2))
        d_r, d_t = (np.sort(np.exp(rng.uniform(math.log(0.05), math.log(5.0), m)))[::-1]
                    for m in (len_r, len_t))
        if rng.random() < 0.15:
            d_r[:] = d_r[0]                        # equal gains: ties
        if rng.random() < 0.25 and len_r > 1:
            d_r[int(rng.integers(1, len_r)):] = 0.0  # dead streams
            dead += 1
        snr = float(np.exp(rng.uniform(math.log(1e-5), math.log(1e3))))
        want, kind = best_single_start(d_r, d_t, snr, len_t)
        assert_same_plan(allocate_sca(d_r, d_t, snr, len_t), want)
        wins[kind] += 1
    assert min(wins.values()) >= 20 and dead >= 200, (wins, dead)


def test_corners_that_cannot_win_are_not_run(monkeypatch):
    runs = []
    real = capacity._sca_from

    def counted(a, p0, *args):
        runs.append(p0)
        return real(a, p0, *args)
    monkeypatch.setattr(capacity, "_sca_from", counted)
    # equal strong streams: the uniform split beats every corner's bound
    allocate_sca(np.full(4, 30.0), np.full(4, 30.0), snr=10.0, n_t=4)
    assert len(runs) == 2                          # uniform, proportional
    # weak streams at low SNR: the first corner runs and wins, and then
    # beats the weaker corners' bounds
    runs.clear()
    plan = allocate_sca(np.array([3.0, 1.0, 0.5, 0.2]),
                        np.array([3.0, 1.0, 0.5, 0.2]), snr=1e-3, n_t=4)
    assert [p0.tolist() for p0 in runs[:2]] == [[0.0625] * 4, [1.0, 0.0, 0.0, 0.0]]
    assert len(runs) == 3                          # then proportional
    assert np.array_equal(plan.fractions, [1.0, 0.0, 0.0, 0.0])


def test_rounding_largest_remainder_with_tie_to_lower_index():
    # sqrt fractions (0.6, 0.25, 0.15) over 10 elements: floors (6, 2, 1),
    # remainders (0, .5, .5); the tie goes to the earlier stream
    counts = round_allocation([0.36, 0.0625, 0.0225], 10)
    assert counts.tolist() == [6, 3, 1]
    assert counts.dtype == np.int64


def test_rounding_preserves_totals_and_disjointness():
    rng = np.random.default_rng(5)
    w = rng.uniform(0.1, 1.0, 4)
    w /= w.sum()
    counts = round_allocation(w ** 2, 101)
    assert counts.sum() == 101
    assert np.all(counts >= 0)


@pytest.mark.parametrize("n_ris", [-5, 0, 2.5, np.float64(8.0), True])
def test_rounding_refuses_an_element_count_that_is_not_a_positive_integer(n_ris):
    # -5 used to give the counts [-2, -3], 2.5 was rounded as given and
    # True as 1
    with pytest.raises(ValueError, match="^n_ris must be an integer >= 1; got "):
        round_allocation([0.25, 0.25], n_ris)
    assert round_allocation([0.25, 0.25], np.int64(8)).tolist() == [4, 4]


@pytest.mark.parametrize("fractions", [
    [math.nan, 0.25],       # counts [-9223372036854775808, 4]
    [math.inf, 0.0],
    [-0.25, 0.25],          # counts [1, 5]: 6 elements, one on a dead stream
    [0.25, 0.16],           # square roots sum to 0.9
    [0.25, 0.25 + 1e-8],    # ... to 1 + 1e-8
    [],
], ids=["nan", "inf", "negative", "short-budget", "over-budget", "empty"])
def test_rounding_refuses_fractions_off_the_budget(fractions):
    with pytest.raises(ValueError, match=r"^fractions must be finite, "
                       r"non-negative and have square roots summing to 1; got \["):
        round_allocation(fractions, 8)
    # within 1e-9 of the budget the counts still cover every element
    assert round_allocation([0.25, 0.25 + 1e-10], 8).tolist() == [4, 4]


def blocks(counts):
    """The element ranges of the streams' contiguous blocks."""
    edges = np.concatenate(([0], np.cumsum(counts)))
    return [np.arange(edges[i], edges[i + 1]) for i in range(len(counts))]


def test_configure_capacity_aligns_each_stream_on_its_block():
    rng = np.random.default_rng(6)
    n_s, n = 40, 3
    h_t = complex_gaussian(rng, (n_s, n))
    h_r_herm = complex_gaussian(rng, (n, n_s))
    bundle_r, bundle_t = svd_bundle(h_r_herm), svd_bundle(h_t)
    counts = round_allocation([0.25, 0.09, 0.04], n_s)
    phi = configure_capacity(bundle_r, bundle_t, counts)
    cols = bundle_r.right_h[:n].T * bundle_t.left[:, :n]
    for i, idx in enumerate(blocks(counts)):
        b = cols[idx, i]
        aligned = abs(b @ phi[idx])
        assert aligned >= 0.5 * np.sum(np.abs(b)) - 1e-12


@pytest.mark.parametrize("n_s,n", [(64, 4), (512, 8), (1024, 8), (2048, 8),
                                   (8192, 8), (5000, 10), (20000, 10)])
def test_stream_columns_are_f_ordered_at_every_size(n_s, n):
    # BLAS takes another kernel for cols.T @ phi on C-ordered columns, so
    # the layout fixes the bits of the surrogate and of cap_diag; the
    # sizes lie on both sides of numpy's 256 KiB temporary-elision
    # threshold (2048x8 on), which must not pick the layout
    rng = np.random.default_rng(n_s)
    bundle_r = svd_bundle(complex_gaussian(rng, (n, n_s)))
    bundle_t = svd_bundle(complex_gaussian(rng, (n_s, n)))
    right = bundle_r.right_h.conj().T                 # V_R
    want = np.asfortranarray(right[:, :n].conj() * bundle_t.left[:, :n])
    cols, _ = stream_columns(bundle_r, bundle_t)
    assert cols.flags.f_contiguous and cols.strides == want.strides
    assert np.array_equal(cols.T.view(np.uint64), want.T.view(np.uint64))
    phi = np.exp(1j * rng.uniform(-math.pi, math.pi, n_s))
    assert np.array_equal((cols.T @ phi).view(np.uint64),
                          (want.T @ phi).view(np.uint64))


def masked_column_configuration(bundle_r, bundle_t, counts) -> np.ndarray:
    """The earlier configure_capacity: every stream column over all
    elements, each gathered at its block and aligned."""
    states = np.ones(bundle_r.right_h.shape[1])
    cols, _ = stream_columns(bundle_r, bundle_t)
    for i, idx in enumerate(blocks(counts)):
        if idx.size:
            states[idx] = sign_align(cols[idx, i])
    return states


def test_configure_capacity_matches_the_masked_column_oracle():
    rng = np.random.default_rng(11)
    for n_s, n_r, n_t in ((40, 3, 3), (257, 2, 5), (1000, 6, 4), (2048, 8, 8)):
        bundle_r = svd_bundle(complex_gaussian(rng, (n_r, n_s)))
        bundle_t = svd_bundle(complex_gaussian(rng, (n_s, n_t)))
        w = rng.uniform(0.0, 1.0, min(n_r, n_t))
        w[-1] = 0.0                 # a stream with no elements
        w /= w.sum()
        counts = round_allocation(w ** 2, n_s)
        got = configure_capacity(bundle_r, bundle_t, counts)
        assert np.array_equal(got, masked_column_configuration(
            bundle_r, bundle_t, counts))


@pytest.mark.parametrize("n_ris, streams, message", [
    # rounded for 60 elements: elements 60-79 used to stay at +1
    (60, 2, "^plan places 60 elements on 2 streams; the bundles have 80 "
            "elements and 2 stream columns$"),
    # rounded for 100 elements: an IndexError
    (100, 2, "^plan places 100 elements on 2 streams; the bundles have 80 "),
    # more streams than the bundles have columns
    (80, 3, "^plan places 80 elements on 3 streams; the bundles have 80 "
            "elements and 2 stream columns$"),
], ids=["too-few-elements", "too-many-elements", "too-many-streams"])
def test_configure_capacity_refuses_a_plan_for_other_bundles(n_ris, streams,
                                                            message):
    rng = np.random.default_rng(12)
    bundle_r = svd_bundle(complex_gaussian(rng, (2, 80)))
    bundle_t = svd_bundle(complex_gaussian(rng, (80, 2)))
    counts = round_allocation(np.full(streams, 1.0 / streams ** 2), n_ris)
    with pytest.raises(ValueError, match=message):
        configure_capacity(bundle_r, bundle_t, counts)


@pytest.mark.parametrize("counts", [
    np.array([100, -20]),           # sums to 80: stream 0 took every element
    np.array([40.5, 39.5]),         # a TypeError from slicing
    [40.0, 40.0],
    np.array([True, True]),
], ids=["negative", "fractional", "float-list", "bool"])
def test_configure_capacity_refuses_counts_that_are_not_counts(counts):
    rng = np.random.default_rng(12)
    bundle_r = svd_bundle(complex_gaussian(rng, (2, 80)))
    bundle_t = svd_bundle(complex_gaussian(rng, (80, 2)))
    with pytest.raises(ValueError, match=r"^counts must be non-negative "
                       r"integers; got \["):
        configure_capacity(bundle_r, bundle_t, counts)
    # a list of integers is read as round_allocation's int64 counts
    assert np.array_equal(configure_capacity(bundle_r, bundle_t, [50, 30]),
                          configure_capacity(bundle_r, bundle_t,
                                             np.array([50, 30], np.int64)))


def test_capacity_lower_bound_on_the_plan_values_is_the_sca_objective():
    # the bound reads allocate_sca's inputs, so on the singular values a
    # plan was made from it is SCA's final objective: the instantaneous
    # values of instantaneous CSI and the predicted ones of statistical CSI,
    # at SNRs where the plan is near the equal split, waterfills over two
    # or three streams, and keeps one
    rng = np.random.default_rng(8)
    predicted = np.sqrt(asymptotic_spectrum(50, 4, 1.0)
                        .predicted_sq_singular_values)
    for snr in (10.0, 0.3, 0.03):
        h_t = complex_gaussian(rng, (50, 4))
        h_r_herm = complex_gaussian(rng, (4, 50))
        instantaneous = (svd_bundle(h_r_herm).singular_values,
                         svd_bundle(h_t).singular_values)
        for d_r, d_t in (instantaneous, (predicted, predicted)):
            plan = allocate_sca(d_r, d_t, snr, 4)
            assert capacity_lower_bound(plan.fractions, d_r, d_t, snr, 4) \
                == plan.objective_trace[-1]


def test_capacity_lower_bound_is_the_sca_objective_bit_for_bit():
    # the bound and SCA read one stream-gain vector, so a second formula
    # for the gains, in another operation order, shows in the last bits
    rng = np.random.default_rng(0)
    for _ in range(3000):
        streams = int(rng.integers(2, 12))
        n_t = streams + int(rng.integers(0, 3))
        d_r, d_t = (np.sort(rng.uniform(0.1, 60.0, streams))[::-1]
                    for _ in range(2))
        snr = 10.0 ** (rng.uniform(-40.0, 20.0) / 10.0)
        plan = allocate_sca(d_r, d_t, snr, n_t)
        assert capacity_lower_bound(plan.fractions, d_r, d_t, snr, n_t) \
            == plan.objective_trace[-1], (d_r, d_t, snr, n_t)


@pytest.mark.parametrize("fractions, message", [
    (np.full(4, 2.0), "^fractions must be finite"),             # 48.33 bits
    ([math.nan, 0.25, 0.0, 0.0], "^fractions must be finite"),
    ([-0.25, 0.25, 0.25, 0.25], "^fractions must be finite"),
    (np.full(5, 1.0 / 25.0), "^5 fractions for 4 streams$"),   # the 5th dropped
], ids=["off-budget", "nan", "negative", "five-on-four-streams"])
def test_capacity_lower_bound_refuses_fractions_off_the_budget(fractions,
                                                               message):
    rng = np.random.default_rng(13)
    bundle_r = svd_bundle(complex_gaussian(rng, (4, 64)))
    bundle_t = svd_bundle(complex_gaussian(rng, (64, 4)))
    predicted = np.sqrt(asymptotic_spectrum(64, 4, 1.0)
                        .predicted_sq_singular_values)
    instantaneous = (bundle_r.singular_values, bundle_t.singular_values)
    for d_r, d_t in (instantaneous, (predicted, predicted)):
        with pytest.raises(ValueError, match=message):
            capacity_lower_bound(fractions, d_r, d_t, 10.0, 4)
    # the snr is checked first, so its message is the one a bad snr gives
    with pytest.raises(ValueError, match="^snr must be positive; got nan$"):
        capacity_lower_bound(fractions, *instantaneous, math.nan, 4)


def test_offdiag_ratio_limits():
    assert offdiag_ratio(np.diag([1.0, 2.0])) == 0.0
    off = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert offdiag_ratio(off) == 1.0
    assert offdiag_ratio(np.zeros((2, 2))) == 0.0
    mixed = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert offdiag_ratio(mixed) == pytest.approx(1.0 / 3.0)


def test_run_wsa_end_to_end():
    n_s, n = 256, 4
    los_t = make_los(n_ris=n_s, n_array=n, seed=20)
    los_r = make_los(n_ris=n_s, n_array=n, seed=21)
    rng = np.random.default_rng(22)
    h_t = sample_ricean(1.0, los_t, rng)
    h_r = sample_ricean(1.0, los_r, rng)
    report, plan = run_wsa(h_r.conj().T, h_t, snr=10.0)
    bundle_r, bundle_t = svd_bundle(h_r.conj().T), svd_bundle(h_t)
    # the configuration aligns the blocks the plan's fractions round to
    counts = round_allocation(plan.fractions, n_s)
    assert np.array_equal(report.phi,
                          configure_capacity(bundle_r, bundle_t, counts))
    assert report.capacity_exact > 0
    assert 0.0 <= report.offdiag_ratio <= 1.0
    assert report.capacity_diag == pytest.approx(
        capacity_diag_approx(bundle_r, bundle_t, report.phi, 10.0))
    assert report.capacity_lb > 0


def test_run_wsa_statistical_mode_and_continuous():
    n_s, n = 128, 4
    los_t = make_los(n_ris=n_s, n_array=n, seed=30)
    los_r = make_los(n_ris=n_s, n_array=n, seed=31)
    rng = np.random.default_rng(32)
    h_t = sample_ricean(2.0, los_t, rng)
    h_r = sample_ricean(2.0, los_r, rng)
    # statistical-CSI W-SA: the public steps on the predicted singular
    # values, aligned on the instantaneous bundles
    d = np.sqrt(asymptotic_spectrum(n_s, n, 2.0).predicted_sq_singular_values)
    bundle_r, bundle_t = svd_bundle(h_r.conj().T), svd_bundle(h_t)
    plan = allocate_sca(d, d, 10.0, n)
    # round_allocation refuses fractions off allocate_sca's budget
    counts = round_allocation(plan.fractions, n_s)
    assert counts.sum() == n_s
    phi = configure_capacity(bundle_r, bundle_t, counts)
    assert np.all(np.abs(phi) == 1.0)
    assert capacity_exact(cascaded_channel(h_r.conj().T, phi, h_t), 10.0) > 0
    assert capacity_lower_bound(plan.fractions, d, d, 10.0, n) > 0


def test_every_configuration_step_returns_a_plus_minus_one_float_array():
    n_s, n = 64, 3
    los_t = make_los(n_ris=n_s, n_array=n, seed=40)
    los_r = make_los(n_ris=n_s, n_array=n, seed=41)
    rng = np.random.default_rng(42)
    h_t = sample_ricean(1.0, los_t, rng)
    h_r_herm = sample_ricean(1.0, los_r, rng).conj().T
    bundle_r, bundle_t = svd_bundle(h_r_herm), svd_bundle(h_t)
    configurations = {
        "configure_gain_los": configure_gain_los(los_t, los_r),
        "configure_capacity": configure_capacity(
            bundle_r, bundle_t, round_allocation(np.full(n, 1.0 / n ** 2), n_s)),
        "quantize_1bit": quantize_1bit(np.exp(1j * rng.uniform(-3.0, 3.0, n_s))),
        "configure_wsa": configure_wsa(bundle_r, bundle_t, 10.0)[0],
        "run_wsa": run_wsa(h_r_herm, h_t, 10.0)[0].phi,
    }
    for name, phi in configurations.items():
        assert type(phi) is np.ndarray, name
        assert phi.dtype == np.float64 and phi.shape == (n_s,), name
        assert np.all(np.abs(phi) == 1.0), name
