"""Property tests: rounding, the sign-alignment guarantee, the water
level and the SCA multi-start, on inputs drawn by hypothesis."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from risopt.alignment import sign_align
from risopt.capacity import _water_level, allocate_sca, round_allocation
from tests.oracles import assert_same_plan, best_single_start, brute_force_value

_SETTINGS = settings(max_examples=200, deadline=None)

_weights = st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                    min_size=1, max_size=8).filter(lambda w: sum(w) > 0)
_finite = st.floats(-1e6, 1e6, allow_subnormal=False)


@_SETTINGS
@given(weights=_weights, n_ris=st.integers(1, 400))
def test_rounding_is_a_disjoint_partition_with_exact_counts(weights, n_ris):
    w = np.asarray(weights) / np.sum(weights)        # sum(sqrt(p_i)) = 1
    counts = round_allocation(w ** 2, n_ris)
    assert counts.sum() == n_ris
    # largest remainder: each count is the floor or the ceiling of its target
    assert np.all(np.abs(counts - w * n_ris) < 1.0)
    assert np.all(counts[w == 0.0] == 0)


@_SETTINGS
@given(re=st.lists(_finite, min_size=1, max_size=40), data=st.data())
def test_sign_alignment_reaches_half_the_absolute_sum(re, data):
    im = data.draw(st.lists(_finite, min_size=len(re), max_size=len(re)))
    b = np.asarray(re) + 1j * np.asarray(im)
    phi = sign_align(b)
    value = abs(b @ phi)
    total = float(np.sum(np.abs(b)))
    assert value >= 0.5 * total * (1.0 - 1e-12)
    assert value <= total * (1.0 + 1e-12)
    assert set(phi.tolist()) <= {1.0, -1.0}
    if b.size <= 10:
        assert value <= brute_force_value(b) * (1.0 + 1e-12)


@_SETTINGS
@given(pairs=st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
                      min_size=1, max_size=8),
       budget=st.floats(1e-3, 1e3))
def test_water_level_spends_exactly_its_budget(pairs, budget):
    gains, weights = (np.array(x) for x in zip(*pairs))
    eta = _water_level(gains, weights, budget)
    spent = np.sum(weights * np.clip(1.0 / (eta * weights) - 1.0 / gains, 0.0, None))
    # rounding grows with the level 1/eta, at most budget + sum(weights/gains)
    scale = budget + np.sum(weights / gains)
    assert abs(spent - budget) <= 1e-12 * gains.size * scale


def water_level_numpy(a, c, budget):
    """The segment search on numpy scalars, as _water_level ran it before
    its Python-float form."""
    cut_sorted = np.sort(c / a)
    prefix = np.cumsum(cut_sorted)
    n = cut_sorted.size
    s = (budget + prefix[-1]) / n
    for m in range(1, n):
        cand = (budget + prefix[m - 1]) / m
        if cut_sorted[m - 1] <= cand <= cut_sorted[m]:
            s = cand
            break
    return 1.0 / s


@_SETTINGS
@given(pairs=st.lists(st.tuples(st.floats(1e-300, 1e300), st.floats(1e-300, 1e300)),
                      min_size=1, max_size=12),
       budget=st.floats(1e-300, 1e300))
def test_water_level_python_floats_are_the_numpy_bits(pairs, budget):
    gains, weights = (np.array(x) for x in zip(*pairs))
    with np.errstate(all="ignore"):                 # c / a may overflow
        want = water_level_numpy(gains, weights, budget)
        got = _water_level(gains, weights, budget)
    assert np.array_equal(got, want, equal_nan=True)


_singvals = st.lists(st.one_of(st.just(0.0), st.floats(1e-2, 1e2)),
                     min_size=1, max_size=8).map(lambda d: np.sort(d)[::-1])


@settings(max_examples=500, deadline=None)
@given(d_r=_singvals, d_t=_singvals, snr=st.floats(1e-3, 1e4))
def test_allocation_is_the_best_single_start(d_r, d_t, snr):
    # gains stay above 3e-13, where a single-stream run keeps its fraction
    nmin = min(d_r.size, d_t.size)
    assume(np.any(d_r[:nmin] * d_t[:nmin] > 0))
    want, _ = best_single_start(d_r, d_t, snr, d_t.size)
    assert_same_plan(allocate_sca(d_r, d_t, snr, d_t.size), want)
