import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import risopt.harness as harness
from risopt.channels import (LosSpec, cascaded_channel, complex_gaussian,
                             sample_ricean)
from risopt.harness import db2lin, preset_spec
from tests.oracles import bits, los_part, make_los, scattered_part


def test_los_matrix_is_rank_one_outer_product():
    los = make_los()
    m = los.los_matrix()
    assert m.shape == (16, 4)
    assert np.allclose(m, np.outer(los.ris_steering,
                                   los.array_steering.conj()))
    s = np.linalg.svd(m, compute_uv=False)
    assert s[0] == pytest.approx(math.sqrt(16 * 4))
    assert np.all(s[1:] < 1e-12)


def test_steering_vectors_are_built_once_and_read_only():
    # one name per vector: the cached attribute itself
    assert [name for name in dir(LosSpec) if "steering" in name] == [
        "array_steering", "ris_steering"]
    los = make_los()
    for name in ("ris_steering", "array_steering"):
        a = getattr(los, name)
        assert getattr(los, name) is a
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_los_matrix_is_a_fresh_writable_array_per_call():
    # sample_ricean scales its LoS matrix in place
    los = make_los()
    m1, m2 = los.los_matrix(), los.los_matrix()
    assert not np.shares_memory(m1, m2)
    assert m1.flags.writeable and m2.flags.writeable
    assert not np.shares_memory(m1, los.ris_steering)


def test_cached_vectors_leave_equality_hash_and_repr_alone():
    los, twin = make_los(seed=3), make_los(seed=3)
    los.ris_steering, los.array_steering
    assert los == twin and hash(los) == hash(twin)
    assert repr(los) == repr(twin)


def test_pure_los_limit_draws_nothing_random():
    los = make_los()
    a = sample_ricean(math.inf, los, np.random.default_rng(0))
    b = sample_ricean(math.inf, los, np.random.default_rng(99))
    assert np.array_equal(a, b)
    assert np.array_equal(a, los.los_matrix())
    assert np.all(scattered_part(a, math.inf, los) == 0)


def test_rayleigh_limit_has_no_deterministic_part():
    los = make_los()
    h = sample_ricean(0.0, los, np.random.default_rng(1))
    assert np.allclose(los_part(0.0, los), 0.0)
    assert np.array_equal(scattered_part(h, 0.0, los), h)


def test_parts_sum_to_matrix():
    los = make_los()
    for k in (0.0, 0.3, 1.0, 10.0):
        h = sample_ricean(k, los, np.random.default_rng(5))
        assert h.shape == (16, 4)
        assert np.allclose(los_part(k, los) + scattered_part(h, k, los), h)
        assert los_part(k, los) == pytest.approx(
            math.sqrt(k / (k + 1.0)) * los.los_matrix())


def test_unit_average_entry_power():
    # E|h_mn|^2 = 1 for every K; check the empirical Frobenius norm
    los = make_los(n_ris=64, n_array=8)
    rng = np.random.default_rng(11)
    for k in (0.0, 1.0, 10.0):
        total = 0.0
        trials = 60
        for _ in range(trials):
            total += np.sum(np.abs(sample_ricean(k, los, rng)) ** 2)
        avg = total / (trials * 64 * 8)
        assert avg == pytest.approx(1.0, rel=0.05)


def test_complex_gaussian_moments():
    rng = np.random.default_rng(2)
    z = complex_gaussian(rng, (2000,))
    assert np.abs(z.mean()) < 0.05
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.05)
    # circularity: pseudo-variance E[z^2] vanishes
    assert np.abs(np.mean(z ** 2)) < 0.05


def textbook_ricean(n_ris, n_array, k, los, rng):
    shape = (n_ris, n_array)
    scattered = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return (math.sqrt(k / (k + 1.0)) * los.los_matrix()
            + math.sqrt(1.0 / (k + 1.0)) * scattered)


@pytest.mark.parametrize("k", [0.0, 0.05, 1.0, 10.0])
def test_sample_ricean_is_the_textbook_sum_bit_for_bit(k):
    for seed, (n_ris, n_array) in enumerate([(16, 4), (512, 8), (2000, 20)]):
        los = make_los(n_ris, n_array, seed=seed)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        h = sample_ricean(k, los, rng)
        assert np.array_equal(bits(h), bits(textbook_ricean(n_ris, n_array, k,
                                                             los, ref)))
        assert rng.bit_generator.state == ref.bit_generator.state


def test_pure_los_draw_is_the_los_matrix_bit_for_bit():
    los = make_los(64, 8)
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    h = sample_ricean(math.inf, los, rng)
    assert np.array_equal(bits(h), bits(los.los_matrix()))
    assert rng.bit_generator.state == state


def test_sampling_leaves_the_los_component_untouched():
    # the sample is built in place in a fresh LoS buffer; nothing the
    # LosSpec hands out later may see that write
    los = make_los(64, 8, seed=2)
    before = los.los_matrix().copy()
    h = sample_ricean(1.0, los, np.random.default_rng(6))
    assert np.array_equal(bits(los.los_matrix()), bits(before))
    assert not np.shares_memory(h, los.los_matrix())
    assert np.allclose(los_part(1.0, los) + scattered_part(h, 1.0, los), h)
    assert los_part(1.0, los) == pytest.approx(math.sqrt(0.5) * before)


@settings(max_examples=100, deadline=None)
@given(n_ris=st.integers(1, 300), n_array=st.integers(1, 12),
       k=st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sample_ricean_bits_property(n_ris, n_array, k, seed):
    los = make_los(n_ris, n_array, seed=seed % 1000)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    h = sample_ricean(k, los, rng)
    assert np.array_equal(bits(h), bits(textbook_ricean(n_ris, n_array, k,
                                                         los, ref)))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_sample_validation():
    los = make_los()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_ricean(-0.5, los, rng)
    with pytest.raises(ValueError):
        sample_ricean(math.nan, los, rng)


def test_hermitian_orientation():
    # a trial's link holds the transmit draw as sampled (n_ris x n_t) and
    # the receive draw, which follows it, Hermitian-transposed (n_r x n_ris)
    spec = preset_spec("custom-gain", n_ris_list=(16,), n_t=4, n_r=2,
                       k_t_db=3.0, k_r_db=-2.0)
    point = harness._grid(spec)[0]
    link = harness._Link(point, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    los_t, h_t = harness._sample_side(rng, 16, 4, db2lin(3.0))
    los_r, h_r = harness._sample_side(rng, 16, 2, db2lin(-2.0))
    assert link.t.shape == (16, 4) and link.a.shape == (2, 16)
    assert np.array_equal(link.t, h_t)
    assert np.array_equal(link.a, h_r.conj().T)
    assert (link.los_t, link.los_r) == (los_t, los_r)
    assert (link.k_t, link.k_r) == (db2lin(3.0), db2lin(-2.0))


def test_cascade_matches_dense_diagonal_product():
    rng = np.random.default_rng(8)
    n_s, n_t, n_r = 10, 3, 5
    h_t = rng.normal(size=(n_s, n_t)) + 1j * rng.normal(size=(n_s, n_t))
    h_r_herm = rng.normal(size=(n_r, n_s)) + 1j * rng.normal(size=(n_r, n_s))
    states = np.where(rng.random(n_s) < 0.5, 1.0, -1.0)
    dense = h_r_herm @ np.diag(states) @ h_t
    assert np.allclose(cascaded_channel(h_r_herm, states, h_t), dense)
    # continuous unit-modulus vectors work too
    phi = np.exp(1j * rng.uniform(-math.pi, math.pi, n_s))
    assert np.allclose(cascaded_channel(h_r_herm, phi, h_t),
                       h_r_herm @ np.diag(phi) @ h_t)


def test_cascade_dimension_check():
    with pytest.raises(ValueError):
        cascaded_channel(np.ones((2, 3)), np.ones(4), np.ones((4, 2)))
