import math

import numpy as np
import pytest

from risopt.channels import cascaded_channel, sample_ricean
from risopt.gain import channel_gain, configure_gain_los, gain_lower_bound
from risopt.spectral import svd_bundle
from tests.oracles import gain_expansion
from tests.test_channels import make_los


def test_channel_gain_is_squared_frobenius_norm():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    assert channel_gain(h) == pytest.approx(np.linalg.norm(h, "fro") ** 2)


def test_gain_expansion_matches_direct_cascade():
    rng = np.random.default_rng(1)
    n_s, n_t, n_r = 24, 4, 5
    h_t = rng.normal(size=(n_s, n_t)) + 1j * rng.normal(size=(n_s, n_t))
    h_r_herm = rng.normal(size=(n_r, n_s)) + 1j * rng.normal(size=(n_r, n_s))
    states = np.where(rng.random(n_s) < 0.5, 1.0, -1.0)
    direct = channel_gain(cascaded_channel(h_r_herm, states, h_t))
    expanded = gain_expansion(svd_bundle(h_r_herm), svd_bundle(h_t), states)
    assert expanded == pytest.approx(direct, rel=1e-10)


def test_pure_los_quarter_guarantee_exact():
    # rank-1 factorization makes the gain N_r N_t |a_r^H diag(phi) a_t|^2,
    # so sign alignment guarantees at least a quarter of N_r N_t N_s^2
    for seed in range(8):
        los_t = make_los(n_ris=36, n_array=3, seed=seed)
        los_r = make_los(n_ris=36, n_array=5, seed=seed + 100)
        h_t = sample_ricean(math.inf, los_t, np.random.default_rng(0))
        h_r = sample_ricean(math.inf, los_r, np.random.default_rng(0))
        phi = configure_gain_los(los_t, los_r)
        g = channel_gain(cascaded_channel(h_r.conj().T, phi, h_t))
        bound = gain_lower_bound(36, 3, 5, math.inf, math.inf)
        assert g >= bound - 1e-9
        assert g <= 16.0 * bound + 1e-9      # i.e. N_r N_t N_s^2


def test_configure_gain_los_requires_shared_ris_geometry():
    los_t = make_los(n_ris=16, n_array=4, seed=0)
    los_r = make_los(n_ris=25, n_array=4, seed=1)
    with pytest.raises(ValueError):
        configure_gain_los(los_t, los_r)


def test_gain_lower_bound_weights():
    assert gain_lower_bound(100, 2, 3, math.inf, math.inf) == pytest.approx(
        0.25 * 100 ** 2 * 6)
    assert gain_lower_bound(100, 2, 3, 1.0, 1.0) == pytest.approx(
        0.25 * 0.25 * 100 ** 2 * 6)
    assert gain_lower_bound(100, 2, 3, 0.0, 5.0) == 0.0
    with pytest.raises(ValueError):
        gain_lower_bound(100, 2, 3, -1.0, 1.0)
