"""Each rule the package applies in several places gives one answer.

An SNR, a K-factor and an integer count are each checked by one function
(capacity._check_snr, channels._los_weight, geometry._check_count), so
every reader refuses the same values with the same text.  The count check
lives in geometry.py, the module every other one imports, so every size
reader reaches it: the allocation and the lower bound, the spectrum and
its Laguerre roots, the gain bound, the panel geometry, the optimizer
settings and the experiment spec.  The cascade, its gain and its
capacity each have one home too (channels.cascaded_channel,
gain.channel_gain, capacity.capacity_exact): RMO climbs the values the
harness scores, and refuses a bad channel with the cascade's text.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from risopt.capacity import (allocate_sca, capacity_diag_approx,
                             capacity_exact, capacity_lower_bound,
                             effective_channel, round_allocation)
from risopt.channels import (LosSpec, cascaded_channel, complex_gaussian,
                             sample_ricean)
from risopt.gain import channel_gain, gain_lower_bound
from risopt.geometry import AnglePair, UpaGeometry, near_square_geometry
from risopt.harness import ExperimentSpec
from risopt.manifold import (OBJECTIVES, RmoSettings, euclidean_gradient,
                             rmo_optimize)
from risopt.spectral import (asymptotic_spectrum, laguerre_top_roots,
                             svd_bundle)
from tests.oracles import bits, ricean_pair


def refusals(readers: dict, values, message) -> list:
    """(reader, value, what it did) for each reader whose refusal of a
    value is not a ValueError with message(value); RuntimeWarnings are
    errors, so a refusal must come before numpy computes anything."""
    wrong = []
    for name, read in readers.items():
        for value in values:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    read(value)
                except ValueError as exc:
                    if str(exc) == message(value):
                        continue
                    wrong.append((name, value, str(exc)))
                except Exception as exc:       # a refusal of another type
                    wrong.append((name, value, repr(exc)))
                else:
                    wrong.append((name, value, "accepted"))
    return wrong


def test_every_snr_reader_refuses_with_one_text():
    rng = np.random.default_rng(13)
    a = complex_gaussian(rng, (4, 64))
    t = complex_gaussian(rng, (64, 4))
    bundle_r, bundle_t = svd_bundle(a), svd_bundle(t)
    d = bundle_t.singular_values
    phi = np.ones(64)
    readers = {
        "capacity_exact": lambda snr: capacity_exact(a @ t, snr),
        "capacity_diag_approx": lambda snr: capacity_diag_approx(
            bundle_r, bundle_t, phi, snr),
        "capacity_lower_bound": lambda snr: capacity_lower_bound(
            np.full(4, 1.0 / 16.0), bundle_r.singular_values, d, snr, 4),
        "allocate_sca": lambda snr: allocate_sca(d, d, snr, 4),
    }
    for objective in ("capacity_exact", "capacity_surrogate"):
        readers[f"euclidean_gradient-{objective}"] = (
            lambda snr, o=objective: euclidean_gradient(o, a, t, phi, snr))
        readers[f"rmo_optimize-{objective}"] = (
            lambda snr, o=objective: rmo_optimize(
                a, t, RmoSettings(objective=o, max_iters=3), snr=snr))

    def message(snr):
        if snr == math.inf:
            return "snr must be finite; got inf"
        return f"snr must be positive; got {snr!r}"

    assert refusals(readers, (math.nan, 0.0, -1.0, -math.inf, math.inf, None),
                    message) == []


def test_every_k_factor_reader_refuses_with_one_text():
    los = LosSpec(near_square_geometry(16), near_square_geometry(4),
                  AnglePair(0.3, 1.1), AnglePair(-0.7, 0.4))
    readers = {
        "sample_ricean": lambda k: sample_ricean(
            k, los, np.random.default_rng(0)),
        "asymptotic_spectrum": lambda k: asymptotic_spectrum(64, 4, k),
        "gain_lower_bound-k_t": lambda k: gain_lower_bound(64, 4, 4, k, 1.0),
        "gain_lower_bound-k_r": lambda k: gain_lower_bound(64, 4, 4, 1.0, k),
    }
    assert refusals(readers, (math.nan, -1.0, -math.inf),
                    lambda k: f"k_factor must be non-negative; got {k!r}") == []
    # the LoS share is 1 at K = +inf on every reader
    assert gain_lower_bound(64, 4, 2, math.inf, math.inf) == 0.25 * 64 ** 2 * 8
    assert asymptotic_spectrum(64, 4, math.inf).predicted_sq_singular_values[0] \
        == 64 * 4
    assert np.array_equal(sample_ricean(math.inf, los, None), los.los_matrix())


def spec_reader(field):
    base = dict(preset="custom-capacity", n_ris_list=(64,), n_t=4,
                methods=("wsa", "rmo"))

    def read(value):
        if field == "n_ris_list":
            value = (value,)
        return ExperimentSpec(**{**base, field: value})
    return read


def test_every_count_reader_refuses_with_one_text():
    # asymptotic_spectrum(3.5, 2, 1.0), gain_lower_bound(64, True, -4, 1.0,
    # 1.0) (-1024.0), near_square_geometry(True), UpaGeometry(2.5, 2) and
    # laguerre_top_roots(10.5, 2) used to be accepted
    sv = [2.0, 1.0]
    readers = {  # reader.name in the message -> (reader, least value)
        "allocate_sca.n_t": (lambda v: allocate_sca(sv, sv, 10.0, v), 1),
        "capacity_lower_bound.n_t": (lambda v: capacity_lower_bound(
            [0.25, 0.25], sv, sv, 10.0, v), 1),
        "round_allocation.n_ris": (
            lambda v: round_allocation([0.25, 0.25], v), 1),
        "RmoSettings.max_iters": (lambda v: RmoSettings(max_iters=v), 1),
        "asymptotic_spectrum.n_ris": (
            lambda v: asymptotic_spectrum(v, 2, 1.0), 1),
        "asymptotic_spectrum.n_array": (
            lambda v: asymptotic_spectrum(64, v, 1.0), 1),
        "laguerre_top_roots.n_big": (lambda v: laguerre_top_roots(v, 2), 1),
        "laguerre_top_roots.n_small": (
            lambda v: laguerre_top_roots(10, v), 1),
        "gain_lower_bound.n_ris": (
            lambda v: gain_lower_bound(v, 4, 4, 1.0, 1.0), 1),
        "gain_lower_bound.n_t": (
            lambda v: gain_lower_bound(64, v, 4, 1.0, 1.0), 1),
        "gain_lower_bound.n_r": (
            lambda v: gain_lower_bound(64, 4, v, 1.0, 1.0), 1),
        "near_square_geometry.n": (near_square_geometry, 1),
        "UpaGeometry.n_horizontal": (lambda v: UpaGeometry(v, 2), 1),
        "UpaGeometry.n_vertical": (lambda v: UpaGeometry(2, v), 1),
        **{f"spec.{field}": (spec_reader(field), minimum)
           for field, minimum in (("n_t", 1), ("n_r", 1), ("trials", 1),
                                  ("workers", 1), ("rmo_max_iters", 1),
                                  ("seed", 0), ("n_ris_list", 1))},
    }
    wrong = []
    for name, (read, minimum) in readers.items():
        field = name.split(".")[1]
        shown = "n_ris_list[0]" if field == "n_ris_list" else field
        wrong += refusals(
            {name: read}, (minimum - 1, 2.5, True),
            lambda v: f"{shown} must be an integer >= {minimum}; got {v!r}")
    assert wrong == []


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("n_s, n_t", [(512, 8), (4096, 8)])
def test_rmo_reports_the_value_the_harness_scores(objective, n_s, n_t):
    # a channel of 64 KiB and one of 512 KiB, either side of numpy's
    # 256 KiB temporary-elision threshold
    a, t = ricean_pair(n_s + n_t, n_s, n_t)
    bundles = (svd_bundle(a), svd_bundle(t))
    res = rmo_optimize(a, t, RmoSettings(objective=objective, max_iters=60),
                       snr=10.0, bundles=bundles)
    assert res.iterations > 0
    h = cascaded_channel(a, res.phi, t)
    score = {"gain": lambda: channel_gain(h),
             "capacity_exact": lambda: capacity_exact(h, 10.0),
             "capacity_surrogate": lambda: capacity_diag_approx(
                 *bundles, res.phi, 10.0)}[objective]()
    assert np.array_equal(bits(res.objective_trace[-1:]),
                          bits(np.array([score])))


def test_rmo_and_the_effective_channel_refuse_a_bad_channel_with_one_text():
    # RMO used to end in numpy's matmul or broadcast error, or in LinAlgError
    # "SVD did not converge", and effective_channel in a broadcast error
    a, t = ricean_pair(3, 64, 4)
    bundle_r, bundle_t = svd_bundle(a), svd_bundle(t)
    nan_a = a.copy()
    nan_a[1, 5] = np.nan
    nan_r = dataclasses.replace(bundle_r, right_h=bundle_r.right_h.copy())
    nan_r.right_h[1, 5] = np.nan
    # message -> (receive channel, receive SVD, phi) that draws it
    cases = {"non-finite channel": (nan_a, nan_r, np.ones(64)),
             "dimension mismatch in cascade": (a[:, 1:], bundle_r, np.ones(63))}
    readers = {f"rmo_optimize-{o}": lambda m, o=o: rmo_optimize(
        cases[m][0], t, RmoSettings(objective=o, max_iters=3), snr=10.0)
        for o in OBJECTIVES}
    readers["effective_channel"] = lambda m: effective_channel(
        cases[m][1], cases[m][2], bundle_t)
    assert refusals(readers, list(cases), lambda m: m) == []
