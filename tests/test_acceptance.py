"""End-to-end acceptance checks, one per shipped guarantee.

Each check prints a single [C##] PASS/FAIL line past the capture (so a
plain `pytest -v` run doubles as the acceptance report) and then
asserts.  Monte Carlo checks run at desk scale with pinned seeds; the
bound checks (C1, C2, C5, C10, C11) are per-instance and are never
averaged away.
"""

import dataclasses
import math
import os
import time

import numpy as np

from risopt.alignment import sign_align
from risopt.capacity import (_sca_from, _water_level, allocate_sca,
                             effective_channel, run_wsa)
from risopt.channels import (LosSpec, cascaded_channel, complex_gaussian,
                             sample_ricean)
from risopt.gain import channel_gain, configure_gain_los
from risopt.geometry import AnglePair, near_square_geometry
from risopt.harness import (_resolve_workers, bench_runtime, db2lin,
                            preset_spec, run_experiment)
from risopt.manifold import OBJECTIVES
from risopt.spectral import svd_bundle

from .oracles import (brute_force_value, finite_difference_error, los_part,
                      scattered_part)
from .test_capacity import stream_gains


def report(capsys, tag, ok, detail):
    with capsys.disabled():
        print(f"\n[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


def random_angles(rng):
    az = float(rng.uniform(-math.pi, math.pi))
    if az <= -math.pi:
        az = math.pi
    return AnglePair(az, float(rng.uniform(0.0, math.pi)))


def random_side(rng, n_ris, n_array, k_lin):
    """One side's LoS spec and its sampled n_ris x n_array channel."""
    los = LosSpec(near_square_geometry(n_ris), near_square_geometry(n_array),
                  random_angles(rng), random_angles(rng))
    return los, sample_ricean(k_lin, los, rng)


def test_c01_sign_alignment_exhaustive_bound(capsys):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_frac = 1.0
    for _ in range(500):
        n = int(rng.integers(1, 13))
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = abs(b @ sign_align(b))
        best = brute_force_value(b)
        assert got <= best + 1e-9
        assert got >= 0.5 * best - 1e-12
        assert got >= 0.5 * np.sum(np.abs(b)) - 1e-12
        worst_frac = min(worst_frac, got / best)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    report(capsys, "C01", ok,
           f"500 exhaustive comparisons, worst SA/opt fraction "
           f"{worst_frac:.3f} (>= 0.5), {elapsed:.1f}s (< 10s)")


def test_c02_quarter_gain_guarantee_pure_los(capsys):
    n_t = n_r = 4
    worst = math.inf
    for n_s in (64, 256):
        for seed in range(30):
            rng = np.random.default_rng(np.random.SeedSequence((202, n_s, seed)))
            los_t, h_t = random_side(rng, n_s, n_t, math.inf)
            los_r, h_r = random_side(rng, n_s, n_r, math.inf)
            cfg = configure_gain_los(los_t, los_r)
            g = channel_gain(cascaded_channel(h_r.conj().T, cfg, h_t))
            full = n_r * n_t * n_s ** 2
            assert g >= 0.25 * full - 1e-6
            assert g <= full * (1 + 1e-12)
            worst = min(worst, g / full)
    report(capsys, "C02", True,
           f"60 pure-LoS instances at N_S 64/256: gain/(N_R N_T N_S^2) "
           f"always in [0.25, 1], worst {worst:.3f}")


def test_c03_principal_eigenvalue_hardening(capsys):
    t0 = time.perf_counter()
    res = run_experiment(preset_spec("fig1c"))
    elapsed = time.perf_counter() - t0
    by_k = [(db2lin(a["k_t_db"]), a["nmse"]) for a in res.aggregates]
    by_k.sort()
    nm = dict(by_k)
    at_half = nm[min(nm, key=lambda k: abs(k - 0.5))]
    above_one = [v for k, v in by_k if k >= 1.0 - 1e-9]
    decreasing = bool(np.all(np.diff([v for _, v in by_k]) < 0))
    ok = (at_half < 5e-2 and all(v < 1e-2 for v in above_one)
          and decreasing and elapsed < 120.0)
    report(capsys, "C03", ok,
           f"lambda_1 NMSE {at_half:.2e} at K=0.5 (<5e-2), "
           f"max {max(above_one):.2e} for K>=1 (<1e-2), "
           f"monotone={decreasing}, {elapsed:.1f}s (<120s)")


def test_c04_full_spectrum_asymptotics(capsys):
    res = run_experiment(preset_spec("fig1b"))
    agg_nmse = {}
    for a in res.aggregates:
        agg_nmse[a["n_ris"]] = a["aggregate_nmse"]
    sizes = sorted(agg_nmse)
    vals = [agg_nmse[s] for s in sizes]
    decreasing = bool(np.all(np.diff(vals) < 0))
    top10 = [abs(a["predicted"] - a["empirical_mean"]) / a["empirical_mean"]
             for a in res.aggregates if a["n_ris"] == 2000 and a["index"] <= 10]
    worst = max(top10)
    ok = decreasing and worst < 0.05
    report(capsys, "C04", ok,
           f"aggregate NMSE {' > '.join(f'{v:.1e}' for v in vals)} across "
           f"N_S {sizes} (strict={decreasing}); top-10 root rel err "
           f"{worst:.4f} (< 0.05) at N_S=2000")


def test_c05_weyl_and_interlacing_invariants(capsys):
    rng = np.random.default_rng(505)
    n_s, n_a = 128, 6
    for _ in range(100):
        k = float(10.0 ** rng.uniform(-1.0, 1.0))
        los, h = random_side(rng, n_s, n_a, k)
        s_full = np.linalg.svd(h, compute_uv=False)
        s_los = np.linalg.svd(los_part(k, los), compute_uv=False)
        s_sc = np.linalg.svd(scattered_part(h, k, los), compute_uv=False)
        slack = 1e-8 * s_full[0]
        # additive perturbation bound on every singular value
        assert np.all(np.abs(s_full - s_los) <= s_sc[0] + slack)
        assert s_full[0] <= s_los[0] + s_sc[0] + slack
        # Cauchy interlacing: Gram of the channel minus one antenna
        g_full = h.conj().T @ h
        eig = np.linalg.eigvalsh(g_full)[::-1]
        sub = np.linalg.eigvalsh(g_full[:-1, :-1])[::-1]
        eslack = 1e-8 * eig[0]
        assert np.all(eig[: n_a - 1] + eslack >= sub)
        assert np.all(sub >= eig[1:] - eslack)
    report(capsys, "C05", True,
           "100 Ricean instances: singular-value perturbation and "
           "eigenvalue interlacing bounds hold per instance")


def test_c06_gain_vs_bound(capsys):
    res = run_experiment(preset_spec("fig2b"))
    details = []
    ok = True
    for a in res.aggregates:
        above_db = 10 * math.log10(a["mean_gain_sa"] / a["lower_bound"])
        gap_db = abs(10 * math.log10(a["mean_gain_sa"] / a["mean_gain_rmo"]))
        ok &= 0.0 <= above_db <= 6.0 and gap_db <= 1.0
        details.append(f"N_S={a['n_ris']}: +{above_db:.2f}dB over bound, "
                       f"|SA-RMO| {gap_db:.2f}dB")
    report(capsys, "C06", ok, "; ".join(details)
           + " (need within [0,6]dB and <=1dB)")


def test_c07_capacity_approximation_nmse(capsys):
    res = run_experiment(preset_spec("fig2a"))
    pairs = sorted((a["n_ris"], a["nmse_diag"]) for a in res.aggregates)
    vals = [v for _, v in pairs]
    decreasing = bool(np.all(np.diff(vals) < 0))
    report(capsys, "C07", decreasing,
           "diag-approximation NMSE "
           + " > ".join(f"{v:.1e}" for v in vals)
           + f" across N_S {[s for s, _ in pairs]} (strict decrease)")


def test_c08_wsa_vs_rmo_ordering(capsys):
    res = run_experiment(preset_spec("fig2c"))
    by_size = {a["n_ris"]: a for a in res.aggregates}
    ok = True
    details = []
    for n_s, a in sorted(by_size.items()):
        ok &= a["mean_cap_rmo"] >= a["mean_cap_wsa"]
        details.append(f"N_S={n_s}: rmo {a['mean_cap_rmo']:.1f} >= "
                       f"wsa {a['mean_cap_wsa']:.1f} bits")
    frac = by_size[20000]["mean_cap_wsa"] / by_size[20000]["mean_cap_rmo"]
    ok &= frac >= 0.65
    report(capsys, "C08", ok,
           "; ".join(details) + f"; wsa/rmo at 2e4 = {frac:.3f} (>= 0.65)")


def test_c09_runtime_ratios(capsys):
    sa_only = bench_runtime(preset_spec("runtime-gain", methods=("sa",)))
    sa = {r["n_ris"]: r["sa_median_s"] for r in sa_only.rows}
    sub_quadratic = (sa[4000] / sa[2000] <= 6.0
                     and sa[8000] / sa[4000] <= 6.0
                     and sa[8000] / sa[2000] <= 12.0)
    gain = bench_runtime(preset_spec("runtime-gain", n_ris_list=(2000,))).rows[0]
    gain_ratio = gain["ratio_rmo_over_sa"]
    cap = bench_runtime(preset_spec("runtime-capacity", methods=("wsa", "rmo"))).rows[0]
    cap_ratio = cap["ratio_rmo_over_wsa"]
    ok = sub_quadratic and gain_ratio >= 1e3 and cap_ratio >= 10.0
    # the medians behind each ratio show which side moved when one fails
    report(capsys, "C09", ok,
           f"SA vs RMO-gain {gain_ratio:.0f}x (>=1e3) at N_S=2e3 "
           f"(RMO {gain['rmo_median_s'] * 1e3:.2f} ms / "
           f"SA {gain['sa_median_s'] * 1e3:.4f} ms); "
           f"W-SA vs RMO-capacity {cap_ratio:.0f}x (>=10) at N_S=5e3 "
           f"(RMO {cap['rmo_median_s'] * 1e3:.1f} ms / "
           f"W-SA {cap['wsa_median_s'] * 1e3:.2f} ms); "
           f"SA time ratios {sa[4000]/sa[2000]:.2f}/{sa[8000]/sa[4000]:.2f} "
           f"per size doubling (<=6)")


def test_c10_allocation_properties(capsys):
    rng = np.random.default_rng(1010)
    # monotone trace and exact budget on the returned point
    for _ in range(20):
        n = int(rng.integers(2, 8))
        plan = allocate_sca(rng.uniform(0.5, 4.0, n), rng.uniform(0.5, 4.0, n),
                            float(rng.uniform(2.0, 20.0)), n)
        assert np.all(np.diff(plan.objective_trace) >= -1e-9)
        assert abs(np.sum(np.sqrt(plan.fractions)) - 1.0) <= 1e-9
    # the water-level solver satisfies its budget equation
    worst_resid = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 9))
        gains = rng.uniform(0.2, 8.0, m)
        weights = rng.uniform(0.05, 2.0, m)
        budget = float(rng.uniform(0.1, 4.0))
        eta = _water_level(gains, weights, budget)
        per = np.clip(1.0 / (eta * weights) - 1.0 / gains, 0.0, None)
        worst_resid = max(worst_resid, abs(np.sum(weights * per) - budget))
    assert worst_resid <= 1e-10
    # two-stream global optimum by dense grid search
    worst_gap = 0.0
    for _ in range(20):
        d_r = rng.uniform(0.5, 3.0, 2)
        d_t = rng.uniform(0.5, 3.0, 2)
        snr = float(rng.uniform(2.0, 20.0))
        a = 0.25 * snr * d_r ** 2 * d_t ** 2 / 2.0
        t = np.linspace(0.0, 1.0, 40001)
        grid = (np.log1p(a[0] * t ** 2)
                + np.log1p(a[1] * (1.0 - t) ** 2)) / math.log(2.0)
        plan = allocate_sca(d_r, d_t, snr, 2)
        got = float(np.sum(np.log1p(a * plan.fractions)) / math.log(2.0))
        worst_gap = max(worst_gap, float(grid.max()) - got)
    assert worst_gap <= 1e-3
    # symmetric fixed point held exactly from the uniform start
    n = 6
    plan = _sca_from(stream_gains(np.full(n, 2.0), np.full(n, 2.0), 12.0, n),
                     np.full(n, 1.0 / n ** 2))
    sym_err = float(np.max(np.abs(plan.fractions - 1.0 / n ** 2)))
    assert sym_err <= 1e-6
    report(capsys, "C10", True,
           f"monotone traces, budget residual <=1e-9, water residual "
           f"{worst_resid:.1e} (<=1e-10), grid gap {worst_gap:.1e} "
           f"(<=1e-3), symmetry error {sym_err:.1e} (<=1e-6)")


def test_c11_gradient_checks(capsys):
    worst = 0.0
    for objective in OBJECTIVES:
        for seed in range(5):
            rng = np.random.default_rng(np.random.SeedSequence((1111, seed)))
            a = complex_gaussian(rng, (8, 4))
            t = complex_gaussian(rng, (4, 8))
            phi = np.exp(1j * rng.uniform(-math.pi, math.pi, 4))
            rel = finite_difference_error(objective, a, t, phi, snr=5.0)
            worst = max(worst, rel)
            assert rel < 1e-5
    report(capsys, "C11", True,
           f"3 objectives x 5 instances (8x4x8): worst finite-difference "
           f"relative error {worst:.1e} (< 1e-5)")


def test_c12_diagonalization_trend(capsys):
    n = 4
    sizes = (10 * n ** 3, 100 * n ** 3)       # n_min^2 * n_max with n_min = n_max
    means = {}
    for n_s in sizes:
        vals = []
        for trial in range(20):
            rng = np.random.default_rng(np.random.SeedSequence((1212, n_s, trial)))
            _, h_t = random_side(rng, n_s, n, 1.0)
            _, h_r = random_side(rng, n_s, n, 1.0)
            h_r_herm = h_r.conj().T
            rep, _ = run_wsa(h_r_herm, h_t, 10.0)
            vals.append(rep.offdiag_ratio)
            # singular values of the effective channel vs its diagonal:
            # the shift is bounded by the off-diagonal Frobenius mass
            bundle_r = svd_bundle(h_r_herm)
            bundle_t = svd_bundle(h_t)
            h_eff = effective_channel(bundle_r, rep.phi, bundle_t)
            diag = np.diag(np.diagonal(h_eff))
            s_h = np.linalg.svd(h_eff, compute_uv=False)
            s_d = np.sort(np.abs(np.diagonal(h_eff)))[::-1]
            lhs = float(np.sum((s_h - s_d) ** 2))
            rhs = float(np.sum(np.abs(h_eff - diag) ** 2))
            assert lhs <= rhs * (1 + 1e-12) + 1e-8
        means[n_s] = float(np.mean(vals))
    ratio = means[sizes[0]] / means[sizes[1]]
    ok = 3.0 <= ratio <= 30.0
    report(capsys, "C12", ok,
           f"mean offdiag ratio {means[sizes[0]]:.4f} at N_S={sizes[0]} vs "
           f"{means[sizes[1]]:.4f} at N_S={sizes[1]}: factor {ratio:.1f} "
           f"(in [3, 30]); Mirsky bound held per instance")


def test_c13_byte_identical_determinism(capsys, monkeypatch):
    # the pool is capped at the CPU count; report 4 CPUs so that the
    # 4-worker pass runs 4 threads on a smaller host too
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    checked = []
    for name, scale, trials in (("fig2a", 0.02, 2), ("fig1c", 0.05, 3)):
        spec = preset_spec(name, scale=scale, trials=trials)
        first = run_experiment(spec)
        second = run_experiment(spec)
        four = run_experiment(dataclasses.replace(spec, workers=4))
        same = (first.to_csv() == second.to_csv() == four.to_csv()
                and first.to_aggregate_csv() == second.to_aggregate_csv()
                == four.to_aggregate_csv())
        assert same, f"{name} output varies across runs/workers"
        effective = _resolve_workers(4, len(four.rows), os.cpu_count())
        checked.append(f"{name} ({len(four.rows)} trials, 1 and "
                       f"{effective} workers)")
    report(capsys, "C13", True,
           f"presets {checked}: CSVs byte-identical across two runs "
           f"and across worker counts")
