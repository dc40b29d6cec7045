#!/usr/bin/env python3
"""
Walks through one waterfilling-plus-Sign-Alignment (W-SA) capacity
configuration end to end, then sweeps the RIS size to show the effective
channel turning diagonal (over-the-air diagonalization): the off-diagonal
energy ratio drops roughly 10x for every 10x in element count.
"""
import numpy as np

from risopt import (LosSpec, AnglePair, near_square_geometry, round_allocation,
                    run_wsa, sample_ricean)

N_T = N_R = 4
SNR_DB = 10.0
K_FACTOR = 1.0


def sample_side(rng, n_ris, n_array):
    los = LosSpec(near_square_geometry(n_ris), near_square_geometry(n_array),
                  AnglePair(*rng.uniform((-3.0, 0.2), (3.0, 2.9))),
                  AnglePair(*rng.uniform((-3.0, 0.2), (3.0, 2.9))))
    return sample_ricean(K_FACTOR, los, rng)


# one instance, spelled out
rng = np.random.default_rng(7)
n_ris = 1000
h_t = sample_side(rng, n_ris, N_T)
h_r = sample_side(rng, n_ris, N_R)
snr = 10.0 ** (SNR_DB / 10.0)

report, plan = run_wsa(h_r.conj().T, h_t, snr)
print(f"single instance, N_S = {n_ris}:")
print("  element split over streams:",
      round_allocation(plan.fractions, n_ris).tolist())
print("  SCA iterations:", plan.iterations_used, "converged:", plan.converged)
print(f"  capacity (exact log-det):   {report.capacity_exact:8.3f} bits")
print(f"  diagonal approximation:     {report.capacity_diag:8.3f} bits")
print(f"  asymptotic lower bound:     {report.capacity_lb:8.3f} bits")
print(f"  off-diagonal energy ratio:  {report.offdiag_ratio:8.4f}")

# size sweep: the configured effective channel becomes diagonal
print("\nsize sweep (mean over 10 draws):")
print(f"{'N_S':>7} {'offdiag ratio':>14} {'exact bits':>11} {'diag bits':>10}")
for n_ris in (640, 2000, 6400):
    ratios, caps, diags = [], [], []
    for trial in range(10):
        rng = np.random.default_rng(np.random.SeedSequence((7, n_ris, trial)))
        h_t = sample_side(rng, n_ris, N_T)
        h_r = sample_side(rng, n_ris, N_R)
        rep, _ = run_wsa(h_r.conj().T, h_t, snr)
        ratios.append(rep.offdiag_ratio)
        caps.append(rep.capacity_exact)
        diags.append(rep.capacity_diag)
    print(f"{n_ris:>7} {np.mean(ratios):14.4f} {np.mean(caps):11.3f} "
          f"{np.mean(diags):10.3f}")

print("\nWith more elements the cross-stream leakage vanishes, so the")
print("cheap per-stream diagonal formula tracks the true capacity.")
