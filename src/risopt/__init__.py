"""1-bit RIS configuration for MIMO links.

Channel-gain and capacity optimization of a reflecting surface whose
elements each apply +1 or -1: sign alignment with a provable fraction
of the continuous optimum, asymptotic singular spectra of Ricean
channels via quadrature roots, over-the-air diagonalization with a
sqrt-power element allocation, a Riemannian manifold-ascent benchmark,
and a seeded Monte Carlo harness with figure presets.
"""

__version__ = "0.1.0"

from .alignment import sign_align
from .capacity import (AllocationPlan, CapacityReport, allocate_sca,
                       capacity_diag_approx, capacity_exact,
                       capacity_lower_bound, configure_capacity,
                       effective_channel, offdiag_ratio, round_allocation,
                       run_wsa)
from .channels import LosSpec, cascaded_channel, complex_gaussian, sample_ricean
from .gain import channel_gain, configure_gain_los, gain_lower_bound
from .geometry import AnglePair, UpaGeometry, near_square_geometry, upa_steering
from .harness import (ExperimentResult, ExperimentSpec, bench_runtime, db2lin,
                      nmse, preset_spec, run_experiment)
from .manifold import (RmoResult, RmoSettings, euclidean_gradient,
                       quantize_1bit, riemannian_gradient, rmo_optimize)
from .spectral import (AsymptoticSpectrum, SvdBundle, asymptotic_spectrum,
                       laguerre_top_roots, svd_bundle)

__all__ = [
    "__version__",
    "sign_align",
    "AllocationPlan", "CapacityReport", "allocate_sca",
    "capacity_diag_approx", "capacity_exact", "capacity_lower_bound",
    "configure_capacity", "effective_channel", "offdiag_ratio",
    "round_allocation", "run_wsa",
    "LosSpec", "cascaded_channel", "complex_gaussian", "sample_ricean",
    "channel_gain", "configure_gain_los", "gain_lower_bound",
    "AnglePair", "UpaGeometry", "near_square_geometry", "upa_steering",
    "ExperimentResult", "ExperimentSpec", "bench_runtime", "db2lin", "nmse",
    "preset_spec", "run_experiment",
    "RmoResult", "RmoSettings", "euclidean_gradient", "quantize_1bit",
    "riemannian_gradient", "rmo_optimize",
    "AsymptoticSpectrum", "SvdBundle", "asymptotic_spectrum",
    "laguerre_top_roots", "svd_bundle",
]
