"""Seeded Monte Carlo experiment harness with figure presets.

Every trial draws its generator from SeedSequence((seed, point_index,
trial_index)), so results are independent of execution order and worker
count; rows are assembled in sorted task order and serialized with
shortest round-trip float formatting, which makes the CSV byte-stable
for a fixed spec and seed.  Wall-clock measurements stay on the
in-memory result (ExperimentResult.timings) and never enter the CSV.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .alignment import sign_align
from .capacity import run_wsa, capacity_exact
from .channels import LosSpec, RiceanChannel, cascaded_channel, sample_ricean
from .gain import channel_gain, configure_gain_los, gain_lower_bound
from .geometry import AnglePair, near_square_geometry
from .manifold import RmoSettings, quantize_1bit, rmo_optimize
from .spectral import asymptotic_spectrum, svd_bundle

WORKERS_ENV = "RISOPT_WORKERS"

ALL_METHODS = ("sa", "wsa", "rmo", "rmo-surrogate", "lb")

FIGURE_PRESETS = ("fig1a", "fig1b", "fig1c", "fig2a", "fig2b", "fig2c")
RUNTIME_PRESETS = ("runtime-gain", "runtime-capacity")
CUSTOM_PRESETS = ("custom-spectrum", "custom-gain", "custom-capacity")


def db2lin(x_db: float) -> float:
    """Power dB to linear scale."""
    return 10.0 ** (x_db / 10.0)


def nmse(estimates, references) -> float:
    """Normalized mean squared error sum((e-r)^2) / sum(r^2)."""
    e = np.asarray(estimates, dtype=float).ravel()
    r = np.asarray(references, dtype=float).ravel()
    if e.size != r.size:
        raise ValueError("length mismatch")
    denom = float(np.sum(r * r))
    if denom == 0.0:
        raise ValueError("zero reference energy")
    return float(np.sum((e - r) ** 2) / denom)


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one Monte Carlo run.

    k_t_db/k_r_db set the per-side K-factors; when k_sweep_db is given
    the grid sweeps that list (applied to both sides) instead.  workers
    defaults to the RISOPT_WORKERS environment variable, then 1, and is
    capped at the number of trials to run and at the CPU count.
    """

    preset: str
    n_ris_list: tuple
    n_t: int
    n_r: int = 0          # 0 means "same as n_t"
    k_t_db: float = 0.0
    k_r_db: float = 0.0
    k_sweep_db: tuple | None = None
    snr_db: float = 10.0
    trials: int = 50
    seed: int = 0
    methods: tuple = ("sa",)
    arrangement: str = "contiguous"
    scale: float = 1.0
    workers: int | None = None
    rmo_max_iters: int = 200
    rmo_initial_step: float = 1.0
    out_stem: str | None = None

    def __post_init__(self) -> None:
        if self.n_r == 0:
            object.__setattr__(self, "n_r", self.n_t)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.n_ris_list:
            raise ValueError("n_ris_list must be nonempty")
        bad = set(self.methods) - set(ALL_METHODS)
        if bad:
            raise ValueError(f"unknown methods: {sorted(bad)}")
        object.__setattr__(self, "n_ris_list",
                           tuple(int(n) for n in self.n_ris_list))
        if self.k_sweep_db is not None:
            object.__setattr__(self, "k_sweep_db",
                               tuple(float(k) for k in self.k_sweep_db))
        object.__setattr__(self, "methods", tuple(self.methods))


@dataclass
class ExperimentResult:
    """Rows plus recomputable aggregates and run metadata.

    timings holds per-row method wall-times in seconds, aligned with
    rows; it is reported here but excluded from the CSV so output bytes
    depend only on (spec, seed).
    """

    spec: ExperimentSpec
    columns: tuple
    rows: list
    agg_columns: tuple
    aggregates: list
    timings: list
    metadata: dict

    def to_csv(self) -> str:
        return _csv_text(self.columns, self.rows)

    def to_aggregate_csv(self) -> str:
        return _csv_text(self.agg_columns, self.aggregates)

    def to_json(self) -> str:
        payload = {
            "spec": _spec_echo(self.spec),
            "metadata": self.metadata,
            "columns": list(self.columns),
            "aggregate_columns": list(self.agg_columns),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def write(self, out_dir: str) -> dict:
        """Atomically write rows CSV, aggregate CSV, and JSON sidecar."""
        stem = self.spec.out_stem or self.spec.preset
        paths = {
            "csv": os.path.join(out_dir, f"{stem}.csv"),
            "aggregate_csv": os.path.join(out_dir, f"{stem}_aggregate.csv"),
            "json": os.path.join(out_dir, f"{stem}.json"),
        }
        _atomic_write(paths["csv"], self.to_csv())
        _atomic_write(paths["aggregate_csv"], self.to_aggregate_csv())
        _atomic_write(paths["json"], self.to_json())
        return paths


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _csv_text(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _spec_echo(spec: ExperimentSpec) -> dict:
    echo = asdict(spec)
    for key, val in echo.items():
        if isinstance(val, tuple):
            echo[key] = list(val)
    return echo


def _metadata() -> dict:
    import platform
    import scipy

    from . import __version__
    return {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "python_version": platform.python_version(),
        "rng_scheme": "SeedSequence((seed, point_index, trial_index))",
        "regime_flags": {
            "flag_hardening": "k_lin >= 10/n_array on every sampled side",
            "flag_diag": "sqrt(n_ris) >= 10 * n_min * sqrt(n_max)",
        },
    }


def _random_angles(rng: np.random.Generator) -> AnglePair:
    az = float(rng.uniform(-math.pi, math.pi))
    if az <= -math.pi:
        az = math.pi
    el = float(rng.uniform(0.0, math.pi))
    return AnglePair(az, el)


def _sample_side(rng: np.random.Generator, n_ris: int, n_array: int,
                 k_db: float) -> RiceanChannel:
    los = LosSpec(near_square_geometry(n_ris), near_square_geometry(n_array),
                  _random_angles(rng), _random_angles(rng))
    return sample_ricean(n_ris, n_array, db2lin(k_db), los, rng)


def _flag_hardening(n_ris: int, sides) -> int:
    del n_ris
    return int(all(k >= 10.0 / n for k, n in sides))


def _flag_diag(n_ris: int, n_t: int, n_r: int) -> int:
    n_min, n_max = min(n_t, n_r), max(n_t, n_r)
    return int(math.sqrt(n_ris) >= 10.0 * n_min * math.sqrt(n_max))


# --- presets -----------------------------------------------------------

_K_SWEEP_FIG1C = tuple(10.0 * math.log10(k) for k in
                       (0.05, 0.2, 0.5, 1.0, 10.0 ** 0.5, 10.0))

_PRESET_TABLE = {
    # empirical vs predicted spectrum, one size
    "fig1a": dict(n_ris_list=(2000,), n_t=20, n_r=20, k_t_db=10.0,
                  k_r_db=10.0, trials=100, methods=()),
    # aggregate spectrum error across sizes
    "fig1b": dict(n_ris_list=(500, 1000, 2000), n_t=20, n_r=20, k_t_db=10.0,
                  k_r_db=10.0, trials=100, methods=()),
    # principal-eigenvalue error across the K sweep
    "fig1c": dict(n_ris_list=(2000,), n_t=20, n_r=20,
                  k_sweep_db=_K_SWEEP_FIG1C, trials=50, methods=()),
    # capacity vs its diagonal surrogate across sizes
    "fig2a": dict(n_ris_list=(512, 2048, 8192), n_t=8, n_r=8, k_t_db=0.0,
                  k_r_db=0.0, snr_db=10.0, trials=50, methods=("wsa", "lb")),
    # gain methods vs the asymptotic bound
    "fig2b": dict(n_ris_list=(1024, 4096), n_t=16, n_r=16, k_t_db=0.0,
                  k_r_db=0.0, trials=50, methods=("sa", "rmo", "lb")),
    # full-array gain comparison at headline dimensions (manual runs)
    "fig2b-full": dict(n_ris_list=(2000, 4000, 7000, 10000), n_t=100,
                       n_r=100, k_t_db=0.0, k_r_db=0.0, trials=200,
                       methods=("sa", "rmo", "lb")),
    # capacity method ordering at large element counts
    "fig2c": dict(n_ris_list=(5000, 20000), n_t=10, n_r=10, k_t_db=0.0,
                  k_r_db=0.0, snr_db=10.0, trials=10,
                  methods=("wsa", "rmo", "rmo-surrogate", "lb")),
    "runtime-gain": dict(n_ris_list=(2000, 4000, 8000), n_t=16, n_r=16,
                         k_t_db=0.0, k_r_db=0.0, trials=1,
                         methods=("sa", "rmo"), rmo_max_iters=500),
    "runtime-capacity": dict(n_ris_list=(5000,), n_t=10, n_r=10, k_t_db=0.0,
                             k_r_db=0.0, snr_db=10.0, trials=1,
                             methods=("wsa", "rmo", "rmo-surrogate"),
                             rmo_max_iters=200),
}

PRESETS = tuple(_PRESET_TABLE) + CUSTOM_PRESETS


def preset_spec(name: str, scale: float = 1.0, **overrides) -> ExperimentSpec:
    """Materialize a named preset, scaling the element-count grid.

    scale multiplies every entry of the RIS size grid (rounded, floor 2);
    other fields can be overridden by keyword.
    """
    if name not in _PRESET_TABLE:
        raise ValueError(f"unknown preset {name!r}; known: {sorted(_PRESET_TABLE)}")
    params = dict(_PRESET_TABLE[name])
    params.update(overrides)
    n_list = tuple(max(2, int(round(n * scale))) for n in params["n_ris_list"])
    params["n_ris_list"] = n_list
    return ExperimentSpec(preset=name, scale=scale, **params)


_FAMILY = {
    "fig1a": "spectrum", "fig1b": "spectrum", "fig1c": "hardening",
    "fig2a": "capacity", "fig2b": "gain", "fig2b-full": "gain",
    "fig2c": "capacity",
    "custom-spectrum": "spectrum", "custom-gain": "gain",
    "custom-capacity": "capacity",
}


def _grid(spec: ExperimentSpec) -> list:
    points = []
    if spec.k_sweep_db is not None:
        for n in spec.n_ris_list:
            for k in spec.k_sweep_db:
                points.append({"n_ris": n, "k_t_db": k, "k_r_db": k})
    else:
        for n in spec.n_ris_list:
            points.append({"n_ris": n, "k_t_db": spec.k_t_db,
                           "k_r_db": spec.k_r_db})
    return points


# --- per-trial work ----------------------------------------------------

def _trial_spectrum(spec, point, trial, rng):
    n_ris, k_db = point["n_ris"], point["k_t_db"]
    ch = _sample_side(rng, n_ris, spec.n_t, k_db)
    gram = ch.matrix.conj().T @ ch.matrix
    eig = np.linalg.eigvalsh(gram)[::-1]
    row = {"trial": trial, "n_ris": n_ris, "n_t": spec.n_t, "k_t_db": k_db,
           "flag_hardening": _flag_hardening(n_ris, [(db2lin(k_db), spec.n_t)])}
    for i, val in enumerate(eig, start=1):
        row[f"eig_{i:02d}"] = float(val)
    return row, {}


def _trial_hardening(spec, point, trial, rng):
    n_ris, k_db = point["n_ris"], point["k_t_db"]
    k_lin = db2lin(k_db)
    ch = _sample_side(rng, n_ris, spec.n_t, k_db)
    gram = ch.matrix.conj().T @ ch.matrix
    lam1 = float(np.linalg.eigvalsh(gram)[-1])
    pred = k_lin / (k_lin + 1.0) * n_ris * spec.n_t
    row = {"trial": trial, "n_ris": n_ris, "n_t": spec.n_t, "k_t_db": k_db,
           "flag_hardening": _flag_hardening(n_ris, [(k_lin, spec.n_t)]),
           "lambda_1": lam1, "predicted_1": pred}
    return row, {}


def _trial_gain(spec, point, trial, rng):
    n_ris = point["n_ris"]
    k_t, k_r = db2lin(point["k_t_db"]), db2lin(point["k_r_db"])
    ch_t = _sample_side(rng, n_ris, spec.n_t, point["k_t_db"])
    ch_r = _sample_side(rng, n_ris, spec.n_r, point["k_r_db"])
    a, t = ch_r.hermitian, ch_t.matrix
    row = {"trial": trial, "n_ris": n_ris, "n_t": spec.n_t, "n_r": spec.n_r,
           "k_t_db": point["k_t_db"], "k_r_db": point["k_r_db"],
           "flag_hardening": _flag_hardening(
               n_ris, [(k_t, spec.n_t), (k_r, spec.n_r)]),
           "error": ""}
    timings = {}
    lb = gain_lower_bound(n_ris, spec.n_t, spec.n_r, k_t, k_r)
    if "lb" in spec.methods:
        row["lower_bound"] = lb
    if "sa" in spec.methods:
        try:
            t0 = time.perf_counter()
            cfg = configure_gain_los(ch_t.los, ch_r.los)
            timings["sa"] = time.perf_counter() - t0
            row["gain_sa"] = channel_gain(cascaded_channel(a, cfg, t))
            if lb > 0:
                row["alpha_sa"] = row["gain_sa"] / (lb / 0.25)
        except Exception as exc:  # recorded, not fatal
            row["error"] += f"sa: {exc}; "
    if "rmo" in spec.methods:
        try:
            settings = RmoSettings(objective="gain",
                                   max_iters=spec.rmo_max_iters,
                                   initial_step=spec.rmo_initial_step)
            t0 = time.perf_counter()
            res = rmo_optimize(a, t, settings)
            cfg = quantize_1bit(res.phi)
            timings["rmo"] = time.perf_counter() - t0
            row["gain_rmo"] = channel_gain(cascaded_channel(a, cfg, t))
        except Exception as exc:
            row["error"] += f"rmo: {exc}; "
    return row, timings


def _trial_capacity(spec, point, trial, rng):
    n_ris = point["n_ris"]
    k_t, k_r = db2lin(point["k_t_db"]), db2lin(point["k_r_db"])
    snr = db2lin(spec.snr_db)
    ch_t = _sample_side(rng, n_ris, spec.n_t, point["k_t_db"])
    ch_r = _sample_side(rng, n_ris, spec.n_r, point["k_r_db"])
    a, t = ch_r.hermitian, ch_t.matrix
    row = {"trial": trial, "n_ris": n_ris, "n_t": spec.n_t, "n_r": spec.n_r,
           "k_t_db": point["k_t_db"], "k_r_db": point["k_r_db"],
           "snr_db": spec.snr_db,
           "flag_hardening": _flag_hardening(
               n_ris, [(k_t, spec.n_t), (k_r, spec.n_r)]),
           "flag_diag": _flag_diag(n_ris, spec.n_t, spec.n_r),
           "error": ""}
    timings = {}
    if "wsa" in spec.methods:
        try:
            t0 = time.perf_counter()
            report, plan = run_wsa(a, t, snr, spec.n_t,
                                   arrangement=spec.arrangement, rng=rng)
            timings["wsa"] = time.perf_counter() - t0
            row["cap_wsa"] = report.capacity_exact
            row["cap_diag"] = report.capacity_diag
            if "lb" in spec.methods:
                row["cap_lb"] = report.capacity_lb
            row["offdiag_ratio"] = report.offdiag_ratio
            row["iterations_used"] = plan.iterations_used
        except Exception as exc:
            row["error"] += f"wsa: {exc}; "
    for method, objective, col in (
            ("rmo", "capacity_exact", "cap_rmo"),
            ("rmo-surrogate", "capacity_surrogate", "cap_rmo_surrogate")):
        if method not in spec.methods:
            continue
        try:
            settings = RmoSettings(objective=objective,
                                   max_iters=spec.rmo_max_iters,
                                   initial_step=spec.rmo_initial_step)
            t0 = time.perf_counter()
            res = rmo_optimize(a, t, settings, snr=snr, n_t=spec.n_t)
            cfg = quantize_1bit(res.phi)
            timings[method] = time.perf_counter() - t0
            row[col] = capacity_exact(cascaded_channel(a, cfg, t), snr, spec.n_t)
        except Exception as exc:
            row["error"] += f"{method}: {exc}; "
    return row, timings


_TRIAL_FNS = {
    "spectrum": _trial_spectrum,
    "hardening": _trial_hardening,
    "gain": _trial_gain,
    "capacity": _trial_capacity,
}


def _columns(spec: ExperimentSpec, family: str) -> tuple:
    base = ["point", "trial", "n_ris", "n_t"]
    if family == "spectrum":
        return tuple(base + ["k_t_db", "flag_hardening"]
                     + [f"eig_{i:02d}" for i in range(1, spec.n_t + 1)])
    if family == "hardening":
        return tuple(base + ["k_t_db", "flag_hardening",
                             "lambda_1", "predicted_1"])
    if family == "gain":
        cols = base + ["n_r", "k_t_db", "k_r_db", "flag_hardening"]
        if "sa" in spec.methods:
            cols.append("gain_sa")
        if "rmo" in spec.methods:
            cols.append("gain_rmo")
        if "lb" in spec.methods:
            cols.append("lower_bound")
            if "sa" in spec.methods:
                cols.append("alpha_sa")
        return tuple(cols + ["error"])
    cols = base + ["n_r", "k_t_db", "k_r_db", "snr_db",
                   "flag_hardening", "flag_diag"]
    if "wsa" in spec.methods:
        cols += ["cap_wsa", "cap_diag"]
    if "rmo" in spec.methods:
        cols.append("cap_rmo")
    if "rmo-surrogate" in spec.methods:
        cols.append("cap_rmo_surrogate")
    if "lb" in spec.methods and "wsa" in spec.methods:
        cols.append("cap_lb")
    if "wsa" in spec.methods:
        cols += ["offdiag_ratio", "iterations_used"]
    return tuple(cols + ["error"])


# --- aggregation (recomputable from rows) -------------------------------

def _point_rows(rows, point_index):
    return [r for r in rows if r["point"] == point_index]


def _agg_spectrum(spec, points, rows):
    out = []
    for pi, pt in enumerate(points):
        sub = _point_rows(rows, pi)
        pred = asymptotic_spectrum(pt["n_ris"], spec.n_t,
                                   db2lin(pt["k_t_db"]))
        per_index = []
        for i in range(1, spec.n_t + 1):
            emp = np.array([r[f"eig_{i:02d}"] for r in sub])
            p_i = float(pred.predicted_sq_singular_values[i - 1])
            per_index.append(nmse(emp, np.full(emp.size, p_i)))
        agg = float(np.mean(per_index))
        for i in range(1, spec.n_t + 1):
            emp = np.array([r[f"eig_{i:02d}"] for r in sub])
            out.append({"point": pi, "n_ris": pt["n_ris"],
                        "k_t_db": pt["k_t_db"], "index": i,
                        "predicted": float(pred.predicted_sq_singular_values[i - 1]),
                        "empirical_mean": float(np.mean(emp)),
                        "nmse": per_index[i - 1],
                        "aggregate_nmse": agg,
                        "bulk_regime": int(pred.bulk_regime)})
    cols = ("point", "n_ris", "k_t_db", "index", "predicted",
            "empirical_mean", "nmse", "aggregate_nmse", "bulk_regime")
    return cols, out


def _agg_hardening(spec, points, rows):
    out = []
    for pi, pt in enumerate(points):
        sub = _point_rows(rows, pi)
        lam = np.array([r["lambda_1"] for r in sub])
        pred = sub[0]["predicted_1"]
        out.append({"point": pi, "n_ris": pt["n_ris"], "k_t_db": pt["k_t_db"],
                    "predicted_1": pred,
                    "mean_lambda_1": float(np.mean(lam)),
                    "nmse": nmse(lam, np.full(lam.size, pred))})
    cols = ("point", "n_ris", "k_t_db", "predicted_1", "mean_lambda_1", "nmse")
    return cols, out


def _mean_of(rows, key):
    vals = [r[key] for r in rows if r.get(key) is not None]
    return float(np.mean(vals)) if vals else None


def _agg_gain(spec, points, rows):
    out = []
    for pi, pt in enumerate(points):
        sub = _point_rows(rows, pi)
        entry = {"point": pi, "n_ris": pt["n_ris"],
                 "k_t_db": pt["k_t_db"], "k_r_db": pt["k_r_db"]}
        mean_sa = _mean_of(sub, "gain_sa")
        mean_rmo = _mean_of(sub, "gain_rmo")
        entry["mean_gain_sa"] = mean_sa
        entry["mean_gain_rmo"] = mean_rmo
        lb = sub[0].get("lower_bound") if sub else None
        entry["lower_bound"] = lb
        entry["ratio_db_sa_lb"] = (
            10.0 * math.log10(mean_sa / lb)
            if mean_sa and lb and lb > 0 else None)
        entry["gap_db_sa_rmo"] = (
            10.0 * math.log10(mean_sa / mean_rmo)
            if mean_sa and mean_rmo else None)
        out.append(entry)
    cols = ("point", "n_ris", "k_t_db", "k_r_db", "mean_gain_sa",
            "mean_gain_rmo", "lower_bound", "ratio_db_sa_lb", "gap_db_sa_rmo")
    return cols, out


def _agg_capacity(spec, points, rows):
    out = []
    for pi, pt in enumerate(points):
        sub = _point_rows(rows, pi)
        entry = {"point": pi, "n_ris": pt["n_ris"],
                 "k_t_db": pt["k_t_db"], "k_r_db": pt["k_r_db"],
                 "snr_db": spec.snr_db}
        for col in ("cap_wsa", "cap_diag", "cap_rmo", "cap_rmo_surrogate",
                    "cap_lb", "offdiag_ratio"):
            entry[f"mean_{col}"] = _mean_of(sub, col)
        exact = [r["cap_wsa"] for r in sub if r.get("cap_wsa") is not None]
        diag = [r["cap_diag"] for r in sub if r.get("cap_diag") is not None]
        entry["nmse_diag"] = (nmse(diag, exact)
                              if exact and len(exact) == len(diag) else None)
        out.append(entry)
    cols = ("point", "n_ris", "k_t_db", "k_r_db", "snr_db", "mean_cap_wsa",
            "mean_cap_diag", "mean_cap_rmo", "mean_cap_rmo_surrogate",
            "mean_cap_lb", "mean_offdiag_ratio", "nmse_diag")
    return cols, out


_AGG_FNS = {
    "spectrum": _agg_spectrum,
    "hardening": _agg_hardening,
    "gain": _agg_gain,
    "capacity": _agg_capacity,
}


def _resolve_workers(requested: int, n_tasks: int, cpu_count: int | None) -> int:
    """Pool size: the request capped by the task and CPU counts, at least 1."""
    return max(1, min(requested, n_tasks, cpu_count or 1))


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run the Monte Carlo grid of a spec; deterministic given the seed.

    Trials run concurrently up to the worker count; per-trial generators
    are derived from (seed, point, trial), so the assembled rows do not
    depend on scheduling.  Runtime presets are served by bench_runtime,
    not here (their output is wall-clock, which is not reproducible).
    """
    if spec.preset in RUNTIME_PRESETS:
        raise ValueError("runtime presets are run via bench_runtime")
    family = _FAMILY.get(spec.preset)
    if family is None:
        raise ValueError(f"unknown preset {spec.preset!r}")
    points = _grid(spec)
    trial_fn = _TRIAL_FNS[family]
    tasks = [(pi, t) for pi in range(len(points)) for t in range(spec.trials)]

    def one(task):
        pi, t = task
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, pi, t)))
        row, timing = trial_fn(spec, points[pi], t, rng)
        row["point"] = pi
        return task, row, timing

    requested = (spec.workers if spec.workers is not None
                 else int(os.environ.get(WORKERS_ENV, "1")))
    workers = _resolve_workers(requested, len(tasks), os.cpu_count())
    if workers == 1:
        done = [one(task) for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(one, tasks))
    done.sort(key=lambda item: item[0])
    rows = [row for _, row, _ in done]
    timings = [timing for _, _, timing in done]
    agg_cols, aggregates = _AGG_FNS[family](spec, points, rows)
    return ExperimentResult(spec=spec, columns=_columns(spec, family),
                            rows=rows, agg_columns=agg_cols,
                            aggregates=aggregates, timings=timings,
                            metadata=_metadata())


# --- runtime benchmarking ----------------------------------------------

def _time_callable(fn, warmups: int = 3, samples: int = 5,
                   min_sample_seconds: float = 0.005):
    """Median/mean wall time of fn using a calibrated inner loop."""
    for _ in range(warmups):
        fn()
    t0 = time.perf_counter()
    fn()
    single = time.perf_counter() - t0
    inner = max(1, min(100000, int(math.ceil(min_sample_seconds / max(single, 1e-9)))))
    vals = []
    for _ in range(samples):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        vals.append((time.perf_counter() - t0) / inner)
    return statistics.median(vals), statistics.fmean(vals)


def bench_runtime(spec: ExperimentSpec) -> ExperimentResult:
    """Wall-clock comparison of configuration methods over the size grid.

    One seeded instance per grid point; at least 3 warmups then the
    median and mean of 5 timed samples per method.  Times exclude
    channel synthesis and SVD bundling (CSI acquisition is common to all
    methods); they cover exactly the configuration computation.
    """
    if spec.preset not in RUNTIME_PRESETS:
        raise ValueError("bench_runtime expects a runtime preset")
    snr = db2lin(spec.snr_db)
    rows = []
    for pi, n_ris in enumerate(spec.n_ris_list):
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, pi, 0)))
        ch_t = _sample_side(rng, n_ris, spec.n_t, spec.k_t_db)
        ch_r = _sample_side(rng, n_ris, spec.n_r, spec.k_r_db)
        a, t = ch_r.hermitian, ch_t.matrix
        row = {"n_ris": n_ris, "n_t": spec.n_t, "n_r": spec.n_r}
        if spec.preset == "runtime-gain":
            a_t = ch_t.los.ris_steering()
            a_r = ch_r.los.ris_steering()
            med, mean = _time_callable(lambda: sign_align(a_r.conj() * a_t))
            row["sa_median_s"], row["sa_mean_s"] = med, mean
            if "rmo" in spec.methods:
                settings = RmoSettings(objective="gain",
                                       max_iters=spec.rmo_max_iters,
                                       initial_step=spec.rmo_initial_step)
                med, mean = _time_callable(
                    lambda: quantize_1bit(rmo_optimize(a, t, settings).phi),
                    warmups=1, samples=3)
                row["rmo_median_s"], row["rmo_mean_s"] = med, mean
                row["ratio_rmo_over_sa"] = row["rmo_median_s"] / row["sa_median_s"]
        else:
            bundle_r = svd_bundle(a)
            bundle_t = svd_bundle(t)

            def wsa_config():
                from .capacity import (allocate_sca, configure_capacity,
                                       round_allocation)
                plan = allocate_sca(bundle_r.singular_values,
                                    bundle_t.singular_values, snr, spec.n_t)
                plan = round_allocation(plan, n_ris, spec.arrangement)
                return configure_capacity(bundle_r, bundle_t, plan)

            med, mean = _time_callable(wsa_config)
            row["wsa_median_s"], row["wsa_mean_s"] = med, mean
            for method, objective, col in (
                    ("rmo-surrogate", "capacity_surrogate", "rmo_surrogate"),
                    ("rmo", "capacity_exact", "rmo")):
                if method not in spec.methods:
                    continue
                settings = RmoSettings(objective=objective,
                                       max_iters=spec.rmo_max_iters,
                                       initial_step=spec.rmo_initial_step)
                med, mean = _time_callable(
                    lambda: quantize_1bit(
                        rmo_optimize(a, t, settings, snr=snr,
                                     n_t=spec.n_t).phi),
                    warmups=1, samples=3)
                row[f"{col}_median_s"], row[f"{col}_mean_s"] = med, mean
            if "rmo" in spec.methods:
                row["ratio_rmo_over_wsa"] = row["rmo_median_s"] / row["wsa_median_s"]
                if "rmo-surrogate" in spec.methods:
                    row["ratio_rmo_over_surrogate"] = (
                        row["rmo_median_s"] / row["rmo_surrogate_median_s"])
        rows.append(row)
    columns = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return ExperimentResult(spec=spec, columns=tuple(columns), rows=rows,
                            agg_columns=(), aggregates=[], timings=[],
                            metadata=_metadata())
