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
import numbers
import os
import statistics
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from functools import cache, cached_property, partial

import numpy as np

from .capacity import capacity_exact, configure_wsa, wsa_report
from .channels import LosSpec, cascaded_channel, sample_ricean
from .gain import channel_gain, configure_gain_los, gain_lower_bound
from .geometry import AnglePair, _check_count, near_square_geometry
from .manifold import RmoSettings, quantize_1bit, rmo_optimize
from .spectral import _spike, asymptotic_spectrum, svd_bundle


def db2lin(x_db: float) -> float:
    """Power dB to linear scale, a float; inf above its range (about
    3,083 dB), where the power overflows."""
    try:
        return 10.0 ** (float(x_db) / 10.0)
    except OverflowError:
        return math.inf


def _nmse_cell(estimates, references) -> float | None:
    """The normalized mean squared error sum((e-r)^2) / sum(r^2) of two
    equal-length sequences, or None (an empty cell) where it cannot be
    formed: a zero or subnormal reference energy, or a quotient that is
    not finite; no numpy warning either way."""
    e = np.asarray(estimates, dtype=float)
    r = np.asarray(references, dtype=float)
    with np.errstate(all="ignore"):
        denom = np.sum(r * r)
        value = float(np.sum((e - r) ** 2) / denom)
    return value if denom >= np.finfo(float).tiny and math.isfinite(value) else None


def _is_number(value) -> bool:
    """True for a real number, numpy's too, that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _plain(value):
    """A real number (numpy's too, not a bool) as the plain int or float
    it equals; anything else as it is."""
    if not _is_number(value):
        return value
    return int(value) if isinstance(value, numbers.Integral) else float(value)


@dataclass(frozen=True)
class ExperimentSpec:
    """One Monte Carlo run: its preset with the fields given on top.

    A _PRESET_BASE field left None takes the preset entry's value, else
    the base row's; a custom-* preset has no n_ris_list of its own.
    k_t_db/k_r_db set the per-side K-factors (not NaN), k_r_db following
    k_t_db unless given, as n_r follows n_t; a k_sweep_db is swept on both
    sides instead.  These and snr_db are numbers (numpy's too, not bools),
    each held as the plain int or float it equals.  n_ris_list, methods and
    a k_sweep_db are tuples or lists.  methods are distinct names the
    family's _FAMILIES record knows (its methods, then "lb"), each
    writing a shown column (a timing on runtime presets); spectrum and
    hardening know none.  A field none of whose _READERS run, or that a
    K sweep replaces, keeps its preset's value.  Sizes, counts and the
    seed are integers (numpy integers too, not bools) of at least their
    _COUNTS minimum, 1 for each n_ris_list entry.  workers is capped at
    the trial and CPU counts.
    """

    preset: str
    n_ris_list: tuple | None = None
    n_t: int | None = None
    n_r: int | None = None        # None means "same as n_t"
    k_t_db: float | None = None
    k_r_db: float | None = None   # None means "same as k_t_db"
    k_sweep_db: tuple | None = None
    snr_db: float | None = None
    trials: int | None = None
    seed: int = 0
    methods: tuple | None = None
    workers: int = 1
    rmo_max_iters: int | None = None
    out_stem: str | None = None

    def __post_init__(self) -> None:
        preset = _preset(self.preset)
        own = {name: preset.get(name, base) for name, base in _PRESET_BASE.items()}
        for name, value in own.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        if self.n_ris_list is None:
            raise ValueError(f"preset {self.preset!r} needs n_ris_list (--n-ris)")
        for name, leader in (("n_r", "n_t"), ("k_r_db", "k_t_db")):
            if getattr(self, name) is None:
                object.__setattr__(self, name, getattr(self, leader))
        # plain numbers, because the sidecar is JSON; a NaN SNR is taken
        # (its trials record their errors), a NaN K-factor is not
        for name in ("k_t_db", "k_r_db", "snr_db"):
            value = _plain(getattr(self, name))
            if not _is_number(value) or (name != "snr_db" and math.isnan(value)):
                raise ValueError(f"{name} must be a number; got {value!r}")
            object.__setattr__(self, name, value)
        stem = self.out_stem
        if not (stem is None or isinstance(stem, str) and stem):
            raise ValueError(f"out_stem must be a non-empty string; got {stem!r}")
        # ints, and tuples of them, because the sidecar is JSON
        for name, minimum in _COUNTS.items():
            value = _check_count(name, getattr(self, name), minimum)
            object.__setattr__(self, name, value)
        for name in ("n_ris_list", "methods", "k_sweep_db"):
            value = getattr(self, name)
            if not (isinstance(value, (tuple, list))
                    or name == "k_sweep_db" and value is None):
                raise ValueError(f"{name} must be a tuple or list; "
                                 f"got {value!r}")
        if not self.n_ris_list:
            raise ValueError("n_ris_list must be nonempty")
        object.__setattr__(self, "n_ris_list", tuple(
            _check_count(f"n_ris_list[{i}]", n)
            for i, n in enumerate(self.n_ris_list)))
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.k_sweep_db is not None and not self.k_sweep_db:
            raise ValueError("k_sweep_db must be nonempty when given")
        if self.k_sweep_db is not None:
            sweep = tuple(map(_plain, self.k_sweep_db))
            if not all(_is_number(k) and not math.isnan(k) for k in sweep):
                raise ValueError(f"k_sweep_db entries must be numbers; "
                                 f"got {list(sweep)}")
            object.__setattr__(self, "k_sweep_db", sweep)
        family = preset["family"]
        if family == "spectrum" and min(self.n_ris_list) < self.n_t:
            # the spectrum prediction needs n_ris >= n_t
            raise ValueError(f"n_ris_list entries must be >= n_t = {self.n_t} "
                             f"for spectrum preset {self.preset!r}; "
                             f"got {list(self.n_ris_list)}")
        self._check_methods(family)
        swept = _SWEPT if self.k_sweep_db is not None else ()
        # what an unread field keeps: its leader, bench_runtime's one worker
        own.update(n_r=self.n_t, k_r_db=self.k_t_db, workers=1)
        run = () if self.preset.startswith("runtime-") else ("run",)
        reads = {family, *self.methods, *run}
        could_read = {family, *_FAMILIES[family].methods}
        for name in dict.fromkeys((*_READERS, *swept)):
            if name not in swept and _READERS[name] & reads:
                continue
            value = getattr(self, name)
            if value == own[name]:
                continue
            if name in swept:
                why = ", which sweeps K over k_sweep_db"
            elif _READERS[name] & could_read:
                why = f" with methods {list(self.methods)}"
            else:
                why = ""
            raise ValueError(f"{name} = {value!r} is not read by {family} "
                             f"preset {self.preset!r}{why}; leave it unset")

    def _check_methods(self, family: str) -> None:
        """Refuse a name the family does not know, a repeated one, and one
        that writes no column the spec shows."""
        methods = list(self.methods)
        record = _FAMILIES[family]
        known = list(dict.fromkeys([*record.methods, *(
            name for _, needs, _ in record.optional for name in needs)]))
        bad = [name for name in methods if name not in known]
        if bad:
            raise ValueError(f"methods {bad} are not {family} methods; "
                             f"known: {known}")
        repeated = [name for i, name in enumerate(methods) if name in methods[:i]]
        if repeated:
            raise ValueError(f"method {repeated[0]!r} is repeated in "
                             f"methods {methods}")
        # a runtime preset writes one timing per method it times
        writers = ([{name} for name in record.methods]
                   if self.preset.startswith("runtime-")
                   else [set(needs) for _, needs, _ in record.optional])
        shown = set().union(*(needs for needs in writers if needs <= set(methods)))
        if not shown and record.methods:
            raise ValueError(f"{family} preset {self.preset!r} needs a method "
                             f"that writes a column; got methods {methods}")
        idle = [name for name in methods if name not in shown]
        if idle:
            raise ValueError(f"method {idle[0]!r} writes no column of {family} "
                             f"preset {self.preset!r} with methods {methods}")


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
            "spec": {name: _json_value(value)
                     for name, value in asdict(self.spec).items()},
            "metadata": self.metadata,
            "columns": list(self.columns),
            "aggregate_columns": list(self.agg_columns),
        }
        return json.dumps(payload, indent=2, sort_keys=True,
                          allow_nan=False) + "\n"

    def write(self, out_dir: str) -> dict:
        """Atomically write the rows CSV, the aggregate CSV if there are
        aggregate columns (bench_runtime has none), and the JSON sidecar;
        returns the paths written, by label."""
        stem = self.spec.out_stem or self.spec.preset
        files = {"csv": (".csv", self.to_csv),
                 "aggregate_csv": ("_aggregate.csv", self.to_aggregate_csv),
                 "json": (".json", self.to_json)}
        if not self.agg_columns:
            del files["aggregate_csv"]
        paths = {}
        for label, (suffix, text) in files.items():
            paths[label] = os.path.join(out_dir, stem + suffix)
            _atomic_write(paths[label], text())
        return paths


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _json_value(v):
    """v, or each entry of it, with a non-finite float written as the CSVs
    write it ("nan", "inf", "-inf"): JSON has no NaN or Infinity."""
    if isinstance(v, tuple):
        return [_json_value(x) for x in v]
    return _fmt(v) if isinstance(v, float) and not math.isfinite(v) else v


def _csv_text(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # created as open(path, "w") would create path: mode 0o666 less the umask
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# the thread settings a run reports in its sidecar, as the process sees them
_THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@cache
def _static_environment() -> dict:
    """Facts that do not change while the process runs."""
    import platform

    from . import __version__
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:         # not every platform has CPU affinity
        affinity = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = {}
    return {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
    }


# glibc's mallopt parameters (M_MMAP_THRESHOLD, M_TRIM_THRESHOLD) and the
# values the heap hold sets: the cap of glibc's own dynamic mmap threshold
# on 64-bit hosts, and twice that cap
_HEAP_HOLD = {"mmap_threshold": (-3, 32 << 20), "trim_threshold": (-1, 64 << 20)}
# the environment through which a user already tunes glibc's allocator
_ALLOCATOR_ENV_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


@cache
def _hold_heap() -> dict | None:
    """Keep the trial working set resident, once per process.

    By default glibc trims the free top of the heap between trials and
    serves large buffers with fresh mappings, so every N_S = 8192 trial
    faults its SVD workspace back in (about 1,000 minor faults, a fifth
    of its W-SA time).  Fixed thresholds keep that memory in the heap for
    reuse; no arithmetic changes.  Returns the settings applied, in
    bytes, or None on another libc or when the environment already tunes
    glibc's allocator.
    """
    if (any(var in os.environ for var in _ALLOCATOR_ENV_VARS)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return None
    try:
        # not find_library or platform.libc_ver: they start programs or
        # read the interpreter binary
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return None
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return None
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    applied = {name: value for name, (param, value) in _HEAP_HOLD.items()
               if mallopt(param, value) == 1}
    return applied or None


def _trial_rng(spec: ExperimentSpec, pi: int, t: int) -> np.random.Generator:
    """Trial t of grid point pi draws from this; see rng_scheme below."""
    return np.random.default_rng(np.random.SeedSequence((spec.seed, pi, t)))


def _metadata(workers: int) -> dict:
    """Sidecar metadata: versions, CPUs and BLAS, the thread variables
    as this process sees them, the pool size the run used and the
    allocator thresholds the heap hold set (None if it set none)."""
    hold = _hold_heap()
    return {
        **_static_environment(),
        "thread_env": {var: os.environ.get(var) for var in _THREAD_ENV_VARS},
        "heap_hold": dict(hold) if hold else None,
        "workers": workers,
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
                 k_lin: float) -> tuple[LosSpec, np.ndarray]:
    """One side's LoS spec, drawn first, and its n_ris x n_array channel
    at the linear K-factor k_lin."""
    los = LosSpec(near_square_geometry(n_ris), near_square_geometry(n_array),
                  _random_angles(rng), _random_angles(rng))
    return los, sample_ricean(k_lin, los, rng)


def _flag_hardening(sides) -> int:
    return int(all(k >= 10.0 / n for k, n in sides))


def _flag_diag(n_ris: int, n_t: int, n_r: int) -> int:
    n_min, n_max = min(n_t, n_r), max(n_t, n_r)
    return int(math.sqrt(n_ris) >= 10.0 * n_min * math.sqrt(n_max))


# --- presets -----------------------------------------------------------

_K_SWEEP_FIG1C = tuple(10.0 * math.log10(k) for k in
                       (0.05, 0.2, 0.5, 1.0, 10.0 ** 0.5, 10.0))

# each spec field a preset can set, at its value where the preset sets none
_PRESET_BASE = dict(n_ris_list=None, n_t=None, k_t_db=0.0, k_sweep_db=None,
                    snr_db=10.0, trials=50, methods=(), rmo_max_iters=200)

# name -> ExperimentSpec fields plus the family of trial it runs.  "fig*"
# presets reproduce the paper's figures, "runtime-*" ones are timed by
# bench_runtime, and the "custom-*" ones behind the CLI's free grids take
# n_ris_list from the caller; n_r follows n_t unless the caller sets it.
_PRESET_TABLE = {
    # empirical vs predicted spectrum, one size
    "fig1a": dict(family="spectrum", n_ris_list=(2000,), n_t=20,
                  k_t_db=10.0, trials=100, methods=()),
    # aggregate spectrum error across sizes
    "fig1b": dict(family="spectrum", n_ris_list=(500, 1000, 2000), n_t=20,
                  k_t_db=10.0, trials=100, methods=()),
    # principal-eigenvalue error across the K sweep
    "fig1c": dict(family="hardening", n_ris_list=(2000,), n_t=20,
                  k_sweep_db=_K_SWEEP_FIG1C, trials=50, methods=()),
    # capacity vs its diagonal surrogate across sizes
    "fig2a": dict(family="capacity", n_ris_list=(512, 2048, 8192), n_t=8,
                  k_t_db=0.0, snr_db=10.0, trials=50,
                  methods=("wsa", "lb")),
    # gain methods vs the asymptotic bound
    "fig2b": dict(family="gain", n_ris_list=(1024, 4096), n_t=16,
                  k_t_db=0.0, trials=50, methods=("sa", "rmo", "lb")),
    # full-array gain comparison at headline dimensions (manual runs)
    "fig2b-full": dict(family="gain", n_ris_list=(2000, 4000, 7000, 10000),
                       n_t=100, k_t_db=0.0, trials=200,
                       methods=("sa", "rmo", "lb")),
    # capacity method ordering at large element counts
    "fig2c": dict(family="capacity", n_ris_list=(5000, 20000), n_t=10,
                  k_t_db=0.0, snr_db=10.0, trials=10,
                  methods=("wsa", "rmo", "rmo-surrogate", "lb")),
    "runtime-gain": dict(family="gain", n_ris_list=(2000, 4000, 8000), n_t=16,
                         k_t_db=0.0, trials=1,
                         methods=("sa", "rmo"), rmo_max_iters=500),
    "runtime-capacity": dict(family="capacity", n_ris_list=(5000,), n_t=10,
                             k_t_db=0.0, snr_db=10.0, trials=1,
                             methods=("wsa", "rmo", "rmo-surrogate"),
                             rmo_max_iters=200),
    "custom-spectrum": dict(family="spectrum", n_t=8, methods=()),
    "custom-gain": dict(family="gain", n_t=8, methods=("sa", "lb")),
    "custom-capacity": dict(family="capacity", n_t=8, methods=("wsa", "lb")),
}


def preset_names(prefix: str) -> tuple:
    """Names of the presets starting with prefix: "fig", "runtime-" or "custom-"."""
    return tuple(name for name in _PRESET_TABLE if name.startswith(prefix))


def _preset(name: str) -> dict:
    if name not in _PRESET_TABLE:
        raise ValueError(f"unknown preset {name!r}; known: {sorted(_PRESET_TABLE)}")
    return _PRESET_TABLE[name]


def preset_spec(name: str, scale: float = 1.0, **overrides) -> ExperimentSpec:
    """ExperimentSpec(preset=name, **overrides), its size grid scaled.

    scale, a number (numpy's too, not a bool), finite and > 0, multiplies
    every entry of the size grid (rounded, floor 2); the spec holds the
    sizes that run, not the scale.  A product past the float range is
    refused.
    """
    if not _is_number(scale):
        raise ValueError(f"scale must be a number; got {scale!r}")
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and > 0; got {scale!r}")
    # the unscaled spec refuses sizes below 1 before the floor can hide them
    unscaled = ExperimentSpec(preset=name, **overrides)
    sizes = []
    for i, n in enumerate(unscaled.n_ris_list):
        try:
            with np.errstate(over="raise"):      # a numpy scale's overflow
                sizes.append(max(2, int(round(n * scale))))
        except ArithmeticError:
            raise ValueError(f"scale {scale!r} takes n_ris_list[{i}] = {n} "
                             f"past the float range") from None
    return replace(unscaled, n_ris_list=tuple(sizes))


def _grid(spec: ExperimentSpec) -> list:
    """The grid points in run order, each holding every per-trial
    parameter: links, trials and aggregates read them here, never in the spec."""
    sides = ([(k, k) for k in spec.k_sweep_db] if spec.k_sweep_db is not None
             else [(spec.k_t_db, spec.k_r_db)])
    return [{"n_ris": n, "n_t": spec.n_t, "n_r": spec.n_r, "k_t_db": k_t,
             "k_r_db": k_r, "snr_db": spec.snr_db, "rmo_max_iters": spec.rmo_max_iters}
            for n in spec.n_ris_list for k_t, k_r in sides]


# --- gain and capacity methods -------------------------------------------
# Library functions are called through this module's globals at call
# time, so that a wrapper installed on them sees every call.

class _Link:
    """One channel pair sampled at a grid point, with what its methods
    read, and no spec: a is the receive side as it enters the cascade
    (n_r x n_ris), t the transmit side (n_ris x n_t), los_t, los_r and
    k_t, k_r each side's LoS spec and linear K-factor, snr and
    rmo_max_iters the point's linear SNR and RMO budget, bundles the
    SVDs of a, t and gain_bound the asymptotic gain bound.  Each channel
    array is held once: the sampled receive matrix is dropped once a,
    its conjugate transpose, is formed."""

    def __init__(self, point: dict, rng: np.random.Generator):
        self.k_t, self.k_r = db2lin(point["k_t_db"]), db2lin(point["k_r_db"])
        self.los_t, self.t = _sample_side(rng, point["n_ris"], point["n_t"],
                                          self.k_t)
        self.los_r, h_r = _sample_side(rng, point["n_ris"], point["n_r"],
                                       self.k_r)
        self.a = h_r.conj().T
        self.snr = db2lin(point["snr_db"])
        self.rmo_max_iters = point["rmo_max_iters"]

    @cached_property
    def bundles(self) -> tuple:
        return svd_bundle(self.a), svd_bundle(self.t)

    @cached_property
    def gain_bound(self) -> float:
        (n_ris, n_t), n_r = self.t.shape, self.a.shape[0]
        return gain_lower_bound(n_ris, n_t, n_r, self.k_t, self.k_r)


@dataclass(frozen=True)
class _Method:
    """A trial times configure(link) and writes score(link, configured);
    bench_runtime times the same configure(link), with repeats =
    (warmups, samples)."""

    configure: Callable
    score: Callable
    repeats: tuple = (1, 3)


def _score_sa(link: _Link, phi) -> dict:
    gain = channel_gain(cascaded_channel(link.a, phi, link.t))
    lb = link.gain_bound
    return {"gain_sa": gain, "alpha_sa": gain / (lb / 0.25)} if lb > 0 else {"gain_sa": gain}


def _score_wsa(link: _Link, configured) -> dict:
    phi, plan = configured
    report = wsa_report(link.a, link.t, *link.bundles, phi, plan, link.snr)
    return {"cap_wsa": report.capacity_exact,
            "cap_diag": report.capacity_diag,
            "cap_lb": report.capacity_lb,
            "offdiag_ratio": report.offdiag_ratio,
            "iterations_used": plan.iterations_used}


def _rmo(objective: str, column: str) -> _Method:
    """RMO on objective, quantized; column holds the gain or capacity.
    The surrogate objective reads the link's SVDs, so its configure step
    makes them only if no earlier method of the trial did."""
    def configure(link: _Link):
        settings = RmoSettings(objective=objective, max_iters=link.rmo_max_iters)
        bundles = link.bundles if objective == "capacity_surrogate" else None
        res = rmo_optimize(link.a, link.t, settings, snr=link.snr,
                           bundles=bundles)
        return quantize_1bit(res.phi)

    def score(link: _Link, phi) -> dict:
        h = cascaded_channel(link.a, phi, link.t)
        if objective == "gain":
            return {column: channel_gain(h)}
        return {column: capacity_exact(h, link.snr)}
    return _Method(configure, score)


# Spec fields that only some families, methods or presets ("run": those
# run_experiment runs, not bench_runtime's) read, and the ones a K sweep
# replaces; a spec that runs none of a field's readers leaves it at its
# preset's value (n_r at n_t, k_r_db at k_t_db)
_READERS = {"n_r": {"gain", "capacity"}, "k_r_db": {"gain", "capacity"},
            "snr_db": {"capacity"},
            "rmo_max_iters": {"rmo", "rmo-surrogate"},
            "trials": {"run"}, "workers": {"run"}}
_SWEPT = ("k_t_db", "k_r_db")
# the integer fields of a spec and the least value each takes
_COUNTS = {"n_t": 1, "n_r": 1, "trials": 1, "seed": 0, "workers": 1,
           "rmo_max_iters": 1}


# --- per-trial work ----------------------------------------------------

def _trial_side(methods, point, trial, rng):
    """A spectrum or hardening trial: the eigenvalues of one sampled
    side's Gram matrix, in descending order, with the largest one's
    asymptotic prediction; _columns decides which of them the CSVs show."""
    n_ris, n_t, k_db = point["n_ris"], point["n_t"], point["k_t_db"]
    k_lin = db2lin(k_db)
    _, h = _sample_side(rng, n_ris, n_t, k_lin)
    eig = np.linalg.eigvalsh(h.conj().T @ h)[::-1]
    row = {"trial": trial, "n_ris": n_ris, "n_t": n_t, "k_t_db": k_db,
           "flag_hardening": _flag_hardening([(k_lin, n_t)]),
           "lambda_1": float(eig[0]),
           "predicted_1": _spike(n_ris, n_t, k_lin)}
    row.update((f"eig_{i:02d}", float(val)) for i, val in enumerate(eig, start=1))
    return row, {}


def _trial_methods(methods, point, trial, rng):
    """A gain or capacity trial: run, time and score each method.

    methods are the (name, _Method) pairs the spec requested, in run
    order.  The row holds the point, the link's facts and every value
    its methods score; _columns decides which of them the CSVs show.  A
    method that raises leaves its columns empty and its message in the
    row's error column.
    """
    link = _Link(point, rng)
    n_t, n_r = point["n_t"], point["n_r"]
    row = {"trial": trial, **point,
           "flag_hardening": _flag_hardening([(link.k_t, n_t), (link.k_r, n_r)]),
           "flag_diag": _flag_diag(point["n_ris"], n_t, n_r),
           "lower_bound": link.gain_bound, "error": ""}
    timings = {}
    for name, method in methods:
        try:
            t0 = time.perf_counter()
            configured = method.configure(link)
            timings[name] = time.perf_counter() - t0
            row.update(method.score(link, configured))
        except Exception as exc:  # recorded, not fatal
            row["error"] += f"{name}: {exc}; "
    return row, timings


def _family(spec: ExperimentSpec) -> _Family:
    return _FAMILIES[_preset(spec.preset)["family"]]


def _columns(spec: ExperimentSpec) -> tuple:
    family = _family(spec)
    cols = ["point", "trial", "n_ris", "n_t", *family.columns]
    if family.aggregate is _agg_spectrum:    # it reads every eigenvalue
        cols += [f"eig_{i:02d}" for i in range(1, spec.n_t + 1)]
    cols += [col for col, needs, _ in family.optional
             if set(needs) <= set(spec.methods)]
    return tuple(cols + ["error"] if family.methods else cols)


# --- aggregation (recomputable from rows) -------------------------------

def _point_rows(rows, point_index):
    return [r for r in rows if r["point"] == point_index]


def _agg_spectrum(family, points, rows, columns):
    out = []
    for pi, pt in enumerate(points):
        sub = _point_rows(rows, pi)
        pred = asymptotic_spectrum(pt["n_ris"], pt["n_t"], db2lin(pt["k_t_db"]))
        index = range(1, pt["n_t"] + 1)
        emps = [np.array([r[f"eig_{i:02d}"] for r in sub]) for i in index]
        preds = [float(pred.predicted_sq_singular_values[i - 1]) for i in index]
        per_index = [_nmse_cell(emp, np.full(emp.size, p_i))
                     for emp, p_i in zip(emps, preds)]
        agg = None if None in per_index else float(np.mean(per_index))
        for i, emp, p_i, err in zip(index, emps, preds, per_index):
            out.append({"point": pi, "n_ris": pt["n_ris"],
                        "k_t_db": pt["k_t_db"], "index": i,
                        "predicted": p_i,
                        "empirical_mean": float(np.mean(emp)),
                        "nmse": err,
                        "aggregate_nmse": agg,
                        "bulk_regime": int(pred.bulk_regime)})
    return out


def _present(rows, key):
    return [r[key] for r in rows if r.get(key) is not None]


def _agg_points(family, points, rows, columns):
    """Per point: head from its first row, mean_<col> of each averaged col
    shown (over the rows holding it), then each derived col it can read."""
    shown = set(columns)
    means = [col for col, _, averaged in family.optional
             if averaged and col in shown]
    out = []
    for pi in range(len(points)):
        sub = _point_rows(rows, pi)
        entry = {"point": pi, **{col: sub[0][col] for col in family.head}}
        for col in means:
            vals = _present(sub, col)
            entry[f"mean_{col}"] = float(np.mean(vals)) if vals else None
        entry.update([(col, fn(sub, entry)) for col, reads, fn in family.derived
                      if set(reads) <= shown])
        out.append(entry)
    return out


def _nmse_lambda_1(sub, entry):
    """Empty for a prediction of (near) zero energy: K = 0 linear, or one
    whose square underflows or whose quotient overflows."""
    lam = _present(sub, "lambda_1")
    return _nmse_cell(lam, np.full(len(lam), entry["predicted_1"]))


def _ratio_db_sa_lb(sub, entry):
    sa, lb = entry["mean_gain_sa"], sub[0]["lower_bound"]
    return 10.0 * math.log10(sa / lb) if sa and lb and lb > 0 else None


def _gap_db_sa_rmo(sub, entry):
    sa, rmo = entry["mean_gain_sa"], entry["mean_gain_rmo"]
    return 10.0 * math.log10(sa / rmo) if sa and rmo else None


def _nmse_diag(sub, entry):
    return _nmse_cell(_present(sub, "cap_diag"), _present(sub, "cap_wsa"))


@dataclass(frozen=True)
class _Family:
    """What a family of trials runs (methods, in order), shows and
    aggregates.  An opt-in (column, needs, averaged) is shown when the spec
    requests all its needs, which a spec may name besides the methods.
    aggregate reads the shown rows; its entries all have the same keys."""

    trial: Callable
    columns: tuple
    methods: dict = field(default_factory=dict)
    optional: tuple = ()
    head: tuple = ()
    derived: tuple = ()
    aggregate: Callable = _agg_points

    def run_order(self, names) -> list:
        """The (name, method) pairs of the names given, in run order."""
        return [(name, m) for name, m in self.methods.items() if name in names]


# "lb" is the asymptotic gain bound, which every gain or capacity row holds
_FAMILIES = {
    "spectrum": _Family(_trial_side, ("k_t_db", "flag_hardening"),
                        aggregate=_agg_spectrum),
    "hardening": _Family(
        _trial_side, ("k_t_db", "flag_hardening"),
        optional=(("lambda_1", (), True), ("predicted_1", (), False)),
        head=("n_ris", "k_t_db", "predicted_1"),
        derived=(("nmse", ("lambda_1", "predicted_1"), _nmse_lambda_1),)),
    "gain": _Family(
        _trial_methods, ("n_r", "k_t_db", "k_r_db", "flag_hardening"),
        methods={"sa": _Method(lambda link: configure_gain_los(link.los_t,
                                                               link.los_r),
                               _score_sa, (3, 5)),
                 "rmo": _rmo("gain", "gain_rmo")},
        optional=(("gain_sa", ("sa",), True), ("gain_rmo", ("rmo",), True),
                  ("lower_bound", ("lb",), False),
                  ("alpha_sa", ("sa", "lb"), False)),
        head=("n_ris", "k_t_db", "k_r_db"),
        derived=(("lower_bound", ("lower_bound",),
                  lambda sub, entry: sub[0]["lower_bound"]),
                 ("ratio_db_sa_lb", ("gain_sa", "lower_bound"), _ratio_db_sa_lb),
                 ("gap_db_sa_rmo", ("gain_sa", "gain_rmo"), _gap_db_sa_rmo))),
    "capacity": _Family(
        _trial_methods, ("n_r", "k_t_db", "k_r_db", "snr_db", "flag_hardening",
                         "flag_diag"),
        methods={"wsa": _Method(lambda link: configure_wsa(*link.bundles,
                                                           link.snr),
                                _score_wsa, (3, 5)),
                 "rmo": _rmo("capacity_exact", "cap_rmo"),
                 "rmo-surrogate": _rmo("capacity_surrogate",
                                       "cap_rmo_surrogate")},
        optional=(("cap_wsa", ("wsa",), True), ("cap_diag", ("wsa",), True),
                  ("cap_rmo", ("rmo",), True),
                  ("cap_rmo_surrogate", ("rmo-surrogate",), True),
                  ("cap_lb", ("wsa", "lb"), True),
                  ("offdiag_ratio", ("wsa",), True),
                  ("iterations_used", ("wsa",), False)),
        head=("n_ris", "k_t_db", "k_r_db", "snr_db"),
        derived=(("nmse_diag", ("cap_wsa", "cap_diag"), _nmse_diag),)),
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
    _hold_heap()
    if spec.preset.startswith("runtime-"):
        raise ValueError("runtime presets are run via bench_runtime")
    family = _family(spec)
    methods, columns = family.run_order(spec.methods), _columns(spec)
    points = _grid(spec)
    tasks = [(pi, t) for pi in range(len(points)) for t in range(spec.trials)]

    def one(task):
        pi, t = task
        row, timing = family.trial(methods, points[pi], t, _trial_rng(spec, pi, t))
        row["point"] = pi
        return row, timing

    workers = _resolve_workers(spec.workers, len(tasks), os.cpu_count())
    if workers == 1:
        done = [one(task) for task in tasks]
    else:                          # map yields in task order
        # imported here: a one-worker run never loads the pool's modules
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(one, tasks))
    rows = [row for row, _ in done]
    timings = [timing for _, timing in done]
    # aggregate what the row CSV shows, so it can be recomputed from it
    shown = [{col: row[col] for col in columns if col in row} for row in rows]
    aggregates = family.aggregate(family, points, shown, columns)
    return ExperimentResult(spec=spec, columns=columns,
                            rows=rows, agg_columns=tuple(aggregates[0]),
                            aggregates=aggregates, timings=timings,
                            metadata=_metadata(workers))


# --- runtime benchmarking ----------------------------------------------

_MIN_SAMPLE_SECONDS = 0.005          # the inner loop's floor per timed sample


def _time_callable(fn, warmups: int, samples: int):
    """Median/mean wall time of fn using a calibrated inner loop."""
    for _ in range(warmups):
        fn()
    t0 = time.perf_counter()
    fn()
    single = time.perf_counter() - t0
    inner = max(1, min(100000, int(math.ceil(_MIN_SAMPLE_SECONDS / max(single, 1e-9)))))
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
    median and mean of 5 timed samples per one-shot method (1 and 3 for
    RMO).  The spec's methods are timed in its family's order, as a
    trial runs them.  A sample times configure(link), as a trial does; sa's
    step reads the steering vectors that sampling cached on the link's
    LoS specs.  The warmups of the first of wsa and rmo-surrogate make
    the link's SVDs, so the samples of both exclude them (CSI
    acquisition, common to all methods); exact-capacity rmo takes the
    cascade's singular values per evaluation.
    """
    _hold_heap()
    if not spec.preset.startswith("runtime-"):
        raise ValueError("bench_runtime expects a runtime preset")
    methods = _family(spec).run_order(spec.methods)
    rows = []
    for pi, point in enumerate(_grid(spec)):
        link = _Link(point, _trial_rng(spec, pi, 0))
        row = {key: point[key] for key in ("n_ris", "n_t", "n_r")}
        medians = {}
        for name, method in methods:
            col = name.replace("-", "_")
            med, mean = _time_callable(partial(method.configure, link),
                                       *method.repeats)
            row[f"{col}_median_s"], row[f"{col}_mean_s"] = med, mean
            medians[col] = med
        for col in medians:
            if col != "rmo" and "rmo" in medians:
                short = col.removeprefix("rmo_")
                row[f"ratio_rmo_over_{short}"] = medians["rmo"] / medians[col]
        rows.append(row)
    # every row times the same methods, so the rows share their keys
    return ExperimentResult(spec=spec, columns=tuple(rows[0]), rows=rows,
                            agg_columns=(), aggregates=[], timings=[],
                            metadata=_metadata(1))
