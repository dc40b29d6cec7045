#!/usr/bin/env python3
"""Benchmark of risopt's seeded Monte Carlo harness.

Run from the repository root:

    python3 perfbench/run.py --workload gain-rmo --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A workload is a run of blocks of seeded run_experiment grids at the
presets' shipped element counts, each result written with
ExperimentResult.write as `risopt figure` does.  With --trace 0 the blocks
run on one worker, shared out over PARTS fresh interpreters, one after the
other, which together measure for --seconds seconds; the end-to-end metrics
are trial throughput, set-up time, peak memory, per-method configuration
latency and solution quality, the times scaled by hostspeed.py's kernel to
a host of fixed speed.  With --trace 1 the loads of the first
quality_blocks blocks run in this interpreter with one worker, at the
workload's pool worker count when that is more, and with one worker again
while tracing.py wraps the package's functions from outside, for
per-module call counts, self times and values read from their return
values.  The seed reaches the program only as
ExperimentSpec.seed.  Output checks: no trial fails, the CSV bytes of a
rerun block equal those of its first run, and the quality metrics lie in
the bands of reference.json.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# OpenBLAS starts one thread per CPU by default.  On a 2-vCPU machine the
# second thread spun through a whole gain-rmo run (CPU time twice the wall
# time) without making a block faster, and next to a pool of two workers
# it oversubscribes the CPUs, so the timings measured the host's scheduler.
# A BLAS thread variable the caller leaves unset is set to 1 here, before
# numpy loads, for this interpreter and the ones it starts; the env line
# prints the caller's values and the ones used.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
CALLER_ENV = {var: os.environ.get(var, "unset")
              for var in BLAS_THREAD_VARS + ("RISOPT_WORKERS",)}
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(HERE))
from hostspeed import REFERENCE_MS, Kernel  # noqa: E402
from tracing import Tracer, parallel_efficiency, percentile, traced  # noqa: E402

# A timed run is split over several interpreters so that no one
# interpreter's luck carries into every metric; each one's start-up to the
# end of its warm-up trial is also one sample of setup_s.  The timed load
# runs on one worker: on a 2-vCPU machine with 2-8% steal time, oneshot's
# throughput on a pool of two ranged 109-185 trials/s over four runs and
# fell as the steal time the run saw rose (0.2% to 2.4% of CPU time),
# while on one worker, in runs interleaved with those, it ranged 119-127.
PARTS = 4
# Kernel runs after each block; an interpreter's median kernel time gives
# the factor, REFERENCE_MS over it, by which its blocks' times are scaled
# for the normalised metrics.
KERNEL_CALLS = 5


@dataclass(frozen=True)
class Workload:
    """Block j runs each (preset, trials) grid of load with
    ExperimentSpec.seed = seed * BLOCK_SEEDS + j, so every block draws new
    channels.  Blocks run until --seconds have passed and at least
    quality_blocks have run; the quality metrics use exactly the first
    quality_blocks.  complement: small custom grids that run in every
    block after its timed load, with --trace 0 only, for the metrics of
    methods the load does not run; a metric comes from the load when the
    load runs its method, else from the first complement grid that does.
    The timed load runs on one worker; pool_workers is the worker count of
    the traced run's pool pass, which harness.parallel_efficiency reads."""

    load: tuple
    pool_workers: int
    quality_blocks: int
    complement: tuple


BLOCK_SEEDS = 1000

# Complement grids sit at a shipped point of the presets that carry their
# methods: fig2b's 1024 x 16 for gain, fig2a's 2048 x 8 for capacity (where
# both RMO objectives always run their 200 iterations).  A slice of them in
# every block spreads their samples over the whole run, as the load's are.
SA_COMPLEMENT = dict(preset="custom-gain", n_ris_list=(1024,), n_t=16,
                     methods=("sa", "lb"), trials=5)
GAIN_RMO_COMPLEMENT = dict(preset="custom-gain", n_ris_list=(1024,), n_t=16,
                           methods=("sa", "rmo", "lb"), trials=1)
CAPACITY_COMPLEMENT = dict(preset="custom-capacity", n_ris_list=(2048,), n_t=8,
                           snr_db=10.0, trials=1,
                           methods=("wsa", "rmo", "rmo-surrogate", "lb"))

WORKLOADS = {
    # RMO on the gain objective is ~97% of wall; one worker, no pool.
    "gain-rmo": Workload(load=(("fig2b", 2),), pool_workers=1,
                         quality_blocks=10, complement=(CAPACITY_COMPLEMENT,)),
    # Many short trials, no RMO: sampling, SVD, SCA; the traced run also
    # measures dispatching them to a pool of two.
    "oneshot": Workload(load=(("fig2a", 10), ("fig1c", 10)), pool_workers=2,
                        quality_blocks=10,
                        complement=(CAPACITY_COMPLEMENT, SA_COMPLEMENT,
                                    GAIN_RMO_COMPLEMENT)),
}

TRACE_TARGETS = (
    "channels.sample_ricean", "channels.cascaded_channel",
    "geometry.upa_steering",
    "spectral.svd_bundle", "spectral.asymptotic_spectrum",
    "capacity.run_wsa", "capacity.allocate_sca", "capacity.round_allocation",
    "capacity.configure_capacity", "capacity.capacity_exact",
    "capacity.capacity_diag_approx", "capacity.effective_channel",
    "alignment.sign_align",
    "gain.configure_gain_los", "gain.channel_gain",
    "manifold.rmo_optimize", "manifold.quantize_1bit",
)
RMO_OBJECTIVES = ("gain", "capacity_exact", "capacity_surrogate")
RMO_STOPS = ("max_iters", "line_search", "gradient_tolerance")



def _p50(samples):
    return percentile(samples, 50)


# name -> (method key of ExperimentResult.timings, statistic).  The
# statistic is taken per element count and averaged over the counts, as a
# percentile of the pooled samples of a two-count grid falls in the gap
# between the counts.  A run has 10-30 samples per count for most of them,
# too few for a 90th percentile: its spread over ten seeds reached 0.42.
# Gain RMO stops after ~60-160 iterations on a failed line search or at
# 200, so its times have two modes whose mix varies by seed; its median
# jumped between them (spread 0.26 over ten seeds) where the mean moves
# with the mix.
LATENCY_METRICS = {
    "sa_ms_p50": ("sa", _p50), "wsa_ms_p50": ("wsa", _p50),
    "rmo_ms_mean": ("rmo", statistics.fmean),
    "rmo_surrogate_ms_p50": ("rmo-surrogate", _p50),
}


def _points(results):
    return [a for r in results for a in r.aggregates]


def _rows(results):
    return [row for r in results for row in r.rows]


# name -> (unit, values whose mean is the metric).  Gain quality is read
# from the gain aggregates, one value per grid point; RMO over SA is a
# linear ratio because the ~0.25 dB gap spreads too much across seeds for
# a relative bound.  Capacity quality is the mean capacity over trials.
QUALITY_METRICS = {
    "sa_over_lb_db": ("dB", lambda rs: [
        a["ratio_db_sa_lb"] for a in _points(rs)
        if a.get("ratio_db_sa_lb") is not None]),
    "rmo_over_sa_ratio": ("ratio", lambda rs: [
        a["mean_gain_rmo"] / a["mean_gain_sa"] for a in _points(rs)
        if a.get("mean_gain_rmo") and a.get("mean_gain_sa")]),
    "wsa_bits": ("bits", lambda rs: [
        row["cap_wsa"] for row in _rows(rs) if "cap_wsa" in row]),
    "rmo_bits": ("bits", lambda rs: [
        row["cap_rmo"] for row in _rows(rs) if "cap_rmo" in row]),
    "rmo_surrogate_bits": ("bits", lambda rs: [
        row["cap_rmo_surrogate"] for row in _rows(rs)
        if "cap_rmo_surrogate" in row]),
}
# columns holding a requested method's value; empty or non-finite = failed
VALUE_COLUMNS = ("gain_sa", "gain_rmo", "lower_bound", "cap_wsa", "cap_rmo",
                 "cap_rmo_surrogate", "cap_lb", "lambda_1")


def _import_risopt() -> None:
    if not (SRC / "risopt" / "__init__.py").is_file():
        sys.exit(f"risopt sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import risopt  # noqa: F401


def _nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_workers(workload: Workload) -> int:
    return min(workload.pool_workers, _nproc())


def _block_specs(workload: Workload, seed: int, block: int,
                 workers: int) -> list:
    from risopt import preset_spec
    return [preset_spec(name, trials=trials, seed=seed * BLOCK_SEEDS + block,
                        workers=workers)
            for name, trials in workload.load]


def _complement_specs(workload: Workload, seed: int, block: int) -> list:
    from risopt import ExperimentSpec
    return [ExperimentSpec(seed=seed * BLOCK_SEEDS + block, workers=1, **params)
            for params in workload.complement]


def _warmup_spec(workload: Workload, seed: int):
    """Trial 0 of the first grid point of block 0's first grid."""
    spec = _block_specs(workload, seed, 0, 1)[0]
    sweep = spec.k_sweep_db[:1] if spec.k_sweep_db else spec.k_sweep_db
    return replace(spec, n_ris_list=spec.n_ris_list[:1], k_sweep_db=sweep,
                   trials=1)


# --- one block -------------------------------------------------------------

@dataclass
class Block:
    wall_s: float
    results: list
    csv_bytes: dict


def _run_grids(specs, out_dir: Path, tracer: Tracer | None = None) -> Block:
    """run_experiment + write for each spec, in order, into out_dir."""
    from risopt import run_experiment
    out_dir.mkdir(parents=True)
    results = []
    start = time.perf_counter()
    for spec in specs:
        if tracer is None:
            result = run_experiment(spec)
            result.write(str(out_dir))
        else:
            with tracer.span("harness.run_experiment"):
                result = run_experiment(spec)
            with tracer.span("harness.write"):
                result.write(str(out_dir))
        results.append(result)
    wall = time.perf_counter() - start
    csv_bytes = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}
    shutil.rmtree(out_dir)
    return Block(wall, results, csv_bytes)


def _run_blocks(workload: Workload, seed: int, workers: int, count: int,
                out_dir: Path, tracer: Tracer | None = None) -> Block:
    """Blocks 0..count-1 as one: summed wall time, all results and files."""
    blocks = [_run_grids(_block_specs(workload, seed, j, workers),
                         out_dir / f"block{j}", tracer) for j in range(count)]
    return Block(sum(b.wall_s for b in blocks),
                 [r for b in blocks for r in b.results],
                 {f"block{j}/{name}": data for j, b in enumerate(blocks)
                  for name, data in b.csv_bytes.items()})


def _digest(csv_bytes: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(csv_bytes):
        h.update(name.encode() + b"\0" + csv_bytes[name] + b"\0")
    return h.hexdigest()


def _trial_count(results) -> int:
    return sum(len(r.rows) for r in results)


def _failed_count(results) -> int:
    def failed(row, columns):
        if row.get("error"):
            return True
        for col in VALUE_COLUMNS:
            if col in columns:
                value = row.get(col)
                if value is None or not math.isfinite(value):
                    return True
        return False
    return sum(failed(row, r.columns) for r in results for row in r.rows)


# --- timed run: one part per interpreter ------------------------------------

def _latency_samples(results, method: str) -> dict:
    """Per-instance times of method in ms, keyed by grid and element count."""
    points = {}
    for r in results:
        for row, timing in zip(r.rows, r.timings):
            if method in timing:
                key = f"{r.spec.preset}:{row['n_ris']}"
                points.setdefault(key, []).append(1000.0 * timing[method])
    return points


def _block_record(index: int, block: Block, complement: list,
                  with_quality: bool, kernel_ms: list) -> dict:
    """What the parent needs of one block; source 0 is the load, source
    i > 0 complement grid i - 1."""
    sources = [block.results] + [[c] for c in complement]
    every = block.results + complement
    return {
        "index": index, "wall_s": block.wall_s, "kernel_ms": kernel_ms,
        "trials": _trial_count(block.results),
        "attempted": _trial_count(every), "failed": _failed_count(every),
        "latency": [{m: _latency_samples(src, method)
                     for m, (method, _) in LATENCY_METRICS.items()}
                    for src in sources],
        "quality": [{m: extract(src) for m, (_, extract) in QUALITY_METRICS.items()}
                    for src in sources] if with_quality else None,
    }


def run_part(name: str, seed: int, seconds: float, part: int,
             scratch: Path) -> dict:
    """Blocks part, part + PARTS, ... for this part's share of seconds."""
    from risopt import run_experiment
    workload = WORKLOADS[name]
    run_experiment(_warmup_spec(workload, seed))
    print("ready", flush=True)
    kernel = Kernel()
    kernel.ms(KERNEL_CALLS)

    records, digests, rerun_counts = [], {}, None
    block = part
    start = time.perf_counter()
    while (block < workload.quality_blocks
           or time.perf_counter() - start < seconds / PARTS):
        timed = _run_grids(_block_specs(workload, seed, block, 1),
                           scratch / f"block{block}")
        complement = [run_experiment(s) for s in
                      _complement_specs(workload, seed, block)]
        kernel_ms = [kernel.ms(1) for _ in range(KERNEL_CALLS)]
        records.append(_block_record(block, timed, complement,
                                     block < workload.quality_blocks,
                                     kernel_ms))
        if block == 0:
            digests["block0"] = _digest(timed.csv_bytes)
        block += PARTS
    if part == PARTS - 1:
        rerun = _run_grids(_block_specs(workload, seed, 0, 1),
                           scratch / "rerun")
        digests["rerun"] = _digest(rerun.csv_bytes)
        rerun_counts = [_trial_count(rerun.results), _failed_count(rerun.results)]
    return {"records": records, "digests": digests, "rerun": rerun_counts,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def _spawn_part(name: str, seed: int, seconds: float, part: int):
    """(setup seconds, part result) of one fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--part", str(part)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        if proc.stdout.readline().strip() != "ready":
            raise RuntimeError(f"part {part} did not finish its warm-up")
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"part {part} exited with {proc.returncode}")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def _first_source(merged: list):
    """The first source (load, then complement grids) with any values."""
    for values in merged:
        if values:
            return values
    raise RuntimeError("no grid of this workload supplies the metric")


def run_timed(name: str, seed: int, seconds: float) -> dict:
    workload = WORKLOADS[name]
    setups, parts = zip(*(_spawn_part(name, seed, seconds, k)
                          for k in range(PARTS)))
    blocks = sorted((r for p in parts for r in p["records"]),
                    key=lambda r: r["index"])
    n_sources = 1 + len(workload.complement)
    reruns = [p["rerun"] for p in parts if p["rerun"]]
    attempted = sum(b["attempted"] for b in blocks) + sum(r[0] for r in reruns)
    failed = sum(b["failed"] for b in blocks) + sum(r[1] for r in reruns)
    kernel_ms = [[ms for r in p["records"] for ms in r["kernel_ms"]]
                 for p in parts]
    factor = {b["index"]: REFERENCE_MS / statistics.median(
        kernel_ms[b["index"] % PARTS]) for b in blocks}
    timed_s = sum(b["wall_s"] for b in blocks)
    trials = sum(b["trials"] for b in blocks)
    metrics = {
        "trials_per_s_norm": (trials / sum(b["wall_s"] * factor[b["index"]]
                                           for b in blocks), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in parts), "MB"),
    }
    raw = {"trials_per_s": (trials / timed_s, "1/s"),
           "kernel_ms": (statistics.median(ms for k in kernel_ms for ms in k),
                         "ms")}
    notes = {}
    for metric, (_, statistic) in LATENCY_METRICS.items():
        for label, scaled, target in ((f"{metric}_norm", True, metrics),
                                      (metric, False, raw)):
            merged = []
            for i in range(n_sources):
                points = {}
                for b in blocks:
                    scale = factor[b["index"]] if scaled else 1.0
                    for key, samples in b["latency"][i][metric].items():
                        points.setdefault(key, []).extend(
                            scale * v for v in samples)
                merged.append(list(points.values()))
            points = _first_source(merged)
            target[label] = (statistics.fmean(statistic(p) for p in points), "ms")
            notes[label] = f"n={sum(len(p) for p in points)}"
    quality_blocks = [b for b in blocks if b["index"] < workload.quality_blocks]
    for metric, (unit, _) in QUALITY_METRICS.items():
        values = _first_source([[v for b in quality_blocks
                                 for v in b["quality"][i][metric]]
                                for i in range(n_sources)])
        metrics[metric] = (statistics.fmean(values), unit)
        notes[metric] = f"n={len(values)}"

    digests = {k: v for p in parts for k, v in p["digests"].items()}
    checks = {
        "csv_identical_on_rerun": digests["rerun"] == digests["block0"],
        "no_failed_trials": failed == 0,
    }
    bands = _reference_bands()[name]
    for metric in QUALITY_METRICS:
        low, high = bands[metric]
        checks[f"{metric}_in_reference"] = low <= metrics[metric][0] <= high

    print(f"workload {name} seed {seed}: {len(blocks)} blocks in {PARTS} "
          f"interpreters, {trials} trials in {timed_s:.2f} s, workers=1")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:26s} {value:14.6g} {unit:5s} {notes.get(metric, '')}")
    print(f"  {'failed_trial_frac':26s} {failed / attempted:14.6g} frac  "
          f"({failed} of {attempted})")
    print(f"  raw wall times, not scaled by {REFERENCE_MS:g} ms over the "
          f"kernel time of their interpreter:")
    for metric, (value, unit) in raw.items():
        print(f"  {metric:26s} {value:14.6g} {unit:5s} {notes.get(metric, '')}")
    return _result(checks, attempted, failed, metrics)


def _reference_bands() -> dict:
    return json.loads((HERE / "reference.json").read_text())


# --- traced run ------------------------------------------------------------

class _Observations:
    """Values read from the public return values of wrapped functions."""

    def __init__(self):
        self.sca_iters = []
        self.sca_converged = []
        self.rmo = {obj: [0, 0, 0.0] for obj in RMO_OBJECTIVES}  # calls, iters, s
        self.rmo_stops = {reason: 0 for reason in RMO_STOPS}

    def allocate_sca(self, plan, args, kwargs, seconds):
        self.sca_iters.append(plan.iterations_used)
        self.sca_converged.append(bool(plan.converged))

    def rmo_optimize(self, res, args, kwargs, seconds):
        settings = kwargs["settings"] if "settings" in kwargs else args[2]
        entry = self.rmo[settings.objective]
        entry[0] += 1
        entry[1] += res.iterations
        entry[2] += seconds
        self.rmo_stops[res.stop_reason] += 1

    def observers(self) -> dict:
        return {"capacity.allocate_sca": self.allocate_sca,
                "manifold.rmo_optimize": self.rmo_optimize}


def _gradient_ms(objective: str, n_ris: int, n: int, seed: int) -> float:
    """Median wall time of one euclidean_gradient call on seeded inputs."""
    import numpy as np
    from risopt import complex_gaussian, db2lin, euclidean_gradient
    rng = np.random.default_rng(np.random.SeedSequence((seed, n_ris, n)))
    a = complex_gaussian(rng, (n, n_ris))
    t = complex_gaussian(rng, (n_ris, n))
    phi = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n_ris))
    snr = None if objective == "gain" else db2lin(10.0)
    for _ in range(3):
        euclidean_gradient(objective, a, t, phi, snr=snr)
    samples = []
    for _ in range(21):
        start = time.perf_counter()
        euclidean_gradient(objective, a, t, phi, snr=snr)
        samples.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(samples)


def run_traced(name: str, seed: int, scratch: Path) -> dict:
    from risopt import run_experiment
    workload = WORKLOADS[name]
    workers = _pool_workers(workload)
    run_experiment(_warmup_spec(workload, seed))

    count = workload.quality_blocks
    serial = _run_blocks(workload, seed, 1, count, scratch / "serial")
    parallel = serial if workers == 1 else _run_blocks(
        workload, seed, workers, count, scratch / "parallel")
    tracer = Tracer()
    seen = _Observations()
    with traced(tracer, "risopt", TRACE_TARGETS, seen.observers()):
        traced_rep = _run_blocks(workload, seed, 1, count, scratch / "traced",
                                 tracer)

    trials = _trial_count(traced_rep.results)
    failed = _failed_count(traced_rep.results)
    metrics = {}
    for target in TRACE_TARGETS:
        metrics[f"{target}.calls"] = (tracer.calls.get(target, 0), "count")
        metrics[f"{target}.self_s"] = (tracer.self_s.get(target, 0.0), "s")
    metrics["capacity.sca_iters"] = (
        statistics.fmean(seen.sca_iters) if seen.sca_iters else 0.0, "count")
    metrics["capacity.sca_converged_frac"] = (
        statistics.fmean(seen.sca_converged) if seen.sca_converged else 0.0,
        "frac")
    for obj, (calls, iters, seconds) in seen.rmo.items():
        metrics[f"manifold.rmo_iters.{obj}"] = (
            iters / calls if calls else 0.0, "count")
        metrics[f"manifold.rmo_ms_per_iter.{obj}"] = (
            1000.0 * seconds / iters if iters else 0.0, "ms")
    for reason, count in seen.rmo_stops.items():
        metrics[f"manifold.rmo_stop.{reason}"] = (count, "count")
    metrics["spectral.svd_bundle.calls_per_trial"] = (
        tracer.calls.get("spectral.svd_bundle", 0) / trials, "count")
    metrics["manifold.grad_ms.gain"] = (_gradient_ms("gain", 4096, 16, seed), "ms")
    metrics["manifold.grad_ms.capacity_exact"] = (
        _gradient_ms("capacity_exact", 20000, 10, seed), "ms")
    metrics["harness.self_s"] = (tracer.self_s["harness.run_experiment"], "s")
    metrics["harness.write_s"] = (tracer.total_s["harness.write"], "s")
    metrics["harness.parallel_efficiency"] = (
        parallel_efficiency(traced_rep.wall_s, parallel.wall_s, workers), "ratio")
    metrics["trace.overhead_frac"] = (traced_rep.wall_s / serial.wall_s - 1.0, "frac")

    accounted = sum(tracer.self_s.values())
    checks = {
        "csv_identical": (traced_rep.csv_bytes == serial.csv_bytes
                          == parallel.csv_bytes),
        "no_failed_trials": failed == 0,
        "spans_account_for_wall": abs(accounted / traced_rep.wall_s - 1.0) < 0.02,
    }
    print(f"workload {name} seed {seed} traced: {trials} trials, wall "
          f"{traced_rep.wall_s:.3f} s traced / {serial.wall_s:.3f} s serial / "
          f"{parallel.wall_s:.3f} s at workers={workers}; spans account for "
          f"{accounted:.3f} s")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:44s} {value:14.6g} {unit}")
    return _result(checks, trials, failed, metrics)


# --- output ----------------------------------------------------------------

def _environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": _nproc(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "caller": CALLER_ENV,
        "used": {var: os.environ.get(var, "unset") for var in CALLER_ENV},
    }


def _result(checks: dict, attempted: int, failed: int, metrics: dict) -> dict:
    for check, ok in checks.items():
        if not ok:
            print(f"CHECK FAILED: {check}")
    return {"correct": all(checks.values()), "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _run_all(args) -> int:
    """Every workload in its own interpreter, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return status if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, choices=range(PARTS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_risopt()
    if args.workload == "all":
        return _run_all(args)
    if args.trace == 0 and args.part is None:
        result = run_timed(args.workload, args.seed, args.seconds)
    else:
        scratch_root = ROOT / ".perfbench-tmp"
        scratch_root.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(dir=scratch_root))
        try:
            if args.part is not None:
                print(json.dumps(run_part(args.workload, args.seed, args.seconds,
                                          args.part, scratch)))
                return 0
            result = run_traced(args.workload, args.seed, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
            try:
                scratch_root.rmdir()
            except OSError:         # another part still holds its directory
                pass
    print("env: " + json.dumps(_environment()))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
