"""Pinned sha256 of the row and aggregate CSVs of shipped and edge-case runs.

The runs are made in one child interpreter with one BLAS thread, because
the last digits of some full-size runs depend on the BLAS thread count,
and with RuntimeWarnings as errors, so a run that warns fails.
OpenBLAS picks its kernel by CPU model, so the pins are keyed on the
kernel lines that OpenBLAS prints at load (OPENBLAS_VERBOSE=2) and on the
BLAS build numpy reports.  The test prints the key it compared; a key
with no entry fails and prints the hashes to add, and a moved hash fails
and prints the moved entries' new digests as JSON.  A change that means to
move bytes updates golden_sha256.json and says which hashes moved and why.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_sha256.json"
SRC = HERE.parent / "src"

# name -> (preset, preset_spec keyword arguments).  The first six are the
# figure and capacity commands of CI's preset step.
RUNS = {
    "fig2a": ("fig2a", dict(scale=0.05, trials=2)),
    "fig1c": ("fig1c", dict(scale=0.05, trials=2)),
    "fig2b": ("fig2b", dict(scale=0.02, trials=1, rmo_max_iters=5)),
    "fig2c": ("fig2c", dict(scale=0.02, trials=1, rmo_max_iters=5)),
    "capacity-low-snr": ("custom-capacity", dict(
        n_ris_list=[256], n_t=4, k_t_db=10.0, k_r_db=10.0, snr_db=-30.0,
        trials=2, methods=["wsa", "lb"])),
    "capacity-square-surrogate-lb": ("custom-capacity", dict(
        n_ris_list=[128], n_t=4, n_r=4, trials=2, rmo_max_iters=5,
        methods=["wsa", "rmo-surrogate", "lb"])),
    "fig1b": ("fig1b", dict(scale=0.05, trials=2)),
    "capacity-rectangular-no-lb": ("custom-capacity", dict(
        n_ris_list=[48, 96], n_t=4, n_r=2, trials=2, rmo_max_iters=5,
        methods=["wsa", "rmo"])),
    "capacity-rmo-surrogate": ("custom-capacity", dict(
        n_ris_list=[64], n_t=4, trials=2, rmo_max_iters=5,
        methods=["rmo-surrogate"])),
    "capacity-nan-snr": ("custom-capacity", dict(
        n_ris_list=[32], n_t=4, snr_db=float("nan"), trials=2,
        rmo_max_iters=3, methods=["wsa", "rmo", "rmo-surrogate", "lb"])),
    "gain-sa": ("custom-gain", dict(
        n_ris_list=[64, 100], n_t=4, trials=3, methods=["sa"])),
    "gain-rmo-lb": ("custom-gain", dict(
        n_ris_list=[64], n_t=4, n_r=2, k_t_db=5.0, k_r_db=-5.0, trials=2,
        rmo_max_iters=5, methods=["rmo", "lb"])),
    "gain-sa-rmo-lb": ("custom-gain", dict(
        n_ris_list=[36, 64], n_t=4, trials=2, rmo_max_iters=5,
        methods=["sa", "rmo", "lb"])),
    "spectrum": ("custom-spectrum", dict(
        n_ris_list=[64, 128], n_t=4, k_t_db=10.0, trials=3)),
}

# Runs every entry of RUNS (read from argv as JSON) and prints the hashes
# and the BLAS build as JSON.  numpy is imported first, so its OpenBLAS
# prints its kernel line before anything else runs.
CHILD = """
import hashlib, json, sys
import numpy
from risopt.harness import _static_environment, preset_spec, run_experiment

def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()

hashes = {}
for name, (preset, kwargs) in json.loads(sys.argv[1]).items():
    res = run_experiment(preset_spec(preset, **kwargs))
    hashes[name] = {"csv": sha(res.to_csv()),
                    "aggregate_csv": sha(res.to_aggregate_csv())}
env = _static_environment()
print(json.dumps({"blas": f"{env['blas_name']} {env['blas_version']}",
                  "hashes": hashes}))
"""


def run_pinned() -> tuple[str, dict]:
    """The pin key and the hashes of every run, from one child process."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               OPENBLAS_VERBOSE="2")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-c", CHILD, json.dumps(RUNS)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    cores = [line.strip() for line in proc.stderr.splitlines()
             if line.startswith("Core:")]
    key = "; ".join(cores + [out["blas"]])
    return key, out["hashes"]


def test_pinned_output_hashes():
    key, got = run_pinned()
    print(f"pin key: {key}")
    pins = json.loads(GOLDEN.read_text())
    if key not in pins:
        pytest.fail(f"no pins for key {key!r}; add to {GOLDEN.name}:\n"
                    + json.dumps({key: got}, indent=2, sort_keys=True))
    moved = {name: got.get(name) for name, files in pins[key].items()
             if any(got.get(name, {}).get(kind) != digest
                    for kind, digest in files.items())}
    assert not moved, (f"key {key!r}: hashes moved; the moved entries now "
                       f"read:\n" + json.dumps(moved, indent=2, sort_keys=True))
    assert sorted(got) == sorted(pins[key])
