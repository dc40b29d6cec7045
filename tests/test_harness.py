import copy
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

import risopt.geometry as geometry
import risopt.harness as harness
import risopt.spectral as spectral
from risopt.capacity import run_wsa
from risopt.harness import (ExperimentSpec, _resolve_workers, bench_runtime,
                            db2lin, nmse, preset_spec, run_experiment)

from .test_pinned_outputs import RUNS as PINNED_RUNS, SRC


def tiny_capacity_spec(**kw):
    base = dict(preset="custom-capacity", n_ris_list=(64,), n_t=4, n_r=4,
                trials=3, seed=123, methods=("wsa", "lb"))
    base.update(kw)
    return ExperimentSpec(**base)


def test_nmse_definition_and_errors():
    assert nmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert nmse([2.0], [1.0]) == pytest.approx(1.0)
    assert nmse([0.0, 2.0], [1.0, 1.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        nmse([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        nmse([1.0], [0.0])


def test_db2lin():
    assert db2lin(0.0) == 1.0
    assert db2lin(10.0) == pytest.approx(10.0)
    assert db2lin(-3.0) == pytest.approx(0.501187, rel=1e-5)


def test_spec_validation():
    with pytest.raises(ValueError):
        tiny_capacity_spec(trials=0)
    for iters in (0, -3):
        with pytest.raises(ValueError, match="^rmo_max_iters must be >= 1$"):
            tiny_capacity_spec(rmo_max_iters=iters)
    with pytest.raises(ValueError):
        tiny_capacity_spec(n_ris_list=())
    for sizes in ((0,), (64, -1)):
        with pytest.raises(ValueError, match="^n_ris_list entries must be >= 1"):
            tiny_capacity_spec(n_ris_list=sizes)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="^workers must be >= 1$"):
            tiny_capacity_spec(workers=workers)
    with pytest.raises(ValueError):
        tiny_capacity_spec(methods=("gradient-descent",))
    with pytest.raises(ValueError):
        tiny_capacity_spec(k_sweep_db=())
    # sizes and seeds no trial can use, each named
    for field, value, message in (
            ("n_t", 0, "^n_t must be >= 1; got 0$"),
            ("n_r", -2, r"^n_r must be >= 0 \(0: same as n_t\); got -2$"),
            ("seed", -1, "^seed must be >= 0; got -1$")):
        with pytest.raises(ValueError, match=message):
            tiny_capacity_spec(**{field: value})
    # the spectrum prediction needs n_ris >= n_t
    with pytest.raises(ValueError, match=r"^n_ris_list entries must be >= "
                       r"n_t = 5 for spectrum preset 'custom-spectrum'"):
        ExperimentSpec(preset="custom-spectrum", n_ris_list=(32, 4), n_t=5)
    # n_r defaults to n_t
    spec = ExperimentSpec(preset="custom-spectrum", n_ris_list=(32,), n_t=5)
    assert spec.n_r == 5


@pytest.mark.parametrize("field, value, message", [
    ("n_t", 2.5, "^n_t must be an integer; got 2.5$"),      # TypeError in numpy
    ("n_t", True, "^n_t must be an integer; got True$"),
    ("n_r", 4.0, "^n_r must be an integer; got 4.0$"),
    ("trials", 2.5, "^trials must be an integer; got 2.5$"),  # TypeError
    ("seed", 1.5, "^seed must be an integer; got 1.5$"),      # TypeError
    ("workers", 1.5, "^workers must be an integer; got 1.5$"),  # accepted
    ("rmo_max_iters", 2.5,                    # every RMO row an error
     "^rmo_max_iters must be an integer; got 2.5$"),
    ("n_ris_list", (64.7,),                   # ran 64
     r"^n_ris_list entries must be integers; got \[64.7\]$"),
    ("n_ris_list", (64, False),
     r"^n_ris_list entries must be integers; got \[64, False\]$"),
], ids=["n_t-fraction", "n_t-bool", "n_r-float", "trials", "seed", "workers",
        "rmo_max_iters", "n_ris-fraction", "n_ris-bool"])
def test_spec_refuses_sizes_and_counts_that_are_not_integers(field, value,
                                                             message):
    with pytest.raises(ValueError, match=message):
        tiny_capacity_spec(methods=("wsa", "rmo"), **{field: value})
    # numpy integers are integers, held as Python ints for the JSON sidecar
    spec = tiny_capacity_spec(
        n_ris_list=(np.int64(64),), n_t=np.int32(4), n_r=np.int64(4),
        trials=np.int64(3), seed=np.uint16(123), workers=np.int64(1),
        rmo_max_iters=np.int64(200))
    assert spec == tiny_capacity_spec()
    assert all(type(getattr(spec, name)) is int for name in (
        "n_t", "n_r", "trials", "seed", "workers", "rmo_max_iters"))
    assert type(spec.n_ris_list[0]) is int


def test_k_r_db_follows_k_t_db_unless_given():
    only_t = tiny_capacity_spec(k_t_db=5.0)
    assert (only_t.k_t_db, only_t.k_r_db) == (5.0, 5.0)
    assert tiny_capacity_spec(k_t_db=5.0, k_r_db=-2.0).k_r_db == -2.0
    assert tiny_capacity_spec().k_r_db == 0.0
    # a spec given only k_t_db runs both sides at that K
    both = tiny_capacity_spec(k_t_db=5.0, k_r_db=5.0)
    assert run_experiment(only_t).to_csv() == run_experiment(both).to_csv()
    # a replace keeps the resolved value
    assert dataclasses.replace(only_t, trials=1).k_r_db == 5.0


@pytest.mark.parametrize("preset, field, value", [
    ("custom-spectrum", "n_r", 3),
    ("custom-spectrum", "k_r_db", 0.0),
    ("custom-spectrum", "snr_db", -40.0),
    ("custom-spectrum", "rmo_max_iters", 3),
    ("fig1c", "n_r", 9),
    ("fig1c", "k_r_db", 5.0),
    ("fig1c", "snr_db", float("nan")),
    ("fig1c", "rmo_max_iters", 500),
    ("fig1c", "k_t_db", 3.0),
    ("custom-gain", "snr_db", 0.0),
])
def test_spec_refuses_fields_its_family_never_reads(preset, field, value):
    kwargs = {"k_t_db": 10.0} if field == "k_r_db" and preset != "fig1c" else {}
    with pytest.raises(ValueError, match=f"^{field} = .* is not read by "
                       f"[a-z]+ preset '{preset}'"):
        preset_spec(preset, n_ris_list=(32,), n_t=4, **kwargs, **{field: value})
    # their defaults pass, n_r at n_t and k_r_db at k_t_db, and so does a
    # replace of a built spec
    same = {"n_r": 4, "k_r_db": kwargs.get("k_t_db", 0.0)}
    default = same.get(field, ExperimentSpec.__dataclass_fields__[field].default)
    spec = preset_spec(preset, n_ris_list=(32,), n_t=4, **kwargs,
                       **{field: default})
    assert dataclasses.replace(spec, trials=1).trials == 1


@pytest.mark.parametrize("preset, extra", [
    ("custom-spectrum", {}),
    ("fig1c", {"k_sweep_db": (0.0, 5.0)}),
    ("custom-gain", {"methods": ("sa", "rmo", "lb"), "rmo_max_iters": 3}),
    ("custom-gain", {"methods": ("sa", "lb")}),
    ("custom-capacity", {"methods": ("wsa", "lb")}),
])
def test_the_fields_a_family_refuses_are_never_read(preset, extra):
    # set behind the spec's back, the fields that none of their readers
    # reads move no byte of either CSV
    spec = preset_spec(preset, n_ris_list=(24,), n_t=3, trials=2, seed=4,
                       **extra)
    moved = copy.copy(spec)
    other = {"n_r": 2, "k_t_db": 7.0, "k_r_db": -7.0, "snr_db": -40.0,
             "rmo_max_iters": 1}
    reads = {harness._preset(preset)["family"], *spec.methods, "run"}
    swept = harness._SWEPT if spec.k_sweep_db is not None else ()
    unread = [name for name, readers in harness._READERS.items()
              if not readers & reads]
    for name in (*unread, *swept):
        object.__setattr__(moved, name, other[name])
    assert moved != spec
    expected, got = run_experiment(spec), run_experiment(moved)
    assert got.to_csv() == expected.to_csv()
    assert got.to_aggregate_csv() == expected.to_aggregate_csv()


@pytest.mark.parametrize("preset, methods, field, value", [
    ("custom-gain", ("sa", "lb"), "rmo_max_iters", 3),
    ("custom-capacity", ("wsa", "lb"), "rmo_max_iters", 3),
    ("runtime-gain", ("sa",), "rmo_max_iters", 3),
])
def test_spec_refuses_fields_its_methods_never_read(preset, methods, field,
                                                    value):
    # each used to run and write the bytes of a run without it
    with pytest.raises(ValueError, match=(
            rf"^{field} = {value!r} is not read by [a-z]+ preset '{preset}' "
            rf"with methods \[{', '.join(map(repr, methods))}\]; "
            rf"leave it unset$")):
        preset_spec(preset, n_ris_list=(32,), methods=methods, **{field: value})
    # the preset's own value passes: runtime-gain sets rmo_max_iters=500
    own = harness._preset(preset).get(
        field, ExperimentSpec.__dataclass_fields__[field].default)
    assert getattr(preset_spec(preset, n_ris_list=(32,), methods=methods,
                               **{field: own}), field) == own


@pytest.mark.parametrize("field, value", [("trials", 7), ("workers", 2)])
@pytest.mark.parametrize("preset", ["runtime-gain", "runtime-capacity"])
def test_runtime_specs_refuse_trials_and_workers(preset, field, value):
    # bench_runtime times one instance per point on one worker; its sidecar
    # used to record these as if they were used
    with pytest.raises(ValueError, match=(
            rf"^{field} = {value} is not read by [a-z]+ preset '{preset}'; "
            rf"leave it unset$")):
        preset_spec(preset, n_ris_list=(16,), **{field: value})
    own = harness._preset(preset).get(
        field, ExperimentSpec.__dataclass_fields__[field].default)
    assert getattr(preset_spec(preset, n_ris_list=(16,), **{field: own}),
                   field) == own


@pytest.mark.parametrize("preset", ["custom-spectrum", "fig1c", "custom-gain",
                                    "custom-capacity"])
def test_run_specs_read_trials_and_workers(preset):
    spec = preset_spec(preset, n_ris_list=(16,), n_t=4, trials=7, workers=2)
    assert (spec.trials, spec.workers) == (7, 2)


@pytest.mark.parametrize("preset, methods, message", [
    ("custom-capacity", ("lb",), "^capacity preset 'custom-capacity' needs a "
     r"method that writes a column; got methods \['lb'\]$"),
    ("custom-capacity", ("rmo", "lb"), "^method 'lb' writes no column of "
     r"capacity preset 'custom-capacity' with methods \['rmo', 'lb'\]$"),
    ("custom-capacity", ("rmo-surrogate", "lb"), "^method 'lb' writes no column"),
    ("runtime-gain", ("sa", "lb"), "^method 'lb' writes no column of gain "
     "preset 'runtime-gain'"),
    ("runtime-capacity", ("lb",), "^capacity preset 'runtime-capacity' needs"),
    ("custom-gain", (), "^gain preset 'custom-gain' needs a method that "
     r"writes a column; got methods \[\]$"),
    ("custom-capacity", (), "^capacity preset 'custom-capacity' needs"),
    ("runtime-gain", (), "^gain preset 'runtime-gain' needs"),
], ids=["capacity-lb", "capacity-rmo-lb", "capacity-rmo-surrogate-lb",
        "runtime-gain-sa-lb", "runtime-capacity-lb", "gain-none",
        "capacity-none", "runtime-gain-none"])
def test_spec_refuses_methods_that_write_no_column(preset, methods, message):
    with pytest.raises(ValueError, match=message):
        ExperimentSpec(preset=preset, n_ris_list=(32,), n_t=4, methods=methods)


def test_spec_refuses_a_repeated_method():
    # sa used to run once and the sidecar recorded it twice
    with pytest.raises(ValueError, match=r"^method 'sa' is repeated in methods "
                       r"\['sa', 'sa', 'lb'\]$"):
        preset_spec("custom-gain", n_ris_list=(32,), methods=["sa", "sa", "lb"])
    with pytest.raises(ValueError, match="^method 'rmo' is repeated"):
        preset_spec("runtime-capacity", methods=("wsa", "rmo", "rmo"))


@pytest.mark.parametrize("preset, fields, message", [
    # the spectrum's used to blame k_r_db, gain's came from a trial
    ("custom-spectrum", {"k_t_db": math.nan}, "^k_t_db must be a number; got nan$"),
    ("custom-gain", {"k_t_db": math.nan}, "^k_t_db must be a number; got nan$"),
    ("custom-capacity", {"k_r_db": math.nan}, "^k_r_db must be a number; got nan$"),
    ("fig1c", {"k_sweep_db": (3.0, math.nan)},
     r"^k_sweep_db entries must be numbers; got \[3.0, nan\]$"),
    # a spectrum at K = inf used to die in its aggregate, a sweep entry of
    # inf to write nan, and one of -inf to die like the spectrum
    ("custom-spectrum", {"k_t_db": math.inf}, "^k_t_db must be finite for "
     "spectrum preset 'custom-spectrum'; got inf$"),
    ("custom-spectrum", {"k_t_db": -math.inf}, "^k_t_db must be finite"),
    ("fig1c", {"k_sweep_db": (math.inf,)}, "^k_sweep_db entries must be finite "
     r"for hardening preset 'fig1c'; got \[inf\]$"),
    ("fig1c", {"k_sweep_db": (0.0, -math.inf)}, "^k_sweep_db entries must be finite"),
], ids=["spectrum-nan", "gain-nan", "capacity-k_r-nan", "sweep-nan",
        "spectrum-inf", "spectrum-minus-inf", "sweep-inf", "sweep-minus-inf"])
def test_spec_refuses_a_nan_or_infinite_k(preset, fields, message):
    with pytest.raises(ValueError, match=message):
        preset_spec(preset, n_ris_list=(32,), n_t=4, trials=2, **fields)


@pytest.mark.parametrize("k_db", [math.inf, -math.inf])
def test_gain_and_capacity_keep_pure_los_and_rayleigh(k_db):
    for preset in ("custom-gain", "custom-capacity"):
        res = run_experiment(preset_spec(preset, n_ris_list=(32,), n_t=4,
                                         trials=2, k_t_db=k_db))
        assert not any(row["error"] for row in res.rows)


@pytest.mark.parametrize("preset, methods", [
    ("custom-gain", ("wsa",)),
    ("custom-capacity", ("sa",)),
    ("fig1c", ("lb",)),
    ("custom-spectrum", ("sa",)),
])
def test_spec_refuses_methods_of_another_family(preset, methods):
    with pytest.raises(ValueError, match=repr(methods[0])):
        preset_spec(preset, n_ris_list=(32,), methods=methods)


def test_every_shipped_preset_is_accepted():
    for name in harness.preset_names(""):
        spec = preset_spec(name, n_ris_list=(32,))
        family = harness._preset(name)["family"]
        assert set(spec.methods) <= {*harness._METHODS.get(family, ()), "lb"}
    # a directly built spectrum spec requests no method
    assert ExperimentSpec(preset="custom-spectrum", n_ris_list=(32,),
                          n_t=4).methods == ()


def test_preset_spec_scaling_and_floor():
    spec = preset_spec("fig2a", scale=0.01)
    assert spec.n_ris_list == (5, 20, 82)
    assert preset_spec("fig1c", scale=1e-9).n_ris_list == (2,)
    # a spectrum grid scaled below n_t is refused before any trial runs
    with pytest.raises(ValueError, match=r"^n_ris_list entries must be >= n_t "
                       r"= 20 for spectrum preset 'fig1a'; got \[2\]$"):
        preset_spec("fig1a", scale=1e-9)
    assert preset_spec("custom-gain", n_ris_list=(1, 64)).n_ris_list == (2, 64)
    with pytest.raises(ValueError):
        preset_spec("fig9z")
    # the floor applies to scaled sizes, not to sizes below 1 or bad scales
    with pytest.raises(ValueError, match="^n_ris_list entries must be >= 1"):
        preset_spec("custom-gain", n_ris_list=(-5,))
    for scale in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="^scale must be finite and > 0"):
            preset_spec("fig2a", scale=scale)


@pytest.mark.parametrize("scale", [math.nan, -3, 0, math.inf])
def test_a_directly_built_spec_refuses_a_bad_scale(scale):
    # each was taken, and the sidecar recorded it ("scale": NaN is not
    # strict JSON)
    with pytest.raises(ValueError, match=re.escape(
            f"scale must be finite and > 0; got {scale!r}")):
        ExperimentSpec(preset="fig2a", n_ris_list=(64,), n_t=4,
                       methods=("wsa", "lb"), scale=scale)


@pytest.mark.parametrize("scale", [True, "2", None],
                         ids=["bool", "string", "none"])
def test_a_directly_built_spec_refuses_a_scale_that_is_not_a_number(scale):
    # True used to be taken as 1 and recorded as true in the sidecar, and
    # "2" ended in a TypeError
    with pytest.raises(ValueError, match=re.escape(
            f"scale must be a number; got {scale!r}")):
        ExperimentSpec(preset="fig2a", n_ris_list=(64,), n_t=4,
                       methods=("wsa", "lb"), scale=scale)


@pytest.mark.parametrize("scale", [np.float64(0.5), np.float32(0.5),
                                   np.int64(2), 2],
                         ids=["float64", "float32", "int64", "int"])
def test_a_spec_stores_its_scale_as_a_float(scale):
    spec = ExperimentSpec(preset="fig2a", n_ris_list=(64,), n_t=4,
                          methods=("wsa", "lb"), scale=scale)
    assert type(spec.scale) is float and spec.scale == float(scale)
    res = harness.ExperimentResult(spec, (), [], (), [], [], {})
    assert json.loads(res.to_json())["spec"]["scale"] == float(scale)


def test_run_experiment_rejects_runtime_presets():
    spec = preset_spec("runtime-gain", scale=0.01)
    with pytest.raises(ValueError):
        run_experiment(spec)
    with pytest.raises(ValueError):
        bench_runtime(tiny_capacity_spec())


def test_a_one_worker_run_leaves_the_pool_unimported():
    # concurrent.futures loads logging, queue and traceback, which only a
    # run on two or more workers uses
    code = ("import sys, risopt\n"
            "risopt.run_experiment(risopt.preset_spec(\n"
            "    'custom-capacity', n_ris_list=(16, 24), n_t=2, trials=2))\n"
            "print('concurrent.futures' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_rows_deterministic_across_runs_and_workers(monkeypatch):
    # report 4 CPUs so that the pool really has 4 threads on any host
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    spec = tiny_capacity_spec(trials=4)
    assert _resolve_workers(4, spec.trials, os.cpu_count()) == 4
    first = run_experiment(spec).to_csv()
    again = run_experiment(spec).to_csv()
    four = run_experiment(dataclasses.replace(spec, workers=4)).to_csv()
    assert first == again == four


@pytest.mark.parametrize("requested,n_tasks,cpu_count,expected", [
    (1, 10, 8, 1),
    (4, 10, 8, 4),
    (10 ** 6, 10, 8, 8),        # an oversized request stops at the CPUs
    (10 ** 6, 3, 8, 3),         # ... or at the tasks there are
    (2, 10, None, 1),           # unknown CPU count runs serially
    (0, 10, 8, 1),
    (-3, 10, 8, 1),
])
def test_worker_count_is_bounded(requested, n_tasks, cpu_count, expected):
    assert _resolve_workers(requested, n_tasks, cpu_count) == expected


def test_trials_independent_of_grid_shape():
    # the (seed, point, trial) scheme makes each grid point's draws
    # independent of which other points are in the run
    single = run_experiment(tiny_capacity_spec(n_ris_list=(64,)))
    double = run_experiment(tiny_capacity_spec(n_ris_list=(64, 32)))
    keep = [r for r in double.rows if r["point"] == 0]
    for a, b in zip(single.rows, keep):
        assert a["cap_wsa"] == b["cap_wsa"]


def test_spectrum_aggregate_recomputable_from_rows():
    spec = ExperimentSpec(preset="custom-spectrum", n_ris_list=(128,), n_t=4,
                          k_t_db=10.0, trials=5, seed=7, methods=())
    res = run_experiment(spec)
    agg = [a for a in res.aggregates if a["index"] == 1][0]
    emp = np.array([r["eig_01"] for r in res.rows])
    assert agg["empirical_mean"] == pytest.approx(emp.mean())
    ref = np.full(emp.size, agg["predicted"])
    assert agg["nmse"] == pytest.approx(nmse(emp, ref))
    per_index = [a["nmse"] for a in res.aggregates]
    assert agg["aggregate_nmse"] == pytest.approx(np.mean(per_index))


def test_spectrum_and_hardening_trials_share_their_eigenvalues():
    # both families run one trial function: a spectrum row's largest
    # eigenvalue is the lambda_1 of a one-point fig1c grid at the same K
    common = dict(n_ris_list=(96,), n_t=6, trials=3, seed=11)
    spectrum = run_experiment(preset_spec("custom-spectrum", k_t_db=5.0,
                                          **common))
    hardening = run_experiment(preset_spec("fig1c", k_sweep_db=(5.0,),
                                           **common))
    assert [r["eig_01"] for r in spectrum.rows] == [
        r["lambda_1"] for r in hardening.rows]
    assert "lambda_1" not in spectrum.columns
    assert "eig_01" not in hardening.columns


def test_hardening_aggregate_recomputable():
    spec = preset_spec("fig1c", scale=0.1, trials=4)
    res = run_experiment(spec)
    for agg in res.aggregates:
        sub = [r for r in res.rows if r["point"] == agg["point"]]
        lam = np.array([r["lambda_1"] for r in sub])
        pred = sub[0]["predicted_1"]
        k_lin = db2lin(agg["k_t_db"])
        assert pred == pytest.approx(
            k_lin / (k_lin + 1.0) * agg["n_ris"] * spec.n_t)
        assert agg["nmse"] == pytest.approx(
            nmse(lam, np.full(lam.size, pred)))


def test_csv_and_json_outputs(tmp_path):
    spec = tiny_capacity_spec(out_stem="unit")
    res = run_experiment(spec)
    paths = res.write(str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == ["unit.csv", "unit.json",
                                            "unit_aggregate.csv"]
    text = open(paths["csv"]).read()
    lines = text.strip().split("\n")
    assert lines[0].split(",") == list(res.columns)
    assert len(lines) == 1 + len(res.rows)
    # floats round-trip exactly through repr
    first_val = lines[1].split(",")[res.columns.index("cap_wsa")]
    assert float(first_val) == res.rows[0]["cap_wsa"]
    # wall times never reach the CSV
    assert "time" not in text and "_s" not in lines[0]
    assert res.timings and all("wsa" in t for t in res.timings)
    sidecar = open(paths["json"]).read()
    assert '"seed": 123' in sidecar
    assert "timestamp" not in sidecar


def test_write_is_atomic_no_temp_left(tmp_path):
    res = run_experiment(tiny_capacity_spec())
    res.write(str(tmp_path))
    res.write(str(tmp_path))   # overwrite in place
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp")]
    assert leftovers == []


def test_gain_family_rows_and_aggregate():
    spec = ExperimentSpec(preset="custom-gain", n_ris_list=(100,), n_t=2,
                          n_r=2, k_t_db=20.0, k_r_db=20.0, trials=4, seed=5,
                          methods=("sa", "lb"))
    res = run_experiment(spec)
    agg = res.aggregates[0]
    lb = agg["lower_bound"]
    k = db2lin(20.0)
    assert lb == pytest.approx(0.25 * (k / (1 + k)) ** 2 * 100 ** 2 * 4)
    assert agg["mean_gain_sa"] > 0
    assert agg["ratio_db_sa_lb"] == pytest.approx(
        10 * math.log10(agg["mean_gain_sa"] / lb))
    for r in res.rows:
        assert r["error"] == ""


def test_capacity_aggregate_recomputable_from_rows():
    spec = tiny_capacity_spec(n_ris_list=(32, 64),
                              methods=("wsa", "rmo", "rmo-surrogate", "lb"),
                              rmo_max_iters=5)
    res = run_experiment(spec)
    assert res.agg_columns == (
        "point", "n_ris", "k_t_db", "k_r_db", "snr_db", "mean_cap_wsa",
        "mean_cap_diag", "mean_cap_rmo", "mean_cap_rmo_surrogate",
        "mean_cap_lb", "mean_offdiag_ratio", "nmse_diag")
    for agg in res.aggregates:
        sub = [r for r in res.rows if r["point"] == agg["point"]]
        assert all(r["error"] == "" for r in sub)
        for key in agg:
            if key.startswith("mean_"):
                vals = [r[key[5:]] for r in sub if r.get(key[5:]) is not None]
                assert len(vals) == spec.trials
                assert agg[key] == pytest.approx(np.mean(vals), rel=1e-12)
        assert agg["nmse_diag"] == pytest.approx(
            nmse([r["cap_diag"] for r in sub], [r["cap_wsa"] for r in sub]),
            rel=1e-12)
        assert (agg["n_ris"], agg["snr_db"]) == (sub[0]["n_ris"], spec.snr_db)

    # every trial fails at a nan snr: no mean and no nmse, written empty
    failed = run_experiment(tiny_capacity_spec(snr_db=float("nan")))
    agg = failed.aggregates[0]
    assert agg["mean_cap_wsa"] is None and agg["nmse_diag"] is None
    assert all(agg[c] is None for c in failed.agg_columns if c.startswith("mean_"))
    last = failed.to_aggregate_csv().splitlines()[1].split(",")
    assert last[failed.agg_columns.index("mean_cap_wsa")] == ""
    assert last[-1] == ""


def aggregate_from_row_csv(row_csv: str, agg_header: list) -> str:
    """A gain or capacity run's aggregate CSV, recomputed from the text of
    its row CSV alone: head columns as written in the point's first row,
    each mean_<col> over the rows whose col is not empty, and the derived
    columns from those means."""
    header, *lines = (line.split(",") for line in row_csv.splitlines())
    rows = [dict(zip(header, cells)) for cells in lines]

    def values(sub, col):
        return [float(r[col]) for r in sub if r.get(col, "") != ""]

    def fmt(value):
        return "" if value is None else repr(float(value))

    out = [",".join(agg_header)]
    for point in sorted({int(r["point"]) for r in rows}):
        sub = [r for r in rows if int(r["point"]) == point]
        means = {col: float(np.mean(values(sub, col[5:])))
                 if values(sub, col[5:]) else None
                 for col in agg_header if col.startswith("mean_")}
        sa, rmo = means.get("mean_gain_sa"), means.get("mean_gain_rmo")
        lb = (values(sub[:1], "lower_bound") or [None])[0]
        exact, diag = values(sub, "cap_wsa"), values(sub, "cap_diag")
        derived = {
            "lower_bound": lb,
            "ratio_db_sa_lb": (10.0 * math.log10(sa / lb)
                               if sa and lb and lb > 0 else None),
            "gap_db_sa_rmo": 10.0 * math.log10(sa / rmo) if sa and rmo else None,
            "nmse_diag": (nmse(diag, exact)
                          if exact and len(exact) == len(diag) else None),
        }
        out.append(",".join(
            str(point) if col == "point"
            else fmt(means[col]) if col in means
            else fmt(derived[col]) if col in derived
            else sub[0][col] for col in agg_header))
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("preset, methods", [
    ("custom-gain", ("sa",)),
    ("custom-gain", ("sa", "rmo", "lb")),
    ("custom-capacity", ("wsa", "rmo")),
])
def test_aggregates_recompute_from_the_written_row_csv(tmp_path, preset,
                                                       methods):
    # a row may hold values its CSV does not show (cap_lb without lb); the
    # aggregate must not see them either
    iters = {"rmo_max_iters": 4} if "rmo" in methods else {}
    res = run_experiment(preset_spec(preset, n_ris_list=(24, 40), n_t=3,
                                     trials=3, methods=methods, **iters))
    paths = res.write(str(tmp_path))
    agg = res.to_aggregate_csv()
    assert open(paths["aggregate_csv"]).read() == agg
    header = agg.splitlines()[0].split(",")
    assert aggregate_from_row_csv(open(paths["csv"]).read(), header) == agg


def test_trials_read_every_parameter_from_the_grid_point(monkeypatch):
    spec = tiny_capacity_spec(trials=2, methods=("wsa", "rmo", "lb"),
                              rmo_max_iters=3)
    moved = dataclasses.replace(spec, n_ris_list=(48,), k_t_db=3.0,
                                k_r_db=-2.0, snr_db=-5.0)
    expected = run_experiment(moved)
    assert harness._grid(moved) == [
        {"n_ris": 48, "k_t_db": 3.0, "k_r_db": -2.0, "snr_db": -5.0}]
    # the same spec run on moved's grid gives moved's bytes
    grid = harness._grid
    monkeypatch.setattr(harness, "_grid", lambda s: grid(moved))
    got = run_experiment(spec)
    assert got.to_csv() == expected.to_csv()
    assert got.to_aggregate_csv() == expected.to_aggregate_csv()
    bench = bench_runtime(preset_spec("runtime-capacity", methods=("wsa",)))
    assert [r["n_ris"] for r in bench.rows] == [48]


def test_method_columns_in_csv_order():
    head = ("point", "trial", "n_ris", "n_t", "n_r", "k_t_db", "k_r_db")
    gain = preset_spec("custom-gain", n_ris_list=(16,), trials=1,
                       methods=("sa", "rmo", "lb"), rmo_max_iters=3)
    assert run_experiment(gain).columns == head + (
        "flag_hardening", "gain_sa", "gain_rmo", "lower_bound", "alpha_sa",
        "error")
    cap = preset_spec("custom-capacity", n_ris_list=(16,), trials=1,
                      methods=("wsa", "rmo", "rmo-surrogate", "lb"),
                      rmo_max_iters=3)
    assert run_experiment(cap).columns == head + (
        "snr_db", "flag_hardening", "flag_diag", "cap_wsa", "cap_diag",
        "cap_rmo", "cap_rmo_surrogate", "cap_lb", "offdiag_ratio",
        "iterations_used", "error")
    surrogate = dataclasses.replace(cap, methods=("rmo-surrogate",))
    assert run_experiment(surrogate).columns == head + (
        "snr_db", "flag_hardening", "flag_diag", "cap_rmo_surrogate", "error")
    # cap_lb needs wsa, so lb next to rmo-surrogate alone shows nothing
    with pytest.raises(ValueError, match="^method 'lb' writes no column"):
        dataclasses.replace(cap, methods=("rmo-surrogate", "lb"))


def test_a_new_method_column_reaches_only_the_aggregates_that_show_it(
        monkeypatch):
    # a method column added to the registry leaves the aggregates of every
    # spec that does not request its method as they were
    grids = {name: preset_spec(preset, **kwargs)
             for name, (preset, kwargs) in PINNED_RUNS.items()
             if harness._preset(preset)["family"] in harness._METHODS}
    assert len(grids) == 11
    before = {name: run_experiment(spec) for name, spec in grids.items()}
    for family, column in (("gain", "gain_probe"), ("capacity", "cap_probe")):
        probe = harness._Method(lambda link: None,
                                lambda link, cfg, column=column: {column: 2.0})
        monkeypatch.setitem(harness._METHODS, family,
                            {**harness._METHODS[family], "probe": probe})
        monkeypatch.setitem(harness._METHOD_COLUMNS, family,
                            (*harness._METHOD_COLUMNS[family], (column, {"probe"})))
    for name, spec in grids.items():
        after = run_experiment(spec)
        assert after.to_csv() == before[name].to_csv(), name
        assert after.to_aggregate_csv() == before[name].to_aggregate_csv(), name
    gain = run_experiment(preset_spec("custom-gain", n_ris_list=(16,), trials=2,
                                      methods=("sa", "probe")))
    assert gain.agg_columns == ("point", "n_ris", "k_t_db", "k_r_db",
                                "mean_gain_sa", "mean_gain_probe")
    assert gain.aggregates[0]["mean_gain_probe"] == 2.0
    cap = run_experiment(preset_spec("custom-capacity", n_ris_list=(16,),
                                     trials=2, methods=("probe",)))
    assert cap.agg_columns[-1] == "mean_cap_probe"


def test_each_requested_method_runs_once_per_trial(monkeypatch):
    # the call counts a wrapper on the module's globals sees, and the
    # RMO settings passed as the third positional argument
    calls, objectives = {}, []

    def count(name):
        original = getattr(harness, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if name == "rmo_optimize":
                objectives.append(args[2].objective)
            return original(*args, **kwargs)
        monkeypatch.setattr(harness, name, wrapper)

    for name in ("configure_gain_los", "rmo_optimize", "configure_wsa"):
        count(name)
    run_experiment(preset_spec("custom-gain", n_ris_list=(16, 20), trials=3,
                               methods=("sa", "rmo", "lb"), rmo_max_iters=2))
    assert calls == {"configure_gain_los": 6, "rmo_optimize": 6}
    assert objectives == ["gain"] * 6
    calls.clear()
    objectives.clear()
    run_experiment(preset_spec("custom-capacity", n_ris_list=(16,), trials=3,
                               methods=("wsa", "rmo", "rmo-surrogate"),
                               rmo_max_iters=2))
    assert calls == {"configure_wsa": 3, "rmo_optimize": 6}
    assert sorted(objectives) == ["capacity_exact"] * 3 + ["capacity_surrogate"] * 3


def test_wsa_columns_are_run_wsa_bit_for_bit():
    # a trial configures from its link's SVDs and scores outside the
    # timer; run_wsa on the same channels must give the same values
    spec = tiny_capacity_spec(n_ris_list=(64, 48))
    res = run_experiment(spec)
    for row in res.rows:
        rng = np.random.default_rng(
            np.random.SeedSequence((spec.seed, row["point"], row["trial"])))
        link = harness._Link(spec, harness._grid(spec)[row["point"]], rng)
        report, plan = run_wsa(link.a, link.t, link.snr)
        got = tuple(row[c] for c in ("cap_wsa", "cap_diag", "cap_lb",
                                     "offdiag_ratio", "iterations_used"))
        assert got == (report.capacity_exact, report.capacity_diag,
                       report.capacity_lb, report.offdiag_ratio,
                       plan.iterations_used)


@pytest.mark.parametrize("preset,n_ris,n,methods,fields,bound", [
    # fig2a's middle point and fig2b's first.  Each bound sits between
    # the peak with each channel-sized array held once (6.36, 4.00 units)
    # and the one with the sampled receive matrix kept next to its
    # conjugate a and V kept next to LAPACK's V^H (7.87, 5.00)
    ("custom-capacity", 2048, 8, ("wsa", "lb"), {}, 7.0),
    ("custom-gain", 1024, 16, ("sa", "rmo", "lb"), {"rmo_max_iters": 5}, 4.5),
])
def test_a_trial_holds_each_channel_sized_array_once(preset, n_ris, n, methods,
                                                     fields, bound):
    # traced peak of one warm trial in units of one n_ris x n complex array
    spec = preset_spec(preset, n_ris_list=(n_ris,), n_t=n, methods=methods,
                       trials=1, **fields)
    point = harness._grid(spec)[0]
    harness._trial_methods(spec, point, 0, harness._trial_rng(spec, 0, 0))
    tracemalloc.start()
    try:
        row, _ = harness._trial_methods(spec, point, 0,
                                        harness._trial_rng(spec, 0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row["error"] == ""
    assert peak / (n_ris * n * 16) <= bound


def count_calls(monkeypatch, home, fn_name, record) -> list:
    """Wrap home.fn_name in every risopt module that holds it; the list
    gets record(first argument) per call."""
    original = getattr(home, fn_name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(record(args[0]))
        return original(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "risopt"
                and getattr(module, fn_name, None) is original):
            monkeypatch.setattr(module, fn_name, wrapper)
    return calls


def count_svd_bundle(monkeypatch) -> list:
    return count_calls(monkeypatch, spectral, "svd_bundle", lambda h: h.shape)


@pytest.mark.parametrize("preset, methods", [
    ("custom-gain", ("sa", "lb")),
    ("custom-gain", ("sa", "rmo", "lb")),
    ("custom-capacity", ("wsa", "lb")),
])
def test_a_trial_builds_each_steering_vector_once(monkeypatch, preset, methods):
    # two per side, for its LoS matrix; sa reads the same vectors
    calls = count_calls(monkeypatch, geometry, "upa_steering", lambda g: g.size)
    iters = {"rmo_max_iters": 2} if "rmo" in methods else {}
    res = run_experiment(preset_spec(preset, n_ris_list=(36,), n_t=4,
                                     trials=3, methods=methods, **iters))
    assert not any(row.get("error") for row in res.rows)
    assert sorted(calls) == sorted([36, 36, 4, 4] * 3)


def test_a_wsa_trial_decomposes_each_side_once(monkeypatch):
    calls = count_svd_bundle(monkeypatch)
    run_experiment(preset_spec("custom-capacity", n_ris_list=(32,), n_t=4,
                               n_r=4, trials=1, methods=("wsa", "lb")))
    assert sorted(calls) == [(4, 32), (32, 4)]


def test_bench_runtime_decomposes_each_side_once_per_point(monkeypatch):
    calls = count_svd_bundle(monkeypatch)
    spec = preset_spec("runtime-capacity", n_ris_list=(60, 100),
                       methods=("wsa",))
    res = bench_runtime(spec)
    assert len(res.rows) == 2 and all(r["wsa_median_s"] > 0 for r in res.rows)
    assert sorted(calls) == [(10, 60), (10, 100), (60, 10), (100, 10)]


def test_errors_recorded_per_row_not_raised():
    # a nan snr makes every wsa trial fail; the run still completes
    spec = tiny_capacity_spec(snr_db=float("nan"))
    res = run_experiment(spec)
    assert all("wsa:" in r["error"] for r in res.rows)
    assert all(r.get("cap_wsa") is None for r in res.rows)


def test_bench_runtime_times_the_configure_step_of_sa(monkeypatch):
    # sa's samples used to time a separate callable that called
    # sign_align directly, so configure_gain_los ran in no sample
    calls = []
    real = harness.configure_gain_los

    def counted(los_t, los_r):
        calls.append(1)
        return real(los_t, los_r)
    monkeypatch.setattr(harness, "configure_gain_los", counted)
    spec = preset_spec("runtime-gain", n_ris_list=(64,), methods=("sa",))
    warmups, samples = harness._METHODS["gain"]["sa"].repeats
    row = bench_runtime(spec).rows[0]
    assert row["sa_median_s"] > 0
    # the warmups, one calibration call, then at least one call per sample
    assert len(calls) >= warmups + 1 + samples


def test_bench_runtime_rows():
    spec = preset_spec("runtime-capacity", scale=0.02, rmo_max_iters=5,
                       methods=("wsa", "rmo"))
    res = bench_runtime(spec)
    assert len(res.rows) == 1
    row = res.rows[0]
    assert row["wsa_median_s"] > 0
    assert row["rmo_median_s"] > 0
    assert row["ratio_rmo_over_wsa"] == pytest.approx(
        row["rmo_median_s"] / row["wsa_median_s"])
    csv = res.to_csv()
    assert "wsa_median_s" in csv.splitlines()[0]


def test_bench_runtime_names_a_ratio_from_the_column_name(monkeypatch):
    # a hyphenated method used to give a column named ratio_rmo_over_sa-fp
    probe = harness._Method(lambda link: None, lambda link, cfg: {})
    monkeypatch.setitem(harness._METHODS, "gain",
                        {**harness._METHODS["gain"], "sa-fp": probe})
    spec = preset_spec("runtime-gain", n_ris_list=(16,), rmo_max_iters=2,
                       methods=("sa", "rmo", "sa-fp"))
    row = bench_runtime(spec).rows[0]
    assert [col for col in row if col.startswith("ratio_")] == [
        "ratio_rmo_over_sa", "ratio_rmo_over_sa_fp"]
    assert row["ratio_rmo_over_sa_fp"] == (row["rmo_median_s"]
                                           / row["sa_fp_median_s"])


@pytest.mark.parametrize("preset", ["runtime-gain", "runtime-capacity"])
def test_bench_runtime_times_the_methods_in_registry_order(preset):
    spec = preset_spec(preset, n_ris_list=(48,), rmo_max_iters=3)
    family = harness._preset(preset)["family"]
    timed = [col.removesuffix("_median_s")
             for col in bench_runtime(spec).columns if col.endswith("_median_s")]
    assert timed == [name.replace("-", "_") for name in harness._METHODS[family]]


@pytest.mark.parametrize("preset, methods", [
    ("runtime-gain", ("rmo",)),
    ("runtime-capacity", ("rmo-surrogate",)),
    ("runtime-capacity", ("wsa", "rmo-surrogate")),
])
def test_bench_runtime_times_exactly_the_requested_methods(preset, methods):
    # the family's first method, sa or wsa, used to be timed whatever the
    # spec requested
    spec = preset_spec(preset, n_ris_list=(48,), rmo_max_iters=3,
                       methods=methods)
    timed = [col.removesuffix("_median_s")
             for col in bench_runtime(spec).columns if col.endswith("_median_s")]
    assert timed == [name.replace("-", "_") for name in methods]


def test_metadata_documents_rng_scheme():
    res = run_experiment(tiny_capacity_spec())
    assert "SeedSequence" in res.metadata["rng_scheme"]
    assert "numpy_version" in res.metadata


def test_metadata_records_the_environment(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    res = run_experiment(tiny_capacity_spec(workers=2))
    meta = res.metadata
    for key in ("cpu_count", "cpu_affinity"):
        assert meta[key] is None or (isinstance(meta[key], int) and meta[key] >= 1)
    for key in ("blas_name", "blas_version"):
        assert meta[key] is None or isinstance(meta[key], str)
    assert set(meta["thread_env"]) == {"OPENBLAS_NUM_THREADS",
                                       "OMP_NUM_THREADS"}
    assert meta["thread_env"]["OMP_NUM_THREADS"] == "3"
    assert meta["workers"] == _resolve_workers(2, 3, os.cpu_count())
    assert run_experiment(tiny_capacity_spec(trials=1, workers=2)).metadata["workers"] == 1
    # the sidecar carries them, and the CSVs do not
    sidecar = json.loads(res.to_json())["metadata"]
    assert sidecar["workers"] == meta["workers"]
    assert sidecar["thread_env"]["OMP_NUM_THREADS"] == "3"
    assert res.to_csv() == run_experiment(tiny_capacity_spec(workers=1)).to_csv()


@pytest.fixture
def fresh_heap_hold():
    """_hold_heap applies once per process; forget that around a test so a
    faked outcome never outlives it."""
    harness._hold_heap.cache_clear()
    yield
    harness._hold_heap.cache_clear()


def fake_glibc(monkeypatch) -> list:
    """Report glibc and replace the loader; the list records each load and
    each mallopt call."""
    import ctypes

    calls = []

    def mallopt(param, value):
        calls.append(("mallopt", param, value))
        return 1

    def cdll(name):
        calls.append(("load", name))
        return types.SimpleNamespace(mallopt=mallopt)
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36", raising=False)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    for var in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES"):
        monkeypatch.delenv(var, raising=False)
    return calls


def test_heap_hold_applies_once(monkeypatch, fresh_heap_hold):
    calls = fake_glibc(monkeypatch)
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.cpu.hwcaps=-AVX512F")
    res = run_experiment(tiny_capacity_spec(trials=1))
    bench_runtime(preset_spec("runtime-capacity", n_ris_list=(40,),
                              methods=("wsa",)))
    held = {"mmap_threshold": 32 << 20, "trim_threshold": 64 << 20}
    assert harness._hold_heap() == held
    assert calls == [("load", None), ("mallopt", -3, 32 << 20),
                     ("mallopt", -1, 64 << 20)]
    assert res.metadata["heap_hold"] == held
    assert json.loads(res.to_json())["metadata"]["heap_hold"] == held


@pytest.mark.parametrize("var, value", [
    ("MALLOC_MMAP_THRESHOLD_", "1048576"),
    ("MALLOC_TRIM_THRESHOLD_", "0"),
    ("GLIBC_TUNABLES", "glibc.cpu.x86_shstk=on:glibc.malloc.trim_threshold=0"),
])
def test_heap_hold_leaves_a_tuned_allocator_alone(monkeypatch, fresh_heap_hold,
                                                  var, value):
    calls = fake_glibc(monkeypatch)
    monkeypatch.setenv(var, value)
    res = run_experiment(tiny_capacity_spec(trials=1))
    assert harness._hold_heap() is None and calls == []
    assert res.metadata["heap_hold"] is None
    assert json.loads(res.to_json())["metadata"]["heap_hold"] is None


def test_heap_hold_needs_glibc(monkeypatch, fresh_heap_hold):
    calls = fake_glibc(monkeypatch)

    def no_such_name(name):
        raise ValueError("unrecognized configuration name")
    monkeypatch.setattr(os, "confstr", no_such_name, raising=False)
    assert harness._hold_heap() is None and calls == []
    monkeypatch.setattr(os, "confstr", lambda name: None, raising=False)
    assert harness._hold_heap() is None and calls == []


def _glibc_allocator_untuned() -> bool:
    try:
        glibc = (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False
    return glibc and not (
        {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"} & set(os.environ)
        or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""))


@pytest.mark.skipif(not _glibc_allocator_untuned(),
                    reason="needs glibc with its allocator left untuned")
def test_held_heap_takes_no_page_faults_per_trial():
    # without the hold each 8192 x 8 W-SA trial faults about 1,000 pages of
    # SVD workspace back in; with it the run's working set stays resident
    resource = pytest.importorskip("resource")
    spec = preset_spec("custom-capacity", n_ris_list=(8192,), trials=5,
                       workers=1, methods=("wsa", "lb"))
    run_experiment(spec)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_experiment(spec)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 100


def test_rmo_surrogate_reads_the_links_svds(monkeypatch):
    calls = count_svd_bundle(monkeypatch)
    for methods in (("wsa", "rmo-surrogate", "lb"), ("rmo-surrogate",)):
        calls.clear()
        run_experiment(preset_spec("custom-capacity", n_ris_list=(32,), n_t=4,
                                   n_r=4, trials=1, methods=methods,
                                   rmo_max_iters=2))
        assert sorted(calls) == [(4, 32), (32, 4)]
