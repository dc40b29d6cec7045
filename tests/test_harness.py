import ast
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
import warnings

import numpy as np
import pytest

import risopt.geometry as geometry
import risopt.harness as harness
import risopt.spectral as spectral
from risopt.capacity import run_wsa
from risopt.spectral import asymptotic_spectrum
from risopt.harness import (ExperimentSpec, _resolve_workers, bench_runtime,
                            db2lin, preset_spec, run_experiment)

from .oracles import nmse
from .test_pinned_outputs import RUNS as PINNED_RUNS, SRC


def tiny_capacity_spec(**kw):
    base = dict(preset="custom-capacity", n_ris_list=(64,), n_t=4, n_r=4,
                trials=3, seed=123, methods=("wsa", "lb"))
    base.update(kw)
    return ExperimentSpec(**base)


def test_db2lin():
    assert db2lin(0.0) == 1.0
    assert db2lin(10.0) == pytest.approx(10.0)
    assert db2lin(-3.0) == pytest.approx(0.501187, rel=1e-5)


@pytest.mark.parametrize("x_db", [3100.0, 1e300, np.float64(3100.0), math.inf])
def test_db2lin_is_inf_above_the_float_range(x_db):
    # 3100 dB used to raise OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert db2lin(x_db) == math.inf


def test_a_k_or_snr_past_the_float_range_runs_as_at_inf():
    # pure LoS for K, and each trial's refusal for the SNR
    def run(preset, **fields):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return run_experiment(preset_spec(preset, n_ris_list=(32,), n_t=4,
                                              trials=2, **fields)).rows
    past = run("custom-gain", k_t_db=3100.0, methods=("sa", "lb"))
    at_inf = run("custom-gain", k_t_db=math.inf, methods=("sa", "lb"))
    assert [(r["gain_sa"], r["lower_bound"]) for r in past] == [
        (r["gain_sa"], r["lower_bound"]) for r in at_inf]
    assert not any(r["error"] for r in past)
    refused = "snr must be finite; got inf"
    for row in run("custom-capacity", snr_db=3100.0,
                   methods=("wsa", "rmo", "rmo-surrogate", "lb")):
        assert row["error"] == (f"wsa: {refused}; rmo: {refused}; "
                                f"rmo-surrogate: {refused}; ")


def test_spec_validation():
    with pytest.raises(ValueError):
        tiny_capacity_spec(trials=0)
    for iters in (0, -3):
        with pytest.raises(ValueError, match=f"^rmo_max_iters must be an "
                           f"integer >= 1; got {iters}$"):
            tiny_capacity_spec(rmo_max_iters=iters)
    with pytest.raises(ValueError):
        tiny_capacity_spec(n_ris_list=())
    for sizes, name in (((0,), r"n_ris_list\[0\]"),
                        ((64, -1), r"n_ris_list\[1\]")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1; "
                           f"got {sizes[-1]}$"):
            tiny_capacity_spec(n_ris_list=sizes)
    for workers in (0, -3):
        with pytest.raises(ValueError, match=f"^workers must be an integer "
                           f">= 1; got {workers}$"):
            tiny_capacity_spec(workers=workers)
    with pytest.raises(ValueError):
        tiny_capacity_spec(methods=("gradient-descent",))
    with pytest.raises(ValueError):
        tiny_capacity_spec(k_sweep_db=())
    # sizes and seeds no trial can use, each named
    for field, value, message in (
            ("n_t", 0, "^n_t must be an integer >= 1; got 0$"),
            ("n_r", 0, "^n_r must be an integer >= 1; got 0$"),
            ("seed", -1, "^seed must be an integer >= 0; got -1$")):
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
    ("n_t", 2.5, "^n_t must be an integer >= 1; got 2.5$"),  # TypeError in numpy
    ("n_t", True, "^n_t must be an integer >= 1; got True$"),
    ("n_r", 4.0, "^n_r must be an integer >= 1; got 4.0$"),
    ("trials", 2.5, "^trials must be an integer >= 1; got 2.5$"),  # TypeError
    ("seed", 1.5, "^seed must be an integer >= 0; got 1.5$"),      # TypeError
    ("workers", 1.5, "^workers must be an integer >= 1; got 1.5$"),  # accepted
    ("rmo_max_iters", 2.5,                    # every RMO row an error
     "^rmo_max_iters must be an integer >= 1; got 2.5$"),
    ("n_ris_list", (64.7,),                   # ran 64
     r"^n_ris_list\[0\] must be an integer >= 1; got 64.7$"),
    ("n_ris_list", (64, False),
     r"^n_ris_list\[1\] must be an integer >= 1; got False$"),
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
    own = harness._preset(preset).get(field, harness._PRESET_BASE[field])
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
    # spectrum and hardening once refused an infinite K, and one whose
    # linear value overflows, which gain and capacity take; they run now
    ("custom-spectrum", {"k_t_db": math.inf}, None),
    ("custom-spectrum", {"k_t_db": -math.inf}, None),
    ("fig1c", {"k_sweep_db": (math.inf,)}, None),
    ("fig1c", {"k_sweep_db": (0.0, -math.inf)}, None),
    ("custom-spectrum", {"k_t_db": 3100.0}, None),
    ("fig1c", {"k_sweep_db": (0.0, 3100.0)}, None),
], ids=["spectrum-nan", "gain-nan", "capacity-k_r-nan", "sweep-nan",
        "spectrum-inf", "spectrum-minus-inf", "sweep-inf", "sweep-minus-inf",
        "spectrum-overflow", "sweep-overflow"])
def test_spec_refuses_a_nan_or_infinite_k(preset, fields, message):
    # a NaN K is refused; an infinite one (message None) runs, with no
    # numpy warning
    if message is None:
        spec = preset_spec(preset, n_ris_list=(32,), n_t=4, trials=2, **fields)
        assert {name: getattr(spec, name) for name in fields} == fields
        assert run_experiment(spec).to_json()
        return
    with pytest.raises(ValueError, match=message):
        preset_spec(preset, n_ris_list=(32,), n_t=4, trials=2, **fields)


@pytest.mark.parametrize("k_db", [math.inf, -math.inf])
def test_gain_and_capacity_keep_pure_los_and_rayleigh(k_db):
    for preset in ("custom-gain", "custom-capacity"):
        res = run_experiment(preset_spec(preset, n_ris_list=(32,), n_t=4,
                                         trials=2, k_t_db=k_db))
        assert not any(row["error"] for row in res.rows)

    # spectrum and hardening (at the sweep's second point) keep them too
    def run(preset, k):
        fields = ({"k_sweep_db": (0.0, k)} if preset == "fig1c"
                  else {"k_t_db": k})
        return run_experiment(preset_spec(preset, n_ris_list=(32,), n_t=4,
                                          trials=2, **fields))
    at_k = {preset: run(preset, k_db) for preset in ("custom-spectrum", "fig1c")}
    spectrum = at_k["custom-spectrum"].aggregates
    hardening = at_k["fig1c"].aggregates[1]
    if k_db > 0:
        # pure LoS: the spike is all the energy, so the bulk predicts 0
        assert spectrum[0]["nmse"] <= 1e-20 and hardening["nmse"] <= 1e-20
        assert [a["nmse"] for a in spectrum[1:]] == [None] * 3
        assert {(a["aggregate_nmse"], a["bulk_regime"]) for a in spectrum} == {
            (None, 0)}
        # a K whose linear value overflows writes the rows of K = inf
        for preset, at_inf in at_k.items():
            assert [{**row, "k_t_db": None}
                    for row in run(preset, 3100.0).rows] == [
                {**row, "k_t_db": None} for row in at_inf.rows]
    else:
        # Rayleigh: no spike, so the bulk predicts every index
        assert hardening["predicted_1"] == 0.0 and hardening["nmse"] is None
        assert all(a["bulk_regime"] == 1 and a["nmse"] is not None
                   for a in spectrum)


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
        record = harness._FAMILIES[harness._preset(name)["family"]]
        known = {*record.methods,
                 *(n for _, needs, _ in record.optional for n in needs)}
        assert set(spec.methods) <= known
    # a directly built spectrum spec requests no method
    assert ExperimentSpec(preset="custom-spectrum", n_ris_list=(32,),
                          n_t=4).methods == ()


@pytest.mark.parametrize("field, value", [
    ("n_ris_list", 64),        # TypeError: 'int' object is not iterable
    ("k_sweep_db", 5.0),       # TypeError
    ("methods", "lb"),         # read as the two names 'l' and 'b'
], ids=["n_ris_list-int", "k_sweep_db-float", "methods-str"])
def test_a_sequence_field_that_is_not_a_tuple_or_list_is_refused(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a tuple or list; "
                       f"got {re.escape(repr(value))}$"):
        ExperimentSpec(**{**dict(preset="custom-gain", n_ris_list=(64,), n_t=4,
                                 methods=("sa",)), field: value})


def test_predicted_1_is_the_spike_of_asymptotic_spectrum_bit_for_bit():
    # both read channels._los_weight; fig1c's shipped grid, one trial
    spec = preset_spec("fig1c", trials=1)
    rows = run_experiment(spec).rows
    compared = 0
    for row in rows:
        pred = asymptotic_spectrum(row["n_ris"], spec.n_t, db2lin(row["k_t_db"]))
        if pred.bulk_regime:               # K < 1/n_t: entry 1 is the bulk edge
            continue
        assert row["predicted_1"] == pred.predicted_sq_singular_values[0]
        compared += 1
    # every K but 0.05, which reads 0.0499... after the round trip through dB
    assert compared == 5


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
    with pytest.raises(ValueError, match=r"^n_ris_list\[0\] must be an "
                       r"integer >= 1; got -5$"):
        preset_spec("custom-gain", n_ris_list=(-5,))
    for scale in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="^scale must be finite and > 0"):
            preset_spec("fig2a", scale=scale)


@pytest.mark.parametrize("preset, fields, scale, entry", [
    ("fig2a", {}, 1e305, "n_ris_list[1] = 2048"),
    ("fig2a", {}, np.float32(1e37), "n_ris_list[0] = 512"),
    ("custom-gain", {"n_ris_list": (64, 10 ** 400)}, 1.0,
     f"n_ris_list[1] = {10 ** 400}"),
], ids=["float", "float32", "size"])
def test_preset_spec_refuses_a_scaled_size_past_the_float_range(
        preset, fields, scale, entry):
    # the product used to end in an OverflowError (after a numpy warning
    # for a numpy scale), which the CLI does not take for a usage error
    with pytest.raises(ValueError, match=re.escape(
            f"scale {scale!r} takes {entry} past the float range")):
        preset_spec(preset, scale=scale, **fields)


@pytest.mark.parametrize("scale", [math.nan, -3, 0, math.inf])
def test_a_directly_built_spec_refuses_a_bad_scale(scale):
    # each was once taken by the spec, and the sidecar recorded it
    # ("scale": NaN is not strict JSON); a spec now has no scale, and
    # preset_spec refuses it with the spec's old text
    with pytest.raises(TypeError, match="scale"):
        ExperimentSpec(preset="fig2a", scale=scale)
    with pytest.raises(ValueError, match=re.escape(
            f"scale must be finite and > 0; got {scale!r}")):
        preset_spec("fig2a", n_ris_list=(64,), n_t=4, scale=scale)


@pytest.mark.parametrize("scale", [True, "2", None],
                         ids=["bool", "string", "none"])
def test_a_directly_built_spec_refuses_a_scale_that_is_not_a_number(scale):
    # True used to be taken as 1 and recorded as true in the sidecar, and
    # "2" ended in a TypeError
    with pytest.raises(TypeError, match="scale"):
        ExperimentSpec(preset="fig2a", scale=scale)
    with pytest.raises(ValueError, match=re.escape(
            f"scale must be a number; got {scale!r}")):
        preset_spec("fig2a", n_ris_list=(64,), n_t=4, scale=scale)


@pytest.mark.parametrize("name, value", [
    pytest.param(name, value, id=f"{name}-{label}")
    for name in ("snr_db", "k_t_db", "k_r_db", "k_sweep_db")
    for label, value in (("bool", True), ("numpy-bool", np.bool_(True)),
                         ("string", "10"), ("none", None))
    # None is the preset's value, or for k_r_db k_t_db's; a k_sweep_db
    # entry of None is refused
    if value is not None or name == "k_sweep_db"])
def test_a_directly_built_spec_refuses_a_db_value_that_is_not_a_number(name,
                                                                      value):
    # snr_db=True used to run and write 1, and snr_db="10" ended in a
    # TypeError inside run_experiment
    if name == "k_sweep_db":
        value, message = (0.0, value), "k_sweep_db entries must be numbers"
    else:
        message = f"{name} must be a number"
    shown = list(value) if name == "k_sweep_db" else value
    with pytest.raises(ValueError, match=re.escape(f"{message}; got {shown!r}")):
        ExperimentSpec(preset="custom-capacity", n_ris_list=(64,), n_t=4,
                       methods=("wsa", "lb"), **{name: value})


def test_a_spec_keeps_each_db_value_as_given():
    # an int is not turned into a float (k_t_db=10 writes 10), and a NaN
    # snr_db is taken: its trials record their errors
    spec = ExperimentSpec(preset="custom-capacity", n_ris_list=(16,), n_t=4,
                          methods=("wsa",), trials=1, k_t_db=10,
                          snr_db=math.nan)
    assert (type(spec.k_t_db), type(spec.k_r_db)) == (int, int)
    row = run_experiment(spec).to_csv().splitlines()[1].split(",")
    assert row[5:7] == ["10", "10"] and row[7] == "nan"


def test_numpy_db_values_are_held_as_the_python_numbers_they_equal(tmp_path):
    # a float32 K used to run every trial and write both CSVs, then fail
    # in to_json, leaving no sidecar
    plain = {"k_t_db": 3.0, "k_r_db": 1.0, "snr_db": 10}
    given = {"k_t_db": np.float32(3.0), "k_r_db": np.float16(1.0),
             "snr_db": np.int64(10)}
    spec, python_spec = (
        ExperimentSpec(preset="custom-capacity", n_ris_list=(16,), n_t=2,
                       trials=1, methods=("wsa",), **fields)
        for fields in (given, plain))
    assert {name: type(getattr(spec, name)) for name in plain} == {
        "k_t_db": float, "k_r_db": float, "snr_db": int}
    paths = run_experiment(spec).write(str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == [
        "custom-capacity.csv", "custom-capacity.json",
        "custom-capacity_aggregate.csv"]
    written = json.loads(open(paths["json"]).read())["spec"]
    assert [(written[name], type(written[name])) for name in plain] == [
        (3.0, float), (1.0, float), (10, int)]
    assert open(paths["csv"]).read() == run_experiment(python_spec).to_csv()
    # a sweep entry follows the same rule: an int is no longer a float
    for sweep, held in (((0, 5), (0, 5)),
                        ((np.int64(0), np.float32(5.0)), (0, 5.0))):
        spec = ExperimentSpec(preset="fig1c", n_ris_list=(64,), n_t=4,
                              k_sweep_db=sweep)
        assert [(k, type(k)) for k in spec.k_sweep_db] == [
            (k, type(k)) for k in held]


@pytest.mark.parametrize("scale", [np.float64(0.5), np.float32(0.5),
                                   np.int64(2), 2],
                         ids=["float64", "float32", "int64", "int"])
def test_preset_spec_takes_a_numpy_scale_and_the_spec_holds_no_scale(scale):
    spec = preset_spec("fig2a", n_ris_list=(64,), n_t=4, scale=scale)
    assert spec.n_ris_list == (int(64 * float(scale)),)
    assert type(spec.n_ris_list[0]) is int
    res = harness.ExperimentResult(spec, (), [], (), [], [], {})
    assert "scale" not in json.loads(res.to_json())["spec"]


def strict_json(text: str) -> dict:
    """text parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    def refuse(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("preset, fields, written", [
    ("custom-capacity", {"snr_db": math.nan, "methods": ("wsa",)},
     {"snr_db": "nan"}),
    ("custom-spectrum", {"k_t_db": math.inf}, {"k_t_db": "inf", "k_r_db": "inf"}),
    ("custom-spectrum", {"k_t_db": -math.inf},
     {"k_t_db": "-inf", "k_r_db": "-inf"}),
    ("fig1c", {"k_sweep_db": (0.0, math.inf, -math.inf)},
     {"k_sweep_db": [0.0, "inf", "-inf"]}),
], ids=["nan-snr", "inf-k", "minus-inf-k", "sweep"])
def test_a_sidecar_writes_a_non_finite_spec_value_as_the_csvs_do(
        tmp_path, preset, fields, written):
    # json.dumps used to write NaN, Infinity and -Infinity, which strict
    # parsers (jq, JSON.parse) refuse
    spec = preset_spec(preset, n_ris_list=(32,), n_t=4, trials=1, **fields)
    paths = run_experiment(spec).write(str(tmp_path))
    sidecar = strict_json(open(paths["json"]).read())["spec"]
    assert {name: sidecar[name] for name in written} == written
    # any other non-finite value fails to serialize, not to parse
    bad = harness.ExperimentResult(spec, (), [], (), [], [], {"x": math.nan})
    with pytest.raises(ValueError, match="not JSON compliant"):
        bad.to_json()


def test_a_replaced_grid_writes_a_sidecar_with_no_scale(tmp_path):
    # the spec used to record 0.05 for the 100 elements it ran
    spec = dataclasses.replace(preset_spec("fig2a", scale=0.05),
                               n_ris_list=(100,))
    run_experiment(spec).write(str(tmp_path))
    written = json.loads((tmp_path / "fig2a.json").read_text())["spec"]
    assert "scale" not in written and written["n_ris_list"] == [100]
    assert len(dataclasses.fields(ExperimentSpec)) == 14


@pytest.mark.parametrize("name", harness.preset_names(""))
def test_a_directly_built_spec_is_its_preset_s_spec(name):
    need = {"n_ris_list": (64,)} if name.startswith("custom-") else {}
    assert ExperimentSpec(preset=name, **need) == preset_spec(name, **need)
    # a field left None takes the preset's value
    for field in harness._PRESET_BASE:
        assert ExperimentSpec(preset=name, **{field: None, **need}) == \
            ExperimentSpec(preset=name, **need)
    if need:
        with pytest.raises(ValueError, match=f"^preset '{name}' needs "
                           r"n_ris_list \(--n-ris\)$"):
            ExperimentSpec(preset=name)


def test_direct_specs_run_their_preset():
    # each used to take the dataclass's value, not the preset's
    fig1c = ExperimentSpec(preset="fig1c", n_ris_list=(64,), n_t=4, trials=2)
    assert fig1c.k_sweep_db == harness._K_SWEEP_FIG1C
    assert len(run_experiment(fig1c).aggregates) == 6      # it ran one K
    assert ExperimentSpec(preset="fig1a").trials == 100      # it ran 50
    fig2c = ExperimentSpec(preset="fig2c", n_ris_list=(64,), n_t=4)
    assert fig2c.methods == ("wsa", "rmo", "rmo-surrogate", "lb")   # refused
    # refused: rmo_max_iters = 200 (the dataclass's) is not the preset's 500
    gain = ExperimentSpec(preset="runtime-gain", n_ris_list=(16,), n_t=4,
                          methods=("sa",))
    assert (gain.methods, gain.rmo_max_iters) == (("sa",), 500)


@pytest.mark.parametrize("name, value", [
    ("methods", ("wsa", "lb")), ("snr_db", 10.0), ("k_t_db", 0.0)],
    ids=["methods-none", "snr_db-none", "k_t_db-none"])
def test_none_takes_the_preset_s_value(name, value):
    # each None used to be refused: not a tuple or list, or not a number
    spec = ExperimentSpec(preset="custom-capacity", n_ris_list=(64,), n_t=4,
                          **{name: None})
    assert getattr(spec, name) == value and spec.k_r_db == spec.k_t_db
    assert ExperimentSpec(preset="fig2c", **{name: None}) == preset_spec("fig2c")


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


def test_a_zero_prediction_leaves_the_hardening_nmse_empty(tmp_path):
    # K = -4000 dB is 0 in linear scale, so predicted_1 is 0; the aggregate
    # used to raise "zero reference energy" after every trial had run
    res = run_experiment(preset_spec("fig1c", scale=0.01, trials=2,
                                     k_sweep_db=(-4000.0,)))
    assert [a["predicted_1"] for a in res.aggregates] == [0.0]
    assert [a["nmse"] for a in res.aggregates] == [None]
    paths = res.write(str(tmp_path))
    header, row = open(paths["aggregate_csv"]).read().splitlines()
    assert row.split(",")[header.split(",").index("nmse")] == ""


@pytest.mark.parametrize("stem", [5, b"x", "", 1.5],
                         ids=["int", "bytes", "empty", "float"])
def test_a_spec_refuses_an_out_stem_that_is_not_a_non_empty_string(stem):
    # out_stem=5 used to run every trial, then fail in write with a
    # TypeError and no file; "" wrote under the preset's name while the
    # sidecar recorded ""
    with pytest.raises(ValueError, match=re.escape(
            f"out_stem must be a non-empty string; got {stem!r}")):
        tiny_capacity_spec(out_stem=stem)


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


def test_a_failed_replace_leaves_the_old_file_and_no_temp(tmp_path,
                                                          monkeypatch):
    path = tmp_path / "run.csv"
    path.write_bytes(b"old\n")

    def refuse(src, dst):
        raise OSError("replace refused")
    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="^replace refused$"):
        harness._atomic_write(str(path), "new\n")
    assert os.listdir(tmp_path) == ["run.csv"]
    assert path.read_bytes() == b"old\n"


def test_an_azimuth_draw_of_minus_pi_is_wrapped_to_pi():
    # azimuths lie in (-pi, pi]; uniform(-pi, pi) can return -pi itself
    class Lowest:
        def uniform(self, low, high):
            return low
    assert harness._random_angles(Lowest()) == geometry.AnglePair(math.pi, 0.0)


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
    # a gain and a capacity spec run on a moved grid, whose points carry
    # other sizes, K-factors, SNR and RMO budget, write the moved spec's
    # bytes
    cap = tiny_capacity_spec(trials=2, methods=("wsa", "rmo", "lb"),
                             rmo_max_iters=5)
    gain = preset_spec("custom-gain", n_ris_list=(64,), trials=2, seed=5,
                       methods=("sa", "rmo", "lb"), rmo_max_iters=5)
    sizes = dict(n_ris_list=(48,), n_t=3, n_r=5, k_t_db=3.0, k_r_db=-2.0,
                 rmo_max_iters=1)
    moved_cap = dataclasses.replace(cap, snr_db=-5.0, **sizes)
    assert harness._grid(moved_cap) == [
        {"n_ris": 48, "n_t": 3, "n_r": 5, "k_t_db": 3.0, "k_r_db": -2.0,
         "snr_db": -5.0, "rmo_max_iters": 1}]
    grid = harness._grid
    for spec, moved in ((cap, moved_cap),
                        (gain, dataclasses.replace(gain, **sizes))):
        expected = run_experiment(moved)
        assert {(r["n_t"], r["n_r"]) for r in expected.rows} == {(3, 5)}
        # the two budgets write different bytes, so a budget read from
        # the spec shows
        unmoved_budget = dataclasses.replace(moved, rmo_max_iters=5)
        assert run_experiment(unmoved_budget).to_csv() != expected.to_csv()
        with monkeypatch.context() as m:
            m.setattr(harness, "_grid", lambda s, moved=moved: grid(moved))
            got = run_experiment(spec)
        assert got.to_csv() == expected.to_csv()
        assert got.to_aggregate_csv() == expected.to_aggregate_csv()
    # bench_runtime's rows come from the (moved capacity) grid too
    monkeypatch.setattr(harness, "_grid", lambda s: grid(moved_cap))
    bench = bench_runtime(preset_spec("runtime-capacity", methods=("wsa",)))
    assert [(r["n_ris"], r["n_t"], r["n_r"]) for r in bench.rows] == [(48, 3, 5)]


# the top-level definitions of harness.py that may see a spec: the spec,
# its result, run_experiment and bench_runtime, and what they call to
# resolve it once
SPEC_READERS = {"ExperimentSpec", "ExperimentResult", "preset_spec", "_grid",
                "_family", "_columns", "_trial_rng", "run_experiment",
                "bench_runtime"}


def test_links_trials_methods_and_aggregates_never_see_a_spec():
    # a method that read link.spec would ignore a value its grid point
    # carries, so sweeping that value would silently change nothing
    tree = ast.parse(open(harness.__file__).read())
    seen = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            name = top.name
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            name = ast.unparse(getattr(top, "target", None) or top.targets[0])
        else:
            continue
        if any(getattr(node, key, None) == "spec" for node in ast.walk(top)
               for key in ("id", "attr", "arg")):
            seen.add(name)
    assert {"_grid", "run_experiment", "bench_runtime"} <= seen
    assert seen <= SPEC_READERS, sorted(seen - SPEC_READERS)


def test_an_nmse_that_cannot_be_formed_leaves_its_cell_empty(tmp_path):
    # spectrum at 3000 dB: the bulk predictions (about 1e-298) square to
    # zero, which used to end the run with "zero reference energy" after
    # every trial; hardening at -1550 dB: a normal reference energy whose
    # quotient overflows, which used to warn "overflow encountered"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        spectrum = run_experiment(preset_spec(
            "custom-spectrum", n_ris_list=(64,), n_t=4, k_t_db=3000.0,
            trials=2))
        hardening = run_experiment(preset_spec(
            "fig1c", scale=0.01, trials=2, k_sweep_db=(-1550.0,)))
    assert [a["nmse"] for a in spectrum.aggregates] == [0.0, None, None, None]
    assert [a["aggregate_nmse"] for a in spectrum.aggregates] == [None] * 4
    assert 0.0 < hardening.aggregates[0]["predicted_1"] ** 2
    assert [a["nmse"] for a in hardening.aggregates] == [None]
    paths = spectrum.write(str(tmp_path))
    header, *rows = open(paths["aggregate_csv"]).read().splitlines()
    assert [row.split(",")[-3:-1] for row in rows] == [
        ["0.0", ""], ["", ""], ["", ""], ["", ""]]


def test_the_aggregate_nmse_cell_takes_a_normal_energy_and_a_finite_quotient():
    cell = harness._nmse_cell
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cell([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert cell([2.0], [1.0]) == 1.0
        assert cell([0.0, 2.0], [1.0, 1.0]) == 1.0
        assert cell([2.0, 0.0], [1.0, 1.0]) == 1.0
        assert cell([1.0], [0.0]) is None
        assert cell([1.0], [1e-160]) is None      # a subnormal energy
        assert cell([1e200], [1e-150]) is None    # the quotient overflows
        assert cell([math.nan], [1.0]) is None


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
    # a method and its column added to a family's record leave the
    # aggregates of every spec that does not request the method as they were
    grids = {name: preset_spec(preset, **kwargs)
             for name, (preset, kwargs) in PINNED_RUNS.items()
             if harness._FAMILIES[harness._preset(preset)["family"]].methods}
    assert len(grids) == 11
    before = {name: run_experiment(spec) for name, spec in grids.items()}
    for family, column in (("gain", "gain_probe"), ("capacity", "cap_probe")):
        probe = harness._Method(lambda link: None,
                                lambda link, cfg, column=column: {column: 2.0})
        record = harness._FAMILIES[family]
        monkeypatch.setitem(harness._FAMILIES, family, dataclasses.replace(
            record, methods={**record.methods, "probe": probe},
            optional=(*record.optional, (column, ("probe",), True))))
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


def test_an_opt_in_column_on_hardening_reaches_no_pinned_byte(monkeypatch):
    # an opt-in column behind a name no preset requests, on a family with
    # no methods: fig1c's default spec, which requests none, is still
    # accepted and writes the bytes it wrote before
    spec = preset_spec("fig1c", **PINNED_RUNS["fig1c"][1])
    before = run_experiment(spec)
    record = harness._FAMILIES["hardening"]
    monkeypatch.setitem(harness._FAMILIES, "hardening", dataclasses.replace(
        record, optional=(*record.optional, ("eig_02", ("probe",), True))))
    after = run_experiment(preset_spec("fig1c", **PINNED_RUNS["fig1c"][1]))
    assert after.to_csv() == before.to_csv()
    assert after.to_aggregate_csv() == before.to_aggregate_csv()
    probed = run_experiment(dataclasses.replace(spec, methods=("probe",)))
    assert probed.columns == before.columns + ("eig_02",)
    assert probed.agg_columns == ("point", "n_ris", "k_t_db", "predicted_1",
                                  "mean_lambda_1", "mean_eig_02", "nmse")
    eig_02 = [row["eig_02"] for row in probed.rows if row["point"] == 0]
    assert probed.aggregates[0]["mean_eig_02"] == float(np.mean(eig_02))
    with pytest.raises(ValueError, match=r"^methods \['lb'\] are not hardening "
                       r"methods; known: \['probe'\]$"):
        dataclasses.replace(spec, methods=("lb",))


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
        link = harness._Link(harness._grid(spec)[row["point"]], rng)
        report, plan = run_wsa(link.a, link.t, link.snr)
        got = tuple(row[c] for c in ("cap_wsa", "cap_diag", "cap_lb",
                                     "offdiag_ratio", "iterations_used"))
        assert got == (report.capacity_exact, report.capacity_diag,
                       report.capacity_lb, report.offdiag_ratio,
                       plan.iterations_used)


@pytest.mark.parametrize("preset,n_ris,n,methods,fields,bound", [
    # fig2a's middle point and fig2b's first.  Each bound sits between
    # the peak with each channel-sized array held once (5.86, 4.00 units)
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
    methods = harness._family(spec).run_order(spec.methods)
    harness._trial_methods(methods, point, 0, harness._trial_rng(spec, 0, 0))
    tracemalloc.start()
    try:
        row, _ = harness._trial_methods(methods, point, 0,
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
    calls = count_calls(monkeypatch, geometry, "upa_steering",
                        lambda g: g.n_horizontal * g.n_vertical)
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
    warmups, samples = harness._FAMILIES["gain"].methods["sa"].repeats
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
    record = harness._FAMILIES["gain"]
    monkeypatch.setitem(harness._FAMILIES, "gain", dataclasses.replace(
        record, methods={**record.methods, "sa-fp": probe}))
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
    assert timed == [name.replace("-", "_")
                     for name in harness._FAMILIES[family].methods]


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
def fresh_static_environment():
    """_static_environment is computed once per process; forget it around
    a test so that a faked platform never outlives it."""
    harness._static_environment.cache_clear()
    yield
    harness._static_environment.cache_clear()


def show_config_without_dicts(*args, **kwargs):
    """numpy < 1.26's show_config, which takes no mode argument."""
    if kwargs:
        raise TypeError("show_config() got an unexpected keyword argument")


@pytest.mark.parametrize("show_config", [
    pytest.param(show_config_without_dicts, id="no-mode-argument"),
    pytest.param(lambda mode=None: {}, id="no-build-dependencies"),
])
def test_a_numpy_without_blas_dicts_gives_no_blas_facts(
        monkeypatch, fresh_static_environment, show_config):
    monkeypatch.setattr(np, "show_config", show_config)
    env = harness._static_environment()
    assert (env["blas_name"], env["blas_version"]) == (None, None)
    assert env["numpy_version"] == np.__version__


def test_a_platform_without_cpu_affinity_gives_none(
        monkeypatch, fresh_static_environment):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    env = harness._static_environment()
    assert env["cpu_affinity"] is None
    assert env["cpu_count"] == os.cpu_count()


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
