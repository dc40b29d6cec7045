import json
import os
import stat
import subprocess
import sys
import warnings

import pytest

from risopt.cli import main
from risopt.harness import preset_spec, run_experiment


def run_main(argv):
    return main(argv)


def refusal(tmp_path, capsys, argv, argfile=None) -> list:
    """The stderr lines of a run that must exit 2 and write no file, with
    argfile, if given, as the text of an argument file read after argv."""
    if argfile:
        path = tmp_path / "run.args"
        path.write_text(f"{argfile}\n")
        argv = [*argv, f"@{path}"]
    out = tmp_path / "out"
    assert run_main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    return capsys.readouterr().err.splitlines()


def test_missing_required_grid_is_a_clean_error(capsys):
    code = run_main(["capacity", "--nt", "4"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_figure_preset_writes_files(tmp_path):
    code = run_main(["figure", "fig2a", "--scale", "0.02", "--trials", "2",
                     "--out", str(tmp_path)])
    assert code == 0
    names = sorted(os.listdir(tmp_path))
    assert names == ["fig2a.csv", "fig2a.json", "fig2a_aggregate.csv"]
    header = open(tmp_path / "fig2a.csv").read().splitlines()[0]
    assert header.startswith("point,trial,n_ris")


def test_custom_capacity_with_flags(tmp_path):
    code = run_main(["capacity", "--n-ris", "48", "64", "--nt", "4",
                     "--nr", "4", "--trials", "2", "--seed", "5",
                     "--methods", "wsa", "lb", "--out", str(tmp_path),
                     "--out-stem", "mini"])
    assert code == 0
    lines = open(tmp_path / "mini.csv").read().strip().splitlines()
    assert len(lines) == 1 + 2 * 2      # two sizes, two trials


def test_nr_follows_nt_unless_given(tmp_path):
    for extra, n_r in (([], 4), (["--nr", "2"], 2)):
        out = tmp_path / f"nr{n_r}"
        code = run_main(["gain", "--n-ris", "64", "--nt", "4", "--trials", "1",
                         *extra, "--out", str(out)])
        assert code == 0
        assert json.load(open(out / "custom-gain.json"))["spec"]["n_r"] == n_r
        header, row = open(out / "custom-gain.csv").read().splitlines()
        assert row.split(",")[header.split(",").index("n_r")] == str(n_r)


def test_gain_subcommand(tmp_path):
    code = run_main(["gain", "--n-ris", "64", "--nt", "2", "--nr", "2",
                     "--k-db", "20", "--trials", "2", "--out", str(tmp_path)])
    assert code == 0
    header = open(tmp_path / "custom-gain.csv").read().splitlines()[0]
    assert "gain_sa" in header and "lower_bound" in header


def test_spectrum_subcommand_k_pair(tmp_path, capsys):
    # a spectrum trial samples the transmit side only; a receive-side K
    # used to be dropped without a word
    argv = ["spectrum", "--n-ris", "80", "--nt", "4", "--k-db", "10", "0",
            "--trials", "2"]
    assert refusal(tmp_path, capsys, argv) == [
        "error: k_r_db = 0.0 is not read by spectrum preset "
        "'custom-spectrum'; leave it unset"]


def test_one_k_db_value_sets_both_sides(tmp_path):
    argv = ["spectrum", "--n-ris", "64", "128", "--nt", "4", "--k-db", "10",
            "--trials", "3", "--out", str(tmp_path)]
    assert run_main(argv) == 0
    spec = json.load(open(tmp_path / "custom-spectrum.json"))["spec"]
    assert (spec["k_t_db"], spec["k_r_db"]) == (10.0, 10.0)
    # the bytes of the pinned library run of the same grid
    res = run_experiment(preset_spec("custom-spectrum", n_ris_list=[64, 128],
                                     n_t=4, k_t_db=10.0, trials=3))
    assert (tmp_path / "custom-spectrum.csv").read_text() == res.to_csv()
    assert ((tmp_path / "custom-spectrum_aggregate.csv").read_text()
            == res.to_aggregate_csv())


def test_config_file_with_flag_override(tmp_path):
    args = tmp_path / "run.args"
    args.write_text("--n-ris 48\n--nt 4\n--nr 4\n--trials 3\n"
                    "--methods wsa rmo\n--seed 2\n--k-db 3 -2\n--snr-db 7.5\n"
                    "--rmo-iters 7\n--out-stem from_file\n")
    out = tmp_path / "results"
    code = run_main(["capacity", f"@{args}", "--trials", "1",
                     "--out", str(out)])
    assert code == 0
    lines = open(out / "from_file.csv").read().strip().splitlines()
    assert len(lines) == 2              # flag --trials 1 beat the file's 3
    spec = json.load(open(out / "from_file.json"))["spec"]
    assert (spec["k_t_db"], spec["k_r_db"], spec["snr_db"]) == (3.0, -2.0, 7.5)
    assert (spec["rmo_max_iters"], spec["n_t"], spec["seed"]) == (7, 4, 2)
    assert spec["n_ris_list"] == [48] and spec["methods"] == ["wsa", "rmo"]


def test_config_scale_applies_to_figure(tmp_path):
    args = tmp_path / "run.args"
    args.write_text("--scale 0.02\n--trials 1\n")
    assert run_main(["figure", "fig2a", f"@{args}",
                     "--out", str(tmp_path)]) == 0
    spec = json.load(open(tmp_path / "fig2a.json"))["spec"]
    # the sidecar holds the sizes that ran, not the scale
    assert "scale" not in spec and spec["n_ris_list"] == [10, 41, 164]


def test_an_argument_file_writes_the_bytes_of_its_flags(tmp_path):
    # the gain-sa-rmo-lb grid of tests/test_pinned_outputs.py
    lines = ["--n-ris 36 64", "--nt 4", "--trials 2", "--rmo-iters 5",
             "--methods sa rmo lb"]
    args = tmp_path / "run.args"
    args.write_text("\n".join(lines) + "\n")
    flags = " ".join(lines).split()
    assert run_main(["gain", *flags, "--out", str(tmp_path / "flags")]) == 0
    assert run_main(["gain", f"@{args}", "--out", str(tmp_path / "file")]) == 0
    for name in ("custom-gain.csv", "custom-gain_aggregate.csv"):
        assert ((tmp_path / "file" / name).read_bytes()
                == (tmp_path / "flags" / name).read_bytes())


def test_a_file_after_a_flag_overrides_it(tmp_path):
    # test_config_file_with_flag_override checks the other order
    args = tmp_path / "run.args"
    args.write_text("--trials 3\n")
    assert run_main(["gain", "--n-ris", "16", "--nt", "2", "--trials", "1",
                     f"@{args}", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "custom-gain.csv").read_text().splitlines()
    assert len(rows) == 1 + 3


@pytest.mark.parametrize("flag, message", [
    ("--trials x", "argument --trials: invalid int value: 'x'"),
    ("--n-ris 32 4o", "argument --n-ris: invalid int value: '4o'"),
], ids=["trials", "n_ris"])
def test_a_bad_value_in_a_file_prints_the_flags_error_line(tmp_path, capsys,
                                                           flag, message):
    argv = ["capacity", "--n-ris", "32"]
    assert refusal(tmp_path, capsys, [*argv, *flag.split()]) == [
        f"error: {message}"]
    assert refusal(tmp_path, capsys, argv, flag) == [f"error: {message}"]


def test_a_missing_argument_file_is_a_clean_error(tmp_path, capsys):
    missing = tmp_path / "missing.args"
    assert refusal(tmp_path, capsys, ["capacity", f"@{missing}"]) == [
        f"error: [Errno 2] No such file or directory: '{missing}'"]


def test_a_missing_subcommand_prints_one_error_line(capsys):
    # argparse used to print its usage block and raise SystemExit(2)
    assert run_main([]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: the following arguments are required: command"]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run_main(["gain", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: risopt gain")


def test_bench_runtime_header(tmp_path):
    code = run_main(["bench-runtime", "runtime-capacity", "--scale", "0.02",
                     "--rmo-iters", "5", "--out", str(tmp_path)])
    assert code == 0
    header = open(tmp_path / "runtime-capacity.csv").read().splitlines()[0]
    assert header == ("n_ris,n_t,n_r,wsa_median_s,wsa_mean_s,"
                      "rmo_median_s,rmo_mean_s,"
                      "rmo_surrogate_median_s,rmo_surrogate_mean_s,"
                      "ratio_rmo_over_wsa,ratio_rmo_over_surrogate")


def test_bench_runtime_writes_and_prints_two_files(tmp_path, capsys):
    # it aggregates nothing, and used to write an aggregate CSV holding
    # only a newline
    code = run_main(["bench-runtime", "runtime-gain", "--scale", "0.02",
                     "--rmo-iters", "3", "--out", str(tmp_path)])
    assert code == 0
    assert sorted(os.listdir(tmp_path)) == ["runtime-gain.csv",
                                            "runtime-gain.json"]
    assert capsys.readouterr().out.splitlines() == [
        f"csv: {tmp_path / 'runtime-gain.csv'}",
        f"json: {tmp_path / 'runtime-gain.json'}"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_written_files_honour_the_umask(tmp_path, umask, mode):
    # each used to keep its temp file's 0o600, whatever the umask
    runs = [["gain", "--n-ris", "16", "--nt", "2", "--trials", "1"],
            ["capacity", "--n-ris", "16", "--nt", "2", "--trials", "1"],
            ["bench-runtime", "runtime-gain", "--scale", "0.01", "--methods", "sa"]]
    old = os.umask(umask)
    try:
        for argv in runs:
            assert run_main([*argv, "--out", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    modes = {name: stat.S_IMODE(os.stat(tmp_path / name).st_mode)
             for name in os.listdir(tmp_path)}
    assert len(modes) == 8 and set(modes.values()) == {mode}, modes


@pytest.mark.parametrize("argv", [
    ["bench-runtime", "runtime-gain", "--trials", "7"],
    ["bench-runtime", "runtime-gain", "--workers", "2"],
    ["gain", "--n-ris", "64", "--threads", "2"],
    ["gain", "--n-ris", "64", "--scale", "0.5"],
    ["gain", "--n-ris", "64", "--trails", "1"],
    ["capacity", "--arrangement", "random"],
    ["figure", "fig2a", "--arrangement", "contiguous"],
])
def test_an_option_with_no_reader_is_not_recognized(tmp_path, capsys, argv):
    # bench_runtime times one instance per point on one worker, --workers
    # is the worker count's only name, --scale scales presets only, and
    # W-SA lays each stream's elements out in one block
    assert refusal(tmp_path, capsys, argv) == [
        "error: unrecognized arguments: " + " ".join(argv[-2:])]


@pytest.mark.parametrize("argv, argfile, method", [
    (["gain", "--n-ris", "64", "--nt", "4", "--trials", "2",
      "--methods", "wsa"], None, "wsa"),
    pytest.param(["capacity", "--n-ris", "64", "--nt", "4", "--trials", "2"],
                 "--methods sa", "sa", id="argfile"),
])
def test_a_method_of_another_family_is_a_clean_error(tmp_path, capsys,
                                                     argv, argfile, method):
    # the flag has no choices, so a name from a flag, a file or a library
    # call meets one check: the spec refuses what its family cannot run
    err = refusal(tmp_path, capsys, argv, argfile)
    assert len(err) == 1 and err[0].startswith("error:")
    assert f"'{method}'" in err[0]


@pytest.mark.parametrize("flags, argfile", [
    (["--k-db", "3"], None),
    pytest.param([], "--k-db 3", id="argfile"),
])
def test_k_db_next_to_a_k_sweep_is_a_clean_error(tmp_path, capsys, flags,
                                                 argfile):
    # fig1c sweeps K on both sides, which used to override a given K-factor
    # without a word
    argv = ["figure", "fig1c", "--scale", "0.05", "--trials", "1", *flags]
    assert refusal(tmp_path, capsys, argv, argfile) == [
        "error: k_t_db = 3.0 is not read by hardening preset 'fig1c', "
        "which sweeps K over k_sweep_db; leave it unset"]


# family -> (subcommand and preset, its preset's name, then each flag of a
# spec field the family never reads with a value other than its default)
UNREAD = {
    "spectrum": (["spectrum", "--n-ris", "64", "--nt", "4"], "custom-spectrum",
                 [("n_r", "--nr", "7"), ("k_r_db", "--k-db", "10 0"),
                  ("snr_db", "--snr-db", "-40"),
                  ("rmo_max_iters", "--rmo-iters", "3")]),
    "hardening": (["figure", "fig1c", "--scale", "0.05"], "fig1c",
                  [("n_r", "--nr", "9"), ("k_r_db", "--k-db", "0 5"),
                   ("snr_db", "--snr-db", "3"),
                   ("rmo_max_iters", "--rmo-iters", "3"),
                   ("k_t_db", "--k-db", "3")]),
    "gain": (["gain", "--n-ris", "64", "--nt", "4"], "custom-gain",
             [("snr_db", "--snr-db", "-40")]),
}


@pytest.mark.parametrize("family, field, flag, value", [
    pytest.param(family, field, flag, value, id=f"{family}-{field}-flag")
    for family, (_, _, cases) in UNREAD.items()
    for field, flag, value in cases
])
def test_a_field_its_preset_never_reads_is_a_clean_error(tmp_path, capsys,
                                                         family, field, flag,
                                                         value):
    # each used to run, write the bytes of a run without it and echo it in
    # the sidecar as if used
    argv, preset, _ = UNREAD[family]
    err = refusal(tmp_path, capsys,
                  [*argv, "--trials", "1", flag, *value.split()])
    assert len(err) == 1
    assert err[0].startswith(f"error: {field} = ")
    assert f"preset '{preset}'" in err[0]


@pytest.mark.parametrize("argv, field, preset", [
    (["spectrum", "--n-ris", "64", "--nt", "4", "--k-db", "10", "0",
      "--nr", "7", "--snr-db", "-40", "--rmo-iters", "3"], "n_r",
     "custom-spectrum"),
    (["figure", "fig1c", "--nr", "9", "--snr-db", "3"], "n_r", "fig1c"),
    (["gain", "--n-ris", "64", "--nt", "4", "--trials", "2", "--snr-db", "-40"],
     "snr_db", "custom-gain"),
], ids=["spectrum", "fig1c", "gain"])
def test_commands_whose_flags_were_ignored_are_refused(tmp_path, capsys,
                                                      argv, field, preset):
    err = refusal(tmp_path, capsys, argv)
    assert len(err) == 1
    assert err[0].startswith(f"error: {field} = ")
    assert f"preset '{preset}'" in err[0]


# subcommand and grid, its preset, the methods, then a field only other
# methods of the family read, its flag and a value
METHOD_UNREAD = [
    (["gain", "--n-ris", "64", "--nt", "4", "--trials", "1"], "custom-gain",
     ["sa", "lb"], "rmo_max_iters", "--rmo-iters", 3),
    (["capacity", "--n-ris", "64", "--nt", "4", "--trials", "1"],
     "custom-capacity", ["wsa", "lb"], "rmo_max_iters", "--rmo-iters", 3),
    (["bench-runtime", "runtime-gain", "--scale", "0.02"], "runtime-gain",
     ["sa"], "rmo_max_iters", "--rmo-iters", 3),
]


@pytest.mark.parametrize("argv, preset, methods, field, flag, value", [
    pytest.param(*case, id=f"{case[1]}-{'-'.join(case[2])}-{case[3]}-flag")
    for case in METHOD_UNREAD
])
def test_a_field_its_methods_never_read_is_a_clean_error(
        tmp_path, capsys, argv, preset, methods, field, flag, value):
    # each used to write the bytes of a run without it and echo it in the
    # sidecar as if used
    err = refusal(tmp_path, capsys,
                  [*argv, "--methods", *methods, flag, str(value)])
    assert err == [f"error: {field} = {value!r} is not read by "
                   f"{'gain' if 'gain' in preset else 'capacity'} preset "
                   f"'{preset}' with methods {methods}; leave it unset"]


@pytest.mark.parametrize("argv, message", [
    (["capacity", "--methods", "lb"], "capacity preset 'custom-capacity' needs "
     "a method that writes a column; got methods ['lb']"),
    (["gain", "--methods", "sa", "lb", "--rmo-iters", "3"],
     "rmo_max_iters = 3 is not read by gain preset 'custom-gain' with methods "
     "['sa', 'lb']; leave it unset"),
    (["capacity", "--methods", "rmo", "lb"], "method 'lb' writes no column of "
     "capacity preset 'custom-capacity' with methods ['rmo', 'lb']"),
    (["gain", "--methods", "sa", "sa", "lb"],
     "method 'sa' is repeated in methods ['sa', 'sa', 'lb']"),
], ids=["capacity-lb", "gain-rmo-iters", "capacity-rmo-lb",
        "gain-repeated-sa"])
def test_commands_whose_methods_wrote_nothing_are_refused(tmp_path, capsys,
                                                          argv, message):
    # each used to exit 0: lb alone wrote no method column, the options
    # changed no byte and sa ran once
    argv = [argv[0], "--n-ris", "64", "--nt", "4", "--trials", "1", *argv[1:]]
    assert refusal(tmp_path, capsys, argv) == [f"error: {message}"]


def test_bench_runtime_refuses_a_method_with_no_timing(tmp_path, capsys):
    argv = ["bench-runtime", "runtime-gain", "--scale", "0.02", "--methods",
            "sa", "lb"]
    assert refusal(tmp_path, capsys, argv) == [
        "error: method 'lb' writes no column of gain preset 'runtime-gain' "
        "with methods ['sa', 'lb']"]


def test_bench_runtime_times_only_the_requested_methods(tmp_path):
    # sa used to be timed whatever the spec requested
    code = run_main(["bench-runtime", "runtime-gain", "--scale", "0.02",
                     "--rmo-iters", "3", "--methods", "rmo",
                     "--out", str(tmp_path)])
    assert code == 0
    header = open(tmp_path / "runtime-gain.csv").read().splitlines()[0]
    assert header == "n_ris,n_t,n_r,rmo_median_s,rmo_mean_s"


def test_a_bad_method_flag_prints_one_error_line(tmp_path, capsys):
    # the flag used to print argparse's usage block and its own error
    argv = ["gain", "--n-ris", "64", "--nt", "4", "--trials", "1",
            "--methods", "foo"]
    assert refusal(tmp_path, capsys, argv) == [
        "error: methods ['foo'] are not gain methods; known: ['sa', 'rmo', 'lb']"]


@pytest.mark.parametrize("argv, message", [
    # spectrum used to blame k_r_db, which the user did not set
    (["spectrum", "--k-db", "nan"], "k_t_db must be a number; got nan"),
    # a gain trial used to fail with "k_factor must be non-negative"
    (["gain", "--k-db", "nan"], "k_t_db must be a number; got nan"),
    (["capacity", "--k-db", "0", "nan"], "k_r_db must be a number; got nan"),
    # spectrum once refused an infinite K, and one whose linear value
    # overflows, which gain and capacity take; it runs them now
    (["spectrum", "--k-db", "inf"], None),
    (["spectrum", "--k-db=-inf"], None),
    (["spectrum", "--k-db", "3100"], None),
], ids=["spectrum-nan", "gain-nan", "capacity-nan-k_r", "spectrum-inf",
        "spectrum-minus-inf", "spectrum-overflow"])
def test_a_nan_or_infinite_k_is_a_clean_error(tmp_path, capsys, argv, message):
    # a NaN K is refused; an infinite one (message None) writes its files
    argv = [argv[0], "--n-ris", "64", "--nt", "4", "--trials", "2", *argv[1:]]
    if message is None:
        assert run_main([*argv, "--out", str(tmp_path)]) == 0
        assert sorted(os.listdir(tmp_path)) == [
            "custom-spectrum.csv", "custom-spectrum.json",
            "custom-spectrum_aggregate.csv"]
        return
    assert refusal(tmp_path, capsys, argv) == [f"error: {message}"]


@pytest.mark.parametrize("flags, argfile", [
    (["--rmo-iters", "0"], None),
    pytest.param([], "--rmo-iters 0", id="argfile"),
])
def test_a_non_positive_rmo_iteration_limit_is_a_clean_error(tmp_path, capsys,
                                                             flags, argfile):
    # it used to run every trial, put the same error in every RMO row and
    # exit 1 after writing the files
    argv = ["figure", "fig2b", "--scale", "0.02", "--trials", "1", *flags]
    assert refusal(tmp_path, capsys, argv, argfile) == [
        "error: rmo_max_iters must be an integer >= 1; got 0"]


SIZE_REFUSED = "error: n_ris_list[0] must be an integer >= 1; got "
SCALE_REFUSED = "error: scale must be finite and > 0; got "
WORKERS_REFUSED = "error: workers must be an integer >= 1; got 0"


@pytest.mark.parametrize("argv, message", [
    # sizes and scales used to be floored to n_ris = 2, or to crash
    (["gain", "--n-ris", "-5", "--nt", "4"], SIZE_REFUSED + "-5"),
    (["figure", "fig2a", "--scale", "-1"], SCALE_REFUSED + "-1.0"),
    (["figure", "fig2a", "--scale", "0"], SCALE_REFUSED + "0.0"),
    (["figure", "fig2a", "--scale", "inf"], SCALE_REFUSED + "inf"),
    (["figure", "fig2a", "--scale", "nan"], SCALE_REFUSED + "nan"),
    # a worker count below 1 used to run one worker
    (["gain", "--n-ris", "64", "--workers", "0"], WORKERS_REFUSED),
], ids=["n_ris", "scale-negative", "scale-zero", "scale-inf", "scale-nan",
        "workers-zero"])
def test_a_bad_size_scale_or_worker_count_is_a_clean_error(tmp_path, capsys,
                                                           argv, message):
    argv = [*argv, "--trials", "1"]
    assert refusal(tmp_path, capsys, argv) == [message]


@pytest.mark.parametrize("argv, message", [
    # these used to exit 2 with a message that named no field, fig1b's
    # only after running every trial
    (["gain", "--n-ris", "64", "--nt", "0"], "n_t must be an integer >= 1; got 0"),
    (["gain", "--n-ris", "64", "--nr", "0"],
     "n_r must be an integer >= 1; got 0"),
    (["gain", "--n-ris", "64", "--seed", "-1"],
     "seed must be an integer >= 0; got -1"),
    (["figure", "fig1b", "--scale", "0.01"],
     "n_ris_list entries must be >= n_t = 20 for spectrum preset 'fig1b'; "
     "got [5, 10, 20]"),
    (["spectrum", "--n-ris", "64", "3", "--nt", "4"],
     "n_ris_list entries must be >= n_t = 4 for spectrum preset "
     "'custom-spectrum'; got [64, 3]"),
], ids=["nt", "nr", "seed", "fig1b-scale", "spectrum"])
def test_a_size_or_seed_no_trial_can_use_is_a_clean_error(tmp_path, capsys,
                                                          argv, message):
    argv = [*argv, "--trials", "1"]
    assert refusal(tmp_path, capsys, argv) == [f"error: {message}"]


def test_a_trial_error_exits_1_after_writing_the_files(tmp_path, capsys):
    code = run_main(["capacity", "--n-ris", "16", "--trials", "1", "--snr-db",
                     "nan", "--methods", "rmo", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: 1 of 1 trials recorded an error; first: rmo: ")
    assert not err[0].endswith(";")
    rows = (tmp_path / "custom-capacity.csv").read_text().splitlines()
    assert len(rows) == 2 and "rmo: " in rows[1]
    assert (tmp_path / "custom-capacity_aggregate.csv").exists()
    assert (tmp_path / "custom-capacity.json").exists()


def test_an_infinite_snr_is_named_in_the_row_error(tmp_path, capsys):
    # W-SA used to end with "list index out of range", and both RMOs with
    # numpy's RuntimeWarnings and a non-finite gradient at iteration 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_main(["capacity", "--n-ris", "32", "--nt", "4",
                         "--snr-db", "inf", "--trials", "1",
                         "--methods", "wsa", "rmo", "rmo-surrogate", "lb",
                         "--out", str(tmp_path)])
    assert code == 1
    refused = "snr must be finite; got inf"
    assert capsys.readouterr().err.splitlines() == [
        f"error: 1 of 1 trials recorded an error; first: wsa: {refused}; "
        f"rmo: {refused}; rmo-surrogate: {refused}"]


def test_a_db_value_past_the_float_range_runs_as_at_inf(tmp_path, capsys):
    # 3100 dB used to end in an OverflowError traceback: a K that large is
    # pure LoS, and an SNR that large is refused in each trial as inf is
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_main(["gain", "--n-ris", "64", "--nt", "4", "--k-db",
                         "3100", "--trials", "1", "--methods", "sa", "lb",
                         "--out", str(tmp_path)]) == 0
        code = run_main(["capacity", "--n-ris", "32", "--nt", "4",
                         "--snr-db", "3100", "--trials", "1",
                         "--methods", "wsa", "lb", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: 1 of 1 trials recorded an error; first: wsa: snr must be "
        "finite; got inf"]


def test_bad_k_db_count(tmp_path):
    code = run_main(["capacity", "--n-ris", "32", "--k-db", "1", "2", "3",
                     "--out", str(tmp_path)])
    assert code == 2


def test_module_entry_point_runs(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "risopt.cli", "gain",
                           "--n-ris", "16", "--nt", "2", "--trials", "1",
                           "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("csv: ")


def test_unknown_preset_rejected_by_parser(tmp_path, capsys):
    err = refusal(tmp_path, capsys, ["figure", "fig7q"])
    assert len(err) == 1
    assert err[0].startswith("error: argument preset: invalid choice: 'fig7q'")
