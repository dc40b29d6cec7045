import json
import os
import subprocess
import sys

import pytest

from risopt.cli import main


def run_main(argv):
    return main(argv)


def refusal(tmp_path, capsys, argv, ini=None) -> list:
    """The stderr lines of a run that must exit 2 and write no file, with
    ini, if given, as the body of its [risopt] config section."""
    if ini:
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[risopt]\n{ini}\n")
        argv = [*argv, "--config", str(cfg)]
    out = tmp_path / "out"
    assert run_main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    return capsys.readouterr().err.splitlines()


def test_missing_required_grid_is_a_clean_error(capsys):
    code = run_main(["capacity", "--nt", "4"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_validate_passes():
    assert run_main(["validate", "--seed", "0"]) == 0


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


def test_spectrum_subcommand_k_pair(tmp_path):
    code = run_main(["spectrum", "--n-ris", "80", "--nt", "4",
                     "--k-db", "10", "0", "--trials", "2",
                     "--out", str(tmp_path)])
    assert code == 0
    agg = open(tmp_path / "custom-spectrum_aggregate.csv").read()
    assert "aggregate_nmse" in agg.splitlines()[0]


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[risopt]\nn_ris = 48\nnt = 4\nnr = 4\ntrials = 3\n"
                   "methods = wsa\nseed = 2\nk_db = 3 -2\nsnr_db = 7.5\n"
                   "rmo_iters = 7\nout_stem = from_ini\n")
    out = tmp_path / "results"
    code = run_main(["capacity", "--config", str(cfg), "--trials", "1",
                     "--out", str(out)])
    assert code == 0
    lines = open(out / "from_ini.csv").read().strip().splitlines()
    assert len(lines) == 2              # flag --trials 1 beat config's 3
    spec = json.load(open(out / "from_ini.json"))["spec"]
    assert (spec["k_t_db"], spec["k_r_db"], spec["snr_db"]) == (3.0, -2.0, 7.5)
    assert (spec["rmo_max_iters"], spec["n_t"], spec["seed"]) == (7, 4, 2)
    assert spec["n_ris_list"] == [48] and spec["methods"] == ["wsa"]


def test_config_scale_applies_to_figure(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[risopt]\nscale = 0.02\ntrials = 1\n")
    assert run_main(["figure", "fig2a", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
    spec = json.load(open(tmp_path / "fig2a.json"))["spec"]
    assert spec["scale"] == 0.02 and spec["n_ris_list"] == [10, 41, 164]


def test_bench_runtime_header(tmp_path):
    code = run_main(["bench-runtime", "runtime-capacity", "--scale", "0.02",
                     "--rmo-iters", "5", "--out", str(tmp_path)])
    assert code == 0
    header = open(tmp_path / "runtime-capacity.csv").read().splitlines()[0]
    assert header == ("n_ris,n_t,n_r,wsa_median_s,wsa_mean_s,"
                      "rmo_median_s,rmo_mean_s,"
                      "rmo_surrogate_median_s,rmo_surrogate_mean_s,"
                      "ratio_rmo_over_wsa,ratio_rmo_over_surrogate")


def test_config_unknown_arrangement_is_a_clean_error(tmp_path, capsys):
    # an INI value is not checked against the flag's choices, so the spec
    # must refuse it before any trial runs
    cfg = tmp_path / "run.ini"
    cfg.write_text("[risopt]\nn_ris = 32\ntrials = 2\narrangement = diagonal\n")
    code = run_main(["capacity", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "diagonal" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv, ini, method", [
    (["gain", "--n-ris", "64", "--nt", "4", "--trials", "2",
      "--methods", "wsa"], None, "wsa"),
    (["capacity", "--n-ris", "64", "--nt", "4", "--trials", "2"],
     "methods = sa", "sa"),
])
def test_a_method_of_another_family_is_a_clean_error(tmp_path, capsys,
                                                     argv, ini, method):
    # the flag's choices hold every family's methods, and an INI value is
    # not checked against them; the spec refuses what its family cannot run
    err = refusal(tmp_path, capsys, argv, ini)
    assert len(err) == 1 and err[0].startswith("error:")
    assert f"'{method}'" in err[0]


@pytest.mark.parametrize("flags, ini", [
    (["--k-db", "3"], None),
    ([], "k_db = 3"),
])
def test_k_db_next_to_a_k_sweep_is_a_clean_error(tmp_path, capsys, flags, ini):
    # fig1c sweeps K on both sides, which used to override a given K-factor
    # without a word
    argv = ["figure", "fig1c", "--scale", "0.05", "--trials", "1", *flags]
    err = refusal(tmp_path, capsys, argv, ini)
    assert len(err) == 1 and err[0].startswith("error: --k-db")
    assert "fig1c" in err[0]


@pytest.mark.parametrize("flags, ini", [
    (["--rmo-iters", "0"], None),
    ([], "rmo_iters = 0"),
])
def test_a_non_positive_rmo_iteration_limit_is_a_clean_error(tmp_path, capsys,
                                                             flags, ini):
    # it used to run every trial, put the same error in every RMO row and
    # exit 1 after writing the files
    argv = ["figure", "fig2b", "--scale", "0.02", "--trials", "1", *flags]
    assert refusal(tmp_path, capsys, argv, ini) == [
        "error: rmo_max_iters must be >= 1"]


SIZE_REFUSED = "error: n_ris_list entries must be >= 1; got "
SCALE_REFUSED = "error: scale must be finite and > 0; got "
WORKERS_REFUSED = "error: workers must be >= 1"


@pytest.mark.parametrize("argv, ini, message", [
    # sizes and scales used to be floored to n_ris = 2, or to crash
    (["gain", "--n-ris", "-5", "--nt", "4"], None, SIZE_REFUSED + "[-5]"),
    (["gain", "--nt", "4"], "n_ris = 64 0", SIZE_REFUSED + "[64, 0]"),
    (["figure", "fig2a", "--scale", "-1"], None, SCALE_REFUSED + "-1.0"),
    (["figure", "fig2a", "--scale", "0"], None, SCALE_REFUSED + "0.0"),
    (["figure", "fig2a", "--scale", "inf"], None, SCALE_REFUSED + "inf"),
    (["figure", "fig2a", "--scale", "nan"], None, SCALE_REFUSED + "nan"),
    (["figure", "fig2a"], "scale = -1", SCALE_REFUSED + "-1.0"),
    # a worker count below 1 used to run one worker
    (["gain", "--n-ris", "64", "--workers", "0"], None, WORKERS_REFUSED),
    (["gain", "--n-ris", "64", "--threads", "-3"], None, WORKERS_REFUSED),
    (["gain", "--n-ris", "64"], "workers = 0", WORKERS_REFUSED),
], ids=["n_ris", "n_ris-ini", "scale-negative", "scale-zero", "scale-inf",
        "scale-nan", "scale-ini", "workers-zero", "threads-negative",
        "workers-ini"])
def test_a_bad_size_scale_or_worker_count_is_a_clean_error(tmp_path, capsys,
                                                           argv, ini, message):
    argv = [*argv, "--trials", "1"]
    assert refusal(tmp_path, capsys, argv, ini) == [message]


@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_a_bad_workers_variable_is_a_clean_error(tmp_path, capsys,
                                                 monkeypatch, value):
    monkeypatch.setenv("RISOPT_WORKERS", value)
    argv = ["gain", "--n-ris", "64", "--trials", "2"]
    assert refusal(tmp_path, capsys, argv) == [
        f"error: RISOPT_WORKERS must be an integer >= 1; got {value!r}"]


@pytest.mark.parametrize("argv, ini, key", [
    # a misspelt key and a lookalike of --methods used to be dropped, and
    # the run went on with 50 trials of the default methods
    (["gain", "--n-ris", "64"], "trails = 1\nmethod = sa rmo", "trails"),
    (["gain", "--n-ris", "64", "--trials", "1"], "scale = 0.5", "scale"),
    (["figure", "fig2a", "--trials", "1"], "preset = fig2b", "preset"),
], ids=["misspelt", "scale-in-gain", "preset"])
def test_a_config_key_that_names_no_option_is_a_clean_error(tmp_path, capsys,
                                                            argv, ini, key):
    err = refusal(tmp_path, capsys, argv, ini)
    assert len(err) == 1
    assert err[0].startswith(f"error: config key {key!r} is not an option of "
                             f"risopt {argv[0]}; known: ")
    assert "trials" in err[0]


@pytest.mark.parametrize("line, key, value", [
    ("trials = x", "trials", "'x'"),
    ("n_ris = 32 4o", "n_ris", "'4o'"),
])
def test_config_bad_value_names_its_key(tmp_path, capsys, line, key, value):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[risopt]\n{line}\n")
    code = run_main(["capacity", "--n-ris", "32", "--config", str(cfg),
                     "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: config key '{key}': ")
    assert err[0].endswith(value)
    assert not list(tmp_path.glob("*.csv"))


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


def test_config_missing_section(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[other]\nn_ris = 8\n")
    assert run_main(["capacity", "--config", str(cfg)]) == 2


def test_bad_k_db_count(tmp_path):
    code = run_main(["capacity", "--n-ris", "32", "--k-db", "1", "2", "3",
                     "--out", str(tmp_path)])
    assert code == 2
    cfg = tmp_path / "empty_k.ini"
    cfg.write_text("[risopt]\nk_db =\n")
    assert run_main(["capacity", "--n-ris", "32", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "risopt.cli", "validate"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert "all checks passed" in proc.stdout


def test_unknown_preset_rejected_by_parser(capsys):
    with pytest.raises(SystemExit):
        run_main(["figure", "fig7q"])
