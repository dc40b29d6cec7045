"""Command line front end for the experiment harness.

Subcommands: figure (named preset), spectrum / gain / capacity (custom
grids) and bench-runtime.  An argument `@FILE` stands for the arguments
in FILE, split on whitespace, and a later argument overrides an earlier
one.  All angles of randomness flow from --seed, so a command line is a
reproducible artifact.  Usage errors print a single machine-parsable
line `error: <msg>` on stderr and exit with status 2.  A run whose rows
record a trial error writes its files, then prints one such line and
exits with status 1.
"""

from __future__ import annotations

import argparse
import sys

from .harness import bench_runtime, preset_names, preset_spec, run_experiment

class _Parser(argparse.ArgumentParser):
    """Raises each usage error, for main to print as one `error:` line."""

    def error(self, message):
        raise ValueError(message)


def _add_common(parser: argparse.ArgumentParser, runs_trials: bool) -> None:
    parser.add_argument("--seed", type=int, default=None)
    if runs_trials:                # bench-runtime times one instance per point
        parser.add_argument("--trials", type=int, default=None)
        parser.add_argument("--workers", type=int, default=None,
                            help="trial-level parallelism; results are "
                                 "identical for any value")
    parser.add_argument("--out", default=None,
                        help="output directory (default: results)")
    parser.add_argument("--out-stem", default=None)


def _add_grid(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-ris", dest="n_ris_list", type=int, nargs="+",
                        default=None, help="RIS element counts")
    parser.add_argument("--nt", dest="n_t", type=int, default=None)
    parser.add_argument("--nr", dest="n_r", type=int, default=None)
    parser.add_argument("--k-db", type=float, nargs="+", default=None,
                        help="K-factor in dB: transmit, then receive if it "
                             "differs")
    parser.add_argument("--snr-db", type=float, default=None)
    # no choices: the spec checks names for flags and library calls alike
    parser.add_argument("--methods", nargs="+", default=None)
    parser.add_argument("--rmo-iters", dest="rmo_max_iters", type=int,
                        default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="risopt", fromfile_prefix_chars="@",
                     description="1-bit RIS gain/capacity experiments")
    parser.convert_arg_line_to_args = str.split
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text, presets in (
            ("figure", "run a named figure preset", preset_names("fig")),
            ("spectrum", "empirical vs predicted singular spectrum", None),
            ("gain", "channel-gain methods vs the bound", None),
            ("capacity", "capacity methods comparison", None),
            ("bench-runtime", "wall-clock benchmarks",
             preset_names("runtime-"))):
        p = sub.add_parser(command, help=help_text)
        if presets:
            p.add_argument("preset", choices=presets)
            p.add_argument("--scale", type=float, default=None,
                           help="multiplier on the element-count grid")
        _add_common(p, runs_trials=command != "bench-runtime")
        _add_grid(p)
    return parser


def _spec_and_out(args: argparse.Namespace):
    """The preset's spec with the given flags on top; and the output
    directory."""
    opts = {key: val for key, val in vars(args).items()
            if val is not None and key not in ("command", "preset")}
    out_dir = opts.pop("out", "results")
    if "k_db" in opts:             # transmit side, then receive side if given
        k_db = opts.pop("k_db")
        if len(k_db) > 2:
            raise ValueError("--k-db takes one or two values")
        opts.update(zip(("k_t_db", "k_r_db"), k_db))
    preset = getattr(args, "preset", None) or f"custom-{args.command}"
    return preset_spec(preset, **opts), out_dir


def parse_and_dispatch(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec, out_dir = _spec_and_out(args)
    runtime = args.command == "bench-runtime"
    result = bench_runtime(spec) if runtime else run_experiment(spec)
    for label, path in result.write(out_dir).items():
        print(f"{label}: {path}")
    errors = [row["error"] for row in result.rows if row.get("error")]
    if errors:
        print(f"error: {len(errors)} of {len(result.rows)} trials recorded "
              f"an error; first: {errors[0].rstrip('; ')}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    try:
        return parse_and_dispatch(argv)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
