"""Command line front end for the experiment harness.

Subcommands: figure (named preset), spectrum / gain / capacity (custom
grids), bench-runtime, and validate (fast self-checks).  An argument
`@FILE` stands for the arguments in FILE, split on whitespace, and a
later argument overrides an earlier one.  All angles of randomness
flow from --seed, so a command line is a reproducible artifact.  Usage
errors print a single machine-parsable line `error: <msg>` on stderr
and exit with status 2.  A run whose rows record a trial error writes
its files, then prints one such line and exits with status 1.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

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

    p_val = sub.add_parser("validate",
                           help="fast numerical self-checks (no files)")
    p_val.add_argument("--seed", type=int, default=0)
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


def _cmd_validate(seed: int) -> int:
    """Small oracle suite; prints one line per check."""
    from .alignment import brute_force_value, sign_align
    from .capacity import allocate_sca, water_level_bisect, water_level_solve
    from .manifold import (euclidean_gradient, finite_difference_error,
                           riemannian_gradient)
    from .spectral import laguerre_top_roots

    rng = np.random.default_rng(seed)
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'ok' if ok else 'FAIL'}: {name}")
        failures += 0 if ok else 1

    # sign alignment vs exhaustive search on short vectors
    ok = True
    for _ in range(20):
        n = int(rng.integers(2, 9))
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        best = brute_force_value(b)
        got = sign_align(b).achieved_value
        ok &= got <= best + 1e-9 and got >= 0.5 * np.sum(np.abs(b)) - 1e-9
    check("sign alignment within brute-force envelope", ok)

    # closed-form quadrature roots for the (4, 2) pair: 6 - 4y + y^2/2
    # has roots y in {2, 6}, mapped through (y - 4) / (2 sqrt(8))
    roots = laguerre_top_roots(4, 2)
    expect = np.array([-1.0, 1.0]) / (2.0 * 2.0 ** 0.5)
    check("quadrature roots (4,2) match closed form",
          bool(np.allclose(np.sort(roots), np.sort(expect), atol=1e-12)))

    # water level against bisection on the weighted budget equation
    gains = rng.uniform(0.5, 4.0, size=6)
    weights = rng.uniform(0.1, 1.0, size=6)
    budget = 2.0
    eta = water_level_solve(gains, weights, budget)
    reference = water_level_bisect(gains, weights, budget)
    check("water level matches bisection",
          abs(1.0 / eta - 1.0 / reference) < 1e-6)

    # sqrt-allocation fixed point keeps the budget feasible
    plan = allocate_sca(np.array([3.0, 2.0, 1.0]),
                        np.array([2.5, 1.5, 1.0]), 10.0, 4)
    check("sqrt allocation satisfies its budget",
          float(np.sum(np.sqrt(plan.fractions))) <= 1.0 + 1e-9)

    # gradients against central finite differences
    n_r, n_s, n_t = 4, 5, 4
    a = rng.normal(size=(n_r, n_s)) + 1j * rng.normal(size=(n_r, n_s))
    t = rng.normal(size=(n_s, n_t)) + 1j * rng.normal(size=(n_s, n_t))
    theta = rng.uniform(-np.pi, np.pi, size=n_s)
    phi = np.exp(1j * theta)
    for objective in ("gain", "capacity_exact", "capacity_surrogate"):
        rel = finite_difference_error(objective, a, t, phi, snr=5.0)
        check(f"{objective} gradient matches finite differences", rel < 1e-5)
        g = euclidean_gradient(objective, a, t, phi, snr=5.0)
        xi = riemannian_gradient(g, phi)
        tangency = float(np.max(np.abs((xi * phi.conj()).real)))
        check(f"{objective} projected gradient is tangent", tangency < 1e-9)

    print(f"validate: {'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    return 0 if failures == 0 else 1


def parse_and_dispatch(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return _cmd_validate(args.seed)
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
