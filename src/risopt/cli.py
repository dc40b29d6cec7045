"""Command line front end for the experiment harness.

Subcommands: figure (named preset), spectrum / gain / capacity (custom
grids), bench-runtime, and validate (fast self-checks).  Options can
come from an INI config file; explicit flags override it.  All angles
of randomness flow from --seed, so a command line is a reproducible
artifact.  Errors print a single machine-parsable line `error: <msg>`
on stderr and exit with status 2.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

import numpy as np

from .harness import (ALL_METHODS, FIGURE_PRESETS, RUNTIME_PRESETS,
                      ExperimentSpec, bench_runtime, preset_spec,
                      run_experiment)

_CONFIG_SECTION = "risopt"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI file with a [risopt] section")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--out", default=None,
                        help="output directory (default: results)")
    parser.add_argument("--threads", "--workers", dest="workers", type=int,
                        default=None,
                        help="trial-level parallelism (also RISOPT_WORKERS); "
                             "results are identical for any value")
    parser.add_argument("--out-stem", default=None)


def _add_grid(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-ris", type=int, nargs="+", default=None,
                        help="RIS element counts")
    parser.add_argument("--nt", type=int, default=None)
    parser.add_argument("--nr", type=int, default=None)
    parser.add_argument("--k-db", type=float, nargs="+", default=None,
                        help="K-factor in dB: one value for both sides "
                             "or transmit then receive")
    parser.add_argument("--snr-db", type=float, default=None)
    parser.add_argument("--methods", nargs="+", default=None,
                        choices=list(ALL_METHODS))
    parser.add_argument("--arrangement", default=None,
                        choices=["contiguous", "interleaved", "random"])
    parser.add_argument("--rmo-iters", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risopt",
        description="1-bit RIS gain/capacity experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure", help="run a named figure preset")
    p_fig.add_argument("preset", choices=list(FIGURE_PRESETS) + ["fig2b-full"])
    p_fig.add_argument("--scale", type=float, default=1.0,
                       help="multiplier on the element-count grid")
    _add_common(p_fig)
    _add_grid(p_fig)

    p_spec = sub.add_parser("spectrum",
                            help="empirical vs predicted singular spectrum")
    _add_common(p_spec)
    _add_grid(p_spec)

    p_gain = sub.add_parser("gain", help="channel-gain methods vs the bound")
    _add_common(p_gain)
    _add_grid(p_gain)

    p_cap = sub.add_parser("capacity", help="capacity methods comparison")
    _add_common(p_cap)
    _add_grid(p_cap)

    p_rt = sub.add_parser("bench-runtime", help="wall-clock benchmarks")
    p_rt.add_argument("preset", choices=list(RUNTIME_PRESETS))
    p_rt.add_argument("--scale", type=float, default=1.0)
    _add_common(p_rt)
    _add_grid(p_rt)

    p_val = sub.add_parser("validate",
                           help="fast numerical self-checks (no files)")
    p_val.add_argument("--seed", type=int, default=0)
    return parser


def _load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise ValueError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    cp.read(path)
    if _CONFIG_SECTION not in cp:
        raise ValueError(f"config file missing [{_CONFIG_SECTION}] section")
    sec = cp[_CONFIG_SECTION]
    out: dict = {}
    for key in ("seed", "trials", "workers", "nt", "nr", "rmo_iters"):
        if key in sec:
            out[key] = sec.getint(key)
    for key in ("snr_db", "scale"):
        if key in sec:
            out[key] = sec.getfloat(key)
    for key in ("out", "arrangement", "out_stem"):
        if key in sec:
            out[key] = sec.get(key)
    if "n_ris" in sec:
        out["n_ris"] = [int(tok) for tok in sec.get("n_ris").split()]
    if "k_db" in sec:
        out["k_db"] = [float(tok) for tok in sec.get("k_db").split()]
    if "methods" in sec:
        out["methods"] = sec.get("methods").split()
    return out


def _merged(args: argparse.Namespace) -> dict:
    """Config-file values with explicit CLI flags layered on top."""
    merged: dict = {}
    if getattr(args, "config", None):
        merged.update(_load_config(args.config))
    for key, val in vars(args).items():
        if key in ("command", "config"):
            continue
        if val is not None:
            merged[key] = val
    return merged


def _split_k(k_db) -> tuple[float, float]:
    if k_db is None:
        return 0.0, 0.0
    if len(k_db) == 1:
        return float(k_db[0]), float(k_db[0])
    if len(k_db) == 2:
        return float(k_db[0]), float(k_db[1])
    raise ValueError("--k-db takes one or two values")


def _custom_spec(preset: str, opts: dict,
                 default_methods: tuple) -> ExperimentSpec:
    if not opts.get("n_ris"):
        raise ValueError("--n-ris is required (or set n_ris in the config)")
    k_t, k_r = _split_k(opts.get("k_db"))
    return ExperimentSpec(
        preset=preset,
        n_ris_list=tuple(opts["n_ris"]),
        n_t=opts.get("nt", 8),
        n_r=opts.get("nr", 8),
        k_t_db=k_t, k_r_db=k_r,
        snr_db=opts.get("snr_db", 10.0),
        trials=opts.get("trials", 50),
        seed=opts.get("seed", 0),
        methods=tuple(opts.get("methods", default_methods)),
        arrangement=opts.get("arrangement", "contiguous"),
        workers=opts.get("workers"),
        rmo_max_iters=opts.get("rmo_iters", 200),
        out_stem=opts.get("out_stem"))


def _preset_overrides(opts: dict) -> dict:
    """Translate CLI option names onto ExperimentSpec field overrides."""
    over: dict = {}
    mapping = {"seed": "seed", "trials": "trials", "workers": "workers",
               "nt": "n_t", "nr": "n_r", "snr_db": "snr_db",
               "arrangement": "arrangement", "rmo_iters": "rmo_max_iters",
               "out_stem": "out_stem"}
    for src, dst in mapping.items():
        if src in opts:
            over[dst] = opts[src]
    if "n_ris" in opts:
        over["n_ris_list"] = tuple(opts["n_ris"])
    if "k_db" in opts:
        k_t, k_r = _split_k(opts["k_db"])
        over["k_t_db"], over["k_r_db"] = k_t, k_r
    if "methods" in opts:
        over["methods"] = tuple(opts["methods"])
    return over


def _run_and_write(spec: ExperimentSpec, out_dir: str, runtime: bool) -> int:
    result = bench_runtime(spec) if runtime else run_experiment(spec)
    paths = result.write(out_dir)
    for label in ("csv", "aggregate_csv", "json"):
        print(f"{label}: {paths[label]}")
    return 0


def _cmd_validate(seed: int) -> int:
    """Small oracle suite; prints one line per check."""
    from itertools import product

    from .alignment import sign_align
    from .capacity import allocate_sca, water_level_solve
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
        best = max(abs(np.dot(np.array(s), b))
                   for s in product((1.0, -1.0), repeat=n))
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

    def spent(level):
        per = np.clip(level / weights - 1.0 / gains, 0.0, None)
        return float(np.sum(weights * per))
    lo, hi = 0.0, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if spent(mid) > budget:
            hi = mid
        else:
            lo = mid
    check("water level matches bisection", abs(1.0 / eta - lo) < 1e-6)

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
        rel = finite_difference_error(objective, a, t, phi, snr=5.0, n_t=n_t)
        check(f"{objective} gradient matches finite differences", rel < 1e-5)
        g = euclidean_gradient(objective, a, t, phi, snr=5.0, n_t=n_t)
        xi = riemannian_gradient(g, phi)
        tangency = float(np.max(np.abs((xi * phi.conj()).real)))
        check(f"{objective} projected gradient is tangent", tangency < 1e-9)

    print(f"validate: {'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    return 0 if failures == 0 else 1


def parse_and_dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "validate":
        return _cmd_validate(args.seed)
    opts = _merged(args)
    out_dir = opts.get("out", "results")
    if args.command == "figure":
        over = _preset_overrides(opts)
        spec = preset_spec(args.preset, scale=opts.get("scale", 1.0), **over)
        return _run_and_write(spec, out_dir, runtime=False)
    if args.command == "bench-runtime":
        over = _preset_overrides(opts)
        spec = preset_spec(args.preset, scale=opts.get("scale", 1.0), **over)
        return _run_and_write(spec, out_dir, runtime=True)
    defaults = {"spectrum": ("custom-spectrum", ()),
                "gain": ("custom-gain", ("sa", "lb")),
                "capacity": ("custom-capacity", ("wsa", "lb"))}
    preset, methods = defaults[args.command]
    spec = _custom_spec(preset, opts, methods)
    return _run_and_write(spec, out_dir, runtime=False)


def main(argv=None) -> int:
    try:
        return parse_and_dispatch(argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
