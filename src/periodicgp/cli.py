"""Command-line interface: reproducible simulation, transforms, fitting, checks.

Every command is deterministic given its flags; randomness flows from the
single --seed flag and nothing else.  When --seed is omitted an entropy
seed is drawn once and printed so the run can be reproduced.  Exit codes:
0 ok, 2 usage, 3 aliasing, 4 invalid spectrum, 5 degenerate data.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

import numpy as np

from . import bridge, dft, fit, regularity, spectral, synthesis
from .core import (
    AliasingError,
    DegenerateDataError,
    GridPath,
    ParametricModel,
    PathEnsemble,
    SpectrumError,
    read_coefficients,
    read_paths_csv,
    write_coefficients,
    write_json,
    write_paths_csv,
    write_table_csv,
)

_BRIDGE_CLI_NAMES = {v.replace("_", "-"): v for v in bridge.VARIANTS}


def _resolve_seed(seed) -> int:
    if seed is not None:
        return int(seed)
    drawn = int.from_bytes(os.urandom(8), "big") >> 1
    print(f"seed {drawn}")
    return drawn


def _auto_truncation(coeffs, n: int, eps, trunc) -> int:
    """Explicit --trunc wins (and may alias, loudly); --eps asks for the minimal
    truncation meeting that tail budget, which must fit below Nyquist; otherwise
    fill that band so downstream harmonic fits see every frequency they inspect."""
    if trunc is not None:
        return int(trunc)
    cap = n // 2 - 1
    if eps is not None:
        K = synthesis.truncation_index(coeffs, eps)
        if K > cap:
            raise AliasingError(f"--eps {eps:g} needs truncation K={K}; n={n} holds K <= {cap}")
        return K
    if coeffs.declared_tail is None:
        return min(coeffs.support, cap)
    return cap


def cmd_simulate(args) -> None:
    seed = _resolve_seed(args.seed)
    n, R = args.n, args.paths
    meta = {
        "command": "simulate",
        "model": args.model,
        "n": n,
        "paths": R,
        "seed": seed,
        "eps": args.eps,
    }
    if args.model == "param":
        if args.a is None or args.p is None:
            raise ValueError("--model param needs --a and --p")
        model = ParametricModel(args.a, args.p)
        probe = fit.model_coefficients(model, 1)
        K = _auto_truncation(probe, n, args.eps, args.trunc)
        coeffs = fit.model_coefficients(model, max(K, 1))
        ensemble = synthesis.sample_ensemble(coeffs, K, n, R, seed)
        meta.update(a=args.a, p=args.p, truncation=K)
    elif args.model == "coeffs":
        if args.coeffs is None:
            raise ValueError("--model coeffs needs --coeffs FILE")
        coeffs = read_coefficients(args.coeffs)
        K = _auto_truncation(coeffs, n, args.eps, args.trunc)
        ensemble = synthesis.sample_ensemble(coeffs, K, n, R, seed)
        meta.update(coeffs_file=args.coeffs, truncation=K)
    elif args.model.startswith("bridge:"):
        name = args.model.split(":", 1)[1]
        if name not in _BRIDGE_CLI_NAMES:
            raise ValueError(f"unknown bridge variant {name!r}; "
                             f"choose from {', '.join(_BRIDGE_CLI_NAMES)}")
        if args.eps is not None:
            raise ValueError("--eps does not apply to bridge models; use --trunc")
        variant = _BRIDGE_CLI_NAMES[name]
        ensemble = bridge.bridge_ensemble(variant, R, n, seed, M=args.trunc)
        meta.update(variant=name,
                    truncation=bridge.resolve_truncation(variant, n, args.trunc))
    else:
        raise ValueError("--model must be param, coeffs, or bridge:<variant>")
    write_paths_csv(ensemble.values, f"{args.out}.csv")
    write_json(meta, f"{args.out}.meta.json")


def cmd_transform(args) -> None:
    if args.direction == "c2g":
        c = read_coefficients(args.infile)
        g = spectral.coeffs_to_covariogram(c, args.grid)
        spectral.write_covariogram_csv(g, args.out)
        if args.check:
            back = spectral.covariogram_to_coeffs(g, K=c.support, n=args.grid)
            orig = np.concatenate(([c.c0], c.c))
            rec = np.concatenate(([back.c0], back.c))
            residual = float(np.linalg.norm(rec - orig) / np.linalg.norm(orig))
            write_json({"round_trip_residual": residual}, f"{args.out}.check.json")
    elif args.direction == "g2c":
        g = spectral.read_covariogram_csv(args.infile)
        K = args.K if args.K is not None else min(64, g.n // 2 - 1)
        c = spectral.covariogram_to_coeffs(g, K=K, n=g.n)
        write_coefficients(c, args.out)
        if args.check:
            back = spectral.coeffs_to_covariogram(c, g.n)
            residual = float(np.linalg.norm(back.values - g.values)
                             / max(np.linalg.norm(g.values), 1e-300))
            write_json({"round_trip_residual": residual}, f"{args.out}.check.json")
    else:
        raise ValueError("--direction must be c2g or g2c")


def _load_single_path(infile: str, column: int) -> GridPath:
    t, values = read_paths_csv(infile)
    if not (0 <= column < values.shape[0]):
        raise ValueError(f"column {column} out of range, file has {values.shape[0]}")
    return GridPath(t.size, values[column])


def cmd_fit(args) -> None:
    path = _load_single_path(args.infile, args.column)
    result = fit.fit_mle(path, K=args.K, p_bounds=(args.p_min, args.p_max))
    h = dft.analyze(path)
    residuals = fit.standardized_residuals(h, result)
    report = fit.residual_report(residuals)
    write_json({"fit": asdict(result), "goodness": asdict(report)}, f"{args.out}.json")
    K = result.K_used
    write_table_csv("k,sin,cos,residual",
                    [np.arange(1.0, K + 1), h.sin_coef[:K], h.cos_coef[:K], residuals],
                    f"{args.out}.residuals.csv")


def cmd_regularity(args) -> None:
    if (args.coeffs is None) == (args.infile is None):
        raise ValueError("give exactly one of --coeffs or --in")
    if args.coeffs is not None:
        if args.coeffs == "bridge":
            c = bridge.centered_bridge_coefficients()
        else:
            c = read_coefficients(args.coeffs)
        k_max = args.k_max if args.k_max is not None else c.support
        decay = regularity.fit_decay(c, k_min=args.k_min, k_max=k_max)
        report = regularity.predict_regularity(decay.q)
        write_json({
            **asdict(report),
            "diagnostics": {
                "k_min": args.k_min,
                "k_max": k_max,
                "constant": decay.constant,
                "residual": decay.residual,
            },
        }, args.out)
    else:
        t, values = read_paths_csv(args.infile)
        ensemble = PathEnsemble(t.size, values)
        est = regularity.estimate_holder(ensemble)
        write_json({
            "holder_estimate": est.exponent,
            "stderr": est.stderr,
            "raw_slope": est.raw_slope,
            "raw_slope_stderr": est.raw_slope_stderr,
            "flag": est.flag,
            "lags": list(est.lags),
        }, args.out)


def cmd_bridge_check(args) -> None:
    rep = bridge.decomposition_check(args.R, args.n, M=args.M, master_seed=args.seed)
    identity = []
    identity_ok = True
    for k in (1, 2, 3):
        check = bridge.proof_identity(k, args.terms)
        ok = check.gap < 1e-6
        identity_ok = identity_ok and ok
        identity.append({
            "k": k,
            "partial_sum": check.partial_sum,
            "target": check.target,
            "gap": check.gap,
            "pass": ok,
        })
    payload = {
        "decomposition": asdict(rep),
        "identity": identity,
        "passed": rep.passed and identity_ok,
    }
    write_json(payload, args.out)
    print(f"mean-offset variance: {'PASS' if rep.var_ok else 'FAIL'}")
    print(f"residual covariogram: {'PASS' if rep.cov_ok else 'FAIL'}")
    print(f"offset-residual independence: {'PASS' if rep.corr_ok else 'FAIL'}")
    print(f"series identity: {'PASS' if identity_ok else 'FAIL'}")


def cmd_sweep(args) -> None:
    seed = _resolve_seed(args.seed)
    try:
        p_list = sorted({float(tok) for tok in args.p_list.split(",") if tok.strip()})
    except ValueError:
        raise ValueError(f"--p-list must be comma-separated numbers, got {args.p_list!r}") from None
    if not p_list:
        raise ValueError("--p-list is empty")
    n = args.n
    K = max(_auto_truncation(fit.model_coefficients(ParametricModel(args.a, p), 1),
                             n, args.eps, args.trunc) for p in p_list)
    # one shared draw block: every column sees the same (Y, Y') event
    columns = []
    for p in p_list:
        coeffs = fit.model_coefficients(ParametricModel(args.a, p), max(K, 1))
        path = synthesis.sample_path(coeffs, K, n, synthesis.RngStream(seed, 0))
        columns.append(path.values)
    write_table_csv("t," + ",".join(f"x_p{p:g}" for p in p_list),
                    [np.arange(n) / n, *columns], f"{args.out}.csv")
    write_json({
        "command": "sweep",
        "a": args.a,
        "p_list": p_list,
        "n": n,
        "seed": seed,
        "eps": args.eps,
        "truncation": K,
    }, f"{args.out}.meta.json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="periodicgp",
        description="Periodic stationary Gaussian processes: simulate, transform, fit.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="sample replicate paths to CSV")
    sim.add_argument("--model", required=True,
                     help="param | coeffs | bridge:plain | bridge:centered-shift | "
                          "bridge:centralized | bridge:centered-series")
    sim.add_argument("--a", type=float, help="amplitude for --model param")
    sim.add_argument("--p", type=float, help="decay exponent for --model param")
    sim.add_argument("--coeffs", help="coefficient JSON for --model coeffs")
    sim.add_argument("--n", type=int, default=1024, help="grid size (power of two)")
    sim.add_argument("--paths", type=int, default=1, help="replicate count")
    sim.add_argument("--seed", type=int, help="master seed; drawn and printed if omitted")
    sim.add_argument("--eps", type=float,
                     help="relative tail energy for minimal truncation (series "
                          "models only); default fills the band below Nyquist")
    sim.add_argument("--trunc", type=int,
                     help="explicit truncation (series harmonics, or sine modes for bridges)")
    sim.add_argument("--out", required=True, help="output prefix: writes .csv and .meta.json")
    sim.set_defaults(func=cmd_simulate)

    tr = sub.add_parser("transform", help="covariogram <-> coefficient transforms")
    tr.add_argument("--direction", required=True, choices=("c2g", "g2c"))
    tr.add_argument("--in", dest="infile", required=True, help="input file")
    tr.add_argument("--out", required=True, help="output file")
    tr.add_argument("--K", type=int, help="harmonics to extract (g2c), default min(64, n/2-1)")
    tr.add_argument("--grid", type=int, default=spectral.DEFAULT_QUADRATURE_GRID,
                    help="grid size for c2g output")
    tr.add_argument("--check", action="store_true",
                    help="also write a round-trip residual to OUT.check.json")
    tr.set_defaults(func=cmd_transform)

    ft = sub.add_parser("fit", help="maximum-likelihood (a, p) from a path CSV")
    ft.add_argument("--in", dest="infile", required=True, help="path CSV")
    ft.add_argument("--column", type=int, default=0, help="replicate column to fit")
    ft.add_argument("--K", type=int, help="harmonics in the likelihood, default n/4")
    ft.add_argument("--p-min", type=float, default=fit.DEFAULT_P_BOUNDS[0])
    ft.add_argument("--p-max", type=float, default=fit.DEFAULT_P_BOUNDS[1])
    ft.add_argument("--out", required=True,
                    help="output prefix: writes .json and .residuals.csv")
    ft.set_defaults(func=cmd_fit)

    rg = sub.add_parser("regularity", help="predicted or estimated path regularity")
    rg.add_argument("--coeffs",
                    help="coefficient JSON, or the literal 'bridge' for the centered bridge")
    rg.add_argument("--in", dest="infile", help="ensemble CSV for empirical estimation")
    rg.add_argument("--k-min", type=int, default=1)
    rg.add_argument("--k-max", type=int)
    rg.add_argument("--out", required=True, help="output JSON file")
    rg.set_defaults(func=cmd_regularity)

    bc = sub.add_parser("bridge-check",
                        help="decomposition and series-identity checks for the centered bridge")
    bc.add_argument("--R", type=int, default=20000, help="replicates")
    bc.add_argument("--n", type=int, default=1024, help="grid size")
    bc.add_argument("--M", type=int, help="sine modes, default n/2")
    bc.add_argument("--seed", type=int, default=0)
    bc.add_argument("--terms", type=int, default=10 ** 6, help="identity partial-sum length")
    bc.add_argument("--out", required=True, help="output JSON file")
    bc.set_defaults(func=cmd_bridge_check)

    sw = sub.add_parser("sweep",
                        help="one path per p over a shared Gaussian event, wide CSV")
    sw.add_argument("--p-list", required=True, help="comma-separated decay exponents")
    sw.add_argument("--a", type=float, default=1.0)
    sw.add_argument("--n", type=int, default=1024)
    sw.add_argument("--seed", type=int)
    sw.add_argument("--eps", type=float,
                    help="relative tail energy for minimal truncation; "
                         "default fills the band below Nyquist")
    sw.add_argument("--trunc", type=int,
                    help="shared truncation; default fills the band below Nyquist")
    sw.add_argument("--out", required=True, help="output prefix: writes .csv and .meta.json")
    sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        return 0
    except AliasingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SpectrumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
