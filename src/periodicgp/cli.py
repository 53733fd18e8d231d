"""Command-line interface: reproducible simulation, transforms, fitting, checks.

Every command is deterministic given its flags; randomness flows from the
single --seed flag and nothing else.  When --seed is omitted an entropy
seed is drawn once and printed so the run can be reproduced.  Exit codes:
0 ok, 2 usage, 3 aliasing, 4 invalid spectrum, 5 degenerate data.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict

import numpy as np

from . import bridge, fit, regularity, spectral, synthesis
from .core import (
    AliasingError,
    DegenerateDataError,
    GridPath,
    ParametricModel,
    PathEnsemble,
    SpectrumError,
    check_grid,
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
    """At most one of --trunc (explicit, may alias, loudly) and --eps (the minimal
    truncation meeting that tail budget, which must fit below Nyquist); with neither,
    fill that band so downstream harmonic fits see every frequency they inspect."""
    if eps is not None and trunc is not None:
        raise ValueError("give at most one of --eps or --trunc")
    check_grid(n)  # before the cap n/2 - 1 is read as a truncation limit
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


def _refuse_flags(args, context: str, *flags: str) -> None:
    """Exit 2 on a flag that has no effect in this context rather than ignore it."""
    for flag in flags:
        if getattr(args, flag.lstrip("-")) is not None:
            raise ValueError(f"{flag} does not apply to {context}")


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
    if args.model.startswith("bridge:"):
        name = args.model.split(":", 1)[1]
        _refuse_flags(args, "bridge models", "--eps", "--a", "--p", "--coeffs")
        variant = _BRIDGE_CLI_NAMES[name]
        ensemble = bridge.bridge_ensemble(variant, R, n, seed, M=args.trunc)
        meta.update(variant=name,
                    truncation=bridge.resolve_truncation(variant, n, args.trunc))
    else:
        if args.model == "param":
            _refuse_flags(args, "--model param", "--coeffs")
            if args.a is None or args.p is None:
                raise ValueError("--model param needs --a and --p")
            # the declared tail supplies a / k**p beyond k = 1
            coeffs = fit.model_coefficients(ParametricModel(args.a, args.p), 1)
            meta.update(a=args.a, p=args.p)
        else:  # coeffs, the only other choice the parser admits
            _refuse_flags(args, "--model coeffs", "--a", "--p")
            if args.coeffs is None:
                raise ValueError("--model coeffs needs --coeffs FILE")
            coeffs = read_coefficients(args.coeffs)
            meta.update(coeffs_file=args.coeffs)
        K = meta["truncation"] = _auto_truncation(coeffs, n, args.eps, args.trunc)
        ensemble = synthesis.sample_ensemble(coeffs, K, n, R, seed)
    write_paths_csv(ensemble.values, f"{args.out}.csv")
    write_json(meta, f"{args.out}.meta.json")


def _relative_residual(back: np.ndarray, orig: np.ndarray) -> float:
    """||back - orig|| / max(||orig||, 1e-300), both scaled by one power of two so that no
    square overflows: the scaling is exact, so the ratio keeps its bits."""
    e = -np.frexp(max(np.abs(back).max(), np.abs(orig).max()))[1]
    back, orig = np.ldexp(back, e), np.ldexp(orig, e)
    return float(np.linalg.norm(back - orig) / max(np.linalg.norm(orig), np.ldexp(1e-300, e)))


def cmd_transform(args) -> None:
    if args.direction == "c2g":
        _refuse_flags(args, "--direction c2g", "--K")
        grid = args.grid if args.grid is not None else spectral.DEFAULT_QUADRATURE_GRID
        c = read_coefficients(args.infile)
        result, write = spectral.coeffs_to_covariogram(c, grid), spectral.write_covariogram_csv
        if args.check:
            back = spectral.covariogram_to_coeffs(result, K=c.support)
            pair = [np.concatenate(([x.c0], x.c)) for x in (back, c)]
    else:  # g2c, the only other choice the parser admits
        _refuse_flags(args, "--direction g2c (the grid comes from the input file)", "--grid")
        g = spectral.read_covariogram_csv(args.infile)
        K = args.K if args.K is not None else min(64, g.n // 2 - 1)
        result, write = spectral.covariogram_to_coeffs(g, K=K), write_coefficients
        if args.check:
            pair = [spectral.coeffs_to_covariogram(result, g.n).values, g.values]
    residual = _relative_residual(*pair) if args.check else None  # before any file is opened
    write(result, args.out)
    if args.check:
        write_json({"round_trip_residual": residual}, f"{args.out}.check.json")


def cmd_fit(args) -> None:
    t, values = read_paths_csv(args.infile, args.column)
    path = GridPath(t.size, values[0])
    result = fit.fit_mle(path, K=args.K, p_bounds=(args.p_min, args.p_max))
    K = result.K_used
    h, T = fit._observe(path, K)  # fit_mle's analysis of this path, not a second one
    residuals = fit._residuals(T, result)
    report = fit.residual_report(residuals)
    write_json({"fit": asdict(result), "goodness": asdict(report)}, f"{args.out}.json")
    write_table_csv("k,sin,cos,residual",
                    [np.arange(1.0, K + 1), h.sin_coef[:K], h.cos_coef[:K], residuals],
                    f"{args.out}.residuals.csv")


def cmd_regularity(args) -> None:
    if (args.coeffs is None) == (args.infile is None):
        raise ValueError("give exactly one of --coeffs or --in")
    if args.infile is not None and (args.k_min, args.k_max) != (None, None):
        raise ValueError("--k-min and --k-max apply only to --coeffs")
    if args.coeffs is not None:
        if args.coeffs == "bridge":
            c = bridge.centered_bridge_coefficients()
        else:
            c = read_coefficients(args.coeffs)
        k_min = args.k_min if args.k_min is not None else 1
        k_max = args.k_max if args.k_max is not None else c.support
        decay = regularity.fit_decay(c, k_min=k_min, k_max=k_max)
        report = regularity.predict_regularity(decay.q)
        write_json({
            **asdict(report),
            "diagnostics": {
                "k_min": k_min,
                "k_max": k_max,
                "constant": decay.constant,
                "residual": decay.residual,
            },
        }, args.out)
    else:
        t, values = read_paths_csv(args.infile)
        ensemble = PathEnsemble(t.size, values)
        est = asdict(regularity.estimate_holder(ensemble))
        est["holder_estimate"] = est.pop("exponent")
        write_json(est, args.out)


def cmd_bridge_check(args) -> None:
    rep = bridge.decomposition_check(args.R, args.n, M=args.M, master_seed=args.seed)
    checks = {k: bridge.proof_identity(k, args.terms) for k in (1, 2, 3)}
    identity = [{"k": k, **check._asdict(), "pass": check.gap < 1e-6}
                for k, check in checks.items()]
    identity_ok = all(row["pass"] for row in identity)
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
    models = [fit.model_coefficients(ParametricModel(args.a, p), 1) for p in p_list]
    K = max(_auto_truncation(c, n, args.eps, args.trunc) for c in models)
    # one shared draw block: every column sees the same (Y, Y') event
    columns = [synthesis.sample_path(c, K, n, synthesis.RngStream(seed, 0)).values
               for c in models]
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
                     choices=["param", "coeffs", *("bridge:" + name for name in _BRIDGE_CLI_NAMES)])
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

    tr = sub.add_parser("transform", help="covariogram <-> coefficient transforms")
    tr.add_argument("--direction", required=True, choices=("c2g", "g2c"))
    tr.add_argument("--in", dest="infile", required=True, help="input file")
    tr.add_argument("--out", required=True, help="output file")
    tr.add_argument("--K", type=int, help="harmonics to extract (g2c), default min(64, n/2-1)")
    tr.add_argument("--grid", type=int,
                    help=f"grid size for c2g output, default {spectral.DEFAULT_QUADRATURE_GRID}")
    tr.add_argument("--check", action="store_true",
                    help="also write a round-trip residual to OUT.check.json")

    ft = sub.add_parser("fit", help="maximum-likelihood (a, p) from a path CSV")
    ft.add_argument("--in", dest="infile", required=True, help="path CSV")
    ft.add_argument("--column", type=int, default=0,
                    help="replicate column to fit; only t and this column are converted, "
                         "and every row must have the first data row's field count")
    ft.add_argument("--K", type=int, help="harmonics in the likelihood, default n/4")
    ft.add_argument("--p-min", type=float, default=fit.DEFAULT_P_BOUNDS[0])
    ft.add_argument("--p-max", type=float, default=fit.DEFAULT_P_BOUNDS[1])
    ft.add_argument("--out", required=True,
                    help="output prefix: writes .json and .residuals.csv")

    rg = sub.add_parser("regularity", help="predicted or estimated path regularity")
    rg.add_argument("--coeffs",
                    help="coefficient JSON, or the literal 'bridge' for the centered bridge")
    rg.add_argument("--in", dest="infile", help="ensemble CSV for empirical estimation")
    rg.add_argument("--k-min", type=int, help="first harmonic fitted (--coeffs only), default 1")
    rg.add_argument("--k-max", type=int, help="last harmonic fitted (--coeffs only), default all")
    rg.add_argument("--out", required=True, help="output JSON file")

    bc = sub.add_parser("bridge-check",
                        help="decomposition and series-identity checks for the centered bridge")
    bc.add_argument("--R", type=int, default=20000, help="replicates")
    bc.add_argument("--n", type=int, default=1024, help="grid size")
    bc.add_argument("--M", type=int, help="sine modes, default n/2")
    bc.add_argument("--seed", type=int, default=0)
    bc.add_argument("--terms", type=int, default=10 ** 6, help="identity partial-sum length")
    bc.add_argument("--out", required=True, help="output JSON file")

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
    return parser


_parser = functools.cache(build_parser)  # built on the first main call, not at import


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up per call, not held by the cached parser, so a rebound cmd_* is reached
        globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        codes = {AliasingError: 3, SpectrumError: 4, DegenerateDataError: 5}
        return next((code for cls, code in codes.items() if isinstance(exc, cls)), 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
