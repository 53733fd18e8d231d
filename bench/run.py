"""periodicgp benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload files|ensemble|fits --seed N --seconds S --trace 0|1

Run from the root of a source checkout; periodicgp is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics:
set-up time (fresh interpreters importing periodicgp.cli, spread over the
run), the median job time relative to the workload's calibration kernel
timed within the same job (see workloads.Clock) and peak resident memory.
With ``--trace 1`` each job runs twice, untraced and traced in alternating
order, and the per-layer metrics come from spans recorded around the calls
into each module (see spans.py).  Every job's outputs are checked outside
the timed region; a job whose check fails counts as failed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full record (environment,
per-job times and digests, run digest) goes to bench/out/, and a traced
run also writes its spans there.  bench/README.md describes the workloads,
checks and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 3
MIN_TIMED_JOBS = 3
THREAD_VARS = ("PERIODICGP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "job_rel": "1",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# (name, unit, better, source): source is (kind, key) over the trace summary
PER_LAYER = [
    *[(f"cli.{c}.self_s", "s", "lower", ("self", f"cli.{c}"))
      for c in ("simulate", "fit", "sweep", "regularity", "transform")],
    ("core.write_paths_csv.s", "s", "lower", ("incl", "core.write_paths_csv")),
    ("core.read_paths_csv.s", "s", "lower", ("incl", "core.read_paths_csv")),
    ("core.write_json.s", "s", "lower", ("incl", "core.write_json")),
    ("core.csv_bytes_written", "B", "lower", ("count", "core.csv_bytes_written")),
    ("core.csv_bytes_read", "B", "lower", ("count", "core.csv_bytes_read")),
    ("core.materialize.s", "s", "lower", ("incl", "core.materialize")),
    ("core.materialize.calls", "count", "lower", ("calls", "core.materialize")),
    ("core.validate.s", "s", "lower", ("incl", "core.validate")),
    ("dft.synthesize.s", "s", "lower", ("incl", "dft.synthesize")),
    ("dft.synthesize.calls", "count", "lower", ("calls", "dft.synthesize")),
    ("dft.analyze.s", "s", "lower", ("incl", "dft.analyze")),
    ("dft.analyze.calls", "count", "lower", ("calls", "dft.analyze")),
    ("dft.fft_points", "count", "lower", ("count", "dft.fft_points")),
    ("synthesis.sample_ensemble.self_s", "s", "lower", ("self", "synthesis.sample_ensemble")),
    ("synthesis.sample_path.self_s", "s", "lower", ("self", "synthesis.sample_path")),
    ("synthesis.rng_init.s", "s", "lower", ("incl", "synthesis.rng_init")),
    ("synthesis.paths", "count", "higher", ("count", "synthesis.paths")),
    ("synthesis.normals", "count", "lower", ("count", "synthesis.normals")),
    ("synthesis.direct_sum_paths", "count", "lower", ("count", "synthesis.direct_sum_paths")),
    ("synthesis.replicate_lag_products.s", "s", "lower",
     ("incl", "synthesis.replicate_lag_products")),
    ("synthesis.lag_product_rows", "count", "lower", ("count", "synthesis.lag_product_rows")),
    ("synthesis.empirical_covariogram.self_s", "s", "lower",
     ("self", "synthesis.empirical_covariogram")),
    ("synthesis.truncation_index.s", "s", "lower", ("incl", "synthesis.truncation_index")),
    ("bridge.bridge_ensemble.self_s", "s", "lower", ("self", "bridge.bridge_ensemble")),
    ("bridge.bridge_path.s", "s", "lower", ("incl", "bridge.bridge_path")),
    ("bridge.bridge_path.calls", "count", "lower", ("calls", "bridge.bridge_path")),
    ("bridge.plain_bridge_path.s", "s", "lower", ("incl", "bridge.plain_bridge_path")),
    ("bridge.direct_sum_paths", "count", "lower", ("count", "bridge.direct_sum_paths")),
    ("regularity.estimate_holder.self_s", "s", "lower", ("self", "regularity.estimate_holder")),
    ("regularity.structure_function.self_s", "s", "lower",
     ("self", "regularity.structure_function")),
    ("spectral.covariogram_to_coeffs.s", "s", "lower", ("incl", "spectral.covariogram_to_coeffs")),
    ("spectral.coeffs_to_covariogram.s", "s", "lower", ("incl", "spectral.coeffs_to_covariogram")),
    ("spectral.write_covariogram_csv.s", "s", "lower", ("incl", "spectral.write_covariogram_csv")),
    ("spectral.read_covariogram_csv.s", "s", "lower", ("incl", "spectral.read_covariogram_csv")),
    ("fit.fit_mle.s", "s", "lower", ("incl", "fit.fit_mle")),
    ("fit.iterations", "count", "lower", ("count", "fit.iterations")),
    ("fit.boundary_ratio", "1", "lower", ("ratio", ("fit.boundary", "fit.fits"))),
    ("fit.goodness_of_fit.self_s", "s", "lower", ("self", "fit.goodness_of_fit")),
    ("fit.harmonic_residuals.s", "s", "lower", ("incl", "fit.harmonic_residuals")),
    ("fit.model_coefficients.s", "s", "lower", ("incl", "fit.model_coefficients")),
    ("job_s.p50", "s", "lower", ("median", "seconds")),
    ("samples_per_s", "1/s", "higher", ("untraced", "samples")),
    ("csv_mb_per_s", "MB/s", "higher", ("untraced", "csv_bytes")),
    ("fits_per_s", "1/s", "higher", ("untraced", "fits")),
    ("share.csv", "1", "higher", ("share", "csv")),
    ("share.synthesis", "1", "higher", ("share", "synthesis")),
    ("share.fit", "1", "higher", ("share", "fit")),
    ("trace.overhead_ratio", "1", "lower", ("overhead", None)),
]

# span sets behind the design shares: the part of job time each kind of work takes
SYNTHESIS_SPANS = {"synthesis.sample_ensemble", "synthesis.sample_path", "synthesis.rng_init",
                   "dft.synthesize", "core.materialize"}


def _share_match(kind: str):
    if kind == "csv":
        return lambda name: "csv" in name
    if kind == "synthesis":
        return lambda name: name in SYNTHESIS_SPANS or name.startswith("bridge.")
    return lambda name: name.startswith("fit.") or name == "dft.analyze"


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def setup_import() -> float:
    """Wall seconds for a fresh interpreter to import periodicgp.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import periodicgp.cli"], env=env, cwd=ROOT,
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"fresh interpreter could not import periodicgp.cli:\n{proc.stderr}")
    return elapsed


def run_digest(records: list) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(r["digest"].encode())
    return h.hexdigest()


def end_to_end(records: list, setup: list) -> dict:
    timed = records[1:]
    return {
        "job_rel": statistics.median(r["relative"] for r in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }


def per_layer(plain: list, traced: list, tracer) -> dict:
    from spans import covered_ns, summarize
    summary = summarize(tracer.spans, tracer.counts)
    jobs = len(traced)
    traced_ns = sum(r["seconds"] for r in traced) * 1e9
    plain_s = sum(r["seconds"] for r in plain)
    out = {}
    for name, _, _, (kind, key) in PER_LAYER:
        if kind == "self":
            v = summary["self_ns"].get(key, 0) / 1e9 / jobs
        elif kind == "incl":
            v = summary["incl_ns"].get(key, 0) / 1e9 / jobs
        elif kind == "calls":
            v = summary["calls"].get(key, 0) / jobs
        elif kind == "count":
            v = summary["counters"].get(key, 0) / jobs
        elif kind == "ratio":
            num, den = (summary["counters"].get(k, 0) for k in key)
            v = num / den if den else 0.0
        elif kind == "median":
            v = statistics.median(r[key] for r in plain)
        elif kind == "untraced":
            v = sum(r[key] for r in plain) / plain_s / (1e6 if key == "csv_bytes" else 1.0)
        elif kind == "share":
            covered = covered_ns(tracer.spans, _share_match(key))
            if key == "csv":
                covered += sum(ns for n, ns in summary["self_ns"].items()
                               if n.startswith("cli.") and n != "cli.main")
            v = covered / traced_ns
        else:  # overhead
            v = (statistics.median(r["seconds"] for r in traced)
                 / statistics.median(r["seconds"] for r in plain))
        out[name] = v
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("files", "ensemble", "fits"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be nonnegative")
    if os.environ.get("PERIODICGP_THREADS") is not None:
        fail("PERIODICGP_THREADS is set; it selects another synthesis code path. Unset it.")
    if not (SRC / "periodicgp" / "__init__.py").is_file():
        fail(f"no periodicgp sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))

    from spans import Tracer
    from workloads import WORKLOADS, run_job
    env = environment()

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workload = WORKLOADS[args.workload](workdir)
    tracer = Tracer() if args.trace else None
    plain, traced = [], []
    setup = []
    try:
        if tracer is None:
            setup_import()  # warm-up: compiles bytecode and fills the page cache
        plain.append(run_job(workload, args.seed, 0))  # warm-up, not timed
        start = time.perf_counter()
        j = 1
        while j <= MIN_TIMED_JOBS or time.perf_counter() - start < args.seconds:
            # set-up imports spread evenly over the run, between jobs
            if tracer is None and (len(setup) < SETUP_REPEATS and time.perf_counter() - start
                                   >= len(setup) * args.seconds / SETUP_REPEATS):
                setup.append(setup_import())
            if tracer is None:
                plain.append(run_job(workload, args.seed, j))
            else:
                order = (None, tracer) if j % 2 else (tracer, None)
                for t in order:
                    (plain if t is None else traced).append(
                        run_job(workload, args.seed, j, t))
                if traced[-1]["digest"] != plain[-1]["digest"]:
                    traced[-1]["failures"].append("traced digest differs from untraced")
            j += 1
        while tracer is None and len(setup) < SETUP_REPEATS:
            setup.append(setup_import())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = plain + traced
    failed = sum(1 for r in records if r["failures"])
    if tracer is None:
        values = end_to_end(plain, setup)
        units = END_TO_END
    else:
        values = per_layer(plain[1:], traced, tracer)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")

    digest = run_digest(plain)
    median_job_s = statistics.median(r["seconds"] for r in plain[1:])
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_s": setup,
        "digest": digest, "traced_digest": run_digest(traced) if traced else None,
        "median_job_s": median_job_s,
        "jobs": [{k: r[k] for k in ("job", "traced", "seconds", "relative", "calibration_ns",
                                    "digest", "failures")} for r in records],
        "metrics": values,
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    for r in records:
        for msg in r["failures"]:
            print(f"job {r['job']}{' traced' if r['traced'] else ''} FAILED: {msg}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload}: {len(plain) - 1} timed jobs after 1 warm-up"
          + (f", {len(traced)} traced" if traced else "")
          + f", {len(setup)} set-up imports; median job {median_job_s:.4f} s; digest {digest}")
    for name, v in values.items():
        print(f"  {name} = {v!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
