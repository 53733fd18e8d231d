"""The three benchmark workloads: one job each, its output checks and digest.

Each workload is a closed loop of one client: the runner calls ``run`` for
job j = 0, 1, ... back to back, and ``finish`` after each job, outside the
timed region, to digest and check its outputs.
Job j derives every seed from (workload seed, j); periodicgp receives only
the generated inputs.  ``Clock`` times the library calls of a job and
nothing else, so hashing outputs and keeping spot-check rows between
calls costs no job time.

files     The CLI path users run: simulate -> regularity -> fit -> sweep ->
          transform c2g/g2c, in-process through cli.main.  CSV writing and
          reading do most of the work; reads sit beside writes.
ensemble  In-memory Monte Carlo of criteria 3, 4 and 7: full-band and
          truncated ensembles feeding estimate_holder and
          empirical_covariogram, then two bridge ensembles.  The
          truncations 2047, 43, 12, 4 and bridge modes 512, 16 fall on
          both sides of the direct-sum/FFT switch at 32.
fits      Criterion 8: 200 paths at n=1024, one sample_path or plain
          bridge per path, each fitted by fit_mle(K=256) and checked by
          goodness_of_fit.  Many small calls; p=7 exercises the boundary
          branch.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
import time
import traceback
from pathlib import Path

import numpy as np

from periodicgp import bridge, cli, core, fit, regularity, synthesis
from periodicgp.core import ParametricModel

# law checks: wide enough that no check fails by chance
SE_BAND = 6.0
P_HAT_BAND = 0.1
RESIDUAL_LIMIT = 1e-8
# direct sum against FFT synthesis: rounding only, relative to sum |amplitude|
ORACLE_TOL = 1e-9
ORACLE_STRIDE = 16


def job_seed(seed: int, j: int, k: int = 0) -> int:
    """63-bit seed for call k of job j, derived from the workload seed."""
    state = np.random.SeedSequence([seed, j, k]).generate_state(1, np.uint64)[0]
    return int(state) >> 1


# host-speed calibration: a fixed kernel timed before a job's first call and
# after every CALIBRATE_EVERY_NS of call time, outside the timed calls
CALIBRATE_EVERY_NS = 200_000_000


class Clock:
    """Records the wall time of the library calls made through it.

    Between calls it also times the workload's calibration kernel: fixed
    numpy and Python work shaped like the workload's own, which touches no
    periodicgp code.  Load from other tenants of a shared host slows both
    alike, so job time over calibration time cancels most of the host's
    drift, while a change to periodicgp moves only the numerator.
    """

    def __init__(self, calibrate):
        self.calibrate = calibrate
        self.calls = []
        self.calibrations = []
        self._since = CALIBRATE_EVERY_NS

    def __call__(self, fn, *args, **kwargs):
        if self._since >= CALIBRATE_EVERY_NS:
            self._since = 0
            t0 = time.perf_counter_ns()
            self.calibrate()
            self.calibrations.append(time.perf_counter_ns() - t0)
        t0 = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        dt = time.perf_counter_ns() - t0
        self.calls.append(dt)
        self._since += dt
        return out

    @property
    def seconds(self) -> float:
        return sum(self.calls) / 1e9

    @property
    def relative(self) -> float:
        """Job time over the median calibration time within the job."""
        if not self.calibrations:
            return math.nan
        return sum(self.calls) / float(np.median(self.calibrations))


def run_job(workload, seed: int, j: int, tracer=None) -> dict:
    """Run job j, timed and optionally traced, then digest and check its outputs."""
    clock = Clock(workload.calibrate)
    try:
        if tracer is not None:
            tracer.install()
            tracer.job = j
        try:
            out = workload.run(seed, j, clock)
        finally:
            if tracer is not None:
                tracer.job = None
                tracer.uninstall()
        rec = workload.finish(out)
    except Exception:  # a job that raises is a failed job; the run goes on
        traceback.print_exc()
        rec = {"digest": "", "failures": ["job raised: " + traceback.format_exc(limit=1)],
               "samples": 0, "csv_bytes": 0, "fits": 0}
    rec.update(job=j, seconds=clock.seconds, relative=clock.relative,
               calibration_ns=clock.calibrations, traced=tracer is not None)
    return rec


def _oracle_path(p, K: int, n: int, master_seed: int, stream: int) -> tuple:
    """Direct sum of the documented series on stream (master_seed, stream), and its scale.

    p is the exponent of c_k = k^-p (c0 = 0), summed over k <= K, with draws
    Y_1, Y'_1, Y_2, ... after Y'_0.  p=None gives the M=K sine-mode plain
    bridge sqrt(2) sum W_m sin(pi m t) / (m pi).  Written from the docstrings
    of synthesis and bridge, so it pins draw layout and normalization.
    The sum is taken at every ORACLE_STRIDE-th grid point, starting at
    stream % ORACLE_STRIDE; returns those grid indices, the sums and the scale.
    """
    gen = np.random.default_rng([master_seed, stream])
    idx = np.arange(stream % ORACLE_STRIDE, n, ORACLE_STRIDE)
    t = idx / n
    if p is None:
        m = np.arange(1, K + 1)
        amp = math.sqrt(2.0) * gen.standard_normal(K) / (m * np.pi)
        return idx, amp @ np.sin(np.pi * np.outer(m, t)), float(np.abs(amp).sum())
    y = gen.standard_normal(1 + 2 * K)
    k = np.arange(1, K + 1)
    amp = math.sqrt(2.0) * k.astype(float) ** -p
    w = 2.0 * np.pi * np.outer(k, t)
    x = (amp * y[1::2]) @ np.sin(w) + (amp * y[2::2]) @ np.cos(w)
    return idx, x, float(np.sum(amp * (np.abs(y[1::2]) + np.abs(y[2::2]))))


def _oracle_failures(label: str, values, p, K: int, master_seed: int, stream: int) -> list:
    idx, x, scale = _oracle_path(p, K, values.size, master_seed, stream)
    err = float(np.max(np.abs(values[idx] - x)))
    return [] if err <= ORACLE_TOL * scale else [
        f"{label} differs from the directly summed series by {err:.3e} (scale {scale:.3e})"]


def _series_covariogram(p: float, K: int, n: int, lags) -> np.ndarray:
    """E of the circular lag-product estimator for c_k = k^-p, k <= K: 2 sum c_k^2 cos."""
    k = np.arange(1, K + 1, dtype=float)
    d = np.asarray(lags, dtype=float)[:, None]
    return 2.0 * np.sum(k ** (-2.0 * p) * np.cos(2.0 * np.pi * k * d / n), axis=1)


def _bridge_covariogram(n: int, M: int, lags, centralize: bool) -> np.ndarray:
    """E of the estimator for an M-mode sine bridge on j/n, optionally mean-removed.

    A grid rotation leaves the circular estimator unchanged, so the centered
    shift variant has the plain bridge's expectation.
    """
    j = np.arange(n)
    k = np.arange(1, M + 1)
    S = np.sin(np.pi * np.outer(j, k) / n) * (math.sqrt(2.0) / (k * np.pi))
    cov = S @ S.T
    if centralize:
        cov = cov - cov.mean(axis=0) - cov.mean(axis=1)[:, None] + cov.mean()
    return np.asarray([cov[j, (j + d) % n].mean() for d in lags])


def _dyadic_lags(n: int) -> list:
    return [0] + [2 ** i for i in range(int(math.log2(n)))]


def _law_failures(label: str, est, target) -> list:
    bad = np.abs(est.value - target) > SE_BAND * est.stderr
    return [f"{label}: covariogram off by more than {SE_BAND} SE at lags "
            f"{[int(d) for d in np.asarray(est.lags)[bad]]}"] if bad.any() else []


class Files:
    name = "files"
    N, PATHS, A, P = 4096, 100, 1.0, 1.1
    SWEEP = "1,1.6,2.1,3.1"
    TRANSFORM_GRID, TRANSFORM_K = 4096, 64
    SAMPLES = (PATHS + len(SWEEP.split(","))) * N

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.cal_values = np.random.default_rng(0).standard_normal((8, 1024))

    def calibrate(self):
        """Format a 1024 x 9 table with 17 digits per cell, then parse it."""
        v, t = self.cal_values, np.arange(1024) / 1024
        text = "\n".join(",".join([f"{t[j]:.17g}"] + [f"{float(v[r, j]):.17g}" for r in range(8)])
                         for j in range(1024))
        np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)

    def run(self, seed: int, j: int, clock: Clock) -> dict:
        d = self.workdir / f"job{j}"
        d.mkdir(parents=True)
        s = job_seed(seed, j)
        # generated input for the transforms: c_k = u_k k^-1.5, 64 harmonics
        u = np.random.default_rng([seed, j]).uniform(0.5, 1.5, size=self.TRANSFORM_K + 1)
        c = u * np.arange(1, self.TRANSFORM_K + 2, dtype=float) ** -1.5
        (d / "coeffs.json").write_text(json.dumps({"c0": c[0], "c": list(c[1:]), "tail": None}))
        argvs = [
            ["simulate", "--model", "param", "--a", str(self.A), "--p", str(self.P),
             "--n", str(self.N), "--paths", str(self.PATHS), "--seed", str(s),
             "--out", str(d / "sim")],
            ["regularity", "--in", str(d / "sim.csv"), "--out", str(d / "reg.json")],
            ["fit", "--in", str(d / "sim.csv"), "--out", str(d / "fit")],
            ["sweep", "--p-list", self.SWEEP, "--n", str(self.N), "--seed", str(s),
             "--out", str(d / "sweep")],
            ["transform", "--direction", "c2g", "--in", str(d / "coeffs.json"),
             "--out", str(d / "cov.csv"), "--grid", str(self.TRANSFORM_GRID), "--check"],
            ["transform", "--direction", "g2c", "--in", str(d / "cov.csv"),
             "--out", str(d / "back.json"), "--K", str(self.TRANSFORM_K), "--check"],
        ]
        codes = [clock(cli.main, argv) for argv in argvs]
        return {"dir": d, "seed": s, "codes": codes}

    def finish(self, out: dict) -> dict:
        """Digest, CSV byte counts and check inputs; removes the job directory."""
        d = out["dir"]
        h = hashlib.sha256()
        for f in sorted(p for p in d.iterdir() if p.name != "coeffs.json"):
            h.update(f.name.encode() + b"\0" + f.read_bytes())
        size = {f.name: f.stat().st_size for f in d.iterdir()}
        written = sum(size.get(f, 0) for f in ("sim.csv", "sweep.csv", "fit.residuals.csv",
                                                "cov.csv"))
        read = 2 * size.get("sim.csv", 0) + size.get("cov.csv", 0)
        failures = [f"cli.main returned {c} for {cmd}" for c, cmd in
                    zip(out["codes"], ("simulate", "regularity", "fit", "sweep", "c2g", "g2c"))
                    if c != 0]
        if not failures:
            failures += self._check(d, out["seed"])
        shutil.rmtree(d)
        return {"digest": h.hexdigest(), "failures": failures, "samples": self.SAMPLES,
                "csv_bytes": written + read, "fits": 1}

    def _check(self, d: Path, s: int) -> list:
        failures = []
        _, values = core.read_paths_csv(d / "sim.csv")
        K = self.N // 2 - 1
        coeffs = fit.model_coefficients(ParametricModel(self.A, self.P), K)
        expect = synthesis.sample_ensemble(coeffs, K, self.N, self.PATHS, s).values
        if not np.array_equal(values, expect):
            failures.append("simulate CSV differs from sample_ensemble for the same seed")
        failures += _oracle_failures("simulate column 0", values[0], self.P, K, s, 0)
        for name in ("cov.csv.check.json", "back.json.check.json"):
            r = json.loads((d / name).read_text())["round_trip_residual"]
            if not r < RESIDUAL_LIMIT:
                failures.append(f"{name}: round-trip residual {r}")
        conv = json.loads((d / "fit.json").read_text())["fit"]["convergence"]
        if not (conv["converged"] and conv["flag"] == "interior"):
            failures.append(f"fit did not converge to an interior optimum: {conv}")
        return failures


class Ensemble:
    name = "ensemble"
    P_LIST = (1.0, 1.6, 2.1, 3.1)
    N, R, EPS = 4096, 250, 1e-4
    BRIDGE_N, BRIDGE_R, CENTRALIZED_M = 1024, 2000, 16
    SAMPLES = 2 * len(P_LIST) * R * N + 2 * BRIDGE_R * BRIDGE_N

    def __init__(self, workdir: Path):
        cap = self.N // 2 - 1
        self.K = {p: min(synthesis.truncation_index(
            fit.model_coefficients(ParametricModel(1.0, p), 1), self.EPS), cap)
            for p in self.P_LIST}
        self.lags = _dyadic_lags(self.N)
        self.bridge_lags = _dyadic_lags(self.BRIDGE_N)
        self.targets = {p: _series_covariogram(p, self.K[p], self.N, self.lags)
                        for p in self.P_LIST}
        self.targets["centered_shift"] = _bridge_covariogram(
            self.BRIDGE_N, self.BRIDGE_N // 2, self.bridge_lags, centralize=False)
        self.targets["centralized"] = _bridge_covariogram(
            self.BRIDGE_N, self.CENTRALIZED_M, self.bridge_lags, centralize=True)

    def calibrate(self):
        """Fill 160 rows as the samplers do, then one product over the rows like an estimator.

        Each row seeds its own generator, draws normals, runs an inverse FFT
        and adds one sine term.
        """
        t = np.arange(self.N) / self.N
        rows = np.empty((160, self.N))
        for r in range(160):
            y = np.random.default_rng([0, r]).standard_normal(self.N - 1)
            z = np.zeros(self.N // 2 + 1, dtype=complex)
            z[1:-1] = y[1::2] + 1j * y[2::2]
            rows[r] = np.fft.irfft(z, self.N) + y[0] * np.sin(2.0 * np.pi * (r + 1) * t)
        rows @ rows[0]

    def run(self, seed: int, j: int, clock: Clock) -> dict:
        h = hashlib.sha256()
        estimates = {}
        spot = self.P_LIST[j % len(self.P_LIST)]
        spot_row = None
        for i, p in enumerate(self.P_LIST):
            model = ParametricModel(1.0, p)
            full = clock(fit.model_coefficients, model, self.N // 2 - 1)
            e = clock(synthesis.sample_ensemble, full, self.N // 2 - 1, self.N, self.R,
                      job_seed(seed, j, 2 * i))
            holder = clock(regularity.estimate_holder, e)
            h.update(e.values.tobytes())
            h.update(np.float64([holder.exponent, holder.stderr]).tobytes())
            K = self.K[p]
            coeffs = clock(fit.model_coefficients, model, max(K, 1))
            e = clock(synthesis.sample_ensemble, coeffs, K, self.N, self.R,
                      job_seed(seed, j, 2 * i + 1))
            est = clock(synthesis.empirical_covariogram, e, self.lags)
            h.update(e.values.tobytes())
            estimates[p] = est
            if p == spot:
                spot_row = (p, coeffs, K, job_seed(seed, j, 2 * i + 1), j % self.R,
                            e.values[j % self.R].copy())
        for i, (variant, M) in enumerate((("centered_shift", None),
                                          ("centralized", self.CENTRALIZED_M))):
            e = clock(bridge.bridge_ensemble, variant, self.BRIDGE_R, self.BRIDGE_N,
                      job_seed(seed, j, 100 + i), M=M)
            est = clock(synthesis.empirical_covariogram, e, self.bridge_lags)
            h.update(e.values.tobytes())
            estimates[variant] = est
        for est in estimates.values():
            h.update(est.value.tobytes() + est.stderr.tobytes())
        return {"digest": h.hexdigest(), "estimates": estimates, "spot": spot_row}

    def finish(self, out: dict) -> dict:
        failures = []
        for label, est in out["estimates"].items():
            failures += _law_failures(str(label), est, self.targets[label])
        p, coeffs, K, s, r, row = out["spot"]
        alone = synthesis.sample_path(coeffs, K, self.N, synthesis.RngStream(s, r)).values
        if not np.array_equal(row, alone):
            failures.append(f"ensemble row {r} differs from sample_path on stream {s}:{r}")
        failures += _oracle_failures(f"ensemble row {r} (p={p})", row, p, K, s, r)
        return {"digest": out["digest"], "failures": failures, "samples": self.SAMPLES,
                "csv_bytes": 0, "fits": 0}


class Fits:
    name = "fits"
    PATHS, N, K_SYNTH, K_FIT = 200, 1024, 511, 256
    MODELS = (0.75, 1.5, 3.0, 7.0, None)  # None: plain bridge
    SAMPLES = PATHS * N

    def __init__(self, workdir: Path):
        self.cal_k = np.arange(1, self.K_FIT + 1, dtype=float)
        self.cal_path = np.random.default_rng(0).standard_normal(self.N)

    def calibrate(self):
        """Many small vector ops, like a likelihood scan, and a few short rffts."""
        k, logk = self.cal_k, np.log(self.cal_k)
        e = np.abs(np.fft.rfft(self.cal_path)[1:self.K_FIT + 1]) ** 2
        for p in np.linspace(0.5, 4.0, 600):
            c2 = k ** (-2.0 * p)
            float(np.sum(e / c2) + np.sum(np.log(c2)) - 2.0 * p * logk[-1])
        for _ in range(40):
            np.fft.irfft(np.fft.rfft(self.cal_path))

    def run(self, seed: int, j: int, clock: Clock) -> dict:
        s = job_seed(seed, j)
        coeffs = {p: clock(fit.model_coefficients, ParametricModel(1.0, p), self.K_SYNTH)
                  for p in self.MODELS if p is not None}
        h = hashlib.sha256()
        rows = []
        spot = j % self.PATHS
        for i in range(self.PATHS):
            p = self.MODELS[i % len(self.MODELS)]
            rng = synthesis.RngStream(s, i)
            if p is None:
                path = clock(bridge.plain_bridge_path, self.N, None, rng)
            else:
                path = clock(synthesis.sample_path, coeffs[p], self.K_SYNTH, self.N, rng)
            res = clock(fit.fit_mle, path, K=self.K_FIT)
            gof = clock(fit.goodness_of_fit, path, res)
            h.update(path.values.tobytes())
            h.update(np.float64([res.a_hat, res.p_hat, res.neg_log_likelihood,
                                 res.convergence.iterations, gof.residual_mean,
                                 gof.dispersion, gof.ks_statistic, gof.ks_pvalue]).tobytes())
            rows.append((p, res.convergence.converged, res.convergence.flag, res.p_hat))
            if i == spot:
                spot_path = (p, s, i, path.values.copy())
        return {"digest": h.hexdigest(), "rows": rows, "spot": spot_path}

    def finish(self, out: dict) -> dict:
        failures = []
        rows = out["rows"]
        for i, (p, converged, flag, _) in enumerate(rows):
            want = "boundary" if p == 7.0 else "interior"
            if not converged or flag != want:
                failures.append(f"path {i} (p={p}): converged={converged} flag={flag}, "
                                f"expected {want}")
        for p in (0.75, 1.5, 3.0):
            med = float(np.median([r[3] for r in rows if r[0] == p]))
            if abs(med - p) > P_HAT_BAND:
                failures.append(f"median p_hat {med} is more than {P_HAT_BAND} from {p}")
        p, s, i, values = out["spot"]
        K = self.N // 2 if p is None else self.K_SYNTH
        failures += _oracle_failures(f"path {i} (p={p})", values, p, K, s, i)
        return {"digest": out["digest"], "failures": failures, "samples": self.SAMPLES,
                "csv_bytes": 0, "fits": len(rows)}


WORKLOADS = {w.name: w for w in (Files, Ensemble, Fits)}
