"""Acceptance gate: nine pinned criteria with pre-registered tolerance bands.

Every statistical band below was confirmed by a brute-force oracle run
before being frozen; seeds are fixed, so each criterion is deterministic.
One test per criterion, named and printed as its own pass/fail line.
"""

import hashlib
import importlib.util
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from periodicgp import bridge, core, fit, regularity, spectral, synthesis
from periodicgp.cli import main as cli_main
from periodicgp.core import (
    ParametricModel,
    SpectralCoefficients,
    h_norm,
    write_coefficients,
)


def test_criterion_1_bridge_coefficient_recovery():
    t0 = time.perf_counter()
    c = spectral.covariogram_to_coeffs(bridge.centered_bridge_covariogram(4096), K=32)
    err_c0 = abs(c.c0**2 - 1 / 12)
    err_ck = max(abs(c.c[k - 1] ** 2 - 1 / (2 * math.pi * k) ** 2)
                 for k in range(1, 33))
    elapsed = time.perf_counter() - t0
    assert err_c0 < 1e-7
    assert err_ck < 1e-7
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: coefficient errors c0 {err_c0:.2e}, "
          f"max c_k {err_ck:.2e} (tol 1e-7), {elapsed:.2f}s")


def test_criterion_2_round_trip_isometry():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_rt, worst_iso = 0.0, 0.0
    for _ in range(100):
        support = int(rng.integers(1, 65))
        raw = rng.uniform(0.0, 1.0, size=support + 1)
        raw[rng.uniform(size=support + 1) < 0.15] = 0.0
        c = SpectralCoefficients(raw[0], tuple(raw[1:]))
        g = spectral.coeffs_to_covariogram(c, 4096)
        back = spectral.covariogram_to_coeffs(g, K=support)
        orig = np.concatenate(([c.c0], c.c))
        rec = np.concatenate(([back.c0], back.c))
        scale = max(float(np.max(orig)), 1e-300)
        worst_rt = max(worst_rt, float(np.max(np.abs(rec - orig))) / scale)
        c0_sq = g.at(0.0)
        worst_iso = max(worst_iso, abs(h_norm(c) ** 2 - c0_sq) / c0_sq)
    elapsed = time.perf_counter() - t0
    assert worst_rt < 1e-8
    assert worst_iso < 1e-10
    assert elapsed < 5.0
    print(f"\nPASS criterion 2: worst round-trip {worst_rt:.2e} (tol 1e-8), "
          f"worst isometry {worst_iso:.2e} (tol 1e-10), {elapsed:.2f}s")


def test_criterion_3_law_equivalence_of_bridge_constructions():
    t0 = time.perf_counter()
    R, n = 20000, 1024
    lags = [n * j // 32 for j in range(16)]
    closed = bridge.centered_bridge_covariogram(n)
    target = np.array([closed.at(d / n) for d in lags])

    shift = bridge.bridge_ensemble("centered_shift", R, n, 42)
    est_shift = synthesis.empirical_covariogram(shift, lags)
    z_shift = np.abs((est_shift.value - target) / est_shift.stderr)

    coeffs = bridge.centered_bridge_coefficients()
    series = synthesis.sample_ensemble(coeffs, n // 2 - 1, n, R, 43)
    est_series = synthesis.empirical_covariogram(series, lags)
    z_series = np.abs((est_series.value - target) / est_series.stderr)

    elapsed = time.perf_counter() - t0
    assert int((z_shift > 3).sum()) <= 1
    assert int((z_series > 3).sum()) <= 1
    assert elapsed < 120.0
    print(f"\nPASS criterion 3: 16-lag max |z| shift {z_shift.max():.2f}, "
          f"series {z_series.max():.2f} (band 3 s.e.), {elapsed:.1f}s")


def test_criterion_4_decomposition_corollary():
    rep = bridge.decomposition_check(20000, 1024, master_seed=0)
    assert rep.var_ok, "Var(Z) outside 3 s.e. of 1/12"
    assert rep.cov_ok, "residual covariogram outside 3 s.e. of closed form"
    assert rep.corr_ok, "Z correlates with the residual beyond 3 s.e."
    zv = abs(rep.var_z - rep.var_z_target) / rep.var_z_stderr
    print(f"\nPASS criterion 4: Var(Z) z {zv:.2f}, "
          f"cov and corr inside 3 s.e. at R=20000")


def test_criterion_5_proof_identity():
    t0 = time.perf_counter()
    gaps = [bridge.proof_identity(k, 10**6).gap for k in (1, 2, 3)]
    elapsed = time.perf_counter() - t0
    assert all(g < 1e-6 for g in gaps)
    assert elapsed < 1.0
    print(f"\nPASS criterion 5: identity gaps {[f'{g:.1e}' for g in gaps]} "
          f"(tol 1e-6), {elapsed:.2f}s")


def test_criterion_6_regularity_chain():
    for p in (0.75, 1.0, 2.0):
        c = fit.model_coefficients(ParametricModel(1.0, p), 64)
        decay = regularity.fit_decay(c)
        assert abs(decay.q - 2 * p) < 1e-9
    for p in (0.75, 1.0):
        rep = regularity.predict_regularity(2 * p)
        assert abs(rep.holder_bound - (p - 0.5)) < 1e-12
    rep = regularity.predict_regularity(4.0)
    assert rep.m == 1 and rep.holder_bound == pytest.approx(0.5)
    print("\nPASS criterion 6: q = 2p recovered to 1e-9; "
          "bounds p-1/2 and (m=1, 1/2) exact")


def test_criterion_7_empirical_holder_across_smoothness():
    t0 = time.perf_counter()
    R, n, K = 5000, 4096, 2047
    p_list = (1.0, 1.6, 2.1, 3.1)
    estimates = []
    for p in p_list:
        coeffs = fit.model_coefficients(ParametricModel(1.0, p), K)
        e = synthesis.sample_ensemble(coeffs, K, n, R, 71)
        estimates.append(regularity.estimate_holder(e))
    elapsed = time.perf_counter() - t0
    exps = [est.exponent for est in estimates]
    assert all(a <= b for a, b in zip(exps, exps[1:])), exps
    assert 0.35 < exps[0] < 0.65
    assert estimates[0].flag is None and estimates[1].flag is None
    assert elapsed < 300.0
    flagged = [p for p, est in zip(p_list, estimates) if est.flag]
    print(f"\nPASS criterion 7: exponents {[f'{x:.3f}' for x in exps]} "
          f"monotone, saturation flags at {flagged}, {elapsed:.1f}s")


def test_criterion_8_mle_calibration():
    t0 = time.perf_counter()
    model = fit.model_coefficients(ParametricModel(1.0, 1.5), 511)
    p_hats, a_hats = [], []
    for seed in range(200):
        path = synthesis.sample_path(model, 511, 1024, synthesis.RngStream(seed, 0))
        res = fit.fit_mle(path, K=256)
        p_hats.append(res.p_hat)
        a_hats.append(res.a_hat)
    p_hats, a_hats = np.array(p_hats), np.array(a_hats)

    path = synthesis.sample_path(model, 511, 1024, synthesis.RngStream(0, 0))
    base = fit.fit_mle(path, K=256)
    from periodicgp.core import GridPath
    scaled = fit.fit_mle(GridPath(1024, 3.0 * path.values), K=256)
    equiv_p = abs(scaled.p_hat - base.p_hat)
    equiv_a = abs(scaled.a_hat - 3.0 * base.a_hat)

    elapsed = time.perf_counter() - t0
    assert abs(np.median(p_hats) - 1.5) < 0.05
    assert np.mean(np.abs(p_hats - 1.5) <= 0.2) >= 0.95
    assert abs(np.median(a_hats) - 1.0) < 0.1
    assert equiv_p < 1e-9 and equiv_a < 1e-9
    assert elapsed < 120.0
    print(f"\nPASS criterion 8: median p {np.median(p_hats):.4f} (band 0.05), "
          f"{100 * np.mean(np.abs(p_hats - 1.5) <= 0.2):.0f}% within 0.2, "
          f"median a {np.median(a_hats):.4f} (band 0.1), "
          f"equivariance {max(equiv_p, equiv_a):.1e}, {elapsed:.1f}s")


def _criterion_9_commands(root, cfile, gfile):
    """Criterion 9's command list, writing every output under root."""
    sim = root / "sim"
    return [
        ("simulate", "--model", "param", "--a", "1", "--p", "1.5",
         "--n", "512", "--paths", "3", "--seed", "7", "--out", str(sim)),
        ("simulate", "--model", "bridge:centralized", "--n", "256",
         "--paths", "2", "--seed", "3", "--out", str(root / "brg")),
        ("transform", "--direction", "c2g", "--in", str(cfile),
         "--grid", "256", "--check", "--out", str(root / "gout.csv")),
        ("transform", "--direction", "g2c", "--in", str(gfile),
         "--K", "16", "--out", str(root / "cout.json")),
        ("fit", "--in", str(sim) + ".csv", "--out", str(root / "fit")),
        ("regularity", "--coeffs", "bridge", "--out", str(root / "reg.json")),
        ("bridge-check", "--R", "2000", "--n", "256", "--seed", "0",
         "--terms", "100000", "--out", str(root / "chk.json")),
        ("sweep", "--p-list", "1,1.6,2.1,3.1", "--a", "1", "--n", "256",
         "--seed", "11", "--out", str(root / "sw")),
    ]


def _criterion_9_inputs(directory):
    cfile = directory / "c.json"
    write_coefficients(SpectralCoefficients(1.0, (0.5, 0.25)), cfile)
    gfile = directory / "g.csv"
    spectral.write_covariogram_csv(bridge.centered_bridge_covariogram(1024), gfile)
    return cfile, gfile


def test_criterion_9_cli_byte_determinism(tmp_path):
    cfile, gfile = _criterion_9_inputs(tmp_path)
    roots = []
    for name in ("run_a", "run_b"):
        root = tmp_path / name
        root.mkdir()
        for argv in _criterion_9_commands(root, cfile, gfile):
            assert cli_main([str(a) for a in argv]) == 0, argv
        roots.append(root)

    files_a = sorted(p.name for p in roots[0].iterdir())
    files_b = sorted(p.name for p in roots[1].iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (roots[0] / name).read_bytes() == (roots[1] / name).read_bytes(), name
    print(f"\nPASS criterion 9: {len(files_a)} output files byte-identical "
          f"across re-runs of all six commands")


# SHA-256 of every file written by criterion 9's commands, plus two short
# truncations: a 2-harmonic coefficient file (coef) and an M = 16 bridge
# (brg16), and two amplitudes other than 1 (sima07 with --eps, swa19).  Digests depend on numpy's seeding, samplers and FFT, fit.json's also
# on scipy's exact KS kernel; they were pinned on conftest.PINNED_PLATFORM, and a
# change that moves them must re-pin them and say why.
GOLDEN_DIGESTS = {
    "brg.csv": "0a473bd2f5710fd2762a55fd37b94416fcb5f71cd34041ed3d6f88a2539113bd",
    "brg.meta.json": "3923ebf7fa33637275e997a3634be7826c72429fdb38ea7555775f3200c98771",
    "brg16.csv": "07b2b4b487cc42fccc3fcc98eea7647955d3ae3a4f14f8fed0635dfcc6d3eddc",
    "brg16.meta.json": "feb5b90c8843f82a46400b361f60922b4c90bcb4d5480ae2058c3081b460b6d6",
    "chk.json": "bbe8e82a63c216c41e624796ae2424b84097c673d208beb59cbe82aa4e6efd08",
    "coef.csv": "c68ac3c55bb28e9d1685100fca5354c5d007be91723b767904bd1f77c41c3b90",
    "coef.meta.json": "7e5ed086ccaaa3850c71dbf798df360434715fe8ce4db535b31729a039a066c6",
    "cout.json": "af8d3d5d0a7ae7cf79e1f643c114537f67e5676e5ef31fbdc87802d16b053830",
    "fit.json": "2788d84d83044752b032383f453d4415f40dfeba6266a115cba587d7b8de61cd",
    "fit.residuals.csv": "f18364613440ae5d0965a4d5bf03f68629bddbb25f36b42c745f0eedc8bfe700",
    "gout.csv": "ede3e3fdffa484682110573986c3ab975f4f06088d8d7a4e8a4e9c62ea736d24",
    "gout.csv.check.json": "6b0ffea04504adbf1cfdac6709b897398d54cbb585556c87e5644967c68b760d",
    "reg.json": "137dd1b2d801890be634ce1a777b8554779341227bb8ab94fbbb8a7f81aedcbe",
    "sim.csv": "ba2a1ecb9b0b7fc6a9f8f1ee7e79177aec2c9eb627ecd35dd554b6c2516bb299",
    "sim.meta.json": "def7ebcb4c901316cb4ff70c2e53dcdec55c20460e32656ca08206ad95256c96",
    "sima07.csv": "47c5cfa4ed5a1b74d31a5ab4482614ea39414a866cea7bf97069540be4e8aa41",
    "sima07.meta.json": "f52ad81c3b78c82de35f174d3cef6d09eca6847fb773224d83a313204203e2d0",
    "sw.csv": "9fa22a8c760e6bf35a1a477d3abc3d2d999a8bb9378405c8ece0679ce146d4aa",
    "sw.meta.json": "45f2267cea198a0060a65e9c8aa839387b08a7e580b286ef41c9910e4bef40e2",
    "swa19.csv": "706f1c756f07d0b5918ba8d51d242ab0cdb952364817159146e7ca9a76c637ae",
    "swa19.meta.json": "dfee3e3804e70f87ba4a855a9ff3e16a379ba288b3eed22bc11f25130ee0409a",
}


def test_golden_output_digests(tmp_path, monkeypatch, pinned_platform):
    monkeypatch.chdir(tmp_path)  # relative paths keep tmp names out of the sidecars
    cfile, gfile = _criterion_9_inputs(Path("."))
    root = Path("out")
    root.mkdir()
    short = [
        ("simulate", "--model", "coeffs", "--coeffs", str(cfile), "--n", "64",
         "--paths", "3", "--seed", "5", "--out", str(root / "coef")),
        ("simulate", "--model", "bridge:centralized", "--trunc", "16", "--n", "256",
         "--paths", "2", "--seed", "3", "--out", str(root / "brg16")),
        # amplitudes other than 1, where the declared tail's sqrt(a**2) must equal a
        ("simulate", "--model", "param", "--a", "0.7", "--p", "1.3", "--eps", "1e-3",
         "--n", "256", "--paths", "2", "--seed", "9", "--out", str(root / "sima07")),
        ("sweep", "--p-list", "1.2,2.5", "--a", "1.9", "--n", "128", "--seed", "13",
         "--out", str(root / "swa19")),
    ]
    for argv in _criterion_9_commands(root, cfile, gfile) + short:
        assert cli_main(list(argv)) == 0, argv
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in root.iterdir()}
    assert digests == GOLDEN_DIGESTS, pinned_platform
    print(f"\nPASS golden digests: {len(digests)} output files match")


def test_fit_bytes_through_the_scipy_special_fallback(tmp_path, monkeypatch, pinned_platform,
                                                      without_scipy_special):
    # a scipy whose ufunc extension cannot load alone gets the whole package imported,
    # whose ufuncs are the same objects, so fit writes the golden bytes
    def no_spec(name):
        raise ImportError(f"no spec for {name}")

    with monkeypatch.context() as patch:
        patch.setattr(importlib.util, "find_spec", no_spec)
        core._scipy_ufuncs()
    assert "scipy.special" in sys.modules  # the fallback ran
    monkeypatch.chdir(tmp_path)
    cfile, gfile = _criterion_9_inputs(Path("."))
    root = Path("out")
    root.mkdir()
    simulate, fit_argv = (argv for argv in _criterion_9_commands(root, cfile, gfile)
                          if argv[-1] in (str(root / "sim"), str(root / "fit")))
    for argv in (simulate, fit_argv):
        assert cli_main(list(argv)) == 0, argv
    for name in ("fit.json", "fit.residuals.csv"):
        digest = hashlib.sha256((root / name).read_bytes()).hexdigest()
        assert digest == GOLDEN_DIGESTS[name], pinned_platform
