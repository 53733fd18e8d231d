"""Spans around calls into periodicgp's modules, recorded from outside.

Tracer.install() rebinds every name through which the program reaches a
traced function (module attributes such as ``cli.write_paths_csv`` and
``bridge.sample_ensemble``, and methods on the domain classes) to a
wrapper that records a span; Tracer.uninstall() puts the originals back.
Spans are (name, start_ns, end_ns, parent index, job id) tuples kept in
memory; counters are attached per span and summed only over the
outermost span carrying each counter, so work counted by an ensemble call
is not counted again by the per-row calls inside it.

Per-cell helpers (format_float, jsonable, is_power_of_two) are not
wrapped: a span per CSV cell would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time

import numpy as np


def _rows(values) -> int:
    return int(np.atleast_2d(np.asarray(values)).shape[0])


def _synthesis_counts(R: int, K: int) -> dict:
    return {"synthesis.paths": R, "synthesis.normals": R * (1 + 2 * K),
            "synthesis.direct_sum_paths": R if K < 32 else 0}


def _bridge_direct(R: int, n: int, M) -> dict:
    M = n // 2 if M is None else M
    return {"bridge.direct_sum_paths": R if M < 32 else 0}


def _fit_counts(result) -> dict:
    return {"fit.fits": 1, "fit.iterations": result.convergence.iterations,
            "fit.boundary": int(result.convergence.flag == "boundary")}


# counter functions take the call's result first, then the call's arguments
COUNTERS = {
    "core.write_paths_csv":
        lambda res, values, path, *rest, **kw: {"core.csv_bytes_written": os.path.getsize(path)},
    "core.read_paths_csv":
        lambda res, path, *rest, **kw: {"core.csv_bytes_read": os.path.getsize(path)},
    "dft.synthesize": lambda res, h, *rest, **kw: {"dft.fft_points": h.n},
    "dft.analyze": lambda res, path, *rest, **kw: {"dft.fft_points": path.n},
    "synthesis.sample_ensemble":
        lambda res, c, K, n, R, *rest, **kw: _synthesis_counts(R, K),
    "synthesis.sample_path": lambda res, c, K, *rest, **kw: _synthesis_counts(1, K),
    "synthesis.replicate_lag_products":
        lambda res, values, *rest, **kw: {"synthesis.lag_product_rows": _rows(values)},
    "bridge.bridge_ensemble":
        lambda res, variant, R, n, master_seed, M=None, *rest, **kw:
            _bridge_direct(R, n, M) if variant != "centered_series" else {},
    "bridge.plain_bridge_path": lambda res, n, M=None, *rest, **kw: _bridge_direct(1, n, M),
    "bridge.centered_bridge_shift":
        lambda res, n, M=None, *rest, **kw: _bridge_direct(1, n, M),
    "bridge.centralized_bridge_path":
        lambda res, n, M=None, *rest, **kw: _bridge_direct(1, n, M),
    "fit.fit_mle": lambda res, *args, **kwargs: _fit_counts(res),
}


def _targets():
    """(span name, owner, attribute) for every traced callable."""
    from periodicgp import bridge, cli, core, dft, fit, regularity, spectral, synthesis
    out = [(f"cli.{cmd}", cli, f"cmd_{cmd}")
           for cmd in ("simulate", "fit", "sweep", "regularity", "transform")]
    out.append(("cli.main", cli, "main"))
    for module, names in (
        (core, ("write_paths_csv", "read_paths_csv", "write_json", "write_coefficients",
                "read_coefficients", "validate_coefficients")),
        (dft, ("analyze", "synthesize", "cosine_table")),
        (synthesis, ("sample_ensemble", "sample_path", "truncation_index",
                     "replicate_lag_products", "empirical_covariogram")),
        (spectral, ("covariogram_to_coeffs", "coeffs_to_covariogram",
                    "write_covariogram_csv", "read_covariogram_csv")),
        (regularity, ("estimate_holder", "structure_function")),
        (bridge, ("bridge_ensemble", "bridge_path", "plain_bridge_path",
                  "centered_bridge_shift", "centralized_bridge_path")),
        (fit, ("fit_mle", "goodness_of_fit", "harmonic_residuals", "model_coefficients",
               "profile_amplitude")),
    ):
        short = module.__name__.rsplit(".", 1)[1]
        out.extend((f"{short}.{name}", module, name) for name in names)
    out += [
        ("core.materialize", core.SpectralCoefficients, "materialize"),
        ("core.validate", core.GridPath, "__post_init__"),
        ("core.validate", core.PathEnsemble, "__post_init__"),
        ("synthesis.rng_init", synthesis.RngStream, "generator"),
    ]
    return out


class Tracer:
    """Records spans of the calls made while a job id is set."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.job = None
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            job = self.job
            if job is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, job)
            if counter is not None:
                counts[idx] = counter(result, *args, **kwargs)
            return result

        return traced

    def install(self) -> None:
        """Rebind every module attribute and class attribute that holds a target."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "periodicgp" or k.startswith("periodicgp."))]
        for name, owner, attr in _targets():
            original = owner.__dict__.get(attr)
            if original is None:  # gone from the program: its metrics read 0
                continue
            wrapped = self._wrap(name, original)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, key, value))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            holder, key, value = self._saved.pop()
            setattr(holder, key, value)

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "job"],
                       "names": names,
                       "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]},
                      fh, separators=(",", ":"))


def summarize(spans: list, counts: dict) -> dict:
    """Per-name inclusive and self nanoseconds, call counts and counter sums."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_ns[s[3]] += s[2] - s[1]
    incl, self_ns, calls, counters = {}, {}, {}, {}
    for i, (name, t0, t1, parent, job) in enumerate(spans):
        incl[name] = incl.get(name, 0) + (t1 - t0)
        self_ns[name] = self_ns.get(name, 0) + (t1 - t0 - child_ns[i])
        calls[name] = calls.get(name, 0) + 1
    for i, row in counts.items():
        for key, value in row.items():
            p = spans[i][3]
            while p >= 0 and key not in counts.get(p, ()):
                p = spans[p][3]
            if p < 0:
                counters[key] = counters.get(key, 0) + value
    return {"incl_ns": incl, "self_ns": self_ns, "calls": calls, "counters": counters}


def covered_ns(spans: list, match) -> int:
    """Time inside spans whose name satisfies match, counting nested matches once."""
    hit = [False] * len(spans)
    total = 0
    for i, (name, t0, t1, parent, job) in enumerate(spans):
        inside = parent >= 0 and hit[parent]
        hit[i] = inside or match(name)
        if hit[i] and not inside:
            total += t1 - t0
    return total
