"""Domain types and conventions for periodic stationary Gaussian processes.

A zero-mean Gaussian process on the circle [0, 1) with a stationary
periodic covariance is identified by nonnegative coefficients
(c0, c1, c2, ...) through the random series

    x_t = c0 Y'0 + sqrt(2) sum_{k>=1} c_k (Y_k sin(2 pi k t) + Y'_k cos(2 pi k t))

with independent standard Gaussians Y_k, Y'_k.  This normalization fixes
the pair of identities used throughout the package:

    C(d)  = c0^2 + 2 sum_k c_k^2 cos(2 pi k d)     (covariogram from coefficients)
    c_k^2 = integral_0^1 C(s) cos(2 pi k s) ds     (coefficients from covariogram)

together with the norm ||x||_H = sqrt(c0^2 + 2 sum c_k^2), which equals
sqrt(integral_0^1 E[x_t^2] dt).  The sqrt(2) placement is the unique one
under which all three formulas hold simultaneously.

Grid sizes are powers of two throughout: harmonics then align exactly
with DFT bins and circular shifts are plain index rotations.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import zeta


class SpectrumError(ValueError):
    """Input is not a valid covariance spectrum (negative mass, asymmetry, non-PSD)."""


class AliasingError(ValueError):
    """A harmonic at or above half the grid size was requested."""


class DegenerateDataError(ValueError):
    """Observed data carries no usable signal for the requested operation."""


def is_power_of_two(n) -> bool:
    return isinstance(n, (int, np.integer)) and n >= 1 and (int(n) & (int(n) - 1)) == 0


def negative_mass_tolerance(c0_sq: float) -> float:
    """Clamp threshold for spurious negative spectral mass.

    Scaled to the quadrature noise floor observed on valid covariograms at
    grid size 4096, with an absolute floor for the c0 = 0 case.
    """
    return max(1e-9 * c0_sq, 1e-12)


def _readonly(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class TailDecay:
    """Analytic decay c_k^2 = const * k**(-q) declared beyond stored support."""

    q: float
    const: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and self.q > 1.0):
            raise ValueError("tail exponent q must be finite and > 1 for summable mass")
        if not (math.isfinite(self.const) and self.const >= 0.0):
            raise ValueError("tail constant must be finite and nonnegative")

    def mass_beyond(self, k: int) -> float:
        """Exact remainder 2 * sum_{j>k} const * j**(-q), via the Hurwitz zeta function."""
        return 2.0 * self.const * float(zeta(self.q, k + 1))

    def coefficient(self, k):
        """c_k implied by the tail law, for scalar or array k."""
        return math.sqrt(self.const) * np.asarray(k, dtype=float) ** (-self.q / 2.0)


@dataclass(frozen=True, eq=False)
class SpectralCoefficients:
    """The sequence (c0, c_1..c_K) identifying a process, plus an optional tail law.

    c is stored as a read-only float64 array.  Construction is strict:
    entries must already be finite and nonnegative.  Use
    :func:`validate_coefficients` to clean numerically noisy input first.
    """

    c0: float
    c: np.ndarray
    declared_tail: TailDecay | None = None

    def __post_init__(self):
        c0, c = float(self.c0), _readonly(self.c)
        if c.ndim != 1:
            raise ValueError("coefficients must form a flat sequence")
        if not (math.isfinite(c0) and np.all(np.isfinite(c))):
            raise SpectrumError("coefficients must be finite")
        if c0 < 0.0 or np.any(c < 0.0):
            raise SpectrumError("coefficients must be nonnegative")
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "c", c)

    @property
    def support(self) -> int:
        """Largest explicitly stored harmonic index K."""
        return len(self.c)

    def materialize(self, K: int) -> np.ndarray:
        """c_1..c_K as an array, extended by the declared tail where needed."""
        out = np.zeros(K)
        m = min(K, self.support)
        out[:m] = self.c[:m]
        if self.declared_tail is not None and K > self.support:
            ks = np.arange(self.support + 1, K + 1, dtype=float)
            out[self.support:] = self.declared_tail.coefficient(ks)
        return out

    def squared_mass(self) -> float:
        """c0^2 + 2 sum c_k^2, including the analytic tail remainder."""
        total = self.c0 ** 2 + 2.0 * float(np.sum(np.square(self.c)))
        if self.declared_tail is not None:
            total += self.declared_tail.mass_beyond(self.support)
        return total


def validate_coefficients(raw: Sequence[float],
                          declared_tail: TailDecay | None = None) -> SpectralCoefficients:
    """Build SpectralCoefficients from raw values (c0 first), clamping noise.

    Negative entries within the clamp tolerance are set to zero; anything
    materially negative is rejected, since a valid covariance spectrum has
    no negative mass.  Idempotent on already-valid input.
    """
    arr = np.asarray(list(raw), dtype=float)
    if arr.size == 0:
        raise ValueError("need at least the lag-zero coefficient c0")
    if arr.ndim != 1:
        raise ValueError("coefficients must form a flat sequence")
    if not np.all(np.isfinite(arr)):
        raise SpectrumError("coefficients must be finite")
    tol = negative_mass_tolerance(float(arr[0]) ** 2)
    if np.any(arr < -tol):
        raise SpectrumError("negative spectral mass")
    arr = np.where(arr < 0.0, 0.0, arr)
    return SpectralCoefficients(float(arr[0]), arr[1:], declared_tail)


def h_norm(c: SpectralCoefficients) -> float:
    """Process norm sqrt(c0^2 + 2 sum c_k^2); tail remainder enters in closed form."""
    return math.sqrt(c.squared_mass())


CLOSED_FORM_KINDS = ("centered_bridge", "centralized_bridge")
SAMPLED_KINDS = ("from_coefficients", "user_table")


def _bridge_closed_form(delta, shift: float):
    d = np.asarray(delta, dtype=float) % 1.0
    return (d - 0.5) ** 2 / 2.0 + shift


@dataclass(frozen=True)
class Covariogram:
    """Stationary covariance C(d) on the circle, closed form or sampled.

    Sampled variants store one period on the uniform grid d = j/n.  The
    constructor checks the symmetry C(d) = C(1 - d) and the dominance
    C(0) >= |C(d)|, both necessary for positive semidefiniteness; the
    full PSD check happens in the cosine transform.
    """

    kind: str
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind in CLOSED_FORM_KINDS:
            if self.values is not None:
                raise ValueError(f"closed form {self.kind!r} takes no sample values")
            return
        if self.kind not in SAMPLED_KINDS:
            raise ValueError(f"unknown covariogram kind {self.kind!r}")
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 4 or not is_power_of_two(v.size):
            raise ValueError("sampled covariogram needs a power-of-two grid, >= 4 points")
        if not np.all(np.isfinite(v)):
            raise SpectrumError("covariogram values must be finite")
        scale = float(np.max(np.abs(v))) or 1.0
        tol = 1e-9 * scale
        if np.max(np.abs(v[1:] - v[:0:-1])) > tol:
            raise SpectrumError("asymmetric covariogram: C(d) must equal C(1-d)")
        if np.max(np.abs(v)) > v[0] + tol:
            raise SpectrumError("covariogram maximum must sit at lag zero")
        object.__setattr__(self, "values", _readonly(v))

    @classmethod
    def closed_form(cls, kind: str) -> "Covariogram":
        return cls(kind=kind)

    @classmethod
    def from_table(cls, values) -> "Covariogram":
        return cls(kind="user_table", values=values)

    @classmethod
    def from_samples(cls, values) -> "Covariogram":
        return cls(kind="from_coefficients", values=values)

    @property
    def n(self) -> int | None:
        return None if self.values is None else int(self.values.size)

    def at(self, delta):
        """Evaluate C at lag(s) delta; sampled variants accept grid lags only."""
        if self.kind == "centered_bridge":
            return _bridge_closed_form(delta, +1.0 / 24.0)
        if self.kind == "centralized_bridge":
            return _bridge_closed_form(delta, -1.0 / 24.0)
        d = np.asarray(delta, dtype=float) % 1.0
        idx = d * self.n
        j = np.rint(idx)
        if np.max(np.abs(idx - j)) > 1e-9:
            raise ValueError("sampled covariogram evaluated off its grid")
        return self.values[j.astype(int) % self.n]

    def sample(self, n: int) -> np.ndarray:
        """Values on the uniform grid d = j/n for j = 0..n-1."""
        if not is_power_of_two(n):
            raise ValueError("grid size must be a power of two")
        if self.values is not None:
            if n != self.n:
                raise ValueError("sampled covariogram cannot be resampled")
            return self.values
        return self.at(np.arange(n) / n)


@dataclass(frozen=True)
class GridPath:
    """One trajectory sampled at t = j/n on the periodic unit grid."""

    n: int
    values: np.ndarray
    seed_tag: str | None = None

    def __post_init__(self):
        if not is_power_of_two(self.n):
            raise ValueError("grid size must be a power of two")
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.n,):
            raise ValueError("values must be a flat array of length n")
        if not np.all(np.isfinite(v)):
            raise ValueError("path values must be finite")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.n) / self.n


@dataclass(frozen=True)
class PathEnsemble:
    """R independent replicate paths on a shared grid, row per replicate."""

    n: int
    values: np.ndarray
    master_seed: int | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.n or v.shape[0] < 1:
            raise ValueError("ensemble values must have shape (R, n) with R >= 1")
        if not is_power_of_two(self.n):
            raise ValueError("grid size must be a power of two")
        if not np.all(np.isfinite(v)):
            raise ValueError("ensemble values must be finite")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def R(self) -> int:
        return int(self.values.shape[0])

    def path(self, r: int) -> GridPath:
        tag = None if self.master_seed is None else f"{self.master_seed}:{r}"
        return GridPath(self.n, self.values[r], seed_tag=tag)


@dataclass(frozen=True)
class ParametricModel:
    """The power-law family c_k = a / k**p; p > 1/2 keeps the mass summable."""

    a: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0.0 and math.isfinite(self.a * self.a)):
            raise ValueError("amplitude a must be positive, with a finite square")
        if not (math.isfinite(self.p) and self.p > 0.5):
            raise ValueError("p must exceed 1/2 for square-summable coefficients")


@dataclass(frozen=True)
class RegularityReport:
    """Guaranteed path regularity read off the decay exponent of c_k^2.

    m derivatives exist; the m-th derivative is Holder continuous of every
    order strictly below holder_bound.
    """

    q: float
    m: int
    holder_bound: float

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("derivative count must be nonnegative")
        if not (0.0 < self.holder_bound <= 1.0):
            raise ValueError("holder_bound must lie in (0, 1]")
        if 2 * self.m + 2 * self.holder_bound + 1 > self.q + 1e-9:
            raise ValueError("report is inconsistent with the decay exponent")


# ---------------------------------------------------------------------------
# File formats.  CSV cells have 17 significant digits, which round-trips IEEE
# doubles exactly and keeps every writer byte-deterministic.  Tables are
# formatted in blocks of BLOCK_VALUES cells: peak memory stays that of a loop.

CELL_FORMAT = "%.17g"
BLOCK_VALUES = 4096


def format_float(x: float) -> str:
    return CELL_FORMAT % float(x)


def write_table_csv(header: str, columns, path) -> None:
    """Write equal-length columns under a header line, one CELL_FORMAT cell each."""
    step = max(1, BLOCK_VALUES // len(columns))
    row_format = ",".join([CELL_FORMAT] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), step):
            block = np.column_stack([c[lo:lo + step] for c in columns])
            fh.write(row_format * len(block) % tuple(block.ravel().tolist()))


def jsonable(obj):
    """Recursively convert numpy scalars/arrays so json.dump can serialize."""
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def write_json(obj, path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_coefficients(c: SpectralCoefficients, path) -> None:
    tail = None
    if c.declared_tail is not None:
        tail = {"q": c.declared_tail.q, "const": c.declared_tail.const}
    write_json({"c0": c.c0, "c": c.c, "tail": tail}, path)


def read_coefficients(path) -> SpectralCoefficients:
    with open(path) as fh:
        data = json.load(fh)
    try:
        raw = [data["c0"], *data["c"]]
        tail = data.get("tail")
        decay = None if tail is None else TailDecay(q=float(tail["q"]), const=float(tail["const"]))
        return validate_coefficients(raw, declared_tail=decay)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed coefficient file {path}: {exc}") from exc


def write_paths_csv(values: np.ndarray, path) -> None:
    """Write one path or an ensemble as columns t,x or t,x0,x1,..."""
    v = np.atleast_2d(np.asarray(values, dtype=float))
    R, n = v.shape
    header = "t,x" if R == 1 else "t," + ",".join(f"x{r}" for r in range(R))
    write_table_csv(header, [np.arange(n) / n, *v], path)


def read_grid_csv(path, header_ok, expected: str) -> np.ndarray:
    """Rows of a CSV table whose first column is the grid j/n, n a power of two."""
    with open(path) as fh:
        if not header_ok(fh.readline().strip()):
            raise ValueError(f"{path}: expected {expected}")
        line = fh.readline()
        while line and not line.split("#", 1)[0].strip():  # lines loadtxt skips
            line = fh.readline()
        if not line:
            raise ValueError(f"{path}: no data rows after the header")
        # chain, not seek: the input may be a pipe
        data = np.loadtxt(itertools.chain([line], fh), delimiter=",", ndmin=2)
    n = data.shape[0]
    if not is_power_of_two(n):
        raise ValueError(f"{path}: grid size {n} is not a power of two")
    if np.max(np.abs(data[:, 0] - np.arange(n) / n)) > 1e-12:
        raise ValueError(f"{path}: first column is not the uniform grid j/n")
    return data


def read_paths_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a path CSV; returns (t, values) with values shaped (R, n)."""
    data = read_grid_csv(path, lambda h: h.startswith("t,"), "a header starting with 't,'")
    return data[:, 0], data[:, 1:].T
