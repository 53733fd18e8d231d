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

import _imp
import functools
import importlib.util
import itertools
import json
import math
import re
import sys
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np


class SpectrumError(ValueError):
    """Input is not a valid covariance spectrum (negative mass, asymmetry, non-PSD)."""


class AliasingError(ValueError):
    """A harmonic at or above half the grid size was requested."""


class DegenerateDataError(ValueError):
    """Observed data carries no usable signal for the requested operation."""


def check_grid(n) -> None:
    """The grid rule, n a power of two >= 4: harmonics 1..n/2 - 1 then sit on their
    own DFT bins below Nyquist.  Call it before sizing any work from n."""
    if not (isinstance(n, (int, np.integer)) and n >= 4 and (int(n) & (int(n) - 1)) == 0):
        raise ValueError(f"grid size must be a power of two, n >= 4, got {n}")


@functools.cache  # once per process: the spec search is file-system work
def _scipy_ufuncs():
    """scipy.special._ufuncs, scipy's compiled expm1, smirnov and _zeta, without the package's
    array-API layer (half a cold fit's time): loaded under a bare package stub, kept in
    sys.modules only under the import lock.  A later import of scipy.special reuses them."""
    try:
        _imp.acquire_lock()
        try:
            if "scipy.special" in sys.modules:
                return sys.modules["scipy.special"]._ufuncs
            spec = importlib.util.find_spec("scipy.special")
            spec._initializing = True  # another thread's import waits for the lock, then loads
            sys.modules[spec.name] = importlib.util.module_from_spec(spec)
            try:
                return importlib.import_module("scipy.special._ufuncs")
            finally:
                del sys.modules[spec.name]
        finally:
            _imp.release_lock()
    except (ImportError, AttributeError):  # a scipy laid out otherwise: the whole package
        return importlib.import_module("scipy.special")._ufuncs


def _readonly(a, copy: bool = True) -> np.ndarray:  # copy=False: a itself, or ValueError
    out = np.array(a, dtype=float, order="C", copy=copy)
    out.flags.writeable = False
    return out


class _Adopts:
    def _check_values(self, copy: bool, ndim: int, noun: str, shape: str) -> None:
        """n on the grid, values of ndim nonempty axes ending in n, all finite, kept read-only."""
        check_grid(self.n)
        v = np.asarray(self.values, dtype=float)
        if v.ndim != ndim or v.shape[-1] != self.n or v.shape[0] < 1:
            raise ValueError(shape)
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{noun} values must be finite")
        object.__setattr__(self, "values", _readonly(v, copy))

    @classmethod
    def _adopt(cls, n: int, values: np.ndarray):
        """cls(n, values) with its checks, but keeping the fresh array itself, made read-only."""
        obj = object.__new__(cls)
        obj.__dict__.update(n=n, values=values)
        obj.__post_init__(copy=False)
        return obj


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
        """Exact remainder 2 * sum_{j>k} const * j**(-q) by scipy's Hurwitz zeta ufunc, as
        scipy.special.zeta(q, k + 1) calls it; of the CLI's commands only --eps gets here."""
        return 2.0 * self.const * float(_scipy_ufuncs()._zeta(self.q, k + 1))

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
        with np.errstate(over="ignore"):
            if not math.isfinite(c0 * c0 + 2.0 * float(np.sum(np.square(c)))):
                raise SpectrumError("coefficients' squared mass c0^2 + 2 sum c_k^2 overflows")
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

    A negative entry within 1e-9 times the largest |entry| (c0 included) is
    set to zero; a larger one is a SpectrumError, since a valid covariance
    spectrum has no negative mass.  The rule scales with the input, so no
    decision depends on its units.  Idempotent on already-valid input.
    """
    arr = np.asarray(list(raw), dtype=float)
    if arr.size == 0:
        raise ValueError("need at least the lag-zero coefficient c0")
    if arr.ndim != 1:
        raise ValueError("coefficients must form a flat sequence")
    if not np.all(np.isfinite(arr)):
        raise SpectrumError("coefficients must be finite")
    if np.any(arr < -1e-9 * float(np.max(np.abs(arr)))):
        raise SpectrumError("negative spectral mass")
    arr = np.where(arr < 0.0, 0.0, arr)
    return SpectralCoefficients(float(arr[0]), arr[1:], declared_tail)


def h_norm(c: SpectralCoefficients) -> float:
    """Process norm sqrt(c0^2 + 2 sum c_k^2); tail remainder enters in closed form."""
    return math.sqrt(c.squared_mass())


@dataclass(frozen=True, eq=False)
class Covariogram:
    """Stationary covariance C(d) on the circle: one period on the uniform grid d = j/n.

    The constructor checks the symmetry C(d) = C(1 - d) and the dominance
    C(0) >= |C(d)|, both necessary for positive semidefiniteness; the
    full PSD check happens in the cosine transform.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("covariogram values must be a flat array")
        check_grid(v.size)
        if not np.all(np.isfinite(v)):
            raise SpectrumError("covariogram values must be finite")
        scale = float(np.max(np.abs(v))) or 1.0
        tol = 1e-9 * scale
        if np.max(np.abs(v[1:] - v[:0:-1])) > tol:
            raise SpectrumError("asymmetric covariogram: C(d) must equal C(1-d)")
        if np.max(np.abs(v)) > v[0] + tol:
            raise SpectrumError("covariogram maximum must sit at lag zero")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def n(self) -> int:
        return int(self.values.size)

    def at(self, delta):
        """Evaluate C at grid lag(s) delta, taken modulo 1."""
        with np.errstate(invalid="ignore"):  # an infinite lag's remainder is NaN
            idx = np.asarray(delta, dtype=float) % 1.0 * self.n
        j = np.rint(idx)
        if not np.max(np.abs(idx - j)) <= 1e-9:  # written so that a NaN fails
            raise ValueError("covariogram evaluated off its grid")
        return self.values[j.astype(int) % self.n]


@dataclass(frozen=True, eq=False)
class GridPath(_Adopts):
    """One trajectory sampled at t = j/n on the periodic unit grid."""

    n: int
    values: np.ndarray

    def __post_init__(self, copy: bool = True):  # in each class: bench/spans.py times it there
        self._check_values(copy, 1, "path", "values must be a flat array of length n")


@dataclass(frozen=True, eq=False)
class PathEnsemble(_Adopts):
    """R independent replicate paths on a shared grid, row per replicate."""

    n: int
    values: np.ndarray

    def __post_init__(self, copy: bool = True):  # in each class: bench/spans.py times it there
        self._check_values(copy, 2, "ensemble",
                           "ensemble values must have shape (R, n) with R >= 1")

    @property
    def R(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class ParametricModel:
    """The power-law family c_k = a / k**p; p > 1/2 keeps the mass summable."""

    a: float
    p: float

    def __post_init__(self):
        if not (self.a > 0.0 and sys.float_info.min <= self.a * self.a <= sys.float_info.max / 2):
            raise ValueError("amplitude a must be positive, with a finite square: a^2 "
                             "must not underflow, nor 2a^2 overflow")
        if not (math.isfinite(self.p) and self.p > 0.5):
            raise ValueError("p must exceed 1/2 and be finite for square-summable coefficients, "
                             f"got {float(self.p)!r}")


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


def _fixed_notation_tables():
    """Lookup tables for CELL_FORMAT cells in fixed notation: decimal exponent X
    (-4..16), last nonzero significant digit at index `last` (0..16).  Such a
    cell is five NUL-padded uint64 words; with code = 17 * (X + 4) + last, word 0
    is words[offset[code, 0] + 100 * negative + digit 0] (sign, "0." and -X - 1
    zeros if X < 0, digit 0, "." if X == 0 and a fraction follows) and word j is
    words[offset[code, j] + digits 4j-3..4j] ("." after digit X if it falls among
    them), each ANDed with mask[code, j] to the digits up to max(X, last).
    """
    digits = np.indices((10,) * 4).reshape(4, -1).T.astype(np.uint8) + ord("0")  # "0000".."9999"
    groups = np.zeros((5, 10 ** 4, 8), np.uint8)
    groups[0, :, :4] = digits
    for d in range(1, 5):
        groups[d, :, :d], groups[d, :, d], groups[d, :, d + 1:5] = (
            digits[:, :d], ord("."), digits[:, d:])
    leads = [sign + ("0." + "0" * (z - 1) if z else "") + str(first) + "." * dot
             for sign in ("", "-") for z in range(5) for dot in (0, 1) for first in range(10)]
    leads = b"".join(c.encode().ljust(8, b"\0") for c in leads)
    words = np.concatenate([groups.view(np.uint64).ravel(), np.frombuffer(leads, np.uint64)])
    # each group's digits up to its last nonzero one; the last nonzero of four groups
    siglen = np.where(digits != ord("0"), np.arange(1, 5), 0).max(axis=1)
    lengths = np.indices((5,) * 4).reshape(4, -1).T
    last_of = np.where(lengths > 0, lengths + np.arange(0, 16, 4), 0).max(axis=1)
    X, last = np.arange(-4, 17)[:, None, None], np.arange(17)[None, :, None]
    dot = last > X  # a nonzero fraction digit follows digit X
    lead = groups.size // 8 + 10 * (2 * np.maximum(-X, 0) + (dot & (X == 0)))
    d = X - np.arange(0, 16, 4) + 0 * last  # digits of each group word before the point
    has_dot = (d >= 1) & (d <= 4)
    offset = np.concatenate([lead, np.where(has_dot, d, 0) * 10 ** 4], axis=2)
    kept = np.clip(np.maximum(last, X) - np.arange(0, 16, 4), 0, 4) + (has_dot & dot)
    kept = np.concatenate([np.full_like(lead, 8), kept], axis=2)
    mask = np.array([(1 << 8 * c) - 1 for c in range(9)], np.uint64)[kept]
    return words, siglen, last_of, offset.reshape(-1, 5), mask.reshape(-1, 5)


_POW10 = np.array([float(10 ** s) for s in range(21)])  # exact below 10**23
_WORDS, _SIGLEN, _LAST, _OFFSET, _MASK = _fixed_notation_tables()


def _significand(a, X):
    """a * 10**(16 - X) rounded half-even to an int64, exactly (Dekker's product)."""
    b = _POW10[16 - X]
    p = a * b
    c, d = 134217729.0 * a, 134217729.0 * b  # split each factor into 26-bit halves
    ah, bh = c - (c - a), d - (d - b)
    al, bl = a - ah, b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl  # a * b == p + e
    return p.astype(np.int64) + np.rint(e).astype(np.int64)  # p is even and >= 2**53


def _format_cells(block, ncols: int) -> bytes:
    """format_float of row-major cells, ',' between cells and '\\n' after each row:
    built in numpy where CELL_FORMAT prints fixed notation (1e-4 <= |x| < 1e17),
    by format_float for zeros, other magnitudes and non-finite cells."""
    v = np.asarray(block, dtype=float).ravel()
    a = np.abs(v)
    fixed = (a >= 1e-4) & (a < 1e17)
    a = np.where(fixed, a, 1.0)
    X = np.clip(np.floor(np.log10(a)).astype(np.int64), -4, 16)
    D = _significand(a, X)
    # log10 may round across a power of ten, and a cell that rounds to exactly
    # 10**X may have X one too high: step X once, then leave misfits to Python
    off = np.flatnonzero((D <= 10 ** 16) | (D >= 10 ** 17))
    if off.size:
        X[off] = np.clip(X[off] + np.where(D[off] <= 10 ** 16, -1, 1), -4, 16)
        D[off] = _significand(a[off], X[off])
        fixed[off] &= (D[off] > 10 ** 16) & (D[off] < 10 ** 17)
    G = np.empty((v.size, 5), np.int64)  # digit 0, then digits 1-4, 5-8, 9-12, 13-16
    for j, s in enumerate((16, 12, 8, 4, 0)):
        G[:, j] = D // 10 ** s % 10 ** 4
    lengths = np.take(_SIGLEN, G[:, 1:]) @ (125, 25, 5, 1)  # as one base-5 number
    code = 17 * (X + 4) + np.take(_LAST, lengths)
    G += np.take(_OFFSET, code, axis=0)
    G[:, 0] += 100 * (v < 0)
    W = np.take(_WORDS, G) & np.take(_MASK, code, axis=0)
    W[:, 4] |= np.uint64(ord(",") << 56)
    W[ncols - 1::ncols, 4] ^= np.uint64((ord(",") ^ ord("\n")) << 56)
    B = W.view(np.uint8)
    slow = np.flatnonzero(~fixed)
    if slow.size:  # a cell is at most 24 characters; byte 39 holds the separator
        cells = "".join(format_float(x).ljust(39, "\0") for x in v[slow].tolist())
        B[slow, :39] = np.frombuffer(cells.encode(), np.uint8).reshape(-1, 39)
    return B.tobytes().translate(None, b"\0")


def write_table_csv(header: str, columns, path) -> None:
    """Write equal-length columns under a header line, one CELL_FORMAT cell each; an (R, n)
    array in `columns` is R columns, its rows, and each block copies one transposed slice."""
    width = sum(len(c) if c.ndim == 2 else 1 for c in columns)
    step = max(1, BLOCK_VALUES // width)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, columns[0].shape[-1], step):
            fh.write(_format_cells(np.column_stack([c[..., lo:lo + step].T for c in columns]),
                                   width))


def _numpy_to_json(obj):  # json.dumps' default=; np.float64 is a float already
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(obj, path) -> None:
    """Write strict JSON: a NaN or infinity raises ValueError before the file is opened."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False,
                          default=_numpy_to_json)
    except ValueError:
        raise ValueError(f"{path}: refusing to write a non-finite value as JSON") from None
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def write_coefficients(c: SpectralCoefficients, path) -> None:
    tail = None if c.declared_tail is None else asdict(c.declared_tail)
    write_json({"c0": c.c0, "c": c.c, "tail": tail}, path)


def read_coefficients(path) -> SpectralCoefficients:
    try:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data["c"], list):
            raise TypeError("'c' is not a JSON array")
        raw = [data["c0"], *data["c"]]
        tail = data.get("tail")
        declared = [] if tail is None else [tail["q"], tail["const"]]
        if any(type(x) not in (int, float) for x in raw + declared):  # bool is not a number
            raise TypeError("c0, c, q and const must be JSON numbers")
        decay = None if tail is None else TailDecay(*map(float, declared))
        return validate_coefficients(raw, declared_tail=decay)
    except (KeyError, TypeError, OverflowError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"malformed coefficient file {path}: {exc}") from exc
    except ValueError as exc:  # keeps the class: a SpectrumError still exits 4
        raise type(exc)(f"{path}: {exc}") from exc


def write_paths_csv(values: np.ndarray, path) -> None:
    """Write one path or an ensemble as columns t,x or t,x0,x1,..."""
    v = np.atleast_2d(np.asarray(values, dtype=float))
    R, n = v.shape
    header = "t,x" if R == 1 else "t," + ",".join(f"x{r}" for r in range(R))
    write_table_csv(header, [np.arange(n) / n, v], path)


def _cells(line: str) -> str:  # np.loadtxt skips a line if this is empty
    return line.partition("#")[0].rstrip("\r\n")


def _rows_of_width(lines, commas: int, first: int, cut):
    """The lines, each checked to have commas + 1 fields unless loadtxt skips it, then cut."""
    for number, line in enumerate(lines, first):
        cells = _cells(line)
        if (found := cells.count(",")) != commas and cells:
            raise ValueError(f"line {number} has {found + 1} fields, the header {commas + 1}")
        yield cut(cells).group() if cut and cells else line


def read_grid_csv(path, header_ok, expected: str, column=None) -> np.ndarray:
    """Rows of a CSV table whose first column is the grid j/n, n as check_grid asks; with a
    column, only the grid and that value column.  Every row has the header's field count;
    only lines empty once the '#' comment is cut are skipped, as np.loadtxt skips them."""
    with open(path) as fh:
        header = fh.readline()
        if not header_ok(header.strip()):
            raise ValueError(f"{path}: expected {expected}")
        commas = _cells(header).count(",")
        if column is not None and not 0 <= column < commas:
            raise ValueError(f"{path}: column {column} out of range, file has {commas}")
        line, number = fh.readline(), 2
        while line and not _cells(line):
            line, number = fh.readline(), number + 1
        if not line:
            raise ValueError(f"{path}: no data rows after the header")
        # hand loadtxt a row's fields up to the column alone where that pays: a cut costs ~0.6 us
        # a row and ~0.1 us a kept field, and saves ~0.05 us a dropped one (drop >= 2 kept + 16)
        cut = (re.compile("(?:[^,]*,){%d}[^,]*" % (column + 1)).match
               if column is not None and commas >= 3 * column + 21 else None)
        # chain, not seek: the input may be a pipe
        rows = _rows_of_width(itertools.chain([line], fh), commas, number, cut)
        try:
            data = np.loadtxt(rows, delimiter=",", ndmin=2,
                              usecols=None if column is None else (0, column + 1))
        except ValueError as exc:  # loadtxt's "row R" counts data rows only
            raise ValueError(f"{path}: {exc} (the first data row is line {number})") from exc
    n = data.shape[0]
    try:
        check_grid(n)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not np.max(np.abs(data[:, 0] - np.arange(n) / n)) <= 1e-12:  # a NaN fails too
        raise ValueError(f"{path}: first column is not the uniform grid j/n")
    return data


def read_paths_csv(path, column=None) -> tuple[np.ndarray, np.ndarray]:
    """Read a path CSV; returns (t, values) with values shaped (R, n), or (1, n) holding
    value column `column` alone when one is given."""
    data = read_grid_csv(path, lambda h: h.startswith("t,"), "a header starting with 't,'", column)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: path values must be finite")
    return data[:, 0], data[:, 1:].T
