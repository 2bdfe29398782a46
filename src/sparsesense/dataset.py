"""Datasets: synthetic power-law construction, file I/O, splits, spectrum tools.

A dataset is an n x m matrix whose columns are state snapshots. Synthetic
sets are built as U diag(sigma) V^T from seeded random orthonormal factors
and a prescribed power-law singular spectrum sigma_i = a * i**b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .linalg import as_matrix, random_orthonormal_columns
from .seeding import derive_seed

_LEFT_FACTOR_TAG = 101
_RIGHT_FACTOR_TAG = 102

_BINARY_MAGIC = b"SSNS"


class MatrixFormatError(ValueError):
    """A matrix file violates its format contract (dimensions, content)."""


class MatrixParseError(MatrixFormatError):
    """A matrix file fails to parse; the message carries line/offset context."""


@dataclass(frozen=True)
class SpectrumSpec:
    """Power-law singular spectrum sigma_i = amplitude * i**exponent, i = 1..n_sv."""

    amplitude: float
    exponent: float
    n_sv: int

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and self.amplitude > 0):
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")
        if not math.isfinite(self.exponent):
            raise ValueError("exponent must be finite")
        if self.n_sv < 1:
            raise ValueError(f"n_sv must be >= 1, got {self.n_sv}")


@dataclass(frozen=True)
class Dataset:
    """An n x m snapshot matrix, read-only."""

    X: np.ndarray

    def __post_init__(self):
        X = as_matrix(self.X, "X").view()
        X.setflags(write=False)
        object.__setattr__(self, "X", X)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class SplitDataset:
    """Disjoint train/test snapshot partition of a dataset."""

    train: np.ndarray
    test: np.ndarray
    train_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self):
        tr = np.asarray(self.train_indices, dtype=np.int64)
        te = np.asarray(self.test_indices, dtype=np.int64)
        m = tr.size + te.size
        if np.intersect1d(tr, te).size:
            raise ValueError("train and test indices overlap")
        if not np.array_equal(np.sort(np.concatenate([tr, te])), np.arange(m)):
            raise ValueError("indices must partition [0, m)")


def power_law_spectrum(spec: SpectrumSpec) -> np.ndarray:
    """sigma_i = a * i**b for i = 1..n_sv (non-increasing for b <= 0)."""
    i = np.arange(1, spec.n_sv + 1, dtype=np.float64)
    return spec.amplitude * i**spec.exponent


def synthesize(spec: SpectrumSpec, n: int, m: int, seed: int) -> Dataset:
    """Build an n x m dataset whose singular values are the prescribed spectrum.

    X = U diag(sigma) V^T with seeded random orthonormal-column factors, a
    stand-in for real-data singular vectors that are not redistributable.
    """
    if n < 1 or m < 1:
        raise ValueError(f"n and m must be >= 1, got ({n}, {m})")
    if spec.n_sv > min(n, m):
        raise ValueError(f"n_sv = {spec.n_sv} exceeds min(n, m) = {min(n, m)}")
    sigma = power_law_spectrum(spec)
    # One BLAS thread, so the bytes do not depend on the machine's core count.
    with kernels.single_blas_thread():
        U = random_orthonormal_columns(n, spec.n_sv, derive_seed(seed, _LEFT_FACTOR_TAG))
        V = random_orthonormal_columns(m, spec.n_sv, derive_seed(seed, _RIGHT_FACTOR_TAG))
        X = (U * sigma) @ V.T
    return Dataset(X)


def split(ds: Dataset, train_fraction: float, seed: int) -> SplitDataset:
    """Uniform random snapshot partition; round(train_fraction * m) train columns."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    m = ds.m
    m_tr = int(round(train_fraction * m))
    if m_tr < 1 or m - m_tr < 1:
        raise ValueError(
            f"fraction {train_fraction} of {m} snapshots leaves an empty side"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    tr = np.sort(perm[:m_tr])
    te = np.sort(perm[m_tr:])
    return SplitDataset(ds.X[:, tr], ds.X[:, te], tr, te)


def overall_variance(X) -> float:
    """Population variance of all entries of X about their global mean."""
    X = as_matrix(X, "X")
    return float(np.var(X))


def energy_rank(sigmas, fraction: float) -> int:
    """Smallest k whose cumulative singular-value sum reaches the fraction.

    Energy is the plain cumulative sum of the sigmas (not their squares).
    """
    s = np.asarray(sigmas, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("sigmas must be a nonempty 1-D sequence")
    if np.any(s < 0.0):
        raise ValueError("singular values must be non-negative")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    total = float(s.sum())
    if total <= 0.0:
        raise ValueError("spectrum has no positive singular values")
    ratios = np.cumsum(s) / total
    return int(np.searchsorted(ratios, fraction, side="left")) + 1


def fit_power_law(sigmas) -> tuple[float, float]:
    """Least-squares (a, b) fit of sigma_i ~ a * i**b on log-log axes.

    Exact recovery when the input is exactly a power law; any nonpositive
    entry is rejected since the log is taken.
    """
    s = np.asarray(sigmas, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("sigmas must be a nonempty 1-D sequence")
    if np.any(s <= 0.0) or not np.all(np.isfinite(s)):
        raise ValueError("all singular values must be positive and finite")
    if s.size == 1:
        return float(s[0]), 0.0
    x = np.log(np.arange(1, s.size + 1, dtype=np.float64))
    y = np.log(s)
    xc = x - x.mean()
    b = float(np.dot(xc, y) / np.dot(xc, xc))
    a = float(np.exp(y.mean() - b * x.mean()))
    return a, b


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------
#
# CSV: optional first line "rows,cols" (two bare integers), then one line per
# state entry with comma-separated snapshot values at 17 significant digits.
# Binary: magic "SSNS", little-endian u64 rows, u64 cols, then float64 data
# in column-major order; round trips are bit-exact.


def save_matrix(ds: Dataset, path: str, fmt: str = "binary") -> None:
    X = ds.X
    if fmt == "binary":
        rows, cols = X.shape
        with open(path, "wb") as fh:
            fh.write(_BINARY_MAGIC)
            fh.write(np.array([rows, cols], dtype="<u8").tobytes())
            fh.write(np.asarray(X, dtype="<f8").tobytes(order="F"))
    elif fmt == "csv":
        lines = [f"{X.shape[0]},{X.shape[1]}"]
        for i in range(X.shape[0]):
            lines.append(",".join(f"{v:.17g}" for v in X[i]))
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r} (expected 'binary' or 'csv')")


def load_matrix(path: str) -> Dataset:
    """Load a dataset saved by :func:`save_matrix`, binary if the file
    starts with the binary magic and CSV otherwise."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob.startswith(_BINARY_MAGIC):
        return _load_binary(blob, path)
    return _load_csv(blob, path)


def _load_binary(blob: bytes, path: str) -> Dataset:
    if len(blob) < 20:
        raise MatrixFormatError(f"{path}: too short for a binary matrix header")
    rows = int(np.frombuffer(blob, dtype="<u8", count=1, offset=4)[0])
    cols = int(np.frombuffer(blob, dtype="<u8", count=1, offset=12)[0])
    expected = 20 + 8 * rows * cols
    if rows < 1 or cols < 1 or len(blob) != expected:
        raise MatrixFormatError(
            f"{path}: header declares {rows}x{cols} "
            f"({expected} bytes) but file has {len(blob)} bytes"
        )
    data = np.frombuffer(blob, dtype="<f8", count=rows * cols, offset=20)
    X = data.reshape((rows, cols), order="F")
    return _wrap_loaded(X, path)


def _load_csv(blob: bytes, path: str) -> Dataset:
    # (line number, text) of every nonblank line, numbered as in the file.
    lines = []
    for lineno, raw in enumerate(blob.splitlines(), start=1):
        try:
            text = raw.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MatrixParseError(
                f"{path}: line {lineno}: non-ASCII byte 0x{raw[exc.start]:02x} "
                f"at column {exc.start + 1}"
            ) from None
        if text.strip():
            lines.append((lineno, text))
    if not lines:
        raise MatrixFormatError(f"{path}: empty file")
    declared = None
    first = [f.strip() for f in lines[0][1].split(",")]
    if len(first) == 2 and all(_is_bare_int(f) for f in first):
        declared = (int(first[0]), int(first[1]))
        lines = lines[1:]
    if not lines:
        raise MatrixFormatError(f"{path}: header only, no data rows")
    rows = []
    width = None
    for lineno, ln in lines:
        fields = ln.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise MatrixParseError(
                f"{path}: line {lineno}: expected {width} values, found {len(fields)}"
            )
        try:
            rows.append([float(f) for f in fields])
        except ValueError as exc:
            raise MatrixParseError(f"{path}: line {lineno}: {exc}") from None
    X = np.asarray(rows, dtype=np.float64)
    if declared is not None and declared != X.shape:
        raise MatrixFormatError(
            f"{path}: header declares {declared[0]}x{declared[1]} "
            f"but data is {X.shape[0]}x{X.shape[1]}"
        )
    return _wrap_loaded(X, path)


def _wrap_loaded(X: np.ndarray, path: str) -> Dataset:
    try:
        return Dataset(np.ascontiguousarray(X))
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from None


def _is_bare_int(text: str) -> bool:
    return text.isdigit()
