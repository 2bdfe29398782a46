"""Sensor location selection and measurement.

All strategies start from the column-pivoted QR of the transposed basis;
oversampling appends extra rows either uniformly at random or by greedily
maximizing the smallest singular value of the growing measurement matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .basis import Basis, truncate_basis
from .linalg import as_matrix, cpqr


@dataclass(frozen=True)
class SensorPlan:
    """Ordered sensor locations (row indices into the state vector).

    The first min(p, r_used) locations are always the QR pivots of the mode
    matrix in pivot order; anything after them comes from an oversampler.
    """

    locations: np.ndarray
    method: str
    r_used: int

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=np.int64)
        if loc.ndim != 1 or loc.size == 0:
            raise ValueError("locations must be a nonempty 1-D index list")
        if len(set(loc.tolist())) != loc.size:
            raise ValueError("locations contain duplicates")
        if loc.min() < 0:
            raise ValueError("locations must be non-negative")
        loc = loc.copy()
        loc.setflags(write=False)
        object.__setattr__(self, "locations", loc)

    @property
    def p(self) -> int:
        return int(self.locations.size)


@dataclass(frozen=True)
class PlacementPolicy:
    """Mode-count rule and oversampling strategy for a sensor budget p.

    r = p for small budgets (p <= small_p_threshold), otherwise
    r = ceil(p / oversample_factor); both knobs are configurable.
    """

    small_p_threshold: int = 10
    oversample_factor: float = 2.0
    oversample: str = "random"

    def __post_init__(self):
        if self.small_p_threshold < 0:
            raise ValueError("small_p_threshold must be >= 0")
        if self.oversample_factor < 1.0:
            raise ValueError("oversample_factor must be >= 1")
        if self.oversample not in ("random", "odeim-e"):
            raise ValueError("oversample must be 'random' or 'odeim-e'")

    def modes_for(self, p: int) -> int:
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        return p if p <= self.small_p_threshold else math.ceil(p / self.oversample_factor)


def qr_pivots(basis: Basis, k: int) -> SensorPlan:
    """First k QR pivot rows of the mode matrix (undersampling when k < r)."""
    if k > basis.r:
        raise ValueError(
            f"k = {k} exceeds the mode count r = {basis.r}; "
            "use an oversampling strategy for p > r"
        )
    result = cpqr(basis.psi.T, k)
    return SensorPlan(result.pivots, "qr", basis.r)


def _random_tail(n: int, prefix: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Uniform draw without replacement from the rows not in prefix."""
    remaining = np.ones(n, dtype=np.bool_)
    remaining[prefix] = False
    rng = np.random.default_rng(seed)
    return rng.choice(np.nonzero(remaining)[0], size=count, replace=False)


def oversample_random(basis: Basis, p: int, seed: int) -> SensorPlan:
    """QR pivots for the first r sensors, the remaining p - r uniform at random."""
    _check_oversample(basis, p)
    prefix = qr_pivots(basis, basis.r).locations
    tail = _random_tail(basis.n, prefix, p - basis.r, seed)
    return SensorPlan(np.concatenate([prefix, tail]), "qr+random-oversample", basis.r)


def oversample_sigma_min(basis: Basis, p: int) -> SensorPlan:
    """QR pivots, then greedily add the row maximizing sigma_min of the
    grown measurement matrix (ties to the lowest row index).

    Each step picks exactly the row an exhaustive scan over the remaining
    candidates would. Secular-equation brackets on every candidate's
    lambda_min prune all but the few that can win, and those few are
    confirmed with the exhaustive scan's own eigvalsh arithmetic (see
    :func:`sparsesense.kernels.sigma_min_tail`). A step costs one n x r x r
    product plus a few r x r eigenproblems, still far more than a random
    draw.
    """
    _check_oversample(basis, p)
    prefix = qr_pivots(basis, basis.r).locations
    tail = kernels.sigma_min_tail(basis.psi, prefix, p - basis.r)
    return SensorPlan(np.concatenate([prefix, tail]), "qr+odeim-e", basis.r)


# Name used in the oversampling literature for the sigma_min-greedy variant.
oversample_odeim_e = oversample_sigma_min


def _check_oversample(basis: Basis, p: int) -> None:
    if p <= basis.r:
        raise ValueError(f"oversampling requires p > r, got p = {p}, r = {basis.r}")
    if p > basis.n:
        raise ValueError(f"p = {p} exceeds the state dimension n = {basis.n}")


def place(
    basis: Basis,
    p: int,
    policy: PlacementPolicy | None = None,
    seed: int | None = None,
) -> SensorPlan:
    """Place p sensors under the policy's mode-count rule.

    The rule fixes how many leading modes feed the QR stage; the plan is
    pure QR pivots when p <= r and oversampled otherwise. A randomized basis
    wider than p (undersampling) is used whole: the plan is then the first p
    pivots of the full mode matrix.
    """
    policy = policy or PlacementPolicy()
    if p > basis.n:
        raise ValueError(f"p = {p} exceeds the state dimension n = {basis.n}")
    if basis.kind == "randomized" and basis.r > p:
        return qr_pivots(basis, p)
    r = min(policy.modes_for(p), basis.r)
    working = truncate_basis(basis, r)
    if p <= r:
        return qr_pivots(working, p)
    if policy.oversample == "random":
        if seed is None:
            raise ValueError("random oversampling needs a seed")
        return oversample_random(working, p, seed)
    return oversample_sigma_min(working, p)


def measure(X, plan: SensorPlan) -> np.ndarray:
    """Row-gather of X at the plan's locations, in plan order."""
    X = as_matrix(X, "X", require_finite=False)
    if int(plan.locations.max()) >= X.shape[0]:
        raise ValueError(
            f"sensor location {int(plan.locations.max())} out of range "
            f"for {X.shape[0]} state entries"
        )
    return X[plan.locations]
