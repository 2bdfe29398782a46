"""Sensor location selection and measurement.

Every plan is built by :func:`plan_with_modes`: the column-pivoted QR of the
transposed basis gives the first sensors, and oversampling appends extra
rows either uniformly at random or by greedily maximizing the smallest
singular value of the growing measurement matrix. :func:`place` picks the
number of modes from a policy first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .basis import Basis, truncate_basis
from .linalg import as_matrix, cpqr

OVERSAMPLERS = ("random", "odeim-e")


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
        if self.oversample not in OVERSAMPLERS:
            raise ValueError("oversample must be 'random' or 'odeim-e'")

    def modes_for(self, p: int, limit: int | None = None) -> int:
        """Mode count for p sensors, at most ``limit`` when one is given.

        Callers pass min(n, m) of the matrix the basis is built from, or the
        r of a basis already built: more modes than that add nothing.
        """
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        r = p if p <= self.small_p_threshold else math.ceil(p / self.oversample_factor)
        return r if limit is None else min(r, limit)


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


def plan_with_modes(
    basis: Basis,
    p: int,
    oversample: str = "random",
    seed: int | None = None,
    pivots: np.ndarray | None = None,
) -> SensorPlan:
    """Place p sensors from every mode of the basis.

    With p <= r the plan is the first p QR pivots of the mode matrix.
    Otherwise it is all r pivots followed by p - r rows from the
    oversampler: a uniform draw from the remaining rows under ``seed`` for
    ``"random"``; for ``"odeim-e"``, greedily the row maximizing sigma_min
    of the grown measurement matrix (ties to the lowest row index).

    Each greedy step picks exactly the row an exhaustive scan over the
    remaining candidates would. One seed row is valued exactly, one GEMV
    drops every candidate it beats by more than a stated tolerance,
    secular-equation brackets on the few left prune all but those that can
    win, and those are confirmed with the exhaustive scan's own eigvalsh
    arithmetic (see :func:`sparsesense.kernels.sigma_min_tail`). A step
    costs one n x r x r product, two GEMVs and one r x r eigvalsh besides
    the eigh of the Gram matrix, plus root-finding on the rows left, still
    far more than a random draw.

    ``pivots`` is the basis's first min(r, n) QR pivots, for a caller that
    already has them; they are computed when omitted.
    """
    if oversample not in OVERSAMPLERS:
        raise ValueError(f"oversample must be one of {OVERSAMPLERS}, got {oversample!r}")
    if p > basis.n:
        raise ValueError(f"p = {p} exceeds the state dimension n = {basis.n}")
    if pivots is None:
        pivots = qr_pivots(basis, min(p, basis.r)).locations
    elif len(pivots) != min(basis.r, basis.n):
        raise ValueError(
            f"expected the basis's {min(basis.r, basis.n)} QR pivots, got {len(pivots)}"
        )
    if p <= len(pivots):
        return SensorPlan(pivots[:p], "qr", basis.r)
    count = p - len(pivots)
    if oversample == "random":
        if seed is None:
            raise ValueError("random oversampling needs a seed")
        tail = _random_tail(basis.n, pivots, count, seed)
        method = "qr+random-oversample"
    else:
        tail = kernels.sigma_min_tail(basis.psi, pivots, count)
        method = "qr+odeim-e"
    return SensorPlan(np.concatenate([pivots, tail]), method, basis.r)


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
    if not (basis.kind == "randomized" and basis.r > p):
        basis = truncate_basis(basis, policy.modes_for(p, basis.r))
    return plan_with_modes(basis, p, policy.oversample, seed)


def measure(X, plan: SensorPlan) -> np.ndarray:
    """Row-gather of X at the plan's locations, in plan order."""
    X = as_matrix(X, "X", require_finite=False)
    if int(plan.locations.max()) >= X.shape[0]:
        raise ValueError(
            f"sensor location {int(plan.locations.max())} out of range "
            f"for {X.shape[0]} state entries"
        )
    return X[plan.locations]
