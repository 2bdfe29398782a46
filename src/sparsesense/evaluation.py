"""Experiment orchestration.

Single seeded trials, mode/sensor sweeps, multi-fidelity composition sweeps,
and regime classification. Every trial seed is derived from (master seed,
split index, placement-CV index, noise index) with an avalanche-quality
mixer, so results are pure functions of the configuration and independent of
execution schedule; the optional cache only memoizes per-split work.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from hashlib import sha256

import numpy as np

from .basis import Basis, _modes_from_left_vectors, randomized_basis
from .dataset import Dataset, overall_variance, split
from .linalg import lstsq_minnorm
from .multifidelity import (
    ASSIGNMENTS,
    BudgetSpec,
    Composition,
    NoiseModel,
    assign_fidelities,
    enumerate_compositions,
    noisy_measure,
)
from .placement import (
    PlacementPolicy,
    SensorPlan,
    _random_tail,
    measure,
    qr_pivots,
)
from . import kernels
from .seeding import derive_seed

_TAG_SPLIT = 1
_TAG_BASIS = 2
_TAG_PLACEMENT = 3
_TAG_NOISE = 4

REGIME_CHEAP = "cheap"
REGIME_EXPENSIVE = "expensive"
REGIME_INCONCLUSIVE = "inconclusive"
REGIME_MIXED_BEST = "mixed-best"


def reconstruct(basis: Basis, plan: SensorPlan, Y) -> np.ndarray:
    """Full-state estimate from sparse measurements: Psi @ pinv(Theta) @ Y."""
    theta = measure(basis.psi, plan)
    return basis.psi @ lstsq_minnorm(theta, Y)


def fractional_error(X, Xhat) -> float:
    """Relative Frobenius reconstruction error ||X - Xhat||_F / ||X||_F."""
    X = np.asarray(X, dtype=np.float64)
    Xhat = np.asarray(Xhat, dtype=np.float64)
    if X.shape != Xhat.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {Xhat.shape}")
    denom = float(np.linalg.norm(X))
    if denom == 0.0:
        raise ValueError("reference matrix has zero norm")
    return float(np.linalg.norm(X - Xhat) / denom)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs, with a single master seed.

    Noise levels are variance fractions of the training data's overall
    variance (recomputed per split); single-fidelity sweeps use level_cheap
    for every sensor. Counts follow the protocol: n_splits random train/test
    partitions, each with n_placement_cv re-draws of the random oversampling
    tail and n_noise noise realizations.
    """

    dataset: Dataset
    basis_kind: str = "svd"
    policy: PlacementPolicy = field(default_factory=PlacementPolicy)
    level_cheap: float = 0.02
    level_exp: float = 0.01
    assignment: str = "exp-first"
    budget: BudgetSpec | None = None
    composition_steps: int = 11
    train_fraction: float = 0.8
    n_splits: int = 20
    n_placement_cv: int = 20
    n_noise: int = 10
    master_seed: int = 0

    def __post_init__(self):
        if self.basis_kind not in ("svd", "randomized"):
            raise ValueError(f"unknown basis kind {self.basis_kind!r}")
        if self.assignment not in ASSIGNMENTS:
            raise ValueError(f"assignment must be one of {ASSIGNMENTS}")
        if min(self.n_splits, self.n_placement_cv, self.n_noise) < 1:
            raise ValueError("trial counts must all be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.level_exp > self.level_cheap:
            raise ValueError("level_exp must not exceed level_cheap")
        if self.composition_steps < 2:
            raise ValueError("composition_steps must be >= 2")

    @property
    def trials(self) -> int:
        return self.n_splits * self.n_placement_cv * self.n_noise

    @property
    def m_train(self) -> int:
        return int(round(self.train_fraction * self.dataset.m))

    def digest(self) -> str:
        """Stable content hash of the configuration, dataset included."""
        h = sha256()
        h.update(self.dataset.X.tobytes())
        h.update(
            repr(
                (
                    self.dataset.X.shape,
                    self.basis_kind,
                    self.policy,
                    self.level_cheap,
                    self.level_exp,
                    self.assignment,
                    self.budget,
                    self.composition_steps,
                    self.train_fraction,
                    self.n_splits,
                    self.n_placement_cv,
                    self.n_noise,
                    self.master_seed,
                )
            ).encode()
        )
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class CellResult:
    """Error statistics for one (modes, sensors) grid cell."""

    r: int
    p: int
    mean_error: float
    std_error: float
    trials: int


@dataclass(frozen=True)
class CompositionResult:
    """Error statistics for one cheap/expensive composition."""

    composition: Composition
    mean_error: float
    std_error: float
    trials: int


@dataclass(frozen=True)
class MinErrorPoint:
    """Minimum mean error over modes at a fixed sensor count."""

    p: int
    mean_error: float
    r: int


def pooled_standard_error(a, b) -> float:
    """Standard error of the difference of two cell/composition means."""
    return math.sqrt(
        a.std_error**2 / a.trials + b.std_error**2 / b.trials
    )


class _SweepCache:
    """Per-split memo. Purely an accelerator: results with and without it
    are identical because every entry is a deterministic function of the
    configuration."""

    def __init__(self):
        self.splits: dict = {}
        self.left_vectors: dict = {}
        self.bases: dict = {}
        self.pivot_orders: dict = {}
        self.greedy_tails: dict = {}


def _get_split(config, cache, split_idx):
    hit = cache.splits.get(split_idx)
    if hit is None:
        sd = split(
            config.dataset,
            config.train_fraction,
            derive_seed(config.master_seed, _TAG_SPLIT, split_idx),
        )
        hit = (sd, overall_variance(sd.train))
        cache.splits[split_idx] = hit
    return hit


def _get_basis(config, cache, split_idx, r) -> Basis:
    key = (split_idx, config.basis_kind, r)
    basis = cache.bases.get(key)
    if basis is None:
        sd, _ = _get_split(config, cache, split_idx)
        if config.basis_kind == "svd":
            U = cache.left_vectors.get(split_idx)
            if U is None:
                U = np.linalg.svd(sd.train, full_matrices=False)[0]
                cache.left_vectors[split_idx] = U
            if r > U.shape[1]:
                raise ValueError(
                    f"r = {r} exceeds the available {U.shape[1]} left singular vectors"
                )
            basis = Basis(_modes_from_left_vectors(U, r), "svd", r)
        else:
            basis = randomized_basis(
                sd.train, r, derive_seed(config.master_seed, _TAG_BASIS, split_idx)
            )
        cache.bases[key] = basis
    return basis


def _get_pivot_order(config, cache, split_idx, r) -> np.ndarray:
    key = (split_idx, config.basis_kind, r)
    order = cache.pivot_orders.get(key)
    if order is None:
        basis = _get_basis(config, cache, split_idx, r)
        order = qr_pivots(basis, min(r, basis.n)).locations
        cache.pivot_orders[key] = order
    return order


def _get_plan(config, cache, split_idx, cv_idx, r, p) -> SensorPlan:
    pivots = _get_pivot_order(config, cache, split_idx, r)
    if p <= pivots.size:
        return SensorPlan(pivots[:p], "qr", r)
    basis = _get_basis(config, cache, split_idx, r)
    if config.policy.oversample == "random":
        seed = derive_seed(config.master_seed, _TAG_PLACEMENT, split_idx, cv_idx)
        tail = _random_tail(basis.n, pivots, p - pivots.size, seed)
        method = "qr+random-oversample"
    else:
        # The greedy is prefix-consistent, so one tail per (split, r) serves
        # every p; a longer request recomputes it as a fresh cache would.
        key = (split_idx, config.basis_kind, r)
        count = p - pivots.size
        tail = cache.greedy_tails.get(key)
        if tail is None or tail.size < count:
            tail = kernels.sigma_min_tail(basis.psi, pivots, count)
            cache.greedy_tails[key] = tail
        tail = tail[:count]
        method = "qr+odeim-e"
    return SensorPlan(np.concatenate([pivots, tail]), method, r)


def _resolve_cell(config, cell):
    """Normalize an (r, p) pair or a Composition into (r, p, composition)."""
    n = config.dataset.n
    max_svd_modes = min(n, config.m_train)
    if isinstance(cell, Composition):
        p = cell.p
        if p < 1:
            raise ValueError("composition places no sensors")
        r = config.policy.modes_for(p)
        if config.basis_kind == "svd":
            r = min(r, max_svd_modes)
        if p > n:
            raise ValueError(f"composition needs p = {p} > n = {n} sensors")
        return r, p, cell
    r, p = int(cell[0]), int(cell[1])
    if r < 1 or p < 1:
        raise ValueError(f"cell (r={r}, p={p}) infeasible: counts must be >= 1")
    if p > n:
        raise ValueError(f"cell (r={r}, p={p}) infeasible: p exceeds n = {n}")
    if config.basis_kind == "svd" and r > max_svd_modes:
        raise ValueError(
            f"cell (r={r}, p={p}) infeasible: r exceeds min(n, m_train) = {max_svd_modes}"
        )
    return r, p, None


def run_trial(config, split_idx, cv_idx, noise_idx, cell, cache=None) -> float:
    """Fractional reconstruction error of one fully seeded trial.

    cell is either an (r, p) pair (single fidelity at level_cheap) or a
    Composition. Identical inputs give identical output on one platform.
    """
    for idx, bound, what in (
        (split_idx, config.n_splits, "split_idx"),
        (cv_idx, config.n_placement_cv, "cv_idx"),
        (noise_idx, config.n_noise, "noise_idx"),
    ):
        if not 0 <= idx < bound:
            raise ValueError(f"{what} = {idx} outside configured count {bound}")
    cache = cache if cache is not None else _SweepCache()
    r, p, comp = _resolve_cell(config, cell)
    sd, ref_var = _get_split(config, cache, split_idx)
    basis = _get_basis(config, cache, split_idx, r)
    plan = _get_plan(config, cache, split_idx, cv_idx, r, p)
    if comp is not None:
        noise = NoiseModel(config.level_cheap, config.level_exp, ref_var)
        sigmas = assign_fidelities(plan, comp, noise)
    else:
        noise = NoiseModel(config.level_cheap, config.level_cheap, ref_var)
        sigmas = np.full(p, noise.sigma_cheap)
    Y = noisy_measure(
        sd.test,
        plan,
        sigmas,
        derive_seed(config.master_seed, _TAG_NOISE, split_idx, cv_idx, noise_idx),
    )
    return fractional_error(sd.test, reconstruct(basis, plan, Y))


def _trial_indices(config):
    for s in range(config.n_splits):
        for c in range(config.n_placement_cv):
            for z in range(config.n_noise):
                yield s, c, z


def _prefill(config, cache, cells):
    """Compute per-split artifacts sequentially so parallel trials only read."""
    # Greedy tails are computed once per r, at the largest p that needs it.
    longest: dict[int, int] = {}
    for r, p, _ in (_resolve_cell(config, cell) for cell in cells):
        longest[r] = max(longest.get(r, 0), p)
    for s in range(config.n_splits):
        _get_split(config, cache, s)
        for r, p in longest.items():
            _get_pivot_order(config, cache, s, r)
            if p > min(r, config.dataset.n) and config.policy.oversample == "odeim-e":
                _get_plan(config, cache, s, 0, r, p)


def _cell_errors(config, cache, cell, threads) -> np.ndarray:
    indices = list(_trial_indices(config))
    errors = np.empty(len(indices))
    if threads > 1:
        def work(item):
            t, (s, c, z) = item
            errors[t] = run_trial(config, s, c, z, cell, cache)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, enumerate(indices)))
    else:
        for t, (s, c, z) in enumerate(indices):
            errors[t] = run_trial(config, s, c, z, cell, cache)
    return errors


def _summarize(errors: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(errors))
    std = float(np.std(errors, ddof=1)) if errors.size > 1 else 0.0
    return mean, std


def sweep_modes_sensors(config, r_grid, p_grid, threads: int = 1) -> list[CellResult]:
    """Mean error for every (r, p) cell over the configured trial counts.

    Cells are ordered row-major over r_grid x p_grid. Infeasible cells are
    rejected up front with the offending cell named.
    """
    r_grid = [int(r) for r in r_grid]
    p_grid = [int(p) for p in p_grid]
    if not r_grid or not p_grid:
        raise ValueError("r_grid and p_grid must be nonempty")
    cells = [(r, p) for r in r_grid for p in p_grid]
    for cell in cells:
        _resolve_cell(config, cell)
    cache = _SweepCache()
    _prefill(config, cache, cells)
    out = []
    for r, p in cells:
        mean, std = _summarize(_cell_errors(config, cache, (r, p), threads))
        out.append(CellResult(r, p, mean, std, config.trials))
    return out


def mf_sweep(config, threads: int = 1) -> list[CompositionResult]:
    """Error statistics for every budget-feasible composition.

    The first element is the all-cheap endpoint and the last the
    all-expensive one; zero-sensor compositions are skipped with a warning.
    """
    if config.budget is None:
        raise ValueError("mf_sweep needs a budget in the configuration")
    comps = [
        replace(c, assignment=config.assignment)
        for c in enumerate_compositions(config.budget, config.composition_steps)
    ]
    runnable = []
    for comp in comps:
        if comp.p == 0:
            warnings.warn(f"skipping composition {comp}: places zero sensors")
            continue
        runnable.append(comp)
    cache = _SweepCache()
    _prefill(config, cache, runnable)
    out = []
    for comp in runnable:
        mean, std = _summarize(_cell_errors(config, cache, comp, threads))
        out.append(CompositionResult(comp, mean, std, config.trials))
    return out


def min_error_curve(
    cells: list[CellResult], restrict_fewer_modes: bool = False
) -> list[MinErrorPoint]:
    """Per sensor count, the minimum mean error over modes and its argmin.

    Ties go to the lowest r. With restrict_fewer_modes only r < p cells
    compete; sensor counts with no eligible cell are omitted.
    """
    if not cells:
        raise ValueError("empty grid")
    by_p: dict[int, list[CellResult]] = {}
    for cell in cells:
        if restrict_fewer_modes and cell.r >= cell.p:
            continue
        by_p.setdefault(cell.p, []).append(cell)
    out = []
    for p in sorted(by_p):
        best = min(by_p[p], key=lambda c: (c.mean_error, c.r))
        out.append(MinErrorPoint(p, best.mean_error, best.r))
    return out


def classify_regime(err_all_cheap: float, err_all_exp: float, band: float = 0.02) -> str:
    """Which endpoint wins, or inconclusive when the errors differ by less
    than the band (absolute difference in fractional error)."""
    if err_all_cheap < 0 or err_all_exp < 0:
        raise ValueError("errors must be non-negative")
    if abs(err_all_cheap - err_all_exp) < band:
        return REGIME_INCONCLUSIVE
    return REGIME_CHEAP if err_all_cheap < err_all_exp else REGIME_EXPENSIVE


def classify_composition_sweep(mean_errors, band: float = 0.02) -> str:
    """Endpoint classification, upgraded to mixed-best when some interior
    composition beats both endpoints by more than the band."""
    means = [float(v) for v in mean_errors]
    if len(means) < 2:
        raise ValueError("need at least the two endpoint compositions")
    first, last = means[0], means[-1]
    if len(means) > 2:
        interior = min(means[1:-1])
        if interior < first - band and interior < last - band:
            return REGIME_MIXED_BEST
    return classify_regime(first, last, band)
