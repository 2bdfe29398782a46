"""Experiment orchestration.

Single seeded trials, mode/sensor sweeps, multi-fidelity composition sweeps,
and regime classification. Every trial seed is derived from (master seed,
split index, placement-CV index, noise index) with an avalanche-quality
mixer, so results are pure functions of the configuration and independent of
execution schedule. The optional cache memoizes per-split work in two
records, each holding only what later work reads. One per split holds a
row-major copy of the test snapshots (the order in which trials gather
sensor rows), ||X_test||, the split's noise model and what its bases are
built from: for SVD sweeps the SVD basis of the leading modes, as many as
the largest r asked of the split, so no training matrix outlives its
split's modes, for randomized sweeps the training matrix. One per
(split, r) holds the basis (for SVD sweeps a view of the split's
leading modes), its CPQR pivots, the test set in an orthonormal frame of
the basis and the longest odeim-e plan built so far. While a sweep runs the
trials that share one sensor plan, it also memoizes what is fixed for that
plan: the plan itself, the per-sensor noise levels, the measurement matrix
Theta and its factorization. Both are pure accelerators: SVD modes have
the same bits at every r (:func:`basis.svd_basis`), so results are
bit-for-bit those of a fresh cache.

Every sensor plan, in a sweep as in a single trial, comes from
:func:`placement.plan_with_modes`, given the cached pivots, and its
per-sensor noise levels from :func:`multifidelity.assign_fidelities`. A
composition is only the (cheap, expensive) counts; which plan rows get the
expensive sensors is the configuration's ``assignment``.

A trial scores its estimate in coefficient space. The estimate Psi c lies
in range(Psi); with Psi = Q F for an orthonormal Q, its error splits
orthogonally into ||X_test - Q Q^T X_test||_F^2, fixed per (split, r), and
||F c - Q^T X_test||_F^2, an r x m term, so no trial forms an n x m
array.

Trials and sweeps run with numpy's BLAS pinned to one thread
(:func:`kernels.single_blas_thread`), so a sweep's thread pool is its only
parallelism and its results are the same for every ``threads`` value and
every BLAS thread setting of the machine.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, fields
from hashlib import sha256

import numpy as np

from .basis import BASIS_KINDS, Basis, randomized_basis, svd_basis, truncate_basis
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
from .placement import PlacementPolicy, SensorPlan, measure, plan_with_modes, qr_pivots
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


def reconstruct(
    basis: Basis, plan: SensorPlan, Y, memo: dict | None = None, coefficients: bool = False
) -> np.ndarray:
    """Full-state estimate from sparse measurements: Psi @ pinv(Theta) @ Y.

    With ``coefficients`` it returns the r x m mode coefficients
    c = pinv(Theta) @ Y instead of the n x m estimate Psi @ c.

    ``memo`` is an optional caller-owned dict. A call stores the basis, the
    plan and their Theta in it, and a later call with those same basis and
    plan objects reuses that Theta; any other call measures its own and
    refills the memo. The memo is passed on to :func:`lstsq_minnorm`.
    """
    hit = None if memo is None else memo.get("theta")
    if hit is not None and hit[0] is basis and hit[1] is plan:
        theta = hit[2]
    else:
        theta = measure(basis.psi, plan)
        if memo is not None:
            memo["theta"] = basis, plan, theta
    c = lstsq_minnorm(theta, Y, memo=memo)
    return c if coefficients else basis.psi @ c


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

    Noise levels are finite, non-negative variance fractions of the training
    data's overall variance (recomputed per split); single-fidelity sweeps
    use level_cheap for every sensor. Counts follow the protocol: n_splits
    random train/test partitions, each with n_placement_cv re-draws of the
    random oversampling tail and n_noise noise realizations.
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
        if self.basis_kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.basis_kind!r}")
        if self.assignment not in ASSIGNMENTS:
            raise ValueError(f"assignment must be one of {ASSIGNMENTS}")
        if min(self.n_splits, self.n_placement_cv, self.n_noise) < 1:
            raise ValueError("trial counts must all be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        # The noise-level rule is NoiseModel's; each split supplies its own
        # reference variance, so any valid one checks the levels here.
        NoiseModel(self.level_cheap, self.level_exp, 1.0)
        if self.composition_steps < 2:
            raise ValueError("composition_steps must be >= 2")

    @property
    def trials(self) -> int:
        return self.n_splits * self.n_placement_cv * self.n_noise

    @property
    def m_train(self) -> int:
        return int(round(self.train_fraction * self.dataset.m))

    def digest(self) -> str:
        """Stable content hash of the configuration: the dataset, then its
        shape and every other field in declaration order."""
        h = sha256()
        h.update(self.dataset.X.tobytes())
        rest = (getattr(self, f.name) for f in fields(self) if f.name != "dataset")
        h.update(repr((self.dataset.X.shape, *rest)).encode())
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
    """Sweep memo for one configuration. Purely an accelerator: results with
    and without it are identical because every entry is a deterministic
    function of the configuration, so its keys carry no basis kind or seed.

    ``splits[s]`` is split s's :class:`_SplitRecord` and ``pairs[(s, r)]``
    the :class:`_PairRecord` of split s at r modes; both live as long as the
    cache. In a sweep, ``splits`` is filled on the calling thread before the
    pool starts and only read after; each ``pairs`` entry is written only by
    the task that owns that (split, r).

    ``solves`` maps a trial's :func:`_solve_key` to the memo of its plan:
    :func:`run_trial` stores the plan and the per-sensor sigmas in it on the
    group's first trial, :func:`reconstruct` Theta with the basis and plan
    it measured, and :func:`lstsq_minnorm` Theta's factors with that Theta;
    each reuses its entry only for the same objects, which every trial of
    the group passes. Only :func:`_sweep_errors` opens
    one, for the group of trials of one cell sharing that plan, and drops it
    when the group is done, so at most one such memo per worker thread is
    alive and none outlives a sweep.
    """

    def __init__(self):
        self.splits: dict = {}
        self.pairs: dict = {}
        self.solves: dict = {}


@dataclass(frozen=True)
class _SplitRecord:
    """One split: the test snapshots as one row-major array, the order in
    which trials gather sensor rows; ||test||_F, never 0; the noise model
    at the training data's overall variance; and what every basis of the
    split is built from: for SVD sweeps the SVD basis of the leading modes,
    as many as the largest r asked of the split so far, whose column
    prefixes are the split's bases, for randomized sweeps the training
    matrix. An SVD sweep keeps no training matrix."""

    test: np.ndarray
    test_norm: float
    noise: NoiseModel
    source: Basis | np.ndarray


@dataclass
class _PairRecord:
    """One split at r modes: the basis, its first min(r, n) CPQR pivots,
    the test set in an orthonormal frame Q of the basis, and the longest
    odeim-e plan built so far.

    With Psi = Q F, ``frame`` is F, or None when the basis is its own frame
    (SVD modes, F = I); ``coords`` is A = Q^T X_test and ``perp2`` is
    ||X_test - Q A||_F^2, the part of the test set that no estimate in
    range(Psi) reaches. Q itself is read only to build these.
    """

    basis: Basis
    pivots: np.ndarray
    frame: np.ndarray | None
    coords: np.ndarray
    perp2: float
    greedy: SensorPlan | None = None


def _sumsq(a: np.ndarray) -> float:
    """Sum of squares of every entry of a, ||a||_F^2."""
    return float(np.vdot(a, a))


def _get_split(config, cache, split_idx, r) -> _SplitRecord:
    """Split split_idx's record, with at least r modes for SVD sweeps.

    A record with fewer modes is rebuilt from a fresh split, as a fresh
    cache would build it; SVD modes have the same bits at every r, so the
    pairs built from the old record stay valid.
    """
    hit = cache.splits.get(split_idx)
    if hit is None or (config.basis_kind == "svd" and hit.source.r < r):
        sd = split(
            config.dataset,
            config.train_fraction,
            derive_seed(config.master_seed, _TAG_SPLIT, split_idx),
        )
        # np.linalg.norm sums in memory order, so take it of the split's own
        # (column-gathered) array; then keep only a row-major copy.
        test_norm = float(np.linalg.norm(sd.test))
        if test_norm == 0.0:
            raise ValueError("reference matrix has zero norm")
        train, test = sd.train, np.ascontiguousarray(sd.test)
        del sd  # frees the column-gathered test set before the modes
        noise = NoiseModel(config.level_cheap, config.level_exp, overall_variance(train))
        source = svd_basis(train, r) if config.basis_kind == "svd" else train
        hit = _SplitRecord(test, test_norm, noise, source)
        cache.splits[split_idx] = hit
    return hit


def _get_pair(config, cache, split_idx, r) -> _PairRecord:
    pair = cache.pairs.get((split_idx, r))
    if pair is None:
        sd = _get_split(config, cache, split_idx, r)
        if config.basis_kind == "svd":
            basis = truncate_basis(sd.source, r)
            Q, F = basis.psi, None
        else:
            seed = derive_seed(config.master_seed, _TAG_BASIS, split_idx)
            basis = randomized_basis(sd.source, r, seed)
            Q, F = np.linalg.qr(basis.psi)
        A = Q.T @ sd.test
        # perp2 is the residual's own square sum: ||X||^2 - ||A||^2 would
        # cancel to about eps ||X||^2 and turn exact recovery into ~1e-8.
        perp = Q @ A
        perp -= sd.test
        pair = _PairRecord(
            basis, qr_pivots(basis, min(r, basis.n)).locations, F, A, _sumsq(perp)
        )
        cache.pairs[split_idx, r] = pair
    return pair


def _get_plan(config, pair, split_idx, cv_idx, p) -> SensorPlan:
    basis, pivots = pair.basis, pair.pivots
    oversample = config.policy.oversample
    if oversample == "odeim-e" and p > pivots.size:
        # The greedy is prefix-consistent, so the longest plan of a
        # (split, r) serves every p; a longer request recomputes it as a
        # fresh cache would.
        if pair.greedy is None or pair.greedy.p < p:
            pair.greedy = plan_with_modes(basis, p, oversample, pivots=pivots)
        return SensorPlan(pair.greedy.locations[:p], pair.greedy.method, basis.r)
    seed = derive_seed(config.master_seed, _TAG_PLACEMENT, split_idx, cv_idx)
    return plan_with_modes(basis, p, oversample, seed, pivots)


def _plan_varies_with_cv(config, r, p) -> bool:
    """Only a random oversampling tail depends on the cv draw; QR-only plans
    (p <= r) and odeim-e tails are the same for every cv index."""
    return config.policy.oversample == "random" and p > min(r, config.dataset.n)


def _solve_key(config, comp, split_idx, cv_idx, r, p) -> tuple:
    """Identity of a cell's plan, and so of Theta, that a trial solves with.

    The cell is (r, p) plus the composition, if any, so two compositions
    with the same p never share a memo.
    """
    cv = cv_idx if _plan_varies_with_cv(config, r, p) else None
    return (comp, split_idx, cv, r, p)


def _resolve_cell(config, cell):
    """Normalize an (r, p) pair or a Composition into (r, p, composition);
    the composition of an (r, p) pair is None."""
    n = config.dataset.n
    max_modes = min(n, config.m_train)
    if isinstance(cell, Composition):
        p = cell.p
        if p < 1:
            raise ValueError("composition places no sensors")
        r = config.policy.modes_for(p, max_modes)
        if p > n:
            raise ValueError(f"composition needs p = {p} > n = {n} sensors")
        return r, p, cell
    r, p = int(cell[0]), int(cell[1])
    if r < 1 or p < 1:
        raise ValueError(f"cell (r={r}, p={p}) infeasible: counts must be >= 1")
    if p > n:
        raise ValueError(f"cell (r={r}, p={p}) infeasible: p exceeds n = {n}")
    if config.basis_kind == "svd" and r > max_modes:
        raise ValueError(
            f"cell (r={r}, p={p}) infeasible: r exceeds min(n, m_train) = {max_modes}"
        )
    return r, p, None


def run_trial(config, split_idx, cv_idx, noise_idx, cell, cache=None) -> float:
    """Fractional reconstruction error of one fully seeded trial.

    cell is either an (r, p) pair, single fidelity: the plan's p sensors as
    Composition(p, 0), all at level_cheap; or a Composition, whose expensive
    sensors sit where ``config.assignment`` puts them. Identical inputs give
    identical output on one platform.
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
    with kernels.single_blas_thread():
        sd = _get_split(config, cache, split_idx, r)
        pair = _get_pair(config, cache, split_idx, r)
        memo = cache.solves.get(_solve_key(config, comp, split_idx, cv_idx, r, p))
        if memo is not None and "plan" in memo:
            plan, sigmas = memo["plan"]
        else:
            plan = _get_plan(config, pair, split_idx, cv_idx, p)
            sigmas = assign_fidelities(
                plan, comp or Composition(p, 0), sd.noise, config.assignment
            )
            if memo is not None:
                memo["plan"] = plan, sigmas
        Y = noisy_measure(
            sd.test,
            plan,
            sigmas,
            derive_seed(config.master_seed, _TAG_NOISE, split_idx, cv_idx, noise_idx),
        )
        # The estimate Psi c = Q (F c) lies in range(Q), so its error splits
        # orthogonally: ||X - Psi c||^2 = perp2 + ||F c - A||^2. c is the
        # trial's own, so the r x m difference is formed in place.
        diff = reconstruct(pair.basis, plan, Y, memo=memo, coefficients=True)
        if pair.frame is not None:
            diff = pair.frame @ diff
        diff -= pair.coords
        return math.sqrt(pair.perp2 + _sumsq(diff)) / sd.test_norm


def _sweep_errors(config, cells, threads) -> list[np.ndarray]:
    """Errors of every trial of every cell, each in (split, cv, noise) order.

    Every split record, with the SVD basis of the sweep's largest r for SVD
    bases, is built on the calling thread first; an SVD split drops its
    training matrix once that basis exists. Then one task per (split, r),
    largest r first, builds that pair's record (basis and CPQR pivots) and
    runs its cells' plan groups, largest p first, so that for odeim-e the
    first group builds the plan every later one takes a prefix of. Each group
    opens its plan's solve memo, runs the cell's trials that share the plan
    in (cv, noise) order, writing each error by index, and drops the memo,
    so each Theta is factored once per cell. A repeated cell is run once.

    The tasks go to one pool of min(threads, cpu count) workers; threads = 1
    runs them in order on the calling thread. The pool only reads the split
    records, and each task is the only writer of its pair's record, so
    results do not depend on the schedule. An error or an interrupt ends the
    sweep now: queued tasks are cancelled and running ones stop before
    their next plan group.
    """
    cache = _SweepCache()
    splits, n_cv, n_noise = range(config.n_splits), config.n_placement_cv, config.n_noise
    errors = {cell: np.empty(config.trials) for cell in cells}
    by_r: dict[int, list] = {}
    for cell, out in errors.items():
        r, p, comp = _resolve_cell(config, cell)
        by_r.setdefault(r, []).append((p, comp, cell, out))
    stop = threading.Event()

    def run_task(s, r):
        pair = _get_pair(config, cache, s, r)
        # Longest p first: its group builds the odeim-e plan that every
        # shorter p of this (split, r) takes a prefix of.
        for p, comp, cell, out in sorted(by_r[r], key=lambda item: -item[0]):
            varies = _plan_varies_with_cv(config, r, p)
            for cvs in [[c] for c in range(n_cv)] if varies else [range(n_cv)]:
                if stop.is_set():
                    return
                key = _solve_key(config, comp, s, cvs[0], r, p)
                cache.solves[key] = {}
                try:
                    for c in cvs:
                        row = (s * n_cv + c) * n_noise
                        for z in range(n_noise):
                            out[row + z] = run_trial(config, s, c, z, cell, cache)
                finally:
                    del cache.solves[key]

    tasks = [(s, r) for r in sorted(by_r, reverse=True) for s in splits]
    with kernels.single_blas_thread():
        for s in splits:
            _get_split(config, cache, s, max(by_r))
        workers = min(threads, os.cpu_count() or 1)
        if workers == 1:
            for task in tasks:
                run_task(*task)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                try:
                    futures = [pool.submit(run_task, *task) for task in tasks]
                    for future in wait(futures, return_when=FIRST_EXCEPTION).done:
                        future.result()
                except BaseException:
                    stop.set()
                    pool.shutdown(cancel_futures=True)
                    raise
    return [errors[cell] for cell in cells]


def _check_threads(threads) -> None:
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


def _check_band(band) -> None:
    if not (math.isfinite(band) and band >= 0):
        raise ValueError(f"band must be finite and non-negative, got {band}")


def _check_errors(errors) -> None:
    if not all(0 <= e < math.inf for e in errors):
        raise ValueError(f"errors must be finite and non-negative, got {list(errors)}")


def _summarize(errors: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(errors))
    std = float(np.std(errors, ddof=1)) if errors.size > 1 else 0.0
    return mean, std


def sweep_modes_sensors(config, r_grid, p_grid, threads: int = 1) -> list[CellResult]:
    """Mean error for every (r, p) cell over the configured trial counts.

    Cells are ordered row-major over r_grid x p_grid. Infeasible cells are
    rejected up front with the offending cell named. ``threads`` is the
    number of trial workers (see :func:`_sweep_errors`); it must be >= 1.
    """
    _check_threads(threads)
    r_grid = [int(r) for r in r_grid]
    p_grid = [int(p) for p in p_grid]
    if not r_grid or not p_grid:
        raise ValueError("r_grid and p_grid must be nonempty")
    cells = [(r, p) for r in r_grid for p in p_grid]
    return [
        CellResult(r, p, *_summarize(errors), config.trials)
        for (r, p), errors in zip(cells, _sweep_errors(config, cells, threads))
    ]


def mf_sweep(config, threads: int = 1) -> list[CompositionResult]:
    """Error statistics for every budget-feasible composition.

    The first element is the all-cheap endpoint and the last the
    all-expensive one; zero-sensor compositions are skipped with a warning.
    ``threads`` is as for :func:`sweep_modes_sensors`.
    """
    _check_threads(threads)
    if config.budget is None:
        raise ValueError("mf_sweep needs a budget in the configuration")
    runnable = []
    for comp in enumerate_compositions(config.budget, config.composition_steps):
        if comp.p == 0:
            warnings.warn(f"skipping composition {comp}: places zero sensors")
            continue
        runnable.append(comp)
    return [
        CompositionResult(comp, *_summarize(errors), config.trials)
        for comp, errors in zip(runnable, _sweep_errors(config, runnable, threads))
    ]


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
    than the band (absolute difference in fractional error). The band and
    both errors must be finite and non-negative."""
    _check_band(band)
    _check_errors((err_all_cheap, err_all_exp))
    if abs(err_all_cheap - err_all_exp) < band:
        return REGIME_INCONCLUSIVE
    return REGIME_CHEAP if err_all_cheap < err_all_exp else REGIME_EXPENSIVE


def classify_composition_sweep(mean_errors, band: float = 0.02) -> str:
    """Endpoint classification, upgraded to mixed-best when some interior
    composition beats both endpoints by more than the band. Every mean must
    be finite and non-negative."""
    _check_band(band)
    means = [float(v) for v in mean_errors]
    if len(means) < 2:
        raise ValueError("need at least the two endpoint compositions")
    _check_errors(means)
    first, last = means[0], means[-1]
    if len(means) > 2:
        interior = min(means[1:-1])
        if interior < first - band and interior < last - band:
            return REGIME_MIXED_BEST
    return classify_regime(first, last, band)
