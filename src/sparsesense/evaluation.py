"""Experiment orchestration.

Single seeded trials, mode/sensor sweeps, multi-fidelity composition sweeps,
and regime classification. Every trial seed is derived from (master seed,
split index, placement-CV index, noise index) with an avalanche-quality
mixer, so results are pure functions of the configuration and independent of
execution schedule. The optional cache memoizes per-split work in two
records, each holding only what later work reads; a sweep gives each
split a cache of its own, alive only while the split's tasks run, so at
most workers + 1 splits are alive at once. One per split holds a
row-major copy of the test snapshots (the order in which trials gather
sensor rows), ||X_test||, the split's noise model and what its bases are
built from: for SVD sweeps the SVD basis of the leading modes, as many as
the largest r asked of the split, so no training matrix outlives its
split's modes, for randomized sweeps the training matrix. One per
(split, r) holds the basis (for SVD sweeps a view of the split's
leading modes), its CPQR pivots and the longest odeim-e plan built so
far, all from the split's pivot task, and the test set in an orthonormal
frame of the basis, built by the first trial that needs it. While a
sweep runs the trials that share one sensor plan, it also memoizes what
is fixed for that plan: the plan itself, each composition's per-sensor
noise levels, the measurement matrix Theta and its pseudoinverse; and
while it runs the trials of one (split, cv) draw, their standard-normal
noise draws, each drawn once at the sweep's largest p. Those plan groups
and draws belong to the task that runs the (split, cv) draw, the two
records to the split.
All are pure accelerators: SVD modes have the same bits at every r
(:func:`basis.svd_basis`), and a draw's first p rows are the draw at p
rows (:func:`multifidelity.noisy_measure`), so results are bit-for-bit
those of a fresh cache.

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

import contextlib
import copy
import math
import os
import threading
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Executor,
    Future,
    ThreadPoolExecutor,
    wait,
)
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
    refills the memo. The memo is passed on to :func:`lstsq_minnorm`, which
    keeps Theta's pseudoinverse G there (from Householder QR when R
    certifies full rank, from the truncated SVD otherwise), so a call that
    reuses the Theta solves with the one product G @ Y.
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
    cache. A sweep gives each split a cache of its own, which holds that
    split's records and nothing else: ``splits`` is filled on the calling
    thread before the split's tasks are submitted and only read after; the
    split's pivot task writes each ``pairs`` entry (basis, pivots) before
    it publishes that rank, and so before any trial of the rank reads it.
    A pair's test coordinates are the one part filled later, by the first
    trial that needs them, under the pair's own lock. The cache goes with
    the split's last task.

    ``solves`` and ``draws`` serve one (split, cv) draw. Only the view that
    a (split, cv) task of :func:`_sweep_errors` makes of the cache fills
    them: a shallow copy sharing ``splits`` and ``pairs``, with dicts of its
    own. In any other cache they stay empty, and :func:`run_trial` builds
    its own plan and draw.

    ``solves[(r, p)]`` is the group of the plan of p sensors at r modes, a
    :func:`_plan_group`: the plan, the per-sensor sigmas of each
    composition measured with it, and a lock. The group's first trial
    stores Theta in it through :func:`reconstruct`, with the basis and plan
    it measured, and Theta's pseudoinverse through :func:`lstsq_minnorm`,
    with that Theta; each reuses its entry only for the same objects, which
    every trial of the plan passes. The groups every cv draw of a split
    shares (QR-only plans and odeim-e tails) come from its pivot task, one
    rank at a time, and are the same objects in every view of the split; a
    view opens the group of each of its own random tails, one at a time.

    ``draws[z]`` is noise seed z's standard-normal draw at the sweep's
    largest p; :func:`run_trial` hands :func:`noisy_measure` the first p
    rows. None of these outlives its task.
    """

    def __init__(self):
        self.splits: dict = {}
        self.pairs: dict = {}
        self.solves: dict = {}
        self.draws: dict = {}


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
    the longest odeim-e plan built so far, and the test set in an
    orthonormal frame Q of the basis once a trial has asked for it.

    ``coords`` is None until :func:`_get_coords` builds it, under ``lock``,
    as (F, A, perp2). With Psi = Q F, F is None when the basis is its own
    frame (SVD modes, F = I); A = Q^T X_test and perp2 is
    ||X_test - Q A||_F^2, the part of the test set that no estimate in
    range(Psi) reaches. Q itself is read only to build these.
    """

    basis: Basis
    pivots: np.ndarray
    greedy: SensorPlan | None = None
    coords: tuple | None = None
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)


def _sumsq(a: np.ndarray) -> float:
    """Sum of squares of every entry of a, ||a||_F^2."""
    return float(np.vdot(a, a))


def _get_coords(config, sd, pair) -> tuple:
    """The pair's (F, A, perp2) (see :class:`_PairRecord`). The first
    caller builds them under the pair's lock, which only that build holds,
    so trials of several cv draws that reach a new rank at once build them
    once."""
    coords = pair.coords
    if coords is None:
        with pair.lock:
            coords = pair.coords
            if coords is None:
                if config.basis_kind == "svd":
                    Q, F = pair.basis.psi, None
                else:
                    Q, F = np.linalg.qr(pair.basis.psi)
                A = Q.T @ sd.test
                # perp2 is the residual's own square sum: ||X||^2 - ||A||^2
                # would cancel to about eps ||X||^2 and turn exact recovery
                # into ~1e-8.
                perp = Q @ A
                perp -= sd.test
                coords = pair.coords = F, A, _sumsq(perp)
    return coords


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
            raise ValueError(f"test snapshots of split {split_idx} have zero norm")
        train, test = sd.train, np.ascontiguousarray(sd.test)
        del sd  # frees the column-gathered test set before the modes
        noise = NoiseModel(config.level_cheap, config.level_exp, overall_variance(train))
        source = svd_basis(train, r) if config.basis_kind == "svd" else train
        hit = _SplitRecord(test, test_norm, noise, source)
        cache.splits[split_idx] = hit
    return hit


def _get_pair(config, cache, split_idx, r) -> _PairRecord:
    """Pair (split_idx, r)'s record: its basis and CPQR pivots, with no
    test coordinates until :func:`_get_coords` builds them."""
    pair = cache.pairs.get((split_idx, r))
    if pair is None:
        sd = _get_split(config, cache, split_idx, r)
        if config.basis_kind == "svd":
            basis = truncate_basis(sd.source, r)
        else:
            seed = derive_seed(config.master_seed, _TAG_BASIS, split_idx)
            basis = randomized_basis(sd.source, r, seed)
        pair = _PairRecord(basis, qr_pivots(basis, min(r, basis.n)).locations)
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


def _plan_group(config, cache, split_idx, cv_idx, r, p, comps) -> dict:
    """A new group for the plan of p sensors on the basis of ``cache``'s
    pair (split_idx, r): the plan, ``sigmas[comp]`` for each composition in
    ``comps``, and the lock that the group's first trial holds while it
    measures and factors Theta."""
    sd, pair = cache.splits[split_idx], cache.pairs[split_idx, r]
    plan = _get_plan(config, pair, split_idx, cv_idx, p)
    sigmas = {comp: assign_fidelities(plan, comp, sd.noise, config.assignment) for comp in comps}
    return {"plan": plan, "sigmas": sigmas, "lock": threading.Lock()}


def _resolve_cell(config, cell):
    """Normalize an (r, p) pair or a Composition into (r, p, composition);
    an (r, p) pair is the composition of p cheap sensors."""
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
    return r, p, Composition(p, 0)


def run_trial(config, split_idx, cv_idx, noise_idx, cell, cache=None) -> float:
    """Fractional reconstruction error of one fully seeded trial.

    cell is either an (r, p) pair, single fidelity: the plan's p sensors as
    Composition(p, 0), all at level_cheap; or a Composition, whose expensive
    sensors sit where ``config.assignment`` puts them. Identical inputs give
    identical output on one platform.

    ``cache`` is a :class:`_SweepCache`; a trial reads and fills its split
    and pair records, the pair's test coordinates included. Its plan group
    and noise draw come from the cache's
    ``solves`` and ``draws`` when it holds them, which only a sweep task's
    view of one (split, cv) draw does, and are built for the trial
    otherwise.
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
        frame, coords, perp2 = _get_coords(config, sd, pair)
        group = cache.solves.get((r, p))
        if group is None:
            group = _plan_group(config, cache, split_idx, cv_idx, r, p, [comp])
        plan = group["plan"]
        draw = cache.draws.get(noise_idx)
        seed = None
        if draw is None:
            seed = derive_seed(config.master_seed, _TAG_NOISE, split_idx, cv_idx, noise_idx)
        Y = noisy_measure(sd.test, plan, group["sigmas"][comp], seed, draw=draw)
        # The group's first trial measures and factors Theta under the
        # group's lock, so the trials of other cv draws that share the plan
        # wait for its pseudoinverse instead of making their own; then the lock
        # goes. The estimate Psi c = Q (F c) lies in range(Q), so its error
        # splits orthogonally: ||X - Psi c||^2 = perp2 + ||F c - A||^2. c is
        # the trial's own, so the r x m difference is formed in place.
        with group.get("lock") or contextlib.nullcontext():
            diff = reconstruct(pair.basis, plan, Y, memo=group, coefficients=True)
        group.pop("lock", None)
        if frame is not None:
            diff = frame @ diff
        diff -= coords
        return math.sqrt(perp2 + _sumsq(diff)) / sd.test_norm


class _InlineExecutor(Executor):
    """Runs each task at submit, on the calling thread: the one-worker
    schedule of :func:`_sweep_errors`. A task's error propagates from
    ``submit`` itself."""

    def submit(self, fn, /, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


def _sweep_errors(config, cells, threads) -> list[np.ndarray]:
    """Errors of every trial of every cell, each in (split, cv, noise) order.

    Splits stream through one submission loop. For split s the calling
    thread first waits until at most ``workers`` splits have tasks left, on
    the tasks of every such split at once, so the first error of any of
    them is raised as soon as its task ends; then builds split s's record,
    with the SVD basis of the sweep's largest r for SVD bases, into a cache
    of the split's own (an SVD split drops its training matrix once that
    basis exists); then submits the split's pivot task and one task per
    (split, cv), all with that cache and one future per rank of the sweep;
    and then drops its own references to the cache and the futures. So at
    most workers + 1 splits are alive at once, and the split stage overlaps
    the trials of the splits before it.

    The pivot task walks the ranks largest first. For each it builds the
    pair record (basis, CPQR pivots) and the plan groups that every cv draw
    of the split shares (QR-only plans and odeim-e tails), longest p first,
    so that for odeim-e the first builds the tail every later one takes a
    prefix of; then it publishes them through the rank's future and goes on
    to the next rank. So a split's CPQRs run one after another, on one
    worker, and trials start once the first rank is out.

    A (split, cv) task works in its own view of the split's cache: the
    split and pair records, with ``solves`` and ``draws`` of its own. It
    draws each of its n_noise standard-normal arrays once, at the sweep's
    largest p = P, then runs its trials rank by rank in the same order:
    it waits for a rank's future only when it reaches that rank, merges in
    the rank's groups and runs every trial of the rank's plans, writing
    each error by index. The first trial of a rank builds the pair's test
    coordinates (A = Q^T X_test, perp2 and, for randomized bases, the frame
    F), so that work runs beside the pivot task. The cells measured with
    one plan share its group, so each distinct Theta is factored once, and
    every trial takes the first p rows of its shared draw, bit for bit its
    own draw at p. The task opens the group of a random tail itself and
    drops it when the plan's trials are done. Only a split's tasks hold its
    cache and its rank futures, so its records and shared groups go when
    the last of them ends. A running task holds at most n_noise x P x
    m_test doubles of draws, and a repeated cell is run once.

    The tasks go to one pool of min(threads, cpu count) workers; with one
    worker an :class:`_InlineExecutor` runs each as it is submitted, on the
    calling thread. A (split, cv) task waits only for its split's pivot
    task, submitted before it, which the FIFO pool has already started, so
    the wait cannot deadlock. The pool only reads a split record; the pivot
    task writes a pair's basis and pivots before it publishes the rank,
    the first trial of a rank builds its coordinates under the pair's lock,
    and the first trial of a group factors Theta under the group's lock, so
    results do not depend on the schedule. A sweep with one split and one
    cv draw runs its trials on one worker. An error or an interrupt ends
    the sweep now: a task that raises sets the stop flag itself, queued
    tasks are cancelled, running ones stop before their next plan or rank,
    and a pivot task that raises or stops cancels every rank it has not
    published, so no task waits for a rank that will never come.
    """
    n_cv, n_noise = config.n_placement_cv, config.n_noise
    errors = {cell: np.empty(config.trials) for cell in cells}
    # Each plan's (r, p), and the compositions and cells measured with it.
    plans: dict[tuple, list] = {}
    for cell, out in errors.items():
        r, p, comp = _resolve_cell(config, cell)
        plans.setdefault((r, p), []).append((comp, cell, out))
    comps = {rp: [comp for comp, _, _ in users] for rp, users in plans.items()}
    ranks = sorted({r for r, _ in plans}, reverse=True)
    # Every shared noise draw: the sweep's largest p rows by m_test columns.
    draw_shape = (max(p for _, p in plans), config.dataset.m - config.m_train)
    stop = threading.Event()

    def stopping(task, *args):
        # A task that raises sets the stop flag itself, so the other tasks
        # end at their next plan without waiting for the calling thread.
        try:
            return task(*args)
        except BaseException:
            stop.set()
            raise

    def publish(cache, s, published):
        try:
            for r, future in zip(ranks, published):
                if stop.is_set():
                    break
                _get_pair(config, cache, s, r)
                groups = {}
                # Longest p first: its plan builds the odeim-e tail that
                # every shorter p of this (split, r) takes a prefix of.
                for p in sorted((p for rp, p in plans if rp == r), reverse=True):
                    if not _plan_varies_with_cv(config, r, p):
                        # Every cv draw gives this plan; draw 0 stands for them all.
                        groups[r, p] = _plan_group(config, cache, s, 0, r, p, comps[r, p])
                future.set_result(groups)
        finally:
            # A stop or an error leaves ranks unpublished: cancel them, so
            # no task waits for them. A no-op on published ranks; an error
            # is raised from this task's own future.
            for future in published:
                future.cancel()

    def run_trials(cache, s, c, published):
        view = copy.copy(cache)
        view.solves, view.draws = {}, {}
        for z in range(n_noise):
            seed = derive_seed(config.master_seed, _TAG_NOISE, s, c, z)
            view.draws[z] = np.random.default_rng(seed).standard_normal(draw_shape)
        row = (s * n_cv + c) * n_noise
        for r, future in zip(ranks, published):
            # The stop flag is set before the pool cancels its queued
            # tasks, so a task past this check waits on a pivot task that
            # has started, and that cancels every rank it does not publish.
            if stop.is_set():
                return
            try:
                view.solves.update(future.result())
            except CancelledError:
                return  # the pivot task stopped, or raised its own error
            for (rp, p), users in plans.items():
                if rp != r:
                    continue
                if stop.is_set():
                    return
                own = _plan_varies_with_cv(config, r, p)
                if own:
                    view.solves[r, p] = _plan_group(config, view, s, c, r, p, comps[r, p])
                for _, cell, out in users:
                    for z in range(n_noise):
                        out[row + z] = run_trial(config, s, c, z, cell, view)
                if own:
                    del view.solves[r, p]

    def submit_split(pool, s):
        # The split's cache and rank futures are locals: once this returns,
        # only the split's tasks hold them, and so the shared groups.
        cache = _SweepCache()
        _get_split(config, cache, s, ranks[0])
        published = [Future() for _ in ranks]
        return [pool.submit(stopping, publish, cache, s, published)] + [
            pool.submit(stopping, run_trials, cache, s, c, published) for c in range(n_cv)
        ]

    def settle(pending, keep):
        # Wait on every pending split's tasks at once, so the first error of
        # any split is raised as soon as its task ends, until at most
        # ``keep`` splits have tasks left.
        while len(pending) > keep:
            done = wait(sum(pending, []), return_when=FIRST_COMPLETED).done
            for future in done:
                future.result()
            pending[:] = [
                left for futures in pending if (left := [f for f in futures if f not in done])
            ]

    with kernels.single_blas_thread():
        workers = min(threads, os.cpu_count() or 1)
        with ThreadPoolExecutor(workers) if workers > 1 else _InlineExecutor() as pool:
            try:
                pending = []  # the unfinished futures of each split's tasks
                for s in range(config.n_splits):
                    settle(pending, workers)
                    if stop.is_set():
                        break  # a task failed; the last settle raises its error
                    pending.append(submit_split(pool, s))
                settle(pending, 0)
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
    all-expensive one; zero-sensor compositions are skipped with a warning,
    and a budget that buys no sensor at all is rejected.
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
    if not runnable:
        raise ValueError(f"{config.budget} places no sensor at any composition")
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
