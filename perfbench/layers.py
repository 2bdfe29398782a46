"""Outside-in layer tracing and the kernel micro section.

The sweep engine has no timers of its own. For a traced run the benchmark
replaces the module-level functions the engine calls into each layer with
timing wrappers, and puts the originals back afterwards, so nothing under
``src/`` changes. Spans nest on a per-thread parent stack; a span's self time
is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np

from sparsesense import evaluation, kernels

SWEEP = "evaluation.sweep"
TRIAL = "evaluation.run_trial"
SOLVE = "linalg.lstsq_minnorm"
SOLVE_SVD = "linalg.lstsq_minnorm.svd"
BASIS_SVD = "basis.svd"
SIGMA_MIN = "kernels.sigma_min_tail"
RECONSTRUCT = "evaluation.reconstruct"

# Every layer boundary the engine crosses: (module, attribute, span name).
# numpy.linalg.svd gets its name at call time (see Tracer.span).
TARGETS = (
    (evaluation, "split", "dataset.split"),
    (np.linalg, "svd", None),
    (evaluation, "randomized_basis", "basis.randomized"),
    (evaluation, "qr_pivots", "placement.qr_pivots"),
    (kernels, "sigma_min_tail", SIGMA_MIN),
    (evaluation, "lstsq_minnorm", SOLVE),
    (evaluation, "noisy_measure", "multifidelity.noisy_measure"),
    (evaluation, "reconstruct", RECONSTRUCT),
    (evaluation, "fractional_error", "evaluation.fractional_error"),
    (evaluation, "run_trial", TRIAL),
)

SPANS = (
    "dataset.split",
    BASIS_SVD,
    "basis.randomized",
    "placement.qr_pivots",
    SIGMA_MIN,
    SOLVE,
    SOLVE_SVD,
    "multifidelity.noisy_measure",
    RECONSTRUCT,
    "evaluation.fractional_error",
    TRIAL,
)


def eig_problem_count(n: int, k: int, count: int) -> int:
    """Eigenproblems the greedy scan solves: one per remaining candidate row
    per step, starting from k selected rows out of n."""
    return sum(n - k - t for t in range(count))


def cpqr_flops(r: int, n: int, k: int) -> int:
    """Computed flops of k Householder steps on an r x n matrix: the initial
    column norms plus one rank-one block update per step."""
    return 2 * r * n + sum(4 * (r - j) * (n - j - 1) for j in range(k))


class Tracer:
    """Spans and counts of one traced sweep."""

    def __init__(self):
        self._local = threading.local()
        # (name, start, end, self seconds); list.append is atomic, so pool
        # threads record without a lock.
        self.records: list[tuple[str, float, float, float]] = []
        self.eig_problems = 0
        self.thetas: set = set()
        self._count_lock = threading.Lock()

    def span(self, name, fn, *args, **kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if name is None:
            name = SOLVE_SVD if stack and stack[-1][0] == SOLVE else BASIS_SVD
        frame = [name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][1] += end - start
            self.records.append((name, start, end, end - start - frame[1]))

    def _count(self, name, args):
        if name == SIGMA_MIN:
            psi, prefix, count = args
            with self._count_lock:
                self.eig_problems += eig_problem_count(len(psi), len(prefix), count)
        elif name == RECONSTRUCT:
            # Theta = psi[locations]; bases live in the sweep cache for the
            # whole sweep, so the basis identity names (split, r).
            basis, plan = args[0], args[1]
            self.thetas.add((id(basis), plan.locations.tobytes()))

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(name, args)
            return self.span(name, fn, *args, **kwargs)

        return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Route every layer boundary through the tracer; restore on exit."""
    saved = []
    try:
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def traced_sweep(sweep):
    """Run sweep() with every layer traced; returns (result, Tracer)."""
    tracer = Tracer()
    with installed(tracer):
        result = tracer.span(SWEEP, sweep)
    return result, tracer


def sweep_metrics(tracer: Tracer, threads: int) -> dict[str, float]:
    """Per-layer metrics of one traced sweep."""
    calls = dict.fromkeys(SPANS, 0)
    self_s = dict.fromkeys(SPANS, 0.0)
    trial_durations = []
    trial_start, trial_end = float("inf"), float("-inf")
    unattributed = 0.0
    for name, start, end, own in tracer.records:
        if name == SWEEP:
            unattributed = own
            continue
        calls[name] += 1
        self_s[name] += own
        if name == TRIAL:
            trial_durations.append(end - start)
            trial_start, trial_end = min(trial_start, start), max(trial_end, end)
    out: dict[str, float] = {}
    for name in SPANS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out[f"{SIGMA_MIN}.eig_problems"] = tracer.eig_problems
    out[f"{SOLVE}.calls_per_theta"] = calls[SOLVE] / len(tracer.thetas)
    out[f"{TRIAL}.p50_s"] = float(np.percentile(trial_durations, 50))
    out[f"{TRIAL}.p99_s"] = float(np.percentile(trial_durations, 99))
    # On one thread this is exactly wall minus every other self time; with a
    # pool it also holds the time the calling thread waits for the workers.
    out[f"{SWEEP}.unattributed_s"] = unattributed
    out["evaluation.pool.busy_frac"] = sum(trial_durations) / (
        threads * (trial_end - trial_start)
    )
    return out


# ---------------------------------------------------------------------------
# Kernel micro section
# ---------------------------------------------------------------------------


def _median_time(fn, budget_s: float = 1.0, max_reps: int = 5) -> float:
    """Median wall time of fn(); repeats while under budget_s in total."""
    times = []
    while len(times) < max_reps and (not times or sum(times) < budget_s):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def micro_names(cpqr_ranks, sigma_min_cells) -> list[str]:
    names = []
    for r in cpqr_ranks:
        names += [f"kernels.cpqr.{r}.s", f"kernels.cpqr.{r}.flops"]
    for r, p in sigma_min_cells:
        names += [f"{SIGMA_MIN}.{r}x{p}.s", f"{SIGMA_MIN}.{r}x{p}.eig_problems"]
    return names


def kernel_micro(X: np.ndarray, cpqr_ranks, sigma_min_cells) -> dict[str, float]:
    """Time the active kernel backend at the workloads' shapes.

    The mode matrices are the leading left singular vectors of X, so the
    kernels see n = X.shape[0] rows as in the sweeps.
    """
    U = np.linalg.svd(X, full_matrices=False)[0]
    n = U.shape[0]
    out: dict[str, float] = {}
    for r in cpqr_ranks:
        V = np.ascontiguousarray(U[:, :r].T)
        out[f"kernels.cpqr.{r}.s"] = _median_time(lambda: kernels.cpqr_select(V, r))
        out[f"kernels.cpqr.{r}.flops"] = cpqr_flops(r, n, r)
    for r, p in sigma_min_cells:
        psi = np.ascontiguousarray(U[:, :r])
        prefix = kernels.cpqr_select(psi.T, r)[0][:r]
        out[f"{SIGMA_MIN}.{r}x{p}.s"] = _median_time(
            lambda: kernels.sigma_min_tail(psi, prefix, p - r)
        )
        out[f"{SIGMA_MIN}.{r}x{p}.eig_problems"] = eig_problem_count(n, r, p - r)
    return out
