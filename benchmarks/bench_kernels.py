#!/usr/bin/env python3
"""Benchmark the hot kernels over a range of problem sizes.

Column-pivoted QR is timed on both of its paths, njit and pure numpy, one
table row per size with the speedup; both are invoked directly, so the
SPARSESENSE_BACKEND setting does not matter here. The greedy sigma_min
oversampling scan has a single numpy path and is timed through the public
``kernels.sigma_min_tail``.

Usage: python benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import time

import numpy as np

from sparsesense import kernels


def _time(func, *args, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func(*args)
        best = min(best, time.perf_counter() - start)
    return best


def bench_cpqr(repeats):
    print("column-pivoted QR (full factorization, no Q accumulation)")
    print(f"{'r x n':>12} {'numpy':>10} {'numba':>10} {'speedup':>8}")
    rng = np.random.default_rng(0)
    for r, n in [(20, 128), (50, 256), (100, 512), (200, 1024), (400, 1024)]:
        V = rng.standard_normal((r, n))
        k = min(r, n)

        def run_numpy():
            kernels._cpqr_numpy(np.array(V, order="C"), k, np.eye(1), False)

        def run_numba():
            kernels._cpqr_numba(np.array(V, order="C"), k, np.eye(1), False)

        t_np = _time(run_numpy, repeats=repeats)
        if kernels.NUMBA_AVAILABLE:
            run_numba()  # compile outside the timer
            t_nb = _time(run_numba, repeats=repeats)
            print(f"{r:>5} x {n:<5} {t_np * 1e3:>8.2f}ms {t_nb * 1e3:>8.2f}ms {t_np / t_nb:>7.1f}x")
        else:
            print(f"{r:>5} x {n:<5} {t_np * 1e3:>8.2f}ms {'n/a':>10} {'n/a':>8}")


def bench_sigma_min(repeats):
    print()
    print("greedy sigma_min oversampling tail (r -> 2r sensors)")
    print(f"{'n, r':>12} {'numpy':>10}")
    rng = np.random.default_rng(1)
    for n, r in [(128, 8), (256, 16), (512, 24), (1024, 32)]:
        psi = rng.standard_normal((n, r))
        prefix = np.arange(r, dtype=np.int64)
        t_np = _time(kernels.sigma_min_tail, psi, prefix, r, repeats=repeats)
        print(f"{n:>6}, {r:<4} {t_np * 1e3:>8.1f}ms")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    if not kernels.NUMBA_AVAILABLE:
        print("numba not available; showing numpy path only")
    bench_cpqr(args.repeats)
    bench_sigma_min(args.repeats)


if __name__ == "__main__":
    main()
