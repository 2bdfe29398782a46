#!/usr/bin/env python3
"""Benchmark of the sparsesense sweep engine.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-randomized --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35 --out results.json

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones; --workload all runs every workload both ways.
The exit code is nonzero when any correctness check fails.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

if __name__ == "__main__":
    if not (SRC / "sparsesense" / "__init__.py").is_file():
        sys.exit(f"error: no sparsesense sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import harness

    sys.exit(harness.main())
