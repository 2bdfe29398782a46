"""The committed results pin (see ``tests/results_pin.py``): exact on the
platform it was written on, within a roundoff tolerance elsewhere."""

import pytest

import results_pin
from sparsesense import evaluation


@pytest.mark.parametrize("threads", [1, 2])
def test_results_match_the_pin(monkeypatch, threads):
    # Two workers even on a one-core machine, so threads = 2 runs the pool.
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 2)
    pin = results_pin.load()
    results = results_pin.compute(threads)
    if pin["platform"] == results_pin.platform_record():
        assert results == pin["configs"]
    else:
        for name, (means, stds) in results_pin.drift(results, pin["configs"]).items():
            assert means <= results_pin.MEAN_RTOL and stds <= results_pin.STD_RTOL, name
