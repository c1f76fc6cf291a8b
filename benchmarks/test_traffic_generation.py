"""Benchcheck guard — block-drawn uniform traffic is never slower than scalar draws.

:func:`repro.simulation.workloads.uniform_random_pairs` resolves the
"resample the destination while it equals the source" rule by visiting
only the collisions of each block of draws.  At ``n = 2`` half of all
destination draws collide, so a walk that rescanned the block per collision
would turn quadratic there (seconds for 100k messages).  This guard times
that worst case against the sequential loop it replaced (kept verbatim in
``tests/test_traffic_stream.py``) and fails if the block path is slower.

Opt-in like the rest of the gate: ``pytest benchmarks/ --run-bench-check``.
"""

import time

import numpy as np
import pytest

from repro.simulation.workloads import uniform_random_pairs

pytestmark = pytest.mark.benchcheck

_MESSAGES = 100_000


def _sequential(num_nodes, num_messages, generator):
    traffic = []
    for _ in range(num_messages):
        source = int(generator.integers(num_nodes))
        destination = int(generator.integers(num_nodes))
        while destination == source:
            destination = int(generator.integers(num_nodes))
        traffic.append((source, destination, 0.0))
    return traffic


def _best_cpu_seconds(call, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.process_time()
        call()
        best = min(best, time.process_time() - start)
    return best


def test_n2_block_draws_no_slower_than_the_scalar_loop():
    block = _best_cpu_seconds(
        lambda: uniform_random_pairs(2, _MESSAGES, np.random.default_rng(0))
    )
    scalar = _best_cpu_seconds(
        lambda: _sequential(2, _MESSAGES, np.random.default_rng(0)), repeats=1
    )
    assert block <= scalar, f"block {block:.3f} s vs scalar {scalar:.3f} s"
