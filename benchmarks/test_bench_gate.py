"""Benchmark gate — BENCH_*.json wall-time regression check.

Run right after a benchmark session rewrote the BENCH files::

    pytest benchmarks/ --run-sim --record-bench --benchmark-only
    pytest benchmarks/test_bench_gate.py --run-bench-check

Every working-tree ``BENCH_*.json`` is compared against its committed
version (``git show HEAD:...``); any wall-time key (``*_s`` leaf) that an
earlier PR recorded and that is now more than 2x slower fails the gate.
New keys, removed keys and non-timing metrics never do (the policy lives in
:mod:`repro.analysis.bench_check`, unit-tested in
``tests/test_bench_check.py``).
"""

from pathlib import Path

import pytest

from repro.analysis.bench_check import check_file, committed_bench

pytestmark = pytest.mark.benchcheck

_ROOT = Path(__file__).resolve().parents[1]
_BENCH_FILES = sorted(_ROOT.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert _BENCH_FILES, "no BENCH_*.json trajectory files at the repo root"


@pytest.mark.parametrize("path", _BENCH_FILES, ids=lambda p: p.name)
def test_no_wall_time_regression(path):
    if committed_bench(path) is None:
        pytest.skip(f"{path.name} has no committed version to compare against")
    regressions = check_file(path)
    assert not regressions, "\n".join(regressions)
