"""BENCH recording is opt-in: a default benchmark run writes nothing.

The ``BENCH_*.json`` trajectory files are committed; if every tier-1 run
(which collects ``benchmarks/``) rewrote them, single-shot timings would
churn the tree on every change and the regression gate would compare noise.
So the harness writes only under ``--record-bench`` (the
``record_bench`` fixture in ``benchmarks/conftest.py``).
"""

import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def _bench_files():
    """Every BENCH file (and merge sidecar) at the root, with its bytes."""
    paths = sorted(_ROOT.glob("BENCH_*.json")) + sorted(_ROOT.glob(".BENCH_*"))
    return {path.name: path.read_bytes() for path in paths}


def test_record_bench_fixture_writes_only_when_opted_in(
    record_bench, pytestconfig, tmp_path
):
    path = tmp_path / "BENCH_probe.json"
    record_bench(path, "entry", {"wall_time_s": 1.0})
    assert path.exists() == pytestconfig.getoption("--record-bench")


def test_default_benchmark_run_leaves_bench_files_untouched():
    before = _bench_files()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            "benchmarks/test_fleet_overhead.py",
        ],
        cwd=_ROOT,
        env={
            **os.environ,
            "PYTHONPATH": os.pathsep.join(
                filter(None, [str(_ROOT / "src"), os.environ.get("PYTHONPATH")])
            ),
        },
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout
    assert _bench_files() == before
