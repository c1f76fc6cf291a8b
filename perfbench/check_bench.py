"""Tests of the benchmark itself (trace hygiene, hermetic runs, exit codes).

Run with ``python3 -m pytest perfbench/check_bench.py``.  The file name keeps
them out of the program's own test collection: each test drives real
benchmark runs and takes seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from common import ROOT, bootstrap  # noqa: E402

bootstrap()


def _owners_and_names():
    """Every attribute any traced run wraps, as (owner, name, original)."""
    import wl_sim
    import wl_table1
    from repro.serve import registry, server
    from tracing import Tracer

    tracer = Tracer()
    targets = wl_table1._trace_targets(tracer) + wl_sim._trace_targets(tracer)
    targets += [
        (registry, "make_router"),
        (server, "decode_query"),
        (server, "answer_query"),
    ]
    return [(t[0], t[1], vars(t[0]).get(t[1], None)) for t in targets]


def test_traced_run_restores_every_wrapped_function():
    import run

    before = _owners_and_names()
    assert run.main(
        ["--workload", "table1", "--seed", "0", "--seconds", "0.1", "--trace", "1"]
    ) == 0
    for owner, name, original in before:
        assert vars(owner).get(name, None) is original, f"{owner}.{name} not restored"


def test_patched_restores_on_error_and_inherited_attributes():
    from repro.fleet.driver import SweepFleetJob
    from tracing import Tracer

    tracer = Tracer()
    inherited = "describe" not in vars(SweepFleetJob)
    with pytest.raises(RuntimeError):
        with tracer.patched([(SweepFleetJob, "describe", "x")]):
            assert vars(SweepFleetJob)["describe"].__wrapped__
            raise RuntimeError("boom")
    assert ("describe" not in vars(SweepFleetJob)) == inherited


def test_span_self_time_excludes_children():
    from tracing import Tracer

    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    totals = tracer.totals()
    outer, inner = totals["outer"], totals["inner"]
    assert outer[0] == inner[0] == 1
    assert outer[2] == pytest.approx(outer[1] - inner[1], abs=1e-9)


def test_speed_probe_scales_cpu_time_to_the_nominal_host():
    from common import SpeedProbe

    probe = SpeedProbe()
    assert probe.samples == 0 and probe.cpu == 0.0  # the warm-up is not kept
    probe.sample()
    probe.sample()
    per_sample = probe.cpu / 2
    assert probe.samples == 2 and per_sample > 0
    # A host twice as slow per sample halves the normalised time.
    assert probe.normalise(1.0) == pytest.approx(SpeedProbe.NOMINAL_S / per_sample)


def test_run_leaves_git_status_unchanged():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")

    def status():
        return subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout

    before = status()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1", "--seed", "0",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert status() == before


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_knee_interpolates_between_passing_and_failing_steps():
    import wl_serve

    def step(rate, p99, passed, valid=True):
        return {"rate": rate, "p99_ms": p99, "passed": passed, "valid": valid}

    steps = [step(100, 10, True), step(200, 30, True), step(300, 70, False)]
    assert wl_serve.knee_rate(steps) == pytest.approx(250.0)
    # An invalid step (late generator) neither passes nor fails.
    steps = [
        step(100, 10, True),
        step(200, 90, False, valid=False),
        step(300, 70, False),
    ]
    assert wl_serve.knee_rate(steps) == pytest.approx(100 + 200 * 40 / 60)
