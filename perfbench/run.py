"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

* ``table1``      — cold + warm fleet solves of the D=10 Table 1 block;
* ``sim-healthy`` — saturated and Poisson-paced uniform traffic, H(32,64,2);
* ``sim-faults``  — fault-reroute and buffered-hotspot scenario sweeps;
* ``serve``       — an open-loop rate ladder against ``repro serve run``.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced repetitions and
reports the per-layer metrics (layers a workload does not reach read 0),
including the tracing overhead.  Stdout carries an ``env`` line (kernel
backend, versions, cores, filesystem), a ``detail`` line with the
workload's own named figures, and last the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 when
any output check failed and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import (
    BUILD,
    ROOT,
    BenchError,
    Checks,
    bootstrap,
    environment,
    median,
    peak_rss_mb,
    probe_setup,
)

SETUP_PROBES = 5


class Context:
    """What a workload run gets: its inputs, ledger and trace."""

    def __init__(self, seed: int, seconds: float, trace: bool):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.checks = Checks()
        self.detail: dict = {}
        self.tracer = None
        if trace:
            from tracing import Tracer

            self.tracer = Tracer()


def _run_workload(name: str, ctx: Context) -> dict:
    if name == "table1":
        import wl_table1

        return wl_table1.run(ctx)
    if name in ("sim-healthy", "sim-faults"):
        import wl_sim

        return wl_sim.run(ctx, faults=name == "sim-faults")
    import wl_serve

    return wl_serve.run(ctx)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("table1", "sim-healthy", "sim-faults", "serve"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bootstrap()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        from repro import kernels

        kernels.warmup()  # builds the compiled kernels once per checkout
        env = environment()
        ctx = Context(args.seed, args.seconds, bool(args.trace))
        setups = []
        if not ctx.trace and args.workload != "serve":
            setups = probe_setup(args.workload, SETUP_PROBES)
        found = _run_workload(args.workload, ctx)
    except BenchError as error:
        print(f"benchmark cannot run: {error}", file=sys.stderr)
        return 2
    if ctx.trace:
        wanted = spec["per_layer"]
        trace_dir = BUILD / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"{args.workload}-seed{args.seed}.json"
        ctx.tracer.dump(path)
        ctx.detail["trace_file"] = str(path.relative_to(ROOT))
    else:
        wanted = spec["end_to_end"]
        if setups:
            found["setup_s"] = median(setups)
        found.setdefault("peak_rss_mb", peak_rss_mb())
    metrics = {}
    for entry in wanted:
        value = found.pop(entry["name"], None)
        if value is None and not ctx.trace:
            raise RuntimeError(f"{args.workload} did not measure {entry['name']}")
        metrics[entry["name"]] = {"value": float(value or 0.0), "unit": entry["unit"]}
    ctx.detail.update(found)
    checks = ctx.checks
    ctx.detail["fail_ratio"] = checks.failed / max(checks.attempted, 1)
    print(json.dumps({"env": env}))
    print(json.dumps({"detail": ctx.detail}))
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": max(checks.attempted, 1),
                "failed": checks.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
