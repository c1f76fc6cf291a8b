"""``table1``: the full D=10 block of the paper's Table 1, cold then warm.

Each repetition runs two phases through the fleet executor:

1. **cold** — one ``run_fleet`` worker solves the block from an empty chunk
   store and an empty verdict cache; the store is merged and checked
   against ``PAPER_TABLE1``.  Almost all of it is the search layer.
2. **warm** — the same block again into a fresh store, reopening the now
   warm verdict cache, ``WARM_SOLVES`` times.  It never reaches the search,
   so it is all fleet and store; being short and fsync-bound, it is
   repeated to steady its median.

In the untraced run a ``SpeedProbe`` samples the host after every chunk of
every solve, and each solve's CPU time is reported normalised to a nominal
host speed (the raw CPU and wall times stay on the detail line).

The block is fixed (it is the paper's result); the seed only names the
fleet worker.
"""

from __future__ import annotations

import shutil
import sys

from common import BACKEND_IDS, SpeedProbe, Timer, median, repetitions, scratch_dir

D = 10
N_MIN, N_MAX = 1021, 1536
CHUNK_SIZE = 64
WARM_SOLVES = 4


def setup():
    from repro import kernels
    from repro.otis.sweep import ChunkManifest

    kernels.warmup()
    return ChunkManifest.build(2, D, range(N_MIN, N_MAX + 1), chunk_size=CHUNK_SIZE)


def _job(manifest, store_dir, cache, probe):
    """The fleet job; with a ``probe``, one that samples it after each chunk."""
    from repro.fleet.driver import SweepFleetJob

    if probe is None:
        return SweepFleetJob(manifest, store_dir, cache=cache)

    class ProbedJob(SweepFleetJob):
        def run_chunk(self, chunk):
            rows = super().run_chunk(chunk)
            probe.sample()
            return rows

    return ProbedJob(manifest, store_dir, cache=cache)


def _solve(manifest, store_dir, cache_dir, worker, tracer=None, probe=None):
    """One fleet solve of the block up to the verified table."""
    from repro.fleet.driver import run_fleet
    from repro.otis import sweep
    from repro.otis.search import compare_with_paper

    cache = sweep.SplitVerdictCache(cache_dir, 2, D, version=manifest.code_version)
    job = _job(manifest, store_dir, cache, probe)
    if tracer is None:
        outcome = run_fleet(job, worker_id=worker, wait=False)
        result = sweep.merge_sweep(manifest, store_dir)
    else:
        with tracer.span("fleet.run"):
            outcome = run_fleet(job, worker_id=worker, wait=False)
        with tracer.span("sweep.merge"):
            result = sweep.merge_sweep(manifest, store_dir)
    return result, compare_with_paper(result), cache, outcome


def _rep(
    manifest, work, index, worker, checks, tracer=None, warm_solves=WARM_SOLVES,
    probe=None,
):
    """One cold solve then warm re-solves; returns their timers (cold, [warm]).

    With a ``probe``, every solve is probed after every chunk; its timer
    then excludes the probe's own time and carries ``normalised`` CPU
    seconds and the probe's mean ``sample_s``.
    """
    cache_dir = work / f"cache-{index}"
    times = []
    cold_rows = None
    for solve in range(1 + warm_solves):
        phase = "warm" if solve else "cold"
        store_dir = work / f"store-{index}-{solve}"
        root = tracer.open(f"table1.{phase}") if tracer else None
        if probe is not None:
            probe.reset()
        with Timer() as timer:
            result, verdict, cache, outcome = _solve(
                manifest, store_dir, cache_dir, worker, tracer, probe
            )
        if probe is not None:
            probe.settle(timer)
        times.append(timer)
        if tracer:
            tracer.close(root)
            tracer.count("cache.hits", cache.hits)
            tracer.count("cache.misses", cache.misses)
            tracer.count("fleet.chunks", len(outcome["ran"]))
        checks.op(
            verdict["all_match"] and outcome["complete"],
            f"table1 {phase} solve does not reproduce PAPER_TABLE1",
        )
        if phase == "warm":
            checks.expect(cache.misses == 0, "warm re-solve missed the verdict cache")
            checks.expect(result.rows == cold_rows, "cold and warm rows differ")
        else:
            cold_rows = result.rows
        shutil.rmtree(store_dir)
    shutil.rmtree(cache_dir)
    return times[0], times[1:]


def _trace_targets(tracer):
    from repro.fleet.driver import SweepFleetJob
    from repro.fleet.leases import Lease, LeaseManager
    from repro.otis import search, sweep

    def aborted(result, _args, _seconds):
        tracer.count("apsp.ecc.aborted", int(bool(result[1])))

    def claim(result, _args, _seconds):
        tracer.count("fleet.claim.failed", int(result is None))

    def wrote(path, _args, _seconds):
        tracer.count("store.bytes_written", path.stat().st_size)

    def refreshed(ok, _args, _seconds):
        tracer.count("fleet.heartbeat.refreshes", int(bool(ok)))

    return [
        (search, "h_diameter", "search.h_diameter"),
        (search, "bfs_distances_regular", "search.fwd_bfs"),
        (search, "reverse_bfs_distances_regular", "search.rev_bfs"),
        (search, "batched_eccentricities", "apsp.ecc", aborted),
        (sys.modules["repro.otis.h_digraph"], "h_digraph", "hbuild"),
        (sweep.ChunkStore, "write", "store.write", wrote),
        (sweep.ChunkStore, "read", "store.read"),
        (sweep.ChunkStore, "completed_ids", "fleet.scan"),
        (sweep.SplitVerdictCache, "get", "cache.get"),
        (sweep.SplitVerdictCache, "put", "cache.put"),
        (LeaseManager, "try_acquire", "fleet.claim", claim),
        (Lease, "refresh", "fleet.heartbeat", refreshed),
        (SweepFleetJob, "run_chunk", "fleet.compute"),
    ]


def run(ctx) -> dict:
    manifest = setup()
    worker = f"bench-{ctx.seed}"
    with scratch_dir("table1-") as work:
        if not ctx.trace:
            probe = SpeedProbe()
            cold, warm = [], []
            for index in repetitions(ctx.seconds):
                c, w = _rep(manifest, work, index, worker, ctx.checks, probe=probe)
                cold.append(c)
                warm.extend(w)
            splits = sum(len(chunk.items) for chunk in manifest.chunks)
            cold_s = median([t.normalised for t in cold])
            ctx.detail.update(
                {
                    "table1.solve_s": median([t.wall for t in cold]),
                    "table1.solve_cpu_s": median([t.cpu for t in cold]),
                    "table1.probe_sample_ms": median([t.sample_s for t in cold]) * 1e3,
                    "table1.resolve_s": median([t.wall for t in warm]),
                    "table1.resolve_cpu_s": median([t.cpu for t in warm]),
                    "table1.reps": len(cold),
                    "table1.splits": splits,
                }
            )
            return {
                "phase1_ms": cold_s * 1e3,
                "phase2_ms": median([t.normalised for t in warm]) * 1e3,
                "rate_per_s": splits / cold_s,
            }
        return _traced(ctx, manifest, work, worker)


def _traced(ctx, manifest, work, worker) -> dict:
    """Alternate untraced and traced repetitions of one cold + one warm solve.

    Per-layer figures are means per traced repetition.
    """
    from repro import kernels

    tracer = ctx.tracer
    plain_cold, traced_cold = [], []
    layer_self_cold = []
    for rep in repetitions(ctx.seconds):
        index = 2 * rep
        plain_cold.append(
            _rep(manifest, work, index, worker, ctx.checks, None, 1)[0].wall
        )
        first = len(tracer.spans)
        with tracer.patched(_trace_targets(tracer)):
            traced_cold.append(
                _rep(manifest, work, index + 1, worker, ctx.checks, tracer, 1)[0].wall
            )
        # Spans of this rep's cold phase: from its root to the warm root.
        cold_root = next(
            i for i in range(first, len(tracer.spans))
            if tracer.spans[i][0] == "table1.cold"
        )
        warm_root = next(
            i for i in range(cold_root, len(tracer.spans))
            if tracer.spans[i][0] == "table1.warm"
        )
        cold = tracer.totals(cold_root, warm_root)
        layer_self_cold.append(
            sum(row[2] for name, row in cold.items() if name != "table1.cold")
        )
    reps = len(traced_cold)
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals[name][0] / reps if name in totals else 0.0

    def seconds(name):
        return totals[name][1] / reps if name in totals else 0.0

    solve = median(plain_cold)
    overhead = median(traced_cold) - solve
    layer_self = median(layer_self_cold)
    # The layer spans must account for the untraced solve to within the
    # tracing overhead (plus 5% for run-to-run noise between repetitions).
    ctx.checks.expect(
        abs(layer_self - solve) <= abs(overhead) + 0.05 * solve,
        f"table1 layer self-times {layer_self:.3f}s do not account for "
        f"solve {solve:.3f}s within overhead {overhead:.3f}s",
    )
    h_calls = calls("search.h_diameter")
    ecc_calls = calls("apsp.ecc")
    chunks = counts["fleet.chunks"] / reps
    hits = counts["cache.hits"] / reps
    misses = counts["cache.misses"] / reps
    # The screen ladder's share of the traced cold solve.
    screens = seconds("search.fwd_bfs") + seconds("search.rev_bfs")
    return {
        "search.h_diameter.calls": h_calls,
        "search.h_diameter.s": seconds("search.h_diameter"),
        "search.fwd_bfs.calls": calls("search.fwd_bfs"),
        "search.fwd_bfs.s": seconds("search.fwd_bfs"),
        "search.rev_bfs.calls": calls("search.rev_bfs"),
        "search.rev_bfs.s": seconds("search.rev_bfs"),
        "search.screen_decided_ratio": (
            (h_calls - ecc_calls) / h_calls if h_calls else 0.0
        ),
        "search.screen_share": screens / seconds("table1.cold"),
        "hbuild.calls": calls("hbuild"),
        "hbuild.s": seconds("hbuild"),
        "apsp.ecc.calls": ecc_calls,
        "apsp.ecc.s": seconds("apsp.ecc"),
        "apsp.ecc.abort_ratio": (
            counts["apsp.ecc.aborted"] / reps / ecc_calls if ecc_calls else 0.0
        ),
        "kernels.backend_id": BACKEND_IDS.get(kernels.active_backend(), -1),
        "store.write.calls": calls("store.write"),
        "store.write.s": seconds("store.write"),
        "store.bytes_written": counts["store.bytes_written"] / reps,
        "store.read.s": seconds("store.read"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.put.s": seconds("cache.put"),
        "sweep.merge.s": seconds("sweep.merge"),
        "fleet.claim.calls": calls("fleet.claim"),
        "fleet.claim.failed": counts["fleet.claim.failed"] / reps,
        "fleet.claim.s": seconds("fleet.claim"),
        "fleet.scan.s": seconds("fleet.scan"),
        "fleet.compute.s": seconds("fleet.compute"),
        "fleet.heartbeat.refreshes": counts["fleet.heartbeat.refreshes"] / reps,
        "fleet.overhead_ms_per_chunk": (
            (seconds("fleet.run") - seconds("fleet.compute")) / chunks * 1e3
            if chunks
            else 0.0
        ),
        "table1.solve_s": solve,
        "trace.layer_self_s": layer_self,
        "trace.overhead_s": overhead,
        "trace.overhead_ratio": overhead / solve,
    }
