"""``sim-healthy`` and ``sim-faults``: the two twin paths of the simulator.

``sim-healthy`` runs fault-free uniform traffic on ``H(32,64,2)`` (n=1024,
dense router) through ``run_throughput_sweep`` in two phases: a saturated
one (every message injected at t=0: workload generation plus the compiled
round driver) and a Poisson-paced one at rate 64 (sparse traffic, which
under ``REPRO_KERNELS=auto`` runs the numpy scalar path).

``sim-faults`` runs degrading scenarios through ``run_scenario_sweep``:
``B(2,6)`` with 8 link failures at t=20 and arc-disjoint reroute, then
hotspot traffic on ``H(16,32,2)`` into 4-slot retry buffers — the
per-event interpreted loop that ``sim-healthy`` bypasses.

Replica seeds are drawn by the workload seed from a fixed pool, and every
replica's ``NetworkStats`` digest must equal the one pinned for it in
``digests.json`` (the engines are bit-identical by contract, so any drift
is a failure).  ``pin_digests.py`` regenerates that file.

In the untraced run the simulators get their router through a
``ProbedRouter``, which lets a ``SpeedProbe`` sample the host while they
run; each phase's CPU time is reported normalised to a nominal host speed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time

import numpy as np

from common import BACKEND_IDS, BENCH_DIR, SpeedProbe, Timer, median, repetitions
from tracing import DelegatingRouter, TracedRouter

DIGESTS = BENCH_DIR / "digests.json"
POOL = range(16)  #: replica seeds with a pinned digest, per configuration

SATURATED_MESSAGES = 100_000
SATURATED_REPLICAS = 2
PACED_MESSAGES = 20_000
PACED_RATE = 64.0
SCENARIO_RATES = (None, 1.0, 4.0)
SCENARIO_REPLICAS = 1
SCENARIO_MESSAGES = 2000


def digest(stats) -> str:
    """Stable identity of one replica's ``NetworkStats`` (exact floats)."""
    payload = json.dumps(dataclasses.asdict(stats), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ------------------------------------------------------------------ set-ups
def _router(graph):
    from repro.routing.routers import make_router

    start = time.perf_counter()
    router = make_router(graph, "dense")
    return router, time.perf_counter() - start


def setup_healthy():
    """Phases ``(name, call, replicas, router)`` and the router build time."""
    from repro import kernels
    from repro.otis.h_digraph import h_digraph
    from repro.simulation.workloads import run_throughput_sweep

    kernels.warmup()
    graph = h_digraph(32, 64, 2)
    router, build_s = _router(graph)

    def saturated(router, seeds):
        return run_throughput_sweep(
            graph, seeds=seeds, num_messages=SATURATED_MESSAGES, router=router
        )

    def paced(router, seeds):
        return run_throughput_sweep(
            graph,
            rates=(PACED_RATE,),
            seeds=seeds,
            num_messages=PACED_MESSAGES,
            router=router,
        )

    phases = [
        ("healthy-saturated", saturated, SATURATED_REPLICAS, router),
        ("healthy-paced", paced, 1, router),
    ]
    return phases, build_s


def setup_faults():
    """Phases ``(name, call, replicas, router)`` and the router build time."""
    from repro import kernels
    from repro.graphs import de_bruijn
    from repro.otis.h_digraph import h_digraph
    from repro.simulation import (
        BufferedLinkModel,
        FaultPlan,
        HotspotArrivals,
        Scenario,
        UniformArrivals,
        run_scenario_sweep,
    )

    kernels.warmup()
    reroute_graph = de_bruijn(2, 6)
    reroute = Scenario(
        arrivals=UniformArrivals(SCENARIO_MESSAGES),
        faults=FaultPlan.random_link_failures(reroute_graph, 8, at=20.0, seed=11),
        reroute="arc-disjoint",
    )
    hotspot_graph = h_digraph(16, 32, 2)
    hotspot = Scenario(
        arrivals=HotspotArrivals(
            SCENARIO_MESSAGES,
            hotspot=hotspot_graph.num_vertices // 2,
            hotspot_fraction=0.5,
        ),
        link=BufferedLinkModel(capacity=4, on_full="retry"),
    )
    phases = []
    build_s = 0.0
    for name, graph, scenario in (
        ("fault_reroute_B(2,6)", reroute_graph, reroute),
        ("hotspot_buffered_H(16,32,2)", hotspot_graph, hotspot),
    ):
        router, seconds = _router(graph)
        build_s += seconds

        def call(router, seeds, graph=graph, scenario=scenario):
            return run_scenario_sweep(
                graph, scenario, rates=SCENARIO_RATES, seeds=seeds, router=router
            )

        phases.append((name, call, SCENARIO_REPLICAS, router))
    return phases, build_s


# ------------------------------------------------------------------- checks
def check_points(checks, pinned, config, points) -> int:
    """Conservation and pinned-digest checks; returns the message count."""
    messages = 0
    for point in points:
        stats = point.stats
        key = f"{point.rate}/{point.seed}"
        checks.op(
            stats.delivered + stats.undelivered == point.num_messages,
            f"{config} {key}: delivered + dropped != messages",
        )
        checks.expect(
            pinned[config].get(key) == digest(stats),
            f"{config} {key}: NetworkStats digest drifted from the pinned one",
        )
        messages += point.num_messages
    return messages


# ---------------------------------------------------------------------- run
class ProbedRouter(DelegatingRouter):
    """A delegating router through which a ``SpeedProbe`` samples the host.

    Every vector call, and every ``SCALAR_STRIDE``-th scalar call (there are
    hundreds of thousands per phase), gives the probe a chance to sample;
    it does so every ``SpeedProbe.INTERVAL_S``.  The delegation itself
    costs about 0.1 us per scalar call, which stays in the measured time.
    """

    SCALAR_STRIDE = 256

    def __init__(self, inner, probe: SpeedProbe):
        super().__init__(inner)
        self._probe = probe
        self._scalar_calls = 0

    def next_hop(self, source: int, target: int) -> int:
        self._scalar_calls += 1
        if not self._scalar_calls % self.SCALAR_STRIDE:
            self._probe.maybe_sample()
        return self.inner.next_hop(source, target)

    def next_hops(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        self._probe.maybe_sample()
        return self.inner.next_hops(sources, targets)


def _trace_targets(tracer):
    from repro.simulation import network, scenarios, workloads

    def generated(traffics, _args, _seconds):
        tracer.count("workload.msgs", sum(len(t) for t in traffics))

    def drawn(traffic, _args, _seconds):
        tracer.count("workload.msgs", len(traffic))

    return [
        (workloads, "sweep_traffics", "workload.gen", generated),
        (scenarios.Scenario, "traffic", "workload.gen", drawn),
        (network.BatchedNetworkSimulator, "run_many", "engine.run_many"),
    ]


def _repeat(ctx, phases):
    """Run every phase until the time is up; with tracing, each one twice.

    ``phases`` holds ``(name, call, replicas, router)``; ``call(router,
    seeds)`` returns a sweep.  Returns ``(plain, traced, messages, layers)``:
    timers of the untraced runs and wall seconds of the traced ones per
    phase, messages per phase run, and per-phase layer sums over the traced
    runs.  Without tracing, every phase runs through a ``ProbedRouter``; its
    timer then excludes the probe's time and carries ``normalised`` CPU
    seconds and the probe's mean ``sample_s``.
    """
    pinned = json.loads(DIGESTS.read_text())
    pick = random.Random(ctx.seed)
    plain = {name: [] for name, *_ in phases}
    traced = {name: [] for name, *_ in phases}
    layers = {name: {} for name, *_ in phases}
    messages = {}
    tracer = ctx.tracer
    probe = None if ctx.trace else SpeedProbe()
    for _ in repetitions(ctx.seconds):
        for name, call, replicas, router in phases:
            seeds = pick.sample(POOL, replicas)
            if probe is None:
                with Timer() as timer:
                    sweep = call(router, seeds)
            else:
                probe.reset()
                with Timer() as timer:
                    probe.sample()  # covers the generation before any routing
                    sweep = call(ProbedRouter(router, probe), seeds)
                probe.settle(timer)
            plain[name].append(timer)
            messages[name] = check_points(ctx.checks, pinned, name, sweep.points)
            if not ctx.trace:
                continue
            # The same inputs again, traced.
            traced_router = TracedRouter(router, tracer)
            first = len(tracer.spans)
            counted = dict(tracer.counts)
            start = time.perf_counter()
            with tracer.patched(_trace_targets(tracer)):
                sweep = call(traced_router, seeds)
            traced[name].append(time.perf_counter() - start)
            check_points(ctx.checks, pinned, name, sweep.points)
            sums = layers[name]

            def add(key, value):
                sums[key] = sums.get(key, 0) + value

            for span, (calls, inclusive, _self) in tracer.totals(first).items():
                add(f"{span}.calls", calls)
                add(f"{span}.s", inclusive)
            for key, value in tracer.counts.items():
                add(key, value - counted.get(key, 0))
            stats = [point.stats for point in sweep.points]
            add("router.next_hop.calls", traced_router.scalar_calls)
            add("router.next_hop.s", traced_router.scalar_ns / 1e9)
            add("messages", sum(point.num_messages for point in sweep.points))
            add("delivered", sum(s.delivered for s in stats))
            add("rerouted_hops", sum(s.rerouted_hops for s in stats))
            add("retransmits", sum(s.retransmits for s in stats))
    return plain, traced, messages, layers


def run(ctx, faults: bool) -> dict:
    phases, build_s = (setup_faults if faults else setup_healthy)()
    plain, traced, messages, layers = _repeat(ctx, phases)
    first, second = (name for name, *_ in phases)
    walls = [median([t.wall for t in plain[name]]) for name in (first, second)]
    if faults:
        # Messages per second over the whole sweep (both scenarios).
        ctx.detail["sim.msgs_per_s"] = (messages[first] + messages[second]) / sum(walls)
    else:
        ctx.detail["sim.msgs_per_s"] = messages[first] / walls[0]
        ctx.detail["sim.paced_msgs_per_s"] = messages[second] / walls[1]
    ctx.detail["sim.reps"] = len(plain[first])
    if ctx.trace:
        return _layer_metrics(phases, build_s, plain, traced, layers, faults)
    one, two = (median([t.normalised for t in plain[n]]) for n in (first, second))
    for key, name in (("phase1", first), ("phase2", second)):
        ctx.detail[f"sim.{key}_cpu_s"] = median([t.cpu for t in plain[name]])
    ctx.detail["sim.probe_sample_ms"] = median(
        [t.sample_s for name in (first, second) for t in plain[name]]
    ) * 1e3
    if faults:
        rate = (messages[first] + messages[second]) / (one + two)
    else:
        rate = messages[first] / one
    return {"phase1_ms": one * 1e3, "phase2_ms": two * 1e3, "rate_per_s": rate}


def _layer_metrics(phases, build_s, plain, traced, layers, faults) -> dict:
    """Per-layer metrics per traced repetition, summed over the phases."""
    from repro import kernels

    first = phases[0][0]
    reps = len(traced[first])

    def total(key, names=None):
        return sum(layers[n].get(key, 0) for n in (names or layers)) / reps

    next_hops_s = total("router.next_hops.s")
    next_hop_s = total("router.next_hop.s")
    plain_wall = median([t.wall for t in plain[first]])
    overhead = median(traced[first]) - plain_wall
    metrics = {
        "kernels.backend_id": BACKEND_IDS.get(kernels.active_backend(), -1),
        "workload.gen.s": total("workload.gen.s"),
        "workload.msgs": total("workload.msgs"),
        "router.build.s": build_s,
        "router.state_bytes": sum(router.state_bytes() for *_, router in phases),
        "router.next_hops.calls": total("router.next_hops.calls"),
        "router.next_hops.pairs": total("router.next_hops.pairs"),
        "router.next_hops.s": next_hops_s,
        "router.next_hop.calls": total("router.next_hop.calls"),
        "router.next_hop.s": next_hop_s,
        "engine.run_many.s": total("engine.run_many.s"),
        "engine.self.s": total("engine.run_many.s") - next_hops_s - next_hop_s,
        "trace.overhead_s": overhead,
        "trace.overhead_ratio": overhead / plain_wall,
    }
    if faults:
        sweep_s = sum(sum(times) for times in traced.values()) / reps
        decisions = total("router.next_hop.calls")
        metrics.update(
            {
                "scenario.sweep.s": sweep_s,
                "scenario.hop_decisions": decisions,
                "scenario.hop_decisions_per_s": decisions / sweep_s,
                "scenario.delivered_ratio": total("delivered") / total("messages"),
                "scenario.rerouted_hops": total("rerouted_hops"),
                "scenario.retransmits": total("retransmits"),
            }
        )
    else:
        # One vector next_hops call per round of the saturated phase's
        # compiled round driver.
        rounds = total("router.next_hops.calls", [first])
        metrics["engine.rounds"] = rounds
        metrics["engine.msgs_per_round"] = (
            total("messages", [first]) / rounds if rounds else 0.0
        )
    return metrics
