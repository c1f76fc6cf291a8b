"""``serve``: an open-loop rate ladder against ``python -m repro serve run``.

The server runs in its own process and hosts ``otis=H(32,64,2):dense`` and
``big=B(2,16):closed-form``.  The benchmark process is the one client: at
most two keep-alive connections, fed by a generator that releases seeded
Poisson arrivals of 256-pair requests on schedule (mostly ``next-hop``,
some ``path`` and ``eta``, ~80/20 across the two topologies) whether or not
earlier requests have been answered.  A request waits for a free
connection like it would wait in any client queue, so each latency is timed
from the request's due time.

The ladder climbs fixed absolute rates.  Its first two steps are the
reported load points (about 30% and 50% of the knee at the time of
writing); later steps stop at the first one that fails.  A step passes
when its p99 is at most ``P99_LIMIT_MS`` with no growing backlog; it is
*invalid* (neither passes nor fails) when the generator itself ran late,
so a slow client cannot pass for a slow server.

After the timed steps, a sample of next-hop answers is checked against
graph distances: each hop must be an out-neighbour one step closer to the
target.
"""

from __future__ import annotations

import asyncio
import json
import signal
import subprocess
import sys
import time

import numpy as np
from repro.serve.bench import http_request

from common import (
    BACKEND_IDS,
    ROOT,
    BenchError,
    child_env,
    cpu_seconds,
    median,
    peak_rss_mb,
    percentile,
)

TOPOLOGIES = {"otis": ("H(32,64,2)", "dense"), "big": ("B(2,16)", "closed-form")}
CONNECTIONS = 2
PAIRS = 256
OPS = (("next-hop", 0.8), ("path", 0.1), ("eta", 0.1))
OTIS_SHARE = 0.8

#: The ladder of offered rates (requests/s).  The first two are the
#: reported low and high load points, ~30% and ~50% of the knee measured on
#: a shared 2-core x86 host (~420 req/s); closer to the knee, queueing
#: turns host noise into tens of percent of latency.
LADDER = (130, 200, 300, 360, 420, 480, 550, 650, 800, 1000)
P99_LIMIT_MS = 50.0
#: A step is invalid when the generator's median lateness exceeds this share
#: of the mean inter-arrival gap.  (The median, not a tail: the event loop's
#: millisecond timer granularity alone makes every release ~0.5 ms late.)
LATE_SHARE = 1.0
#: Latency growth across a step's last quarter (see ``run_step``) above
#: which its backlog counts as growing.
BACKLOG_GROWTH_MS = 20.0
#: Share of ``--seconds`` given to the low step, the high step and each
#: further ladder step: at 25 s, each holds ~1000 requests, enough for ten
#: samples beyond its p99.
SHARES = (0.31, 0.2, 0.1)
SETUPS = 5
CHECK_SAMPLES = 48  #: next-hop answers verified per topology


# ----------------------------------------------------------------- server
def start_server():
    """Start ``repro serve run``; returns (process, port, seconds to healthy)."""
    command = [sys.executable, "-m", "repro", "serve", "run", "--port", "0"]
    for name, (spec, router) in TOPOLOGIES.items():
        command += ["--topology", f"{name}={spec}:{router}"]
    start = time.perf_counter()
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True
    )
    try:
        line = process.stdout.readline()
        if not line.startswith("serving on http://"):
            raise BenchError(f"serve run did not start: {line!r}")
        port = int(line.rsplit(":", 1)[1])
        while True:
            try:
                reply = http_request("127.0.0.1", port, "GET", "/healthz")
            except OSError:
                reply = {}
            if reply.get("ok"):
                return process, port, time.perf_counter() - start
            if time.perf_counter() - start > 60:
                raise BenchError("serve run never became healthy")
            time.sleep(0.005)
    except BaseException:
        stop_server(process)
        raise


def stop_server(process) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        process.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()


# ---------------------------------------------------------------- traffic
def make_step(rng, rate, seconds, nodes):
    """Seeded Poisson arrivals of encoded requests for one ladder step.

    The op and topology shares are exact within a step (only their order
    is random): the heaviest class, ``path`` on ``big``, is 2% of requests,
    so a p99 that depends on how many of them a seed happened to draw would
    swing by a factor of two between seeds.
    """
    count = max(1, int(rate * seconds))
    dues = np.cumsum(rng.exponential(1.0 / rate, size=count))
    kinds = []
    for op, share in OPS:
        members = round(share * count)
        on_otis = round(OTIS_SHARE * members)
        kinds += [(op, "otis")] * on_otis + [(op, "big")] * (members - on_otis)
    kinds = (kinds + [(OPS[0][0], "otis")] * count)[:count]
    order = rng.permutation(count)
    requests, meta = [], []
    for index in order.tolist():
        op, topology = kinds[index]
        pairs = rng.integers(0, nodes[topology], size=(PAIRS, 2))
        body = json.dumps(
            {"op": op, "topology": topology, "pairs": pairs.tolist()}
        ).encode()
        requests.append(
            b"POST /v1/query HTTP/1.1\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        meta.append((op, topology, pairs))
    return dues.tolist(), requests, meta


async def _read_response(reader):
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionResetError("server closed the connection")
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.partition(b":")
        if key.strip().lower() == b"content-length":
            length = int(value)
    body = await reader.readexactly(length) if length else b""
    return int(status_line.split()[1]), body


async def _drive(host, port, dues, requests):
    """Send every request at its due time; returns per-request timings."""
    loop = asyncio.get_running_loop()
    count = len(requests)
    latency = [0.0] * count
    late = [0.0] * count
    status = [0] * count
    bodies = [b""] * count
    queue: asyncio.Queue = asyncio.Queue()
    connections = [
        await asyncio.open_connection(host, port) for _ in range(CONNECTIONS)
    ]
    origin = loop.time() + 0.01

    async def generate():
        for index, due in enumerate(dues):
            when = origin + due
            now = loop.time()
            if when > now:
                await asyncio.sleep(when - now)
                now = loop.time()
            late[index] = max(0.0, now - when)
            queue.put_nowait(index)
        for _ in connections:
            queue.put_nowait(None)

    async def send(reader, writer):
        while (index := await queue.get()) is not None:
            writer.write(requests[index])
            await writer.drain()
            status[index], bodies[index] = await _read_response(reader)
            latency[index] = loop.time() - (origin + dues[index])

    try:
        await asyncio.gather(generate(), *(send(r, w) for r, w in connections))
    finally:
        for _, writer in connections:
            writer.close()
            await writer.wait_closed()
    return latency, late, status, bodies


def run_step(host, port, rng, rate, seconds, nodes, checks, samples):
    """One ladder step; returns its summary and keeps next-hop samples."""
    dues, requests, meta = make_step(rng, rate, seconds, nodes)
    latency, late, status, bodies = asyncio.run(_drive(host, port, dues, requests))
    for (op, topology, pairs), code, body in zip(meta, status, bodies):
        reply = json.loads(body) if code == 200 else {}
        ok = reply.get("ok") is True and reply.get("count") == PAIRS
        checks.op(ok, f"serve {op} on {topology} answered {code}: {body[:120]!r}")
        if ok and op == "next-hop":
            samples.setdefault(topology, []).append((pairs, reply["hops"]))
    ordered = sorted(latency)
    gap = 1.0 / rate
    # Backlog trend over the step's last quarter: median latency of its
    # second half minus that of its first half (medians, so one heavy
    # request near the end does not read as a growing queue).
    quarter = latency[3 * len(latency) // 4 :]
    half = len(quarter) // 2
    growth_ms = (
        (median(quarter[half:]) - median(quarter[:half])) * 1e3 if half else 0.0
    )
    late_median = median(late)
    step = {
        "rate": rate,
        "requests": len(requests),
        "p50_ms": percentile(ordered, 50) * 1e3,
        "p99_ms": percentile(ordered, 99) * 1e3,
        "gen_late_ms": late_median * 1e3,
        "gen_late_p99_ms": percentile(sorted(late), 99) * 1e3,
        "backlog_growth_ms": growth_ms,
        "valid": late_median <= LATE_SHARE * gap,
    }
    step["passed"] = (
        step["p99_ms"] <= P99_LIMIT_MS and growth_ms <= BACKLOG_GROWTH_MS
    )
    return step


def knee_rate(steps) -> float:
    """Highest sustained rate, interpolated on p99 to the failing step.

    Below the first valid failing step the last valid passing rate holds;
    when the failure is a p99 above the limit, the rate where the p99 line
    between the two steps crosses the limit is returned instead, so the
    figure moves continuously rather than in ladder steps.  If the very
    first valid step fails, its rate is scaled down by p99 over the limit.
    """
    best = None
    for step in steps:
        if not step["valid"]:
            continue
        if step["passed"]:
            best = step
            continue
        if best is None:
            scale = P99_LIMIT_MS / max(step["p99_ms"], P99_LIMIT_MS)
            return float(step["rate"]) * scale
        low, high = best["p99_ms"], step["p99_ms"]
        if high > P99_LIMIT_MS and high > low:
            share = (P99_LIMIT_MS - low) / (high - low)
            return best["rate"] + share * (step["rate"] - best["rate"])
        return float(best["rate"])
    return float(best["rate"]) if best else 0.0


# ----------------------------------------------------------------- checks
def verify_samples(samples, rng, checks) -> None:
    """Each sampled next hop is an out-neighbour one step closer to the target."""
    from repro.graphs.traversal import reverse_bfs_distances_regular
    from repro.serve.registry import build_graph

    for topology, answered in sorted(samples.items()):
        graph = build_graph(TOPOLOGIES[topology][0])
        successors = graph.successors
        picks = rng.integers(0, len(answered), size=CHECK_SAMPLES)
        for pick in picks.tolist():
            pairs, hops = answered[pick]
            row = int(rng.integers(0, PAIRS))
            source, target = (int(v) for v in pairs[row])
            hop = int(hops[row])
            if source == target:
                ok = hop == source
            else:
                distance = reverse_bfs_distances_regular(graph, target)
                ok = (
                    hop in successors[source].tolist()
                    and distance[hop] == distance[source] - 1
                )
            checks.op(
                ok,
                f"serve {topology}: next hop {hop} from {source} to {target} "
                "is not one step closer",
            )


# -------------------------------------------------------------------- run
def _ladder(host, port, rng, ctx, nodes, samples, pid):
    """The timed ladder; returns its steps.

    It stops at the first failing step, or when the next step would not fit
    in ``--seconds``.  Each step also records the server's CPU milliseconds
    per request.
    """
    steps = []
    start = time.perf_counter()
    for index, rate in enumerate(LADDER):
        share = SHARES[min(index, len(SHARES) - 1)]
        elapsed = time.perf_counter() - start
        if index >= 2 and elapsed + share * ctx.seconds > ctx.seconds:
            break
        cpu = cpu_seconds(pid)
        step = run_step(
            host, port, rng, rate, share * ctx.seconds, nodes, ctx.checks, samples
        )
        step["server_cpu_ms"] = (cpu_seconds(pid) - cpu) / step["requests"] * 1e3
        steps.append(step)
        print(f"serve step {json.dumps(step)}", file=sys.stderr)
        if index >= 1 and step["valid"] and not step["passed"]:
            break
        time.sleep(0.2)  # let the queue drain between steps
    return steps


def run(ctx) -> dict:
    if ctx.trace:
        return _traced(ctx)
    setups = []
    for attempt in range(SETUPS):
        process, port, seconds = start_server()
        setups.append(seconds)
        if attempt < SETUPS - 1:
            stop_server(process)
    try:
        stats = http_request("127.0.0.1", port, "GET", "/stats")
        nodes = {n: int(info["nodes"]) for n, info in stats["topologies"].items()}
        rng = np.random.default_rng(ctx.seed)
        samples: dict = {}
        steps = _ladder("127.0.0.1", port, rng, ctx, nodes, samples, process.pid)
        rss = peak_rss_mb(process.pid)
    finally:
        stop_server(process)
    verify_samples(samples, rng, ctx.checks)
    low, high = steps[0], steps[1]
    ctx.checks.expect(
        low["valid"] and high["valid"],
        "serve low/high step invalid: the generator ran late",
    )
    passed = [s["rate"] for s in steps if s["valid"] and s["passed"]]
    ctx.detail.update(
        {
            "serve.knee_rps": knee_rate(steps),
            "serve.low.p50_ms": low["p50_ms"],
            "serve.low.p99_ms": low["p99_ms"],
            "serve.high.p50_ms": high["p50_ms"],
            "serve.high.p99_ms": high["p99_ms"],
            "serve.max_rps": max(passed) if passed else 0,
            "serve.gen_late_ms": max(s["gen_late_ms"] for s in steps),
            "serve.invalid_steps": sum(not s["valid"] for s in steps),
        }
    )
    # Gated: the median latency at the low step, and the server's CPU cost
    # per request at the low and the high step.  On a shared 2-core virtual
    # machine, hypervisor steal moved the p99s, the p50 at the high step and
    # the knee by tens of percent between runs of unchanged code; they are
    # reported on the detail line but cannot carry a bound.
    return {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "phase1_ms": low["p50_ms"],
        "phase2_ms": low["server_cpu_ms"],
        "rate_per_s": 1e3 / high["server_cpu_ms"],
    }


# ------------------------------------------------------------- traced run
def _serve_step(ctx, rate, seconds):
    """One step against an in-process server built now; (timings, stats, registry)."""
    from repro.serve.bench import ServerThread
    from repro.serve.registry import RouterRegistry

    registry = RouterRegistry()
    for name, (spec, router) in TOPOLOGIES.items():
        registry.add(name, spec, router)
    with ServerThread(registry) as server:
        stats = http_request(server.host, server.port, "GET", "/stats")
        nodes = {n: int(i["nodes"]) for n, i in stats["topologies"].items()}
        rng = np.random.default_rng(ctx.seed)
        dues, requests, _ = make_step(rng, rate, seconds, nodes)
        latency, late, status, _ = asyncio.run(
            _drive(server.host, server.port, dues, requests)
        )
        stats = http_request(server.host, server.port, "GET", "/stats")
    for code in status:
        ctx.checks.op(code == 200, f"serve traced step answered {code}")
    return latency, late, stats, registry


def _traced(ctx) -> dict:
    """The high step against an in-process server, untraced then traced.

    The in-process server (``repro.serve.bench.ServerThread``) lets the
    benchmark wrap the server's public functions; batching and backpressure
    counters come from its ``/stats``.
    """
    from repro import kernels
    from repro.serve import registry as registry_module
    from repro.serve import server as server_module

    from tracing import TracedRouter

    tracer = ctx.tracer
    rate, seconds = LADDER[1], ctx.seconds / 2

    def answered(_reply, args, elapsed):
        # One answer call serves every request coalesced into its batch.
        tracer.count("serve.answer.request_s", elapsed * args[0].count / PAIRS)

    def traced_make_router(make_router):
        def build(graph, kind="auto", **kwargs):
            with tracer.span("router.build"):
                return TracedRouter(make_router(graph, kind, **kwargs), tracer)

        return build

    plain_latency, _, _, _ = _serve_step(ctx, rate, seconds)
    with tracer.patched(
        [
            (registry_module, "make_router", traced_make_router),
            (sys.modules["repro.otis.h_digraph"], "h_digraph", "hbuild"),
            (server_module, "decode_query", "serve.parse"),
            (server_module, "answer_query", "serve.answer", answered),
        ]
    ):
        latency, late, stats, registry = _serve_step(ctx, rate, seconds)
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals[name][0] if name in totals else 0

    def seconds_of(name):
        return totals[name][1] if name in totals else 0.0

    requests = len(latency)
    batches = stats["batching"]["batches"]
    parse_s = seconds_of("serve.parse")
    overhead = median(latency) - median(plain_latency)
    return {
        "kernels.backend_id": BACKEND_IDS.get(kernels.active_backend(), -1),
        "hbuild.calls": calls("hbuild"),
        "hbuild.s": seconds_of("hbuild"),
        "router.build.s": seconds_of("router.build"),
        "router.state_bytes": sum(
            registry.get(name).router.state_bytes() for name in registry.names()
        ),
        "router.next_hops.calls": calls("router.next_hops"),
        "router.next_hops.pairs": counts["router.next_hops.pairs"],
        "router.next_hops.s": seconds_of("router.next_hops"),
        "serve.parse.s": parse_s,
        "serve.answer.s": seconds_of("serve.answer"),
        "serve.wait.s": sum(latency) - parse_s - counts["serve.answer.request_s"],
        "serve.batches": batches,
        "serve.requests_per_batch": requests / batches if batches else 0.0,
        "serve.pairs_per_batch": requests * PAIRS / batches if batches else 0.0,
        "serve.shed": stats["backpressure"]["shed"],
        "serve.deadline_exceeded": stats["backpressure"]["deadline_exceeded"],
        "serve.gen_late_ms": median(late) * 1e3,
        "trace.overhead_s": overhead,
        "trace.overhead_ratio": overhead / median(plain_latency),
    }
