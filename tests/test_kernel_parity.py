"""Differential test layer: every kernel backend vs. the numpy reference.

The compiled kernels (:mod:`repro.kernels`) promise results **byte-identical**
to the vectorised numpy paths — not statistically equal, not approximately
equal.  This suite is the proof obligation:

* the ``bfs_screen`` kernel is compared through
  :func:`repro.otis.search.h_diameter` against the numpy screen ladder:
  every split of the paper's D=8 block, the D=9 and D=10 printed rows,
  every regular digraph on <= 3 vertices and hypothesis-randomised regular
  digraphs (self-loops, parallel arcs, ``d = 1``, forward-reachable parts
  that cannot get back), bounded and unbounded;
* the apsp kernels (full / subset eccentricity sweeps, subset distance
  rows) are compared against the numpy bit-sweep on exhaustively enumerated
  tiny digraphs and on hypothesis-randomised digraphs (with parallel arcs,
  self-loops, sinks and disconnected pieces), with and without the
  ``upper_bound`` early cut;
* the simulator kernels are compared against the numpy vector path on
  randomised workloads over parallel-arc topologies, zero-``T`` /
  zero-``L`` link timings (same-instant event cascades), truncated runs
  (``until`` / ``max_events``), multi-replica ``run_many`` pools and empty
  traffics — checking stats, per-message records and the flattened
  transmission trace;
* the ``scenario_run`` kernel is compared the same way against the
  interpreted scenario loop on every composition of
  ``tests/scenario_cases.py``, pooled replicas, truncation, same-instant
  retry cascades, ``capacity=0``, healing faults, deflection ties and
  hypothesis-generated scenarios (each case also proves the kernel ran),
  and on both ``perfbench`` ``sim-faults`` configurations against the
  event engine;
* sparse healthy traffic, which compiled backends run as one
  ``scenario_run`` call with nothing degraded, is compared against the
  numpy path (each case proving the call happened): Poisson-paced traffic
  on a parallel-arc topology, silent drops on a digraph that is not
  strongly connected, ``until`` / ``max_events`` truncation, a trace log
  that fills and resumes, pooled replicas with an empty one, and both
  ``perfbench`` ``sim-healthy`` configurations at full size against the
  digests the benchmark pins; past ``AUTO_DENSE_MAX_N`` it runs numpy;
* the round driver keeps the few-message cases (sink drops, the ``T=L=0``
  cascade, randomised traffic, an arrival-only scenario) by pooling 32
  copies of each, which makes them dense, each case proving
  ``make_round_driver`` ran;
* the kernel-side event queue is driven directly against
  :class:`repro.simulation.events.BatchEventQueue` on adversarial time
  sequences (duplicates, ``-0.0`` vs ``+0.0``, limit truncation).

Backends under test: every *compiled* backend available in this
environment (``numba`` and/or ``cnative``) plus ``pyimpl`` — the
interpreted build of the shared jittable source (``PY_KERNELS``), which
runs everywhere and keeps this suite meaningful even where no compiled
backend exists.  The numpy reference itself is cross-checked against the
scalar event-loop engine by ``tests/test_simulation_parity.py``, closing
the loop: reference engine == numpy path == every kernel backend.
"""

import contextlib
import dataclasses
import functools
import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.graphs.apsp import batched_eccentricities, subset_distance_rows
from repro.graphs.digraph import Digraph, RegularDigraph
from repro.graphs.generators import de_bruijn
from repro.graphs.traversal import (
    bfs_distances_regular,
    reverse_bfs_distances_regular,
)
from repro.kernels._pyimpl import PY_KERNELS
from repro.otis import search
from repro.otis.h_digraph import h_digraph, h_digraph_splits
from repro.routing.routers import AUTO_DENSE_MAX_N
from repro.simulation.network import (
    BatchedNetworkSimulator,
    BufferedLinkModel,
    LinkModel,
    NetworkSimulator,
)
from repro.simulation.scenarios import (
    FaultEvent,
    FaultPlan,
    HotspotArrivals,
    Scenario,
    UniformArrivals,
)
from repro.simulation.workloads import sweep_traffics, uniform_random_pairs
from scenario_cases import GRAPH as SCENARIO_GRAPH
from scenario_cases import SCENARIOS, scenario_strategy

#: The ``perfbench`` pinned ``NetworkStats`` digests (read only).
PERFBENCH_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"

#: Compiled backends usable here, plus the interpreted reference build.
BACKENDS = [b for b in kernels.available_backends() if b != "numpy"] + ["pyimpl"]


@contextlib.contextmanager
def pyimpl_dispatch():
    """Teach the dispatch layer to resolve ``"pyimpl"`` to ``PY_KERNELS``.

    ``pyimpl`` is not a registered backend (it is far too slow for
    production use); inside this block the exact integration paths under
    test — ``h_diameter(backend=...)``, ``batched_eccentricities(backend=...)``,
    ``BatchedNetworkSimulator(kernels=...)`` — run it end to end.
    """
    orig_resolve = kernels.resolve_backend
    orig_get = kernels.get_kernels
    kernels.resolve_backend = (
        lambda r=None: "pyimpl" if r == "pyimpl" else orig_resolve(r)
    )
    kernels.get_kernels = lambda b=None: PY_KERNELS if b == "pyimpl" else orig_get(b)
    try:
        yield
    finally:
        kernels.resolve_backend = orig_resolve
        kernels.get_kernels = orig_get


@pytest.fixture(params=BACKENDS)
def backend(request):
    """One kernel backend name, with ``"pyimpl"`` wired into the dispatch."""
    with pyimpl_dispatch():
        yield request.param


# ---------------------------------------------------------------------- apsp


def all_tiny_digraphs():
    """Every digraph on <= 3 vertices with 0/1 arcs per ordered pair."""
    graphs = []
    for n in (1, 2, 3):
        for mask in range(1 << (n * n)):
            arcs = [
                (u, v)
                for u in range(n)
                for v in range(n)
                if (mask >> (u * n + v)) & 1
            ]
            graphs.append(Digraph(n, arcs))
    return graphs


TINY_DIGRAPHS = all_tiny_digraphs()


def assert_apsp_parity(graph, back, upper_bound=None, sources=None):
    ref = batched_eccentricities(
        graph, upper_bound, sources=sources, backend="numpy"
    )
    got = batched_eccentricities(
        graph, upper_bound, sources=sources, backend=back
    )
    assert got[0].dtype == ref[0].dtype
    assert got[0].tobytes() == ref[0].tobytes()  # byte-identical, not close
    assert got[1] == ref[1]


def test_ecc_sweep_exhaustive_tiny(backend):
    # 585 digraphs: every 0/1 adjacency on 1-3 vertices, including the
    # empty digraph, all-loops, sinks, sources and disconnected pieces.
    for graph in TINY_DIGRAPHS:
        assert_apsp_parity(graph, backend)
        assert_apsp_parity(graph, backend, upper_bound=0)
        assert_apsp_parity(graph, backend, upper_bound=1)


def test_subset_sweeps_exhaustive_tiny(backend):
    for graph in TINY_DIGRAPHS:
        n = graph.num_vertices
        sources = list(range(n))
        assert_apsp_parity(graph, backend, sources=sources)
        ref = subset_distance_rows(graph, sources, backend="numpy")
        got = subset_distance_rows(graph, sources, backend=backend)
        assert got.tobytes() == ref.tobytes()


@st.composite
def digraphs(draw, max_n=40):
    """Random digraphs: parallel arcs, self-loops, sinks all possible."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    num_arcs = draw(st.integers(min_value=0, max_value=3 * n))
    arcs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=num_arcs,
            max_size=num_arcs,
        )
    )
    return Digraph(n, arcs)


@settings(max_examples=30, deadline=None)
@given(graph=digraphs(), data=st.data())
def test_ecc_sweep_randomised(graph, data):
    # The hypothesis pass runs the compiled backends only (pyimpl is
    # covered exhaustively above; interpreting 40-vertex sweeps per example
    # would dominate the tier-1 budget for no extra coverage).
    n = graph.num_vertices
    ub = data.draw(
        st.one_of(st.none(), st.integers(min_value=0, max_value=n + 1))
    )
    k = data.draw(st.integers(min_value=1, max_value=n))
    sources = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    for back in BACKENDS:
        if back == "pyimpl":
            continue
        assert_apsp_parity(graph, back, upper_bound=ub)
        assert_apsp_parity(graph, back, upper_bound=ub, sources=sources)
        ref = subset_distance_rows(graph, sources, backend="numpy")
        got = subset_distance_rows(graph, sources, backend=back)
        assert got.tobytes() == ref.tobytes()


def test_h_diameter_sized_sweep(backend):
    # One realistic topology end to end (64-word boundary: n = 64 for
    # H(1,4,2)'s line digraph would be ideal; H(4,8,2) has n=32, H(2,8,4)
    # n=64 exercising an exact word boundary).
    for graph in (h_digraph(4, 8, 2), h_digraph(2, 8, 4)):
        assert_apsp_parity(graph, backend)
        assert_apsp_parity(graph, backend, upper_bound=3)


# ------------------------------------------------------------ BFS screen


def numpy_screen(graph, upper_bound):
    """Stages 1-2 of the numpy ladder, in ``bfs_screen``'s return convention."""
    bound = math.inf if upper_bound is None else upper_bound
    lower = 0
    for bfs in (bfs_distances_regular, reverse_bfs_distances_regular):
        dist = bfs(graph, 0)
        if (dist < 0).any():
            return -1
        if dist.max() > bound:
            return upper_bound + 1
        lower = max(lower, int(dist.max()))
    return lower


def assert_h_diameter_parity(graph, back, upper_bound):
    ref = search.h_diameter(graph, upper_bound, backend="numpy")
    got = search.h_diameter(graph, upper_bound, backend=back)
    assert got == ref, (graph.successors.tolist(), upper_bound, got, ref)
    n, d = graph.successors.shape
    if n >= 2:
        # The screen itself, not only the verdict (which stage 3 could
        # repair): same check order, same lower bound when it passes.
        screen = kernels.get_kernels(back).bfs_screen(
            graph.successors,
            np.empty(n, dtype=np.int64),
            np.empty(n, dtype=np.int64),
            np.empty(n + 1, dtype=np.int64),
            np.empty(n * d, dtype=np.int64),
            n if upper_bound is None else upper_bound,
        )
        assert screen == numpy_screen(graph, upper_bound)


def table1_splits(ns):
    """Every ``H(p, q, 2)`` split of the given node counts, ``p <= q``."""
    return [
        h_digraph(p, q, 2)
        for n in ns
        for p, q in h_digraph_splits(n, 2)
    ]


def test_h_diameter_screen_runs_in_the_kernel(backend, monkeypatch):
    # Parity is only evidence if the kernel actually ran: the numpy
    # screens must not be reached on a compiled (or pyimpl) backend.
    def numpy_screen(*_args):
        raise AssertionError("numpy screen reached")

    monkeypatch.setattr(search, "bfs_distances_regular", numpy_screen)
    monkeypatch.setattr(search, "reverse_bfs_distances_regular", numpy_screen)
    assert search.h_diameter(h_digraph(4, 8, 2), 4, backend=backend) == 4
    assert search.h_diameter(h_digraph(4, 4, 2), 4, backend=backend) == -1


def test_h_diameter_exhaustive_tiny_regular(backend):
    # Every (n, d) successor matrix with n <= 3, d <= 2: the n = 1 early
    # return, d = 1 cycles and paths, self-loops, parallel arcs, sinks.
    for n, d in [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 1), (3, 2)]:
        for flat in itertools.product(range(n), repeat=n * d):
            graph = RegularDigraph(np.array(flat, dtype=np.int64).reshape(n, d))
            for ub in (None, -1, 0, 1, 2):
                assert_h_diameter_parity(graph, backend, ub)


def test_h_diameter_reverse_screen_decides(backend):
    # Out-tree from 0 (ecc(0) = 4), but the leaves only get back through a
    # chain ending in the single arc n-1 -> 0 (max d(u, 0) = 16): for every
    # bound in between, only the reverse eccentricity cut can reject.
    n = 31
    rows = [[2 * u + 1, 2 * u + 2] for u in range(n // 2)]
    rows += [[u + 1, u + 1] for u in range(n // 2, n - 1)] + [[0, 0]]
    graph = RegularDigraph(rows)
    for ub in [None, *range(n + 1)]:
        assert_h_diameter_parity(graph, backend, ub)


def test_h_diameter_table1_d8_block(backend):
    # Every split of the D=8 block the paper searches (n = 253..384).
    for graph in table1_splits(range(253, 385)):
        assert_h_diameter_parity(graph, backend, 8)


@pytest.mark.parametrize("diameter", [9, 10])
def test_h_diameter_table1_printed_rows(backend, diameter):
    for graph in table1_splits(n for n, _ in search.PAPER_TABLE1[diameter]):
        assert_h_diameter_parity(graph, backend, diameter)


def test_h_diameter_table1_unbounded():
    # Unbounded calls send every strongly connected split through the full
    # sweep, which the interpreted build would take minutes over; pyimpl
    # runs unbounded on the randomised digraphs below instead.
    for back in BACKENDS:
        if back == "pyimpl":
            continue
        for diameter in (8, 9, 10):
            ns = [n for n, _ in search.PAPER_TABLE1[diameter]]
            for graph in table1_splits(ns):
                assert_h_diameter_parity(graph, back, None)


@st.composite
def regular_digraphs(draw, max_n=24):
    """Random regular digraphs, optionally forced round a Hamiltonian cycle.

    ``shape="sink"`` keeps every vertex reachable from 0 (column 0 walks
    0 -> 1 -> ... -> n-1) but turns n-1 into a sink, so the forward screen
    passes and only the reverse screen can reject.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    d = draw(st.integers(min_value=1, max_value=3))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=d, max_size=d),
            min_size=n,
            max_size=n,
        )
    )
    shape = draw(st.sampled_from(["random", "cycle", "sink"]))
    if shape != "random":
        for u in range(n):
            rows[u][0] = (u + 1) % n
        if shape == "sink":
            rows[n - 1] = [n - 1] * d
    return RegularDigraph(rows)


@settings(max_examples=60, deadline=None)
@given(graph=regular_digraphs(), data=st.data())
def test_h_diameter_randomised(graph, data):
    ub = data.draw(
        st.one_of(
            st.none(),
            st.integers(min_value=0, max_value=graph.num_vertices + 1),
        )
    )
    with pyimpl_dispatch():
        for back in BACKENDS:
            assert_h_diameter_parity(graph, back, ub)
            assert_h_diameter_parity(graph, back, None)


# ----------------------------------------------------------------- simulator


def simulator(graph, back, **kwargs):
    return BatchedNetworkSimulator(graph, kernels=back, **kwargs)


def assert_messages_equal(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.ident == r.ident
        assert g.source == r.source
        assert g.destination == r.destination
        assert g.creation_time == r.creation_time
        assert g.hops == r.hops
        assert g.drop_reason == r.drop_reason
        if math.isnan(r.arrival_time):
            assert math.isnan(g.arrival_time)
        else:
            assert g.arrival_time == r.arrival_time  # exact, not approx


def flat_trace(trace):
    """Flatten per-batch trace triples to one (link, start, mover) list."""
    return [
        (int(l), float(s), int(m))
        for links, starts, movers in trace
        for l, s, m in zip(links, starts, movers)
    ]


def assert_sim_parity(graph, traffics, back, link=None, scenario=None, **kw):
    ref_trace, got_trace = [], []
    ref = simulator(graph, "numpy", link=link, scenario=scenario).run_many(
        traffics, trace=ref_trace, **kw
    )
    got = simulator(graph, back, link=link, scenario=scenario).run_many(
        traffics, trace=got_trace, **kw
    )
    assert len(got) == len(ref)
    for (got_stats, got_msgs), (ref_stats, ref_msgs) in zip(got, ref):
        assert got_stats == ref_stats
        if ref_msgs is None:
            assert got_msgs is None
        else:
            assert_messages_equal(got_msgs, ref_msgs)
    # Batch boundaries may differ between the kernel loop (one triple per
    # round) and the vector path (per batch); the chronological flat
    # sequence of transmissions must not.
    assert flat_trace(got_trace) == flat_trace(ref_trace)
    return ref


PARITY_LINKS = [
    LinkModel(latency=1.0, transmission_time=1.0),
    LinkModel(latency=0.7, transmission_time=0.3),
    LinkModel(latency=1.0, transmission_time=0.0),
    LinkModel(latency=0.0, transmission_time=0.0),
]

# H(1,4,2) and H(2,8,4) are multigraphs (parallel optical channels), where
# the earliest-free-link greedy is subtlest.
PARITY_GRAPHS = [h_digraph(1, 4, 2), h_digraph(2, 8, 4), h_digraph(4, 8, 2)]


@pytest.mark.parametrize("link", PARITY_LINKS, ids=lambda l: f"T{l.transmission_time}_L{l.latency}")
def test_sim_parity_workloads(backend, link):
    for graph in PARITY_GRAPHS:
        n = graph.num_vertices
        traffic = uniform_random_pairs(n, 50, rng=3)
        stats = assert_sim_parity(graph, [traffic], backend, link=link)
        assert stats[0][0].delivered == 50


def test_sim_parity_multi_replica_and_empty(backend):
    graph = h_digraph(2, 8, 4)
    n = graph.num_vertices
    traffics = [
        uniform_random_pairs(n, 30, rng=0),
        [],  # empty replica pooled with busy ones
        uniform_random_pairs(n, 45, rng=1),
    ]
    assert_sim_parity(graph, traffics, backend)
    assert_sim_parity(graph, [[]], backend)  # nothing scheduled at all


def test_sim_parity_truncated_runs(backend):
    graph = h_digraph(4, 8, 2)
    n = graph.num_vertices
    traffic = uniform_random_pairs(n, 60, rng=5)
    assert_sim_parity(graph, [traffic], backend, until=3.0)
    assert_sim_parity(graph, [traffic], backend, max_events=37)
    assert_sim_parity(graph, [traffic], backend, until=2.5, max_events=111)
    assert_sim_parity(graph, [traffic], backend, max_events=0)


def test_sim_parity_unreachable_drops(backend):
    # A sink vertex: messages to it from elsewhere are dropped by the
    # router (next hop -1) — the no-route branch of the kernel.
    graph = Digraph(3, [(0, 1), (1, 0), (0, 2), (1, 2)])  # 2 has no out-arcs
    traffic = [(2, 0, 0.0), (0, 2, 0.0), (1, 2, 0.5), (0, 1, 0.5)]
    assert_sim_parity(graph, [traffic], backend)


def test_sim_parity_same_instant_cascades(backend):
    # T=0, L=0: every forward lands back in the queue at the *same*
    # timestamp — the re-push-into-the-current-bucket path of the queue,
    # plus -0.0 creation times (the float bit pattern differs from +0.0
    # but the queue must treat them as one time, like the reference dict).
    graph = h_digraph(1, 4, 2)
    n = graph.num_vertices
    link = LinkModel(latency=0.0, transmission_time=0.0)
    traffic = [(i % n, (i * 3 + 1) % n, -0.0 if i % 2 else 0.0) for i in range(20)]
    assert_sim_parity(graph, [traffic], backend, link=link)
    assert_sim_parity(graph, [traffic], backend, link=link, max_events=7)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_sim_parity_randomised(data):
    graph = data.draw(st.sampled_from(PARITY_GRAPHS))
    n = graph.num_vertices
    count = data.draw(st.integers(min_value=0, max_value=40))
    traffic = [
        (
            data.draw(st.integers(min_value=0, max_value=n - 1)),
            data.draw(st.integers(min_value=0, max_value=n - 1)),
            data.draw(
                st.floats(
                    min_value=0.0, max_value=4.0, allow_nan=False, width=32
                )
            ),
        )
        for _ in range(count)
    ]
    link = data.draw(st.sampled_from(PARITY_LINKS))
    until = data.draw(st.one_of(st.none(), st.floats(min_value=0.0, max_value=6.0)))
    for back in BACKENDS:
        if back == "pyimpl":
            continue  # exercised by the deterministic cases above
        assert_sim_parity(graph, [traffic], back, link=link, until=until)


# ------------------------------------------------------------------ scenarios


def spy_kernel_calls(monkeypatch, back, name):
    """Count calls of kernel ``name`` on ``back``'s kernel namespace."""
    namespace = kernel_namespace(back)
    real = getattr(namespace, name)
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(namespace, name, spy)
    return calls


def spy_scenario_runs(monkeypatch, back):
    """Count ``scenario_run`` calls on ``back``'s kernel namespace."""
    return spy_kernel_calls(monkeypatch, back, "scenario_run")


def assert_scenario_kernel_parity(monkeypatch, graph, traffics, back, scenario, **kw):
    """``assert_sim_parity`` for a degrading scenario, plus proof the kernel ran."""
    calls = spy_scenario_runs(monkeypatch, back)
    assert simulator(graph, back, scenario=scenario).kernel_backend == back
    ref = assert_sim_parity(graph, traffics, back, scenario=scenario, **kw)
    assert calls, "the scenario kernel never ran"
    return ref


def test_scenario_fault_at_t0_runs_the_kernel(backend, monkeypatch):
    # A degrading scenario (fault at t=0) runs the scenario kernel on every
    # compiled backend: kernel_backend names it, and results match the
    # interpreted scenario loop.
    graph = h_digraph(4, 8, 2)
    scenario = Scenario(
        arrivals=UniformArrivals(30),
        faults=FaultPlan.random_link_failures(graph, 5, at=0.0, seed=2),
    )
    sim = simulator(graph, backend, scenario=scenario)
    assert sim.kernel_backend == backend
    calls = spy_scenario_runs(monkeypatch, backend)
    traffic = scenario.traffic(graph.num_vertices, rng=0)
    assert_sim_parity(graph, [traffic], backend, scenario=scenario)
    assert calls, "the scenario kernel never ran"


def test_scenario_capacity_zero_runs_the_kernel(backend, monkeypatch):
    graph = h_digraph(1, 4, 2)
    scenario = Scenario(
        arrivals=UniformArrivals(20),
        link=BufferedLinkModel(capacity=0),
    )
    sim = simulator(graph, backend, scenario=scenario)
    assert sim.kernel_backend == backend
    calls = spy_scenario_runs(monkeypatch, backend)
    traffic = scenario.traffic(graph.num_vertices, rng=1)
    assert_sim_parity(graph, [traffic], backend, scenario=scenario)
    assert calls, "the scenario kernel never ran"


def test_scenario_arrival_only_uses_kernels(backend):
    # Arrival-only scenarios keep the base-model fast path — on a kernel
    # backend that IS the kernel path, and results must still match numpy.
    graph = h_digraph(2, 8, 4)
    scenario = Scenario(arrivals=UniformArrivals(40, rate=2.0))
    sim = simulator(graph, backend, scenario=scenario)
    assert sim.kernel_backend == backend
    traffic = scenario.traffic(graph.num_vertices, rng=4)
    assert_sim_parity(graph, [traffic], backend, scenario=scenario)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_kernel_cases(backend, monkeypatch, name):
    scenario = SCENARIOS[name]
    for seed in range(2):
        traffic = scenario.traffic(SCENARIO_GRAPH.num_vertices, rng=seed)
        assert_scenario_kernel_parity(
            monkeypatch, SCENARIO_GRAPH, [traffic], backend, scenario
        )


def test_scenario_kernel_pooled_replicas(backend, monkeypatch):
    # R=3 pooled with shared faults; an empty replica in the middle.
    scenario = SCENARIOS["bursty-kitchen-sink"]
    n = SCENARIO_GRAPH.num_vertices
    traffics = [scenario.traffic(n, rng=0), [], scenario.traffic(n, rng=1)]
    assert_scenario_kernel_parity(
        monkeypatch, SCENARIO_GRAPH, traffics, backend, scenario
    )
    traffics = [scenario.traffic(n, rng=seed) for seed in range(3)]
    assert_scenario_kernel_parity(
        monkeypatch, SCENARIO_GRAPH, traffics, backend, scenario
    )
    # nothing but fault events in the queue
    assert_scenario_kernel_parity(monkeypatch, SCENARIO_GRAPH, [[]], backend, scenario)


@pytest.mark.parametrize(
    "kw",
    [
        {"until": 1.5},
        {"until": 0.0},
        {"max_events": 0},
        {"max_events": 7},
        {"max_events": 23},
        {"until": 4.0, "max_events": 61},
    ],
    ids=["until", "until0", "ev0", "ev7", "ev23", "both"],
)
def test_scenario_kernel_truncation(backend, monkeypatch, kw):
    scenario = SCENARIOS["bursty-kitchen-sink"]
    n = SCENARIO_GRAPH.num_vertices
    traffics = [scenario.traffic(n, rng=5), scenario.traffic(n, rng=6)]
    assert_scenario_kernel_parity(
        monkeypatch, SCENARIO_GRAPH, traffics, backend, scenario, **kw
    )


def test_scenario_kernel_same_instant_retry_cascades(backend, monkeypatch):
    # T=L=0: every hop lands back in the queue at the same instant, into a
    # fresh bucket behind the batch being resolved; capacity-1 buffers make
    # same-instant messages collide and retry, -0.0 and +0.0 share a time,
    # and a fault at t=0 outranks the injections.
    graph = h_digraph(1, 4, 2)
    n = graph.num_vertices
    scenario = Scenario(
        link=BufferedLinkModel(
            latency=0.0,
            transmission_time=0.0,
            capacity=1,
            on_full="retry",
            retry_delay=0.5,
            max_retries=3,
        ),
        faults=FaultPlan((FaultEvent(0.0, "link_down", 1),)),
        reroute="arc-disjoint",
    )
    traffic = [
        (i % n, (i * 3 + 1) % n, -0.0 if i % 2 else 0.0) for i in range(20)
    ]
    for kw in ({}, {"max_events": 9}, {"until": 0.0}):
        assert_scenario_kernel_parity(
            monkeypatch, graph, [traffic], backend, scenario, **kw
        )


def test_scenario_kernel_capacity_zero_retries(backend, monkeypatch):
    scenario = Scenario(
        arrivals=UniformArrivals(30, rate=3.0),
        link=BufferedLinkModel(
            capacity=0, on_full="retry", retry_delay=1.0, max_retries=2
        ),
    )
    traffic = scenario.traffic(SCENARIO_GRAPH.num_vertices, rng=3)
    (stats, _), = assert_scenario_kernel_parity(
        monkeypatch, SCENARIO_GRAPH, [traffic], backend, scenario
    )
    assert stats.dropped_buffer == 30 and stats.retransmits == 60


def test_scenario_kernel_faults_that_heal(backend, monkeypatch):
    # Links and a node go down and come back; messages rerouted around the
    # outage, dropped at the down node, and sent on the healed primaries.
    graph = de_bruijn(2, 4)
    faults = FaultPlan(
        FaultPlan.random_link_failures(graph, 6, at=2.0, heal_after=5.0, seed=1).events
        + FaultPlan.node_outage(5, at=1.0, heal_at=8.0).events
    )
    for reroute in ("none", "arc-disjoint"):
        scenario = Scenario(
            arrivals=UniformArrivals(60, rate=1.5), faults=faults, reroute=reroute
        )
        traffics = [scenario.traffic(graph.num_vertices, rng=s) for s in range(2)]
        results = assert_scenario_kernel_parity(
            monkeypatch, graph, traffics, backend, scenario
        )
        assert sum(stats.dropped_fault for stats, _ in results) > 0


def test_scenario_kernel_resumes_when_its_trace_log_fills(backend, monkeypatch):
    # The log holds N + F transmissions; multi-hop routes make more, so a
    # traced run returns from the kernel and resumes mid-batch.
    graph = de_bruijn(2, 4)
    scenario = Scenario(
        arrivals=UniformArrivals(40, rate=4.0),
        faults=FaultPlan.random_link_failures(graph, 4, at=1.0, seed=2),
        reroute="arc-disjoint",
    )
    calls = spy_scenario_runs(monkeypatch, backend)
    traffic = scenario.traffic(graph.num_vertices, rng=0)
    assert_sim_parity(graph, [traffic], backend, scenario=scenario)
    assert len(calls) > 1


def test_scenario_kernel_deflection_ties(backend, monkeypatch):
    # Out-degree 3: a severed primary leaves two candidate detours, often
    # at equal healthy distance — the lower neighbour id must win.
    graph = de_bruijn(3, 3)
    scenario = Scenario(
        arrivals=UniformArrivals(80, rate=3.0),
        faults=FaultPlan.random_link_failures(
            graph, 20, at=1.0, heal_after=6.0, seed=4
        ),
        reroute="arc-disjoint",
    )
    traffics = [scenario.traffic(graph.num_vertices, rng=s) for s in range(2)]
    results = assert_scenario_kernel_parity(
        monkeypatch, graph, traffics, backend, scenario
    )
    assert all(stats.rerouted_hops > 0 for stats, _ in results)


#: The two ``perfbench`` ``sim-faults`` configurations, at full size.
PERFBENCH_GRAPHS = {
    "fault_reroute": de_bruijn(2, 6),
    "hotspot_buffered": h_digraph(16, 32, 2),
}
PERFBENCH_SCENARIOS = {
    "fault_reroute": Scenario(
        arrivals=UniformArrivals(2000),
        faults=FaultPlan.random_link_failures(
            PERFBENCH_GRAPHS["fault_reroute"], 8, at=20.0, seed=11
        ),
        reroute="arc-disjoint",
    ),
    "hotspot_buffered": Scenario(
        arrivals=HotspotArrivals(
            2000,
            hotspot=PERFBENCH_GRAPHS["hotspot_buffered"].num_vertices // 2,
            hotspot_fraction=0.5,
        ),
        link=BufferedLinkModel(capacity=4, on_full="retry"),
    ),
}
PERFBENCH_RATES = (None, 1.0, 4.0)


@functools.lru_cache(maxsize=None)
def event_engine_reference(config, rate):
    """The event engine's run of one perfbench configuration at one rate."""
    graph, scenario = PERFBENCH_GRAPHS[config], PERFBENCH_SCENARIOS[config]
    traffic = scenario.with_rate(rate).traffic(graph.num_vertices, rng=0)
    return traffic, NetworkSimulator(graph, scenario=scenario).run(traffic)


@pytest.mark.parametrize("config", sorted(PERFBENCH_SCENARIOS))
def test_scenario_kernel_perfbench_configs_match_event_engine(backend, monkeypatch, config):
    # Pooled over the benchmark's three rates on compiled backends; the
    # interpreted build takes the saturated rate alone (seconds per rate).
    graph, scenario = PERFBENCH_GRAPHS[config], PERFBENCH_SCENARIOS[config]
    rates = PERFBENCH_RATES[:1] if backend == "pyimpl" else PERFBENCH_RATES
    refs = [event_engine_reference(config, rate) for rate in rates]
    calls = spy_scenario_runs(monkeypatch, backend)
    got = simulator(graph, backend, scenario=scenario).run_many(
        [traffic for traffic, _ in refs]
    )
    assert calls, "the scenario kernel never ran"
    for (got_stats, got_msgs), (_, (ref_stats, ref_msgs)) in zip(got, refs):
        assert got_stats == ref_stats
        assert_messages_equal(got_msgs, ref_msgs)  # drop_reason included
    # the layers under test actually bite
    stats = refs[0][1][0]
    if config == "fault_reroute":
        assert stats.rerouted_hops > 0 and stats.dropped_hops > 0
    else:
        assert stats.retransmits > 0 and stats.dropped_buffer > 0


@settings(max_examples=40, deadline=None)
@given(scenario=scenario_strategy(), seed=st.integers(0, 2**16))
def test_scenario_kernel_randomised(scenario, seed):
    traffic = scenario.traffic(SCENARIO_GRAPH.num_vertices, rng=seed)
    for back in BACKENDS:
        if back == "pyimpl":
            continue  # exercised by the deterministic cases above
        assert simulator(SCENARIO_GRAPH, back, scenario=scenario).kernel_backend == back
        assert_sim_parity(SCENARIO_GRAPH, [traffic], back, scenario=scenario)


def test_scenario_beyond_the_dense_regime_runs_numpy(backend):
    # The kernel needs every vertex's next hop to every destination up
    # front: past AUTO_DENSE_MAX_N vertices the interpreted loop runs, and
    # kernel_backend says so.
    graph = de_bruijn(2, 12)
    assert graph.num_vertices > AUTO_DENSE_MAX_N
    scenario = Scenario(
        arrivals=UniformArrivals(40, rate=2.0),
        faults=FaultPlan.random_link_failures(graph, 64, at=1.0, seed=3),
    )
    sim = simulator(graph, backend, scenario=scenario)
    assert sim.kernel_backend == "numpy"
    traffic = scenario.traffic(graph.num_vertices, rng=0)
    stats, _ = sim.run(traffic)
    assert stats == NetworkSimulator(graph, scenario=scenario).run(traffic)[0]


# ------------------------------------------------------- event queue, direct


def queue_arrays(capacity):
    """Allocate the kernel queue exactly as ``_run_rounds_kernel`` does."""
    C = max(capacity, 1)
    H = 2
    while H < 2 * C:
        H *= 2
    fbits = np.zeros(1)
    return (
        np.empty(C),
        np.empty(C, dtype=np.int64),
        np.empty(C, dtype=np.int64),
        np.empty(C, dtype=np.int64),
        np.empty(C, dtype=np.int64),
        np.arange(C, dtype=np.int64),
        np.empty(H),
        np.full(H, -1, dtype=np.int64),
        np.array([0, C, 0, 0], dtype=np.int64),
        fbits,
        fbits.view(np.uint64),
    )


def kernel_namespace(back):
    if back == "pyimpl":
        return PY_KERNELS
    return kernels.get_kernels(back)


@settings(max_examples=25, deadline=None)
@given(
    times=st.lists(
        st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
        min_size=1,
        max_size=24,
    ),
    limit=st.integers(min_value=1, max_value=8),
)
def test_queue_pop_order_matches_reference(times, limit):
    """Drain the kernel queue against BatchEventQueue, batch by batch."""
    from repro.simulation.events import BatchEventQueue

    n = len(times)
    for back in BACKENDS:
        kern = kernel_namespace(back)
        queue = queue_arrays(n)
        qstate = queue[8]
        slots = np.arange(n, dtype=np.int64)
        tarr = np.asarray(times, dtype=np.float64)
        kern.queue_schedule(*queue, slots, tarr)

        ref = BatchEventQueue(n)
        ref.schedule(slots, tarr)

        # loc != dst for every slot so pop_round reports all as forwarding
        loc = np.zeros(n, dtype=np.int64)
        dst = np.ones(n, dtype=np.int64)
        slots_out = np.empty(n, dtype=np.int64)
        tails_out = np.empty(n, dtype=np.int64)
        dests_out = np.empty(n, dtype=np.int64)
        meta = np.zeros(4, dtype=np.int64)

        while len(ref):
            ref_t, ref_slots = ref.pop_batch(limit=limit)
            assert qstate[0] > 0
            got_t = float(queue[0][0])
            kern.pop_round(
                *queue, limit, loc, dst, slots_out, tails_out, dests_out, meta
            )
            count = int(meta[0])
            assert got_t == ref_t
            assert list(slots_out[:count]) == list(ref_slots)
        assert qstate[0] == 0


# ------------------------------------------------- sparse healthy traffic
#
# On a compiled backend, healthy traffic with fewer than 32 events per
# distinct creation time runs as one scenario_run call with nothing
# degraded; every case below also proves that call happened.


def assert_sparse_kernel_parity(monkeypatch, graph, traffics, back, **kw):
    calls = spy_scenario_runs(monkeypatch, back)
    ref = assert_sim_parity(graph, traffics, back, **kw)
    assert calls, "sparse healthy traffic did not run scenario_run"
    return ref


@pytest.mark.parametrize("rate", [0.25, 2.0, 30.0])
def test_sparse_paced_traffic_on_parallel_arcs(backend, monkeypatch, rate):
    graph = h_digraph(2, 8, 4)  # a multigraph: parallel optical channels
    n = graph.num_vertices
    for link in PARITY_LINKS[:2]:
        traffic = uniform_random_pairs(n, 200, rng=11, rate=rate)
        ((stats, _),) = assert_sparse_kernel_parity(
            monkeypatch, graph, [traffic], backend, link=link
        )
        assert stats.delivered == 200


def test_sparse_drops_on_a_digraph_that_is_not_strongly_connected(
    backend, monkeypatch
):
    # 0 <-> 1 -> 2 <-> 3: nothing gets back from {2, 3}; those messages drop
    # silently, as in the base model — no drop reason, no scenario counter.
    graph = Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])
    traffic = uniform_random_pairs(4, 120, rng=2, rate=1.5)
    ((stats, messages),) = assert_sparse_kernel_parity(
        monkeypatch, graph, [traffic], backend
    )
    assert stats == NetworkSimulator(graph).run(traffic)[0]
    assert 0 < stats.undelivered < 120
    assert all(m.drop_reason is None for m in messages)
    assert (
        stats.dropped_buffer,
        stats.dropped_fault,
        stats.dropped_hops,
        stats.retransmits,
        stats.rerouted_hops,
    ) == (0, 0, 0, 0, 0)


@pytest.mark.parametrize(
    "kw",
    [{"until": 4.0}, {"until": 0.0}, {"max_events": 0}, {"max_events": 53},
     {"until": 9.0, "max_events": 140}],
    ids=["until", "until0", "ev0", "ev53", "both"],
)
def test_sparse_truncation(backend, monkeypatch, kw):
    graph = h_digraph(4, 8, 2)
    traffic = uniform_random_pairs(graph.num_vertices, 80, rng=6, rate=4.0)
    assert_sparse_kernel_parity(monkeypatch, graph, [traffic], backend, **kw)


def test_sparse_trace_is_the_flat_transmission_sequence(backend, monkeypatch):
    # assert_sim_parity compares the flattened traces; here the trace log
    # also fills (more hops than messages) and the kernel resumes.
    graph = de_bruijn(2, 4)
    traffic = uniform_random_pairs(graph.num_vertices, 40, rng=8, rate=3.0)
    calls = spy_scenario_runs(monkeypatch, backend)
    trace = []
    simulator(graph, backend).run(traffic, trace=trace)
    assert len(calls) > 1
    assert len(flat_trace(trace)) > 40
    assert_sparse_kernel_parity(monkeypatch, graph, [traffic], backend)


def test_sparse_pooled_replicas_with_an_empty_one(backend, monkeypatch):
    graph = h_digraph(2, 8, 4)
    n = graph.num_vertices
    traffics = [
        uniform_random_pairs(n, 60, rng=0, rate=2.0),
        [],
        uniform_random_pairs(n, 45, rng=1, rate=0.5),
    ]
    results = assert_sparse_kernel_parity(monkeypatch, graph, traffics, backend)
    assert results[1][0].delivered == 0 and results[1][0].makespan == 0.0


def perfbench_digest(stats):
    """``perfbench/wl_sim.py``'s identity of one replica's stats."""
    payload = json.dumps(dataclasses.asdict(stats), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "config,messages,rate,seeds",
    [
        ("healthy-saturated", 100_000, None, (0, 1)),
        ("healthy-paced", 20_000, 64.0, (0, 1, 2)),
    ],
    ids=["saturated", "paced"],
)
def test_perfbench_sim_healthy_configs_match_pinned_digests(
    backend, monkeypatch, config, messages, rate, seeds
):
    # Full size, against the digests the benchmark pins: the saturated
    # phase runs the round driver, the paced one scenario_run.  The
    # interpreted build takes one paced seed alone (~10 s; minutes for the
    # saturated pair).
    if backend == "pyimpl":
        if rate is None:
            pytest.skip("the interpreted round driver is too slow at 200k messages")
        seeds = seeds[:1]
    pinned = json.loads(PERFBENCH_DIGESTS.read_text())[config]
    graph = h_digraph(32, 64, 2)
    combos = [("uniform", rate, seed) for seed in seeds]
    traffics = sweep_traffics(graph.num_vertices, combos, messages)
    calls = spy_scenario_runs(monkeypatch, backend)
    sim = simulator(graph, backend)
    results = sim.run_many(traffics, return_messages=False)
    assert bool(calls) == (rate is not None)
    assert sim.kernel_backend == backend
    for seed, (stats, _) in zip(seeds, results):
        assert perfbench_digest(stats) == pinned[f"{rate}/{seed}"]


# ---------------------------------------------- the round driver, densified
#
# The few-message cases of the simulator section above (sink drops, the
# T=L=0 cascade, randomised traffic, an arrival-only scenario) are sparse,
# so compiled backends now run them as scenario_run.  Pooling 32 copies of
# the same traffic in one run_many makes them dense (N >= 32 x #distinct
# creation times) and keeps every branch of the round driver covered; each
# case proves make_round_driver ran and scenario_run did not.

DENSE_COPIES = 32


def assert_round_driver_parity(monkeypatch, graph, traffic, back, **kw):
    drivers = spy_kernel_calls(monkeypatch, back, "make_round_driver")
    scenario_runs = spy_scenario_runs(monkeypatch, back)
    ref = assert_sim_parity(graph, [traffic] * DENSE_COPIES, back, **kw)
    assert drivers, "dense traffic did not run the round driver"
    assert not scenario_runs
    if kw.get("max_events") is None:  # a global cap splits unevenly
        assert all(stats == ref[0][0] for stats, _ in ref)
    return ref


def test_round_driver_unreachable_drops(backend, monkeypatch):
    # the no-route branch of the round driver: next hop -1 towards a sink
    graph = Digraph(3, [(0, 1), (1, 0), (0, 2), (1, 2)])  # 2 has no out-arcs
    traffic = [(2, 0, 0.0), (0, 2, 0.0), (1, 2, 0.5), (0, 1, 0.5)]
    ref = assert_round_driver_parity(monkeypatch, graph, traffic, backend)
    assert ref[0][0].undelivered == 1


def test_round_driver_same_instant_cascades(backend, monkeypatch):
    # T=0, L=0 with -0.0 / +0.0 creation times: the re-push into the
    # current bucket, untruncated and cut by max_events
    graph = h_digraph(1, 4, 2)
    n = graph.num_vertices
    link = LinkModel(latency=0.0, transmission_time=0.0)
    traffic = [(i % n, (i * 3 + 1) % n, -0.0 if i % 2 else 0.0) for i in range(20)]
    assert_round_driver_parity(monkeypatch, graph, traffic, backend, link=link)
    assert_round_driver_parity(
        monkeypatch, graph, traffic, backend, link=link, max_events=7
    )


def test_round_driver_arrival_only_scenario(backend, monkeypatch):
    graph = h_digraph(2, 8, 4)
    scenario = Scenario(arrivals=UniformArrivals(40, rate=2.0))
    traffic = scenario.traffic(graph.num_vertices, rng=4)
    assert_round_driver_parity(
        monkeypatch, graph, traffic, backend, scenario=scenario
    )
    assert simulator(graph, backend, scenario=scenario).kernel_backend == backend


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_round_driver_randomised(data):
    graph = data.draw(st.sampled_from(PARITY_GRAPHS))
    n = graph.num_vertices
    count = data.draw(st.integers(min_value=0, max_value=40))
    traffic = [
        (
            data.draw(st.integers(min_value=0, max_value=n - 1)),
            data.draw(st.integers(min_value=0, max_value=n - 1)),
            data.draw(
                st.floats(
                    min_value=0.0, max_value=4.0, allow_nan=False, width=32
                )
            ),
        )
        for _ in range(count)
    ]
    link = data.draw(st.sampled_from(PARITY_LINKS))
    until = data.draw(st.one_of(st.none(), st.floats(min_value=0.0, max_value=6.0)))
    for back in BACKENDS:
        if back == "pyimpl":
            continue  # exercised by the deterministic cases above
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert_round_driver_parity(
                monkeypatch, graph, traffic, back, link=link, until=until
            )


def test_sparse_beyond_the_dense_regime_runs_numpy(backend, monkeypatch):
    # Past AUTO_DENSE_MAX_N the n x k precompute is out of reach: sparse
    # healthy traffic takes the numpy scalar path and kernel_backend says
    # so; dense traffic still runs the round driver.
    graph = de_bruijn(2, 12)
    assert graph.num_vertices > AUTO_DENSE_MAX_N
    calls = spy_scenario_runs(monkeypatch, backend)
    sim = simulator(graph, backend)
    traffic = uniform_random_pairs(graph.num_vertices, 60, rng=0, rate=2.0)
    stats, _ = sim.run(traffic)
    assert not calls and sim.kernel_backend == "numpy"
    assert stats == NetworkSimulator(graph).run(traffic)[0]
    sim.run([(i, (i + 1) % 64, 0.0) for i in range(64)])
    assert sim.kernel_backend == backend
