"""Scenario cases shared by the engine and kernel parity suites.

``tests/test_scenarios.py`` runs them event engine vs batched engine;
``tests/test_kernel_parity.py`` runs them compiled kernel vs the
interpreted scenario loop.
"""

from hypothesis import strategies as st

from repro.otis.h_digraph import h_digraph
from repro.simulation.network import BufferedLinkModel, LinkModel
from repro.simulation.scenarios import (
    BurstyArrivals,
    DiurnalArrivals,
    FaultEvent,
    FaultPlan,
    HotspotArrivals,
    PermutationArrivals,
    Scenario,
    UniformArrivals,
)

GRAPH = h_digraph(2, 8, 4)  # 4 nodes, 16 links, parallel arcs

#: One of each scenario-layer combination, on :data:`GRAPH`.
SCENARIOS = {
    "buffer-drop": Scenario(
        arrivals=HotspotArrivals(80, hotspot=3, hotspot_fraction=0.8, rate=5.0),
        link=BufferedLinkModel(capacity=1, on_full="drop"),
    ),
    "buffer-retry": Scenario(
        arrivals=HotspotArrivals(80, hotspot=3, hotspot_fraction=0.8, rate=5.0),
        link=BufferedLinkModel(
            capacity=1, on_full="retry", retry_delay=0.5, max_retries=4
        ),
    ),
    "fault-drop": Scenario(
        arrivals=UniformArrivals(80, rate=2.0),
        faults=FaultPlan.random_link_failures(GRAPH, 6, at=3.0, seed=7),
    ),
    "fault-reroute": Scenario(
        arrivals=UniformArrivals(80, rate=2.0),
        faults=FaultPlan.random_link_failures(GRAPH, 6, at=3.0, seed=7),
        reroute="arc-disjoint",
    ),
    "fault-heal": Scenario(
        arrivals=UniformArrivals(60, rate=1.0),
        faults=FaultPlan.random_link_failures(
            GRAPH, 8, at=2.0, heal_after=6.0, seed=1
        ),
        reroute="arc-disjoint",
    ),
    "bursty-kitchen-sink": Scenario(
        arrivals=BurstyArrivals(60, burst_size=6, burst_rate=6.0, gap=2.0),
        link=BufferedLinkModel(capacity=2, on_full="retry"),
        faults=FaultPlan.random_link_failures(GRAPH, 4, at=1.0, seed=2),
        reroute="arc-disjoint",
    ),
    "diurnal-ttl": Scenario(
        arrivals=DiurnalArrivals(60, peak_rate=3.0, trough_rate=0.3, period=10.0),
        max_hops=3,
    ),
    "permutation-buffers": Scenario(
        arrivals=PermutationArrivals(rate=2.0),
        link=BufferedLinkModel(capacity=1, on_full="drop"),
    ),
}


def scenario_strategy():
    """Random scenario compositions valid on :data:`GRAPH`."""
    arrivals = st.one_of(
        st.builds(
            UniformArrivals,
            num_messages=st.integers(5, 30),
            rate=st.one_of(st.none(), st.floats(0.2, 5.0)),
        ),
        st.builds(
            HotspotArrivals,
            num_messages=st.integers(5, 30),
            hotspot=st.integers(0, 3),
            hotspot_fraction=st.floats(0.0, 1.0),
            rate=st.one_of(st.none(), st.floats(0.2, 5.0)),
        ),
        st.builds(
            BurstyArrivals,
            num_messages=st.integers(5, 30),
            burst_size=st.integers(1, 8),
            burst_rate=st.floats(0.5, 8.0),
            gap=st.floats(0.0, 5.0),
        ),
    )
    link = st.one_of(
        st.just(LinkModel()),
        st.builds(
            BufferedLinkModel,
            capacity=st.integers(0, 3),
            on_full=st.sampled_from(["drop", "retry"]),
            retry_delay=st.floats(0.25, 2.0),
            max_retries=st.integers(0, 4),
        ),
    )
    fault_event = st.builds(
        FaultEvent,
        time=st.floats(0.0, 10.0),
        kind=st.sampled_from(["link_down", "link_up", "node_down", "node_up"]),
        target=st.integers(0, 3),  # valid for both links and nodes of GRAPH
    )
    faults = st.builds(FaultPlan, st.tuples()) | st.builds(
        FaultPlan, st.lists(fault_event, max_size=6).map(tuple)
    )
    return st.builds(
        Scenario,
        arrivals=arrivals,
        link=link,
        faults=faults,
        reroute=st.sampled_from(["none", "arc-disjoint"]),
        max_hops=st.one_of(st.none(), st.integers(1, 12)),
    )
