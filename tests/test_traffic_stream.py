"""The stream contract of :func:`repro.simulation.workloads.uniform_random_pairs`.

The generator draws its endpoints in blocks, but every triple it returns,
and the state it leaves the numpy ``Generator`` in, must be exactly those of
the sequential rule it replaced: one scalar ``integers(n)`` draw for the
source, then draws for the destination until one differs from the source.
Chunk ids hash traffic digests and the pinned benchmark digests hash the
stats these traffics produce, so a single shifted draw would rename every
sim chunk and fail every pinned run.

* a hypothesis test compares the block generator against the sequential
  loop, kept here verbatim as the oracle, triple for triple and
  ``bit_generator.state`` for state;
* ``sharding.traffic_digest`` values of the ``perfbench`` traffics
  (``sim-healthy``'s saturated and paced sweeps, ``sim-faults``'
  ``UniformArrivals`` reroute scenario at its three rates, every seed of
  the benchmark's replica pool), computed with the sequential loop, are
  pinned below.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import de_bruijn
from repro.otis.h_digraph import h_digraph
from repro.simulation import Scenario, UniformArrivals
from repro.simulation.sharding import traffic_digest
from repro.simulation.workloads import (
    make_workload,
    poisson_arrival_times,
    sweep_traffics,
    uniform_random_pairs,
)


def sequential_uniform_random_pairs(num_nodes, num_messages, generator, rate=None):
    """The scalar loop the block generator must reproduce (the oracle)."""
    times = (
        poisson_arrival_times(num_messages, rate, generator)
        if rate is not None
        else np.zeros(num_messages)
    )
    traffic = []
    for k in range(num_messages):
        source = int(generator.integers(num_nodes))
        destination = int(generator.integers(num_nodes))
        while destination == source:
            destination = int(generator.integers(num_nodes))
        traffic.append((source, destination, float(times[k])))
    return traffic


def assert_same_stream(num_nodes, num_messages, seed, rate):
    oracle = np.random.default_rng(seed)
    block = np.random.default_rng(seed)
    expected = sequential_uniform_random_pairs(num_nodes, num_messages, oracle, rate)
    got = uniform_random_pairs(num_nodes, num_messages, block, rate=rate)
    assert got == expected
    assert all(
        type(s) is int and type(d) is int and type(t) is float for s, d, t in got
    )
    assert block.bit_generator.state == oracle.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(
    # small n makes resample runs long and frequent (half of all draws
    # collide at n=2); large n crosses numpy's 32-bit draw path
    num_nodes=st.one_of(st.integers(2, 8), st.integers(2, 2000), st.integers(2, 2**40)),
    num_messages=st.integers(0, 2000),
    seed=st.integers(0, 2**32 - 1),
    rate=st.one_of(st.none(), st.floats(0.01, 1e3)),
)
def test_block_draws_match_the_sequential_loop(num_nodes, num_messages, seed, rate):
    assert_same_stream(num_nodes, num_messages, seed, rate)


def test_long_resample_runs_across_block_ends():
    # n=2: every other destination draw collides, so runs of equal values
    # often reach past a block's end and leave a source pending.
    for seed in range(20):
        assert_same_stream(2, 257, seed, None)
        assert_same_stream(3, 100, seed, 0.5)


def test_draws_after_the_pairs_stay_aligned():
    # make_workload's Poisson overlay and the bursty/diurnal arrivals draw
    # from the same generator after the pairs.
    oracle = np.random.default_rng(7)
    block = np.random.default_rng(7)
    pairs = sequential_uniform_random_pairs(16, 300, oracle)
    times = poisson_arrival_times(300, 2.0, oracle)
    expected = [(s, d, float(t)) for (s, d, _), t in zip(pairs, times)]
    assert make_workload("uniform", 16, 300, rng=block, rate=2.0) == expected
    oracle = np.random.default_rng(3)
    block = np.random.default_rng(3)
    sequential_uniform_random_pairs(5, 999, oracle)
    uniform_random_pairs(5, 999, block)
    assert block.random(8).tolist() == oracle.random(8).tolist()


#: ``traffic_digest`` per seed 0..15 of the ``perfbench`` replica pool,
#: computed with the sequential loop.
PINNED = {
    "healthy-saturated": [
        "d8c2b2d0cf4ad392", "38d7f524525a53fe", "59eefd4e9518fc1f", "af4533ed8bad4c7c",
        "81a38fbafadf2bc7", "1039482b2b722cbf", "f6f748b886722eb0", "2f5d394f9a3ae6ce",
        "23b024307035ba7a", "b64dd14da7772a8f", "997ccc42e0d88f4d", "a97c67f73cce090e",
        "ad41b1c69ceb2556", "d0a5cfa7b687afaa", "23a2634c78eb31f2", "651edbabf982cf67",
    ],
    "healthy-paced": [
        "2acce0dfb72308e5", "994ab01698531527", "6f95283419a0ad9f", "4f711f1d77423df5",
        "dbf245319275ab37", "36dc64eb2741ca77", "d6f6911ad5d4e5e8", "f65fb22239c1c089",
        "a1ec7efc950a1506", "d441f773c150eb8b", "96a6c89e80140ced", "79d1adb5a869ccb5",
        "58d59cd0dc928eaa", "d2da39037c18c1ed", "5ef90d8929a1843c", "ba8a1637d97287a1",
    ],
    "fault-reroute/None": [
        "c2769fc1b7e2f2ff", "1ac44227e3376199", "f76fa172c29d291f", "ade686dca8649d9d",
        "ddb8e04bfbf9af59", "1bbbce737ffa7c75", "bc0602636c8b5171", "7251bb2f0a4d33d1",
        "b5a30d38136650d4", "3675e6c68f96857e", "a13b0444d58815d7", "78186380dd26784c",
        "598d5c25d0af0505", "18cd0369cfbeff03", "7fce09aa56f56d83", "18281033e97cda9e",
    ],
    "fault-reroute/1.0": [
        "e044a83d7d13bd77", "3d67fffc674bd322", "03b189802630b658", "c811be802237b51f",
        "c519d964d8f508b3", "1a3925079f23c688", "e9548987c0c644c1", "79a515dcef80a587",
        "262e6f8f7cd811f2", "0878638fbaaac13f", "0276106dcf107029", "2d4e21893f8cb2aa",
        "a2d6964a87d497d5", "fa8450d4d9599d95", "dc8ad9f4362484e9", "e8df7501d2d6556e",
    ],
    "fault-reroute/4.0": [
        "155ef504f1166256", "0e681b921a17515f", "0ca4418106aadd06", "63e7ba0a5f5e8899",
        "b52ff9f96ff2b1a6", "01633753e1717c3f", "096fca143fe109a2", "2b382ab27bf3489e",
        "6ff07666735bdb23", "f4cfb6b2f22ea441", "cfab2bbe4a8427c4", "99f8978ec7394615",
        "2633f47e5e7d371a", "66a2fd9091ffa8e9", "4f3ec46dc3c470fd", "639ee89a1f6df060",
    ],
}


def test_perfbench_sim_healthy_traffics_are_pinned():
    n = h_digraph(32, 64, 2).num_vertices
    for key, messages, rate in (
        ("healthy-saturated", 100_000, None),
        ("healthy-paced", 20_000, 64.0),
    ):
        combos = [("uniform", rate, seed) for seed in range(16)]
        traffics = sweep_traffics(n, combos, messages)
        assert [traffic_digest(t) for t in traffics] == PINNED[key], key


def test_perfbench_sim_faults_uniform_traffics_are_pinned():
    n = de_bruijn(2, 6).num_vertices
    scenario = Scenario(arrivals=UniformArrivals(2000))
    for rate in (None, 1.0, 4.0):
        key = f"fault-reroute/{rate}"
        digests = [
            traffic_digest(scenario.with_rate(rate).traffic(n, rng=seed))
            for seed in range(16)
        ]
        assert digests == PINNED[key], key
