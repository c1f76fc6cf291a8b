"""One chunk executor: pool runs publish the serial bytes, one pool in src.

:func:`repro.fleet.driver.run_shard` is the static executor behind
:func:`repro.otis.sweep.run_sweep` and
:func:`repro.simulation.sharding.run_replica_shard`, and
:func:`repro.fleet.driver.dispatch_chunks` its serial-or-pool dispatch
(also behind :func:`repro.otis.search.degree_diameter_search`).  The
contracts pinned here:

* a ``workers=2`` run publishes **byte-identical** store files to the serial
  run — not merely equal merged rows/stats;
* the serial ``ran`` list is in manifest order;
* a pool task ships one chunk's payload (a sim task carries only its own
  replicas' traffic arrays);
* the in-memory search never touches a chunk store;
* ``ProcessPoolExecutor`` appears in exactly one module of ``src/repro``.
"""

import ast
import pickle
from pathlib import Path

import numpy as np

import repro
from repro.fleet import SimFleetJob, SweepFleetJob
from repro.otis.h_digraph import h_digraph
from repro.otis.search import degree_diameter_search
from repro.otis.sweep import ChunkManifest, ChunkStore, code_version, run_sweep
from repro.simulation.network import LinkModel
from repro.simulation.sharding import ReplicaChunkManifest, run_replica_shard
from repro.simulation.workloads import make_workload

GRAPH = h_digraph(8, 16, 2)
LINK = LinkModel(latency=0.7, transmission_time=0.3)


def store_files(directory: Path) -> dict[str, bytes]:
    """Every published file of a store (chunk files and manifest.json)."""
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def sim_study(count=5, messages=50):
    traffics = [
        make_workload("uniform", GRAPH.num_vertices, messages, rng=seed)
        for seed in range(count)
    ]
    manifest = ReplicaChunkManifest.build(GRAPH, traffics, link=LINK, chunk_size=2)
    return manifest, traffics


class TestPoolPublishesSerialBytes:
    def test_sweep(self, tmp_path):
        manifest = ChunkManifest.build(2, 6, range(60, 67), chunk_size=4)
        serial = run_sweep(manifest, tmp_path / "serial")
        pooled = run_sweep(manifest, tmp_path / "pooled", workers=2)
        ids = [chunk.chunk_id for chunk in manifest.chunks]
        assert len(ids) > 2
        assert serial["ran"] == ids
        assert sorted(pooled["ran"]) == sorted(ids)
        serial_files = store_files(tmp_path / "serial")
        assert len(serial_files) == len(ids) + 1  # chunks + manifest.json
        assert store_files(tmp_path / "pooled") == serial_files

    def test_sim(self, tmp_path):
        manifest, traffics = sim_study()
        serial = run_replica_shard(manifest, tmp_path / "serial", GRAPH, traffics)
        pooled = run_replica_shard(
            manifest, tmp_path / "pooled", GRAPH, traffics, workers=2
        )
        ids = [chunk.chunk_id for chunk in manifest.chunks]
        assert len(ids) > 2
        assert serial["ran"] == ids
        assert sorted(pooled["ran"]) == sorted(ids)
        serial_files = store_files(tmp_path / "serial")
        assert len(serial_files) == len(ids) + 1
        assert store_files(tmp_path / "pooled") == serial_files

    def test_sweep_pool_shard_and_resume(self, tmp_path):
        # The filter and the resume skip run before the dispatch: a pooled
        # shard publishes exactly its round-robin share, a pooled resume
        # exactly the missing chunks.
        manifest = ChunkManifest.build(2, 6, range(60, 71), chunk_size=3)
        store = ChunkStore(tmp_path)
        first = run_sweep(manifest, store, shard=(1, 3), workers=2)
        assert sorted(first["ran"]) == sorted(c.chunk_id for c in manifest.shard(1, 3))
        resumed = run_sweep(manifest, store, resume=True, workers=2)
        assert sorted(resumed["skipped"]) == sorted(first["ran"])
        assert sorted(first["ran"] + resumed["ran"]) == sorted(
            c.chunk_id for c in manifest.chunks
        )


class TestTasks:
    def test_sim_task_ships_only_its_chunk(self, tmp_path):
        manifest, traffics = sim_study()
        job = SimFleetJob(manifest, tmp_path, GRAPH, traffics)
        chunk = manifest.chunks[1]
        compute, payload = pickle.loads(
            pickle.dumps((job.compute, job.payload(chunk)))
        )
        entries = payload[-1]
        assert [index for index, _ in entries] == [index for index, _ in chunk.items]
        for index, traffic in entries:
            assert np.array_equal(traffic, np.asarray(traffics[index], dtype=float))
        assert compute(payload) == job.run_chunk(chunk)

    def test_sweep_task_carries_the_cache_directory(self, tmp_path):
        manifest = ChunkManifest.build(2, 6, [64], chunk_size=8)
        job = SweepFleetJob(manifest, tmp_path / "store", cache=tmp_path / "cache")
        compute, payload = pickle.loads(
            pickle.dumps((job.compute, job.payload(manifest.chunks[0])))
        )
        assert payload[3] == str(tmp_path / "cache")
        assert payload[4] == manifest.code_version
        assert compute(payload) == job.run_chunk(manifest.chunks[0])

    def test_search_writes_no_chunk_files(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("degree_diameter_search wrote a chunk file")

        monkeypatch.setattr(ChunkStore, "write", refuse)
        monkeypatch.setattr(ChunkStore, "__init__", refuse)
        result = degree_diameter_search(2, 6, 62, 66, cache=tmp_path)
        assert result.rows
        assert [p.name for p in tmp_path.iterdir()] == [
            f"verdicts-d2-D6-{code_version()}.jsonl"
        ]


def test_process_pool_lives_in_one_module():
    package = Path(repro.__file__).resolve().parent
    owners = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name == "ProcessPoolExecutor":
                owners.add(path.relative_to(package).as_posix())
    assert owners == {"fleet/driver.py"}
