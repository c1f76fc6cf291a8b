"""Dispatch, fallback and identity semantics of :mod:`repro.kernels`.

Three contracts beyond bit-identity (which ``test_kernel_parity.py`` owns):

* **Fallback** — the compiled backends are an optimisation, never a
  dependency: ``REPRO_KERNELS=numpy`` forces the original vectorised
  paths, a numba-less environment (simulated here by failing its import)
  degrades silently under ``auto``, and an *explicitly* requested but
  unavailable backend warns and falls back rather than erroring.
* **Identity** — the active backend is part of ``code_version()`` /
  ``sim_code_version()``: switching backends renames every chunk and cache
  file, so on-disk results can never silently mix code paths.  Resuming a
  replica-chunk store under a different backend fails fast with
  :class:`~repro.otis.sweep.StoreIdentityError`; a
  :class:`~repro.otis.sweep.SplitVerdictCache` starts cold in a fresh
  file.
* **Surfacing** — ``warmup()`` compiles end to end (every kernel, the
  ``h_diameter`` BFS screen included, runs once), ``diagnostics()``
  reports every backend's availability, and the engines/sweeps expose the
  resolved name (``kernel_backend``) all the way into their JSON.
"""

import builtins

import pytest

from repro import kernels
from repro.kernels._pyimpl import KERNEL_NAMES
from repro.otis.h_digraph import h_digraph
from repro.otis.sweep import SplitVerdictCache, StoreIdentityError, code_version
from repro.simulation.network import BatchedNetworkSimulator, LinkModel
from repro.simulation.sharding import (
    ReplicaChunkManifest,
    run_replica_shard,
    sim_code_version,
)
from repro.simulation.workloads import run_throughput_sweep, uniform_random_pairs

GRAPH = h_digraph(4, 8, 2)


@pytest.fixture
def fresh_probes():
    """Reset the backend probe cache around a test that fakes availability."""
    kernels._reset_probe_cache()
    yield
    kernels._reset_probe_cache()


class TestResolution:
    def test_numpy_always_available(self):
        assert "numpy" in kernels.available_backends()
        assert kernels.resolve_backend("numpy") == "numpy"

    def test_env_var_forces_numpy(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        assert kernels.resolve_backend() == "numpy"
        assert kernels.active_backend() == "numpy"
        sim = BatchedNetworkSimulator(GRAPH)
        assert sim.kernel_backend == "numpy"
        assert sim._kernels is None

    def test_unknown_name_is_a_typo_not_a_fallback(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.resolve_backend("fortran")

    def test_explicit_unavailable_backend_warns_and_falls_back(
        self, monkeypatch, fresh_probes
    ):
        monkeypatch.setattr(kernels, "_probe", lambda b: b == "numpy")
        with pytest.warns(RuntimeWarning, match="unavailable"):
            assert kernels.resolve_backend("numba") == "numpy"

    def test_auto_prefers_compiled_backends(self):
        resolved = kernels.resolve_backend("auto")
        available = kernels.available_backends()
        assert resolved == available[0]

    def test_numba_absent_degrades_silently(self, monkeypatch, fresh_probes):
        real_import = builtins.__import__

        def no_numba(name, *args, **kwargs):
            if name == "numba" or name.startswith("numba."):
                raise ImportError("No module named 'numba' (simulated)")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", no_numba)
        monkeypatch.delitem(
            __import__("sys").modules, "repro.kernels.numba_backend", raising=False
        )
        assert "numba" not in kernels.available_backends()
        # auto must not raise — it falls through to cnative or numpy.
        assert kernels.resolve_backend("auto") in ("cnative", "numpy")

    def test_density_picks_between_two_compiled_paths(self, monkeypatch):
        # Rate-limited injection means thousands of tiny rounds: sparse
        # traffic runs as one scenario_run call, dense traffic through the
        # per-round driver — under "auto" and a named backend alike.
        if kernels.resolve_backend("auto") == "numpy":
            pytest.skip("no compiled backend available")
        # an outer REPRO_KERNELS (e.g. the CI numpy leg) would force the
        # numpy path; this test is about the compiled backends' dispatch
        monkeypatch.setenv(kernels.ENV_VAR, "auto")
        sparse = [(i % 4, (i + 1) % 4, float(i)) for i in range(64)]
        dense = [(i % 4, (i + 1) % 4, 0.0) for i in range(64)]
        for sim in (
            BatchedNetworkSimulator(GRAPH),  # auto
            BatchedNetworkSimulator(GRAPH, kernels=kernels.resolve_backend()),
        ):
            assert sim._kernels is not None
            entered = []
            for name in ("scenario_run", "make_round_driver"):

                def spy(*args, _real=getattr(sim._kernels, name), _name=name):
                    entered.append(_name)
                    return _real(*args)

                monkeypatch.setattr(sim._kernels, name, spy)
            sim.run(sparse)
            assert entered == ["scenario_run"]
            assert sim.kernel_backend == kernels.resolve_backend()
            del entered[:]
            sim.run(dense)
            assert entered == ["make_round_driver"]
            assert sim.kernel_backend == kernels.resolve_backend()
            monkeypatch.undo()
            monkeypatch.setenv(kernels.ENV_VAR, "auto")

    def test_numpy_forced_simulation_matches_auto(self, monkeypatch):
        # The fallback is not merely "doesn't crash": forced-numpy results
        # equal whatever the auto backend produces (bit-identity contract).
        traffic = uniform_random_pairs(GRAPH.num_vertices, 40, rng=9)
        auto = BatchedNetworkSimulator(GRAPH).run_many([traffic])
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        forced = BatchedNetworkSimulator(GRAPH).run_many([traffic])
        assert [s for s, _ in forced] == [s for s, _ in auto]


class TestWarmupAndDiagnostics:
    def test_warmup_returns_resolved_backend(self):
        name = kernels.warmup()
        assert name in kernels.KERNEL_BACKENDS

    def test_warmup_numpy_is_a_noop(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        assert kernels.warmup() == "numpy"

    @pytest.mark.parametrize(
        "backend", [b for b in kernels.KERNEL_BACKENDS if b != "numpy"]
    )
    def test_warmup_calls_every_kernel(self, backend, monkeypatch):
        # Every dispatch-surface kernel — the h_diameter BFS screen included
        # — runs once inside warmup(), so none compiles in a first solve.
        if backend not in kernels.available_backends():
            pytest.skip(f"{backend} is unavailable here")
        namespace = kernels.get_kernels(backend)
        called = set()
        for name in KERNEL_NAMES:
            original = getattr(namespace, name)

            def counting(*args, _name=name, _original=original):
                called.add(_name)
                return _original(*args)

            monkeypatch.setattr(namespace, name, counting)
        kernels.warmup(backend)
        assert called == set(KERNEL_NAMES)

    def test_search_keeps_the_traced_layer_names(self):
        # The benchmark tracer wraps these module attributes by name; the
        # numpy screens stay importable from the search module even though
        # compiled backends no longer call them.
        from repro.otis import search

        for name in (
            "h_diameter",
            "bfs_distances_regular",
            "reverse_bfs_distances_regular",
            "batched_eccentricities",
        ):
            assert callable(getattr(search, name))

    def test_numpy_backend_runs_the_reference_screens(self, monkeypatch):
        from repro.otis import search

        calls = []
        original = search.bfs_distances_regular

        def counting(graph, source):
            calls.append(source)
            return original(graph, source)

        monkeypatch.setattr(search, "bfs_distances_regular", counting)
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        assert search.h_diameter(GRAPH, 4) == 4
        assert calls == [0]

    def test_diagnostics_lists_every_backend(self):
        report = kernels.diagnostics()
        for backend in kernels.KERNEL_BACKENDS:
            assert backend in report
        assert kernels.ENV_VAR in report

    def test_cli_version_prints_diagnostics(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["--version"])
        out = capsys.readouterr().out
        assert "repro " in out
        assert "kernels:" in out


class TestCodeIdentity:
    def test_code_versions_change_with_backend(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        sweep_numpy = code_version()
        sim_numpy = sim_code_version()
        # Fake a different active backend: the fingerprint must move even
        # though no source file changed.
        monkeypatch.setattr(kernels, "active_backend", lambda: "numba")
        assert code_version() != sweep_numpy
        assert sim_code_version() != sim_numpy
        # ... and stay stable/hex-formatted.
        assert code_version() == code_version()
        assert len(code_version()) == 12
        int(code_version(), 16)

    def test_resume_after_backend_switch_is_rejected(self, monkeypatch, tmp_path):
        # Fill a replica-chunk store under one backend, then relaunch/merge
        # under another: the persisted identity must fail fast, naming
        # code_version, before any simulation runs.
        link = LinkModel(latency=1.0, transmission_time=1.0)
        traffics = [
            uniform_random_pairs(GRAPH.num_vertices, 30, rng=seed)
            for seed in range(4)
        ]
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        manifest = ReplicaChunkManifest.build(
            GRAPH, traffics, link=link, chunk_size=2
        )
        run_replica_shard(manifest, tmp_path, GRAPH, traffics)

        monkeypatch.setattr(kernels, "active_backend", lambda: "numba")
        switched = ReplicaChunkManifest.build(
            GRAPH, traffics, link=link, chunk_size=2
        )
        assert switched.code_version != manifest.code_version
        with pytest.raises(StoreIdentityError, match="code_version"):
            run_replica_shard(switched, tmp_path, GRAPH, traffics, resume=True)

    def test_split_verdict_cache_starts_cold_on_backend_switch(
        self, monkeypatch, tmp_path
    ):
        # The verdict cache keys its file name by code_version: a backend
        # switch must open a different (empty) file, never reuse verdicts.
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        cache_numpy = SplitVerdictCache(tmp_path, 2, 6)
        cache_numpy.put(4, 16, 6)
        monkeypatch.setattr(kernels, "active_backend", lambda: "numba")
        cache_other = SplitVerdictCache(tmp_path, 2, 6)
        assert cache_other.path != cache_numpy.path
        assert cache_other.get(4, 16) is None


class TestSweepSurfacing:
    def test_throughput_sweep_records_backend(self):
        sweep = run_throughput_sweep(
            GRAPH, seeds=range(1), num_messages=50
        )
        assert sweep.kernel_backend == kernels.active_backend()
        assert sweep.to_json()["kernel_backend"] == sweep.kernel_backend

    def test_event_engine_records_numpy(self):
        sweep = run_throughput_sweep(
            GRAPH, seeds=range(1), num_messages=30, engine="event"
        )
        assert sweep.kernel_backend == "numpy"
