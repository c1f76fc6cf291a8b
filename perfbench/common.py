"""Shared plumbing of the benchmark: paths, environment, statistics, checks.

Everything the benchmark writes goes under ``.bench_build/`` at the root of
the checkout (git-ignored): the compiled kernel cache, per-run scratch
directories (chunk stores, verdict caches, spec files) and trace dumps.
Scratch directories are fresh per run and deleted when it ends.
"""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"


class BenchError(RuntimeError):
    """The benchmark cannot run here (e.g. the program's sources are missing)."""


def bootstrap() -> None:
    """Make ``repro`` importable from the checkout and pin the kernel cache.

    The compiled-kernel cache would default to the user's home directory;
    the benchmark keeps it inside the checkout so a run reads and writes
    nowhere else.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["REPRO_KERNELS_CACHE"] = str(BUILD / "repro-kernels")


def child_env() -> dict:
    """Environment for subprocesses that run the program from the checkout.

    Call after :func:`bootstrap`, whose kernel-cache setting it inherits.
    """
    return {**os.environ, "PYTHONPATH": str(SRC)}


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under ``.bench_build/tmp``, removed on exit."""
    parent = BUILD / "tmp"
    parent.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ------------------------------------------------------------------ numbers
def median(values) -> float:
    return float(statistics.median(values))


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = int(round(p / 100.0 * len(sorted_values))) - 1
    return float(sorted_values[max(0, min(len(sorted_values) - 1, rank))])


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size of this process (or of ``pid``), MiB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


class Timer:
    """Wall and process CPU seconds of a block: ``with Timer() as timer:``.

    The benchmark's end-to-end times for in-process work are CPU seconds:
    on a shared virtual machine the wall clock also counts time the
    hypervisor gives to other guests (steal), which moved wall-clock
    medians by 30% and more between runs of unchanged code.  The wall
    figures are still reported, on the detail line.
    """

    def __enter__(self) -> "Timer":
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall = time.perf_counter() - self._wall
        self.cpu = time.process_time() - self._cpu


class SpeedProbe:
    """The host's speed, sampled between units of the program's work.

    On a shared virtual machine the CPU time of unchanged code drifts with
    what other guests run on the same physical cores: a cold ``table1``
    solve took from 1.2 to 2.3 CPU seconds within minutes, the slow and
    fast spells lasting tens of seconds.  CPU time cannot tell that apart
    from a change to the program.

    The probe runs a fixed reference — frontier BFSs from ``SOURCES``
    vertices of a fixed random 2-out digraph on ``VERTICES`` vertices, the
    same mix of interpreter and small numpy calls as the search's screens —
    and times it on the calling thread.  Called between units of the work
    (after every chunk of a solve, or from the simulators' router calls via
    :meth:`maybe_sample`), it samples the host at the same moments as the
    work, so :meth:`normalise` can scale the work's CPU time to a host on
    which one sample takes ``NOMINAL_S``.  Over 40 cold solves the
    per-solve CPU time and the probe's mean sample time correlated at 0.99;
    the normalised time spread 10x less.  The reference is the benchmark's
    own code, so a change to the program moves the normalised time as it
    moves CPU time.  ``NOMINAL_S`` is a fixed unit: changing it rescales
    every result.
    """

    VERTICES = 1200
    SOURCES = 8
    NOMINAL_S = 2.5e-3
    #: Wall seconds between samples taken by :meth:`maybe_sample` (a sample
    #: costs about ``NOMINAL_S``, so the probe adds about 6%).
    INTERVAL_S = 0.04

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(20001)  # fixed: the reference never varies
        self._successors = rng.integers(0, self.VERTICES, size=(self.VERTICES, 2))
        self.reset()
        self.sample()  # warm numpy's code paths before the first real sample
        self.reset()

    def reset(self) -> None:
        self.samples = 0
        self.cpu = 0.0
        self.wall = 0.0
        self._last = time.perf_counter()

    def _bfs(self, source: int) -> None:
        np = self._np
        dist = np.full(self.VERTICES, -1, dtype=np.int64)
        dist[source] = 0
        frontier = np.array([source], dtype=np.int64)
        level = 0
        while frontier.size:
            level += 1
            candidates = self._successors[frontier].ravel()
            candidates = candidates[dist[candidates] < 0]
            if candidates.size == 0:
                break
            frontier = np.unique(candidates)
            dist[frontier] = level

    def sample(self) -> None:
        """Run the reference once; its time is kept out of the work's."""
        wall, cpu = time.perf_counter(), time.thread_time()
        for source in range(self.SOURCES):
            self._bfs(source)
        self.cpu += time.thread_time() - cpu
        self._last = time.perf_counter()
        self.wall += self._last - wall
        self.samples += 1

    def maybe_sample(self) -> None:
        """Sample if ``INTERVAL_S`` has passed since the last sample."""
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            self.sample()

    def normalise(self, cpu_s: float) -> float:
        """``cpu_s`` scaled to the nominal host speed of the samples so far."""
        return cpu_s * self.NOMINAL_S * self.samples / self.cpu

    def settle(self, timer: Timer) -> None:
        """Close the books on a ``timer`` run around the samples since reset.

        Takes the samples' time out of its ``cpu`` and ``wall`` and gives it
        the ``normalised`` CPU seconds and the mean ``sample_s``.
        """
        timer.cpu -= self.cpu
        timer.wall -= self.wall
        timer.normalised = self.normalise(timer.cpu)
        timer.sample_s = self.cpu / self.samples


def cpu_seconds(pid: int) -> float:
    """CPU seconds the live threads of process ``pid`` have run so far.

    Read from each thread's scheduler statistics (nanoseconds), not from
    the tick-sampled user and system times, whose 10 ms ticks would
    quantise a per-request cost to about 1%.
    """
    total = 0
    for task in sorted(Path(f"/proc/{pid}/task").iterdir()):
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            continue  # the thread ended between the listing and the read
    return total / 1e9


def repetitions(seconds: float, minimum: int = 2):
    """Repetition indices for a run of about ``seconds``.

    Yields at least ``minimum`` indices, then another only while one more
    repetition of the average length so far still fits, so a run ends near
    its budget instead of overrunning it by a whole repetition.
    """
    start = time.perf_counter()
    count = 0
    while True:
        elapsed = time.perf_counter() - start
        if count >= minimum and elapsed * (count + 1) / count > seconds:
            return
        yield count
        count += 1


# ------------------------------------------------------------- environment
def _filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from mountinfo)."""
    best, fstype = "", "unknown"
    target = str(path.resolve())
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return fstype
    for line in lines:
        fields = line.split()
        if " - " not in line or len(fields) < 5:
            continue
        mount = fields[4]
        after = line.split(" - ", 1)[1].split()
        prefix = mount.rstrip("/") + "/"
        if (target == mount or target.startswith(prefix)) and len(mount) >= len(best):
            best, fstype = mount, after[0]
    return fstype


def environment() -> dict:
    """The stamp every result carries: backend, versions, cores, filesystem."""
    import numpy

    from repro import kernels

    BUILD.mkdir(parents=True, exist_ok=True)
    return {
        "kernel_backend": kernels.active_backend(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "store_filesystem": _filesystem_of(BUILD),
    }


#: Numeric id of each kernel backend, so the per-layer output (numbers only)
#: can carry it; a comparison between results with different ids is refused.
BACKEND_IDS = {"numpy": 0, "numba": 1, "cnative": 2}


# --------------------------------------------------------------- checking
class Checks:
    """Operation and output-check ledger behind ``attempted``/``failed``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok: bool, what: str) -> bool:
        """Record one operation; a failed one is reported on stderr."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def expect(self, ok: bool, what: str) -> bool:
        """An output check on an operation already counted: failure adds one."""
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


# ------------------------------------------------------------------ set-up
def probe_setup(workload: str, count: int) -> list[float]:
    """Seconds from process start to ready, for ``count`` fresh processes.

    Each probe is a new interpreter that imports the program, warms the
    kernels and builds the workload's inputs (``probe.py``); the clock runs
    from spawning it until it prints ``ready``.
    """
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload],
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
        )
        try:
            line = process.stdout.readline()
            elapsed = time.perf_counter() - start
            process.stdout.read()
        finally:
            process.stdout.close()
            code = process.wait(timeout=60)
        if line.strip() != b"ready" or code != 0:
            raise BenchError(f"set-up probe for {workload} failed (exit {code})")
        samples.append(elapsed)
    return samples
