"""Regenerate ``digests.json``: the pinned ``NetworkStats`` of every replica.

``python3 perfbench/pin_digests.py`` runs each simulator configuration of
``sim-healthy`` and ``sim-faults`` once per seed of the replica pool and
records each replica's digest.  Run it only when a change is *meant* to
alter simulation results (the engines are otherwise bit-identical across
versions and kernel backends), and say so in the change.
"""

import json

from common import bootstrap

if __name__ == "__main__":
    bootstrap()
    import wl_sim

    pinned = {}
    for setup in (wl_sim.setup_healthy, wl_sim.setup_faults):
        phases, _ = setup()
        for name, call, replicas, router in phases:
            entries = pinned.setdefault(name, {})
            seeds = list(wl_sim.POOL)
            for start in range(0, len(seeds), replicas):
                sweep = call(router, seeds[start : start + replicas])
                for point in sweep.points:
                    entries[f"{point.rate}/{point.seed}"] = wl_sim.digest(point.stats)
            print(f"{name}: {len(entries)} replicas", flush=True)
    wl_sim.DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
