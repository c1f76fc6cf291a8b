"""Set-up probe: one fresh process that gets a workload ready, then exits.

``python3 perfbench/probe.py <workload>`` imports the program, warms the
kernels and builds the workload's inputs, prints ``ready`` and exits.  The
parent times it from spawn to ``ready`` (``common.probe_setup``).
"""

import sys

from common import bootstrap

if __name__ == "__main__":
    bootstrap()
    import wl_sim
    import wl_table1

    setup = {
        "table1": wl_table1.setup,
        "sim-healthy": wl_sim.setup_healthy,
        "sim-faults": wl_sim.setup_faults,
    }
    setup[sys.argv[1]]()
    print("ready", flush=True)
