"""One set-up: a fresh interpreter imports nit_sim and builds a workload's inputs.

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload> <seed>

Prints one JSON line: the time.perf_counter() reading when the inputs are
built (CLOCK_MONOTONIC, comparable with the parent's clock), the time the
`import nit_sim` statement took and how many modules it loaded.
"""

import json
import sys
import time


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    mods = len(sys.modules)
    t0 = time.perf_counter()
    import nit_sim  # noqa: F401
    import_s = time.perf_counter() - t0
    modules = len(sys.modules) - mods

    import inputs
    from nit_sim.config import parse_config

    inputs.build(workload, seed, parse_config)
    done = time.perf_counter()
    print(json.dumps({"done": done, "import_s": import_s, "modules": modules}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
