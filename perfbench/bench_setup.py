"""Time one cold set-up: import the program, build a cycle's clusters and confs.

Run in a fresh interpreter by ``run.py`` (several times per run, median
reported as ``setup_s``), so that the import cost is measured cold:

    python3 perfbench/bench_setup.py --workload terasort-4n --seed 0

Prints one JSON object ``{"setup_s": <host seconds>}``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

START = time.perf_counter()

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    from bench_workloads import ENGINES, WORKLOADS

    workload = WORKLOADS[args.workload]
    for seed in workload.sub_seeds(args.seed):
        for engine in ENGINES:
            workload.cluster(seed)
            workload.conf(engine)
    print(json.dumps({"setup_s": time.perf_counter() - START}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
