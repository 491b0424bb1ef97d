"""One cold start of a benchmark run: fresh interpreter to inputs ready.

Prints one JSON line with ``import_s`` (``import devrating``) and
``setup_s`` (that plus building the workload's fixed inputs), both timed
from this script's first statement.  ``run.py`` starts it several times
and reports the medians.

    python3 perfbench/setup_probe.py --workload loop
"""
import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import devrating  # noqa: E402,F401

IMPORTED = time.perf_counter()

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    args = parser.parse_args()
    workloads.setup_inputs(args.workload)
    ready = time.perf_counter()
    print(json.dumps({"import_s": IMPORTED - START, "setup_s": ready - START}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
