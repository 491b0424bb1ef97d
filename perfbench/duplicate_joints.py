#!/usr/bin/env python3
"""Share of duplicate joint columns in the games each workload rates.

Counts, over every game rated in one round of each workload, the joint
columns of the CCE constraint matrix that ``analysis.dedup_joints``
merges away: the redundancy that table reductions can exploit.  The
loop's games are the meta-games its ratings see.  Takes about a minute.

    python3 perfbench/duplicate_joints.py
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import devrating as dr  # noqa: E402
import workloads  # noqa: E402


def rated_games(workload: str):
    inputs, _ = workloads.setup_inputs(workload)
    for k, op_input in enumerate(inputs):
        yield from (r.game for r in workloads.run_operation(workload, k, op_input).rated)


def main() -> int:
    for workload in workloads.WORKLOADS:
        total = kept = 0
        for game in rated_games(workload):
            reduced = dr.dedup_joints(dr.cce_constraint_matrix(game))
            total += reduced.num_original_joints
            kept += reduced.matrix.num_joints
        print(f"{workload:12s} {1 - kept / total:.4f} of {total} joint columns are duplicates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
