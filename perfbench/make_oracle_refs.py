#!/usr/bin/env python3
"""Regenerate perfbench/oracle_refs.json: the ``oracle_rating`` of every
game of the ``discrete`` workload, from the vertex-enumeration oracle in
tests/oracles.py.  Takes about a minute (up to 0.5 s per game).

    python3 perfbench/make_oracle_refs.py
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import workloads  # noqa: E402
from oracles import oracle_rating  # noqa: E402


def main() -> int:
    games = workloads.discrete_payoffs()
    ratings = []
    for payoffs in games:
        values, _ = oracle_rating(workloads.game_from_payoffs(payoffs))
        ratings.append([float(v) for v in values])
    data = {
        "generator": {
            "seed": workloads.DISCRETE_SEED,
            "count": workloads.DISCRETE_COUNT,
            "shapes": workloads.DISCRETE_SHAPES,
            "payoffs": workloads.DISCRETE_PAYOFFS,
        },
        "digest": workloads.payoffs_digest(games),
        "ratings": ratings,
    }
    workloads.ORACLE_REFS.write_text(json.dumps(data) + "\n", encoding="utf-8")
    print(f"wrote {len(ratings)} oracle ratings to {workloads.ORACLE_REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
