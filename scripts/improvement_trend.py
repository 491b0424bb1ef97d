#!/usr/bin/env python3
"""Compare raters as selection signals in the cull-and-reseed loop.

For each seed, draws a random full game, runs the improvement loop once
with the deviation rater and once with the uniform baseline as the
culling signal, and reports the final CCE gap of the population's
empirical meta-game.  Lower is better: it means the surviving mixed
strategies are closer to supporting an equilibrium of the full game.
Trajectories are written as CSV when --out-dir is given.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from devrating.games import random_game
from devrating.improve import RATERS, LoopConfig, run_improvement_loop, save_trajectory


def parse_shape(text: str):
    try:
        sizes = tuple(int(v) for v in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"shape must look like 3x3, got {text!r}")
    if len(sizes) < 2 or any(s < 2 for s in sizes):
        raise argparse.ArgumentTypeError("shape needs >= 2 players with >= 2 strategies")
    return sizes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="number of trials (default 20)")
    parser.add_argument("--seed-base", type=int, default=9_000,
                        help="full-game seed for trial k is seed-base + k (default 9000)")
    parser.add_argument("--shape", type=parse_shape, default=(3, 3),
                        help="full-game shape, e.g. 3x3 or 2x2x3 (default 3x3)")
    parser.add_argument("--iterations", type=int, default=200)
    parser.add_argument("--population-size", type=int, default=8)
    parser.add_argument("--cull-fraction", type=float, default=0.25)
    parser.add_argument("--out-dir", help="write one trajectory CSV per run here")
    args = parser.parse_args(argv)

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)

    finals = {rater: [] for rater in RATERS}
    for k in range(args.seeds):
        full = random_game(np.random.default_rng(args.seed_base + k), list(args.shape))
        for rater in RATERS:
            config = LoopConfig(iterations=args.iterations,
                                population_size=args.population_size,
                                cull_fraction=args.cull_fraction, seed=k)
            trajectory = run_improvement_loop(full, rater, config)
            gap = trajectory.records[-1].cce_gap
            finals[rater].append(gap)
            if args.out_dir:
                save_trajectory(trajectory,
                                os.path.join(args.out_dir, f"seed{k:03d}-{rater}.csv"))
        print(f"seed {k:3d}:  deviation {finals['deviation'][-1]:.4f}"
              f"  uniform {finals['uniform'][-1]:.4f}")

    print()
    for rater in RATERS:
        gaps = np.array(finals[rater])
        print(f"{rater:>9}: median final gap {np.median(gaps):.4f}"
              f"  (mean {gaps.mean():.4f}, max {gaps.max():.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
