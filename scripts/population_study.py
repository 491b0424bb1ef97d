#!/usr/bin/env python3
"""Rate Dirichlet mixture populations over a base game.

Builds population games whose members are mixed strategies of a small
base game (default: the biased Shapley 3x3), rates each population with
the deviation rater and the uniform baseline, and prints the spread
(max - min rating) per population.  With the base's vertex policies
included (the default) the deviation ratings of every member coincide;
with --no-vertices the members are interior samples only and the
deviation ratings legitimately separate.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from devrating.baselines import uniform_rating
from devrating.examples import biased_shapley_base
from devrating.improve import dirichlet_mixtures, population_game
from devrating.rating import deviation_rating

DEFAULT_ALPHAS = ("1,1,1", "2,1,1", "1,3,1", "5,2,1", "1,1,4")


def parse_alpha(text: str) -> np.ndarray:
    values = np.array([float(v) for v in text.split(",")], dtype=float)
    if values.size == 0 or np.any(values <= 0):
        raise argparse.ArgumentTypeError(f"alpha must be positive reals, got {text!r}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=9,
                        help="Dirichlet samples per population (default 9)")
    parser.add_argument("--alpha", type=parse_alpha, action="append", metavar="A,B,C",
                        help="concentration vector; repeatable (default: five presets)")
    parser.add_argument("--seed", type=int, default=60, help="base RNG seed (default 60)")
    parser.add_argument("--no-vertices", action="store_true",
                        help="omit the base vertex policies from the population")
    args = parser.parse_args(argv)

    base = biased_shapley_base()
    num_actions = len(base.strategies[0])
    alphas = args.alpha or [parse_alpha(a) for a in DEFAULT_ALPHAS]
    for alpha in alphas:
        if alpha.size != num_actions:
            parser.error(f"alpha length {alpha.size} != base actions {num_actions}")

    vertices = [] if args.no_vertices else [np.eye(num_actions)[i] for i in range(num_actions)]
    header = f"{'alpha':>12}  {'members':>7}  {'deviation spread':>16}  {'uniform spread':>14}"
    print(header)
    print("-" * len(header))
    for k, alpha in enumerate(alphas):
        rng = np.random.default_rng(args.seed + k)
        members = vertices + dirichlet_mixtures(rng, args.samples, alpha)
        game = population_game(base, members)
        dev = deviation_rating(game).ratings[0]
        uni = uniform_rating(game)[0]
        alpha_txt = ",".join(f"{v:g}" for v in alpha)
        print(f"{alpha_txt:>12}  {len(members):>7}  {dev.max() - dev.min():>16.3e}"
              f"  {uni.max() - uni.min():>14.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
