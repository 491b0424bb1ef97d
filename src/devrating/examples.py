"""Small canned games used by tests, scripts, and CLI demos."""
from __future__ import annotations

import numpy as np

from .games import NormalFormGame, build_game, mix_strategy

__all__ = [
    "matching_pennies",
    "prisoners_dilemma",
    "biased_shapley_base",
    "biased_shapley",
    "BIASED_SHAPLEY_EQUALIZER",
]


def matching_pennies() -> NormalFormGame:
    """Zero-sum 2x2: the matcher wins +1, the mismatcher loses 1."""
    g1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return build_game(("p1", "p2"), (("H", "T"), ("H", "T")), (g1, -g1))


def prisoners_dilemma() -> NormalFormGame:
    """Symmetric 2x2 with strategies (C, D) and payoffs reward 3, sucker 0,
    temptation 5, punishment 1; defection dominates."""
    g1 = np.array([[3.0, 0.0], [5.0, 1.0]])
    return build_game(("p1", "p2"), (("C", "D"), ("C", "D")), (g1, g1.T))


#: Mixture over (R, P, S) of the cyclic base game below that leaves every
#: pure response with the same expected payoff.
BIASED_SHAPLEY_EQUALIZER = (87.0 / 241.0, 100.0 / 241.0, 54.0 / 241.0)


def biased_shapley_base() -> NormalFormGame:
    """Symmetric rock-paper-scissors variant with unequal stakes and a
    heavy penalty when both players pick the same strategy."""
    g1 = np.array(
        [
            [-8.0, -2.0, 4.0],
            [2.0, -8.0, -1.0],
            [-4.0, 1.0, -8.0],
        ]
    )
    return build_game(("p1", "p2"), (("R", "P", "S"), ("R", "P", "S")), (g1, g1.T))


def biased_shapley() -> NormalFormGame:
    """The cyclic base game extended, for both players, by the payoff-
    equalizing mixture as a fourth strategy labeled N.

    Uniform averaging ranks the four strategies apart, while the
    deviation rating ties all four — the motivating example for
    clone/mixture-invariant ratings.
    """
    game = biased_shapley_base()
    game = mix_strategy(game, "p1", BIASED_SHAPLEY_EQUALIZER, label="N")
    game = mix_strategy(game, "p2", BIASED_SHAPLEY_EQUALIZER, label="N")
    return game
