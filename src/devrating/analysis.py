"""Equilibrium analysis.

Task contributions decompose a model's rating into per-task terms at the
reported equilibrium.  The property-check harness verifies rating
invariances (clone, mixture, offset, permutation, dominance, bounds) on
concrete games and reports witnesses on failure.  The reductions
(``symmetrize_payoffs``, ``dedup_joints``, ``rate_reduced``) live with
the game, constraint and rating code and are re-exported here.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cce import ReducedConstraintSystem, dedup_joints
from .games import (
    GameValidationError,
    NormalFormGame,
    append_strategy,
    apply_offset,
    clone_strategy,
    game_to_dict,
    mix_strategy,
    permute_strategies,
    quantize,
    symmetrize_payoffs,
)
from .rating import RatingResult, rate_reduced

__all__ = [
    "ContributionMatrix",
    "task_contributions",
    "save_contributions",
    "symmetrize_payoffs",
    "ReducedConstraintSystem",
    "dedup_joints",
    "rate_reduced",
    "quantize",
    "PropertyReport",
    "PROPERTY_NAMES",
    "check_property",
]


@dataclass(frozen=True)
class ContributionMatrix:
    """Per-task contributions to one model player's deviation ratings.

    Row sums equal the model ratings (the rating decomposes task by task
    at the equilibrium the ratings were computed from).
    """

    model_player: str
    models: tuple[str, ...]
    tasks: tuple[str, ...]
    values: np.ndarray
    ratings: np.ndarray


def task_contributions(game: NormalFormGame, result: RatingResult, model_player, task_player=None) -> ContributionMatrix:
    """Split each model's rating into per-task terms at ``result``'s
    equilibrium: the expected gain from switching to the model, restricted
    to profiles where each task was recommended."""
    if game.num_players != 3:
        raise GameValidationError("task contributions require a three-player game")
    p = game.player_index(model_player)
    t_axis = game.player_index(task_player) if task_player is not None else 2
    if p == t_axis:
        raise GameValidationError("model player and task player must differ")
    sigma = result.equilibrium.as_tensor(game.shape)
    g = game.payoffs[p]
    sum_axes = tuple(q for q in range(3) if q != t_axis)
    values = np.empty((game.shape[p], game.shape[t_axis]))
    for i in range(game.shape[p]):
        dev = np.expand_dims(np.take(g, i, axis=p), axis=p)
        values[i] = (sigma * (np.broadcast_to(dev, game.shape) - g)).sum(axis=sum_axes)
    return ContributionMatrix(
        model_player=game.players[p],
        models=game.strategies[p],
        tasks=game.strategies[t_axis],
        values=values,
        ratings=np.asarray(result.ratings[p], dtype=np.float64),
    )


def save_contributions(matrix: ContributionMatrix, path) -> None:
    """CSV with one row per model, one column per task, and a trailing
    ``rating`` column."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model", *matrix.tasks, "rating"])
        for i, model in enumerate(matrix.models):
            row = [repr(float(x)) for x in matrix.values[i]]
            writer.writerow([model, *row, repr(float(matrix.ratings[i]))])


PROPERTY_NAMES = ("clone", "mixture", "offset", "permutation", "dominance", "bounds")

_DEFAULT_TOL = {
    "clone": 1e-6,
    "mixture": 1e-6,
    "offset": 1e-6,
    "permutation": 1e-6,
    "dominance": 1e-7,
    "bounds": 1e-7,
}

Rater = Callable[[NormalFormGame], tuple[np.ndarray, ...]]


@dataclass(frozen=True)
class PropertyReport:
    property: str
    passed: bool
    deviation: float
    tolerance: float
    seed: int
    detail: str
    witness: dict | None = None


def _ratings_of(rater: Rater, game: NormalFormGame) -> tuple[np.ndarray, ...]:
    out = rater(game)
    ratings = getattr(out, "ratings", out)
    return tuple(np.asarray(r, dtype=np.float64) for r in ratings)


def _row_minima(game: NormalFormGame) -> list[np.ndarray]:
    """Each player's row minima of ``cce_constraint_matrix(game)``, read from
    the payoff tensors: row (q, i) is smallest at q's best reply to a_-q, and
    rounding is monotone, so they equal the matrix's row minima bitwise."""
    return [(g - g.max(axis=q, keepdims=True)).min(axis=tuple(a for a in range(g.ndim) if a != q)) for q, g in enumerate(game.payoffs)]


def check_property(game: NormalFormGame, property_name: str, rater: Rater, seed: int = 0, tolerance: float | None = None) -> PropertyReport:
    """Apply one seeded strategy-space transformation and verify that the
    rater responds as the property demands.  Works with any rater that
    returns per-player rating vectors (or a result exposing ``.ratings``),
    so baselines can be checked against the same battery.
    """
    if property_name not in PROPERTY_NAMES:
        raise ValueError(
            f"unknown property {property_name!r}; expected one of {PROPERTY_NAMES}"
        )
    tol = _DEFAULT_TOL[property_name] if tolerance is None else float(tolerance)
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    rng = np.random.default_rng(seed)
    p = int(rng.integers(game.num_players))
    base = _ratings_of(rater, game)

    if property_name == "bounds":
        # a rating lies between its row's smallest deviation gain and 0
        deviation = 0.0
        detail = "all within bounds"
        for q, lowers in enumerate(_row_minima(game)):
            for i, lower in enumerate(lowers.tolist()):
                r = float(base[q][i])
                excess = max(r, lower - r)
                if excess > deviation:
                    deviation = excess
                    detail = f"worst row ({game.players[q]}, {game.strategies[q][i]})"
        return PropertyReport("bounds", deviation <= tol, deviation, tol, seed, detail)

    i = int(rng.integers(game.shape[p]))
    # the transformed game's ratings of the original strategies, and of
    # the appended one for clone and mixture
    expected, added = list(base), None
    if property_name == "clone":
        transformed = clone_strategy(game, p, i)
        added = float(base[p][i])
        detail = f"cloned ({game.players[p]}, {game.strategies[p][i]})"
    elif property_name == "mixture":
        weights = rng.dirichlet(np.ones(game.shape[p]))
        transformed = mix_strategy(game, p, weights)
        added = float(weights @ base[p])
        detail = f"mixed player {game.players[p]} with weights {np.round(weights, 4).tolist()}"
    elif property_name == "offset":
        neg_shape = tuple(n for q, n in enumerate(game.shape) if q != p)
        scale = max(1.0, game.payoff_spread())
        transformed = apply_offset(game, p, rng.uniform(-scale, scale, neg_shape))
        detail = f"offset player {game.players[p]} payoffs"
    elif property_name == "permutation":
        order = rng.permutation(game.shape[p])
        transformed = permute_strategies(game, p, order)
        expected[p] = base[p][order]
        detail = f"permuted player {game.players[p]} with order {order.tolist()}"
    else:  # dominance
        gap = rng.uniform(0.05, 0.5, tuple(n for q, n in enumerate(game.shape) if q != p))
        slices = [np.take(g, i, axis=p) for g in game.payoffs]
        slices[p] = slices[p] - gap
        transformed = append_strategy(game, p, f"{game.strategies[p][i]}#dominated", slices)
        detail = (
            f"appended strategy dominated by ({game.players[p]}, "
            f"{game.strategies[p][i]})"
        )

    after = _ratings_of(rater, transformed)
    if property_name == "dominance":
        deviation = max(0.0, float(after[p][-1]) - float(after[p][i]))
    else:
        deviation = max(float(np.max(np.abs(after[q][: e.size] - e))) for q, e in enumerate(expected))
        if added is not None:
            deviation = max(deviation, abs(float(after[p][-1]) - added))

    passed = deviation <= tol
    witness = None
    if not passed:
        witness = {"game": game_to_dict(game), "transformed": game_to_dict(transformed)}
    return PropertyReport(property_name, passed, deviation, tol, seed, detail, witness)
