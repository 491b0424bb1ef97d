"""Normal-form game container and strategy-space transformations.

A game is one dense payoff tensor per player over the joint strategy
space.  Tensors are stored in row-major (C) order with player 1 as the
slowest-varying axis; that convention fixes the flat joint indexing used
by distributions, constraint matrices, and the JSON file format.

Payoffs are quantized to 14 decimal places (round-half-even) when a game
is built, so equality of strategies introduced by cloning or mixing is
exact and survives serialization round trips.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

QUANT_DECIMALS = 14

__all__ = [
    "GameError",
    "GameValidationError",
    "UnknownLabelError",
    "NormalFormGame",
    "label_index",
    "build_game",
    "quantize",
    "clone_strategy",
    "mix_strategy",
    "append_strategy",
    "apply_offset",
    "permute_strategies",
    "symmetrize_payoffs",
    "random_game",
    "game_to_dict",
    "game_from_dict",
    "load_game",
    "save_game",
]


class GameError(Exception):
    """Base class for game construction and lookup failures."""


class GameValidationError(GameError):
    """Players, strategies, or payoff tensors are inconsistent."""


class UnknownLabelError(GameError):
    """A player or strategy label (or index) does not exist."""


def label_index(labels: tuple[str, ...], key, what: str) -> int:
    """Resolve ``key``, an index or a label, to its position in ``labels``;
    ``what`` names the labels in the error.  A boolean is neither, though
    Python counts ``True`` as the index 1."""
    if isinstance(key, (bool, np.bool_)):
        raise UnknownLabelError(f"{what} {key!r} is a boolean, not an index or a label")
    if isinstance(key, (int, np.integer)):
        if not 0 <= key < len(labels):
            raise UnknownLabelError(f"{what} index {key} out of range")
        return int(key)
    try:
        return labels.index(key)
    except ValueError:
        raise UnknownLabelError(f"unknown {what} {key!r}") from None


def quantize(values) -> np.ndarray:
    """Round values half-to-even at ``QUANT_DECIMALS`` decimal places.

    Rounding scales, rounds and scales back, so the result is within
    ``0.5 * 10**-QUANT_DECIMALS + 2 * np.spacing(abs(x))`` of each value x,
    not within the half unit alone: the scaling costs up to about one more
    ulp of x.

    Applied to payoffs at game build time and to constraint columns before
    deduplication, so that duplicate detection is a bitwise comparison.
    """
    return np.asarray(values, dtype=np.float64).round(QUANT_DECIMALS)


@dataclass(frozen=True)
class NormalFormGame:
    """An N-player normal-form game with labeled strategies.

    ``payoffs[p]`` has shape ``shape`` (one axis per player, in player
    order) and holds player p's payoff at each joint strategy profile.
    Arrays are read-only; transformations return new games.
    """

    players: tuple[str, ...]
    strategies: tuple[tuple[str, ...], ...]
    payoffs: tuple[np.ndarray, ...]

    @property
    def num_players(self) -> int:
        return len(self.players)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(map(len, self.strategies))

    @property
    def num_joints(self) -> int:
        return math.prod(self.shape)

    def player_index(self, player) -> int:
        """Resolve a player given as index or label."""
        return label_index(self.players, player, "player")

    def strategy_index(self, player, strategy) -> int:
        """Resolve a strategy of ``player`` given as index or label."""
        p = self.player_index(player)
        return label_index(self.strategies[p], strategy, f"player {self.players[p]!r} strategy")

    def payoff_spread(self) -> float:
        """Largest per-player payoff range; the natural scale of the game."""
        return max(float(g.max() - g.min()) if g.size else 0.0 for g in self.payoffs)


def _validate_labels(labels: Sequence[str], what: str) -> tuple[str, ...]:
    if isinstance(labels, str):
        raise GameValidationError(f"{what} must be a sequence of labels, not the string {labels!r}")
    labels = tuple(map(str, labels))
    if not labels:
        raise GameValidationError(f"{what} must be non-empty")
    if len(set(labels)) != len(labels):
        dup = sorted({x for x in labels if labels.count(x) > 1})
        raise GameValidationError(f"duplicate {what}: {dup}")
    return labels


def build_game(players, strategies, payoffs) -> NormalFormGame:
    """Validate and assemble a game; the single construction path.

    ``payoffs`` is one array-like per player, each of shape
    ``(len(strategies[0]), ..., len(strategies[N-1]))`` with finite
    entries.  Entries are quantized to 14 decimal places.
    """
    players = _validate_labels(players, "player labels")
    if len(strategies) != len(players):
        raise GameValidationError(
            f"expected {len(players)} strategy lists, got {len(strategies)}"
        )
    strategies = tuple(
        _validate_labels(s, f"strategy labels for player {players[p]!r}")
        for p, s in enumerate(strategies)
    )
    shape = tuple(len(s) for s in strategies)
    if len(payoffs) != len(players):
        raise GameValidationError(
            f"expected {len(players)} payoff tensors, got {len(payoffs)}"
        )
    tensors = []
    for p, raw in enumerate(payoffs):
        arr = np.asarray(raw, dtype=np.float64)
        if arr.shape != shape:
            raise GameValidationError(
                f"payoff tensor for player {players[p]!r} has shape "
                f"{arr.shape}, expected {shape}"
            )
        if not np.isfinite(arr).all():
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise GameValidationError(
                f"non-finite payoff for player {players[p]!r} at joint "
                f"{tuple(int(i) for i in bad)}"
            )
        arr = quantize(arr)
        arr.setflags(write=False)
        tensors.append(arr)
    return NormalFormGame(players, strategies, tuple(tensors))


def _distribution_weights(weights, size: int, what: str) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.shape != (size,):
        raise GameValidationError(f"{what} must have length {size}, got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise GameValidationError(f"{what} must be finite")
    if np.any(w < -1e-12):
        raise GameValidationError(f"{what} has negative entries below -1e-12")
    if abs(w.sum() - 1.0) > 1e-9:
        raise GameValidationError(f"{what} must sum to 1 within 1e-9, got {w.sum()!r}")
    return np.clip(w, 0.0, None)


def append_strategy(game: NormalFormGame, player, label: str, slices) -> NormalFormGame:
    """Append one strategy for ``player`` with the given payoff slices.

    ``slices[q]`` is player q's payoff over the other players' joint
    space when ``player`` picks the new strategy (shape = game.shape
    without axis ``player``).
    """
    p = game.player_index(player)
    if label in game.strategies[p]:
        raise GameValidationError(
            f"player {game.players[p]!r} already has strategy {label!r}"
        )
    neg_shape = tuple(n for q, n in enumerate(game.shape) if q != p)
    tensors = []
    for q, g in enumerate(game.payoffs):
        sl = np.asarray(slices[q], dtype=np.float64)
        if sl.shape != neg_shape:
            raise GameValidationError(
                f"slice for player {game.players[q]!r} has shape {sl.shape}, "
                f"expected {neg_shape}"
            )
        tensors.append(np.concatenate([g, np.expand_dims(sl, axis=p)], axis=p))
    strategies = list(game.strategies)
    strategies[p] = game.strategies[p] + (str(label),)
    return build_game(game.players, strategies, tensors)


def clone_strategy(game: NormalFormGame, player, strategy) -> NormalFormGame:
    """Append an exact copy of a strategy (label ``"<base>#clone-k"``).

    Every player's payoffs for the clone equal their payoffs for the
    original, so the two are interchangeable in every joint profile.
    """
    p = game.player_index(player)
    i = game.strategy_index(p, strategy)
    base = game.strategies[p][i]
    k = 1
    while f"{base}#clone-{k}" in game.strategies[p]:
        k += 1
    slices = [np.take(g, i, axis=p) for g in game.payoffs]
    return append_strategy(game, p, f"{base}#clone-{k}", slices)


def mix_strategy(game: NormalFormGame, player, weights, label: str | None = None) -> NormalFormGame:
    """Append the convex mixture of ``player``'s strategies under ``weights``.

    Every player's payoff slice for the new strategy is the weighted
    average of their slices for the existing strategies.
    """
    p = game.player_index(player)
    w = _distribution_weights(weights, game.shape[p], "mixture weights")
    if label is None:
        k = 1
        while f"mix-{k}" in game.strategies[p]:
            k += 1
        label = f"mix-{k}"
    slices = [np.tensordot(w, np.moveaxis(g, p, 0), axes=(0, 0)) for g in game.payoffs]
    return append_strategy(game, p, label, slices)


def apply_offset(game: NormalFormGame, player, values) -> NormalFormGame:
    """Add an own-strategy-independent offset to one player's payoffs.

    ``values`` has the game's shape with ``player``'s own axis removed;
    the same offset is added whatever the player's own strategy, so
    payoff differences between its own strategies are untouched.
    """
    p = game.player_index(player)
    neg_shape = tuple(n for q, n in enumerate(game.shape) if q != p)
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape != neg_shape:
        raise GameValidationError(
            f"offset for player {game.players[p]!r} has shape {vals.shape}, "
            f"expected {neg_shape}"
        )
    tensors = list(game.payoffs)
    tensors[p] = game.payoffs[p] + np.expand_dims(vals, axis=p)
    return build_game(game.players, game.strategies, tensors)


def permute_strategies(game: NormalFormGame, player, order) -> NormalFormGame:
    """Reorder one player's strategies (labels move with their payoffs)."""
    p = game.player_index(player)
    order = np.asarray(order, dtype=int)
    if sorted(order.tolist()) != list(range(game.shape[p])):
        raise GameValidationError(
            f"order must be a permutation of 0..{game.shape[p] - 1}"
        )
    strategies = list(game.strategies)
    strategies[p] = tuple(game.strategies[p][i] for i in order)
    tensors = [np.take(g, order, axis=p) for g in game.payoffs]
    return build_game(game.players, strategies, tensors)


def symmetrize_payoffs(game: NormalFormGame, p, q) -> NormalFormGame:
    """Project the game onto its symmetric part for players ``p`` and ``q``.

    The output is invariant under exchanging the two players (averaging
    each payoff with the exchanged-role payoff at the swapped profile);
    already-symmetric games come back unchanged.
    """
    pi = game.player_index(p)
    qi = game.player_index(q)
    if pi == qi:
        raise GameValidationError("symmetrization needs two distinct players")
    if game.shape[pi] != game.shape[qi]:
        raise GameValidationError(
            "symmetrization requires equal strategy counts for the two players"
        )
    tensors = []
    for r, g in enumerate(game.payoffs):
        if r == pi:
            partner = game.payoffs[qi]
        elif r == qi:
            partner = game.payoffs[pi]
        else:
            partner = g
        tensors.append(0.5 * (g + np.swapaxes(partner, pi, qi)))
    return build_game(game.players, game.strategies, tensors)


def random_game(rng: np.random.Generator, sizes: Sequence[int]) -> NormalFormGame:
    """A game with i.i.d. uniform payoffs on [-1, 1]."""
    sizes = tuple(int(n) for n in sizes)
    players = tuple(f"p{k + 1}" for k in range(len(sizes)))
    strategies = tuple(tuple(f"s{i + 1}" for i in range(n)) for n in sizes)
    payoffs = [rng.uniform(-1.0, 1.0, sizes) for _ in sizes]
    return build_game(players, strategies, payoffs)


# ---------------------------------------------------------------------------
# JSON game format:
#   {"players": [...], "strategies": [[...], ...],
#    "payoffs": [[flat row-major tensor per player], ...]}


def game_to_dict(game: NormalFormGame) -> dict:
    return {
        "players": list(game.players),
        "strategies": [list(s) for s in game.strategies],
        "payoffs": [[float(x) for x in g.reshape(-1)] for g in game.payoffs],
    }


def game_from_dict(data: dict) -> NormalFormGame:
    """Read the form ``game_to_dict`` writes; a label that is not a string,
    or a payoff that is a boolean or not a number, raises ``GameValidationError``."""
    try:
        players = data["players"]
        strategies = data["strategies"]
        flat = data["payoffs"]
    except (KeyError, TypeError) as exc:
        raise GameValidationError(f"game JSON missing field: {exc}") from None
    labels = [players, *strategies] if isinstance(strategies, list) else [strategies]
    if not all(isinstance(x, list) and all(isinstance(s, str) for s in x) for x in labels):
        raise GameValidationError("players must be a list of strings and strategies a list of lists of strings")
    if not isinstance(flat, list) or len(flat) != len(players):
        raise GameValidationError("payoffs must list one flat tensor per player")
    shape = tuple(len(s) for s in strategies)
    size = int(np.prod(shape)) if shape else 0
    tensors = []
    for p, values in enumerate(flat):
        arr = np.asarray(values, dtype=object).reshape(-1)
        if arr.size != size or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in arr):
            raise GameValidationError(
                f"payoffs for player {p + 1} must be {size} numbers, one per joint of strategy counts {shape}"
            )
        tensors.append(arr.astype(np.float64).reshape(shape))
    return build_game(players, strategies, tensors)


def load_game(path) -> NormalFormGame:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GameValidationError(f"invalid game JSON in {path}: {exc}") from None
    return game_from_dict(data)


def save_game(game: NormalFormGame, path) -> None:
    text = json.dumps(game_to_dict(game), indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
