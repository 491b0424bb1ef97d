"""Coarse-correlated equilibrium machinery.

A joint distribution sigma over strategy profiles is an epsilon-CCE when
no player can gain more than epsilon in expectation by committing to a
single strategy before the profile is drawn.  The central quantity is the
deviation gain

    gain_p(a') = sum_a sigma(a) * [G_p(a', a_-p) - G_p(a)],

the expected payoff change for player p from overriding every
recommendation with a'.  Stacking one row per (player, strategy) over all
joint profiles gives the deviation constraint matrix A, so the epsilon-CCE
condition is ``A @ sigma <= epsilon`` entrywise.  The engine reads A from
the payoff tensors, and ``cce_constraint_matrix`` forms it for tests and
analysis.  Joints with equal columns of A (e.g. clones) share a group
label.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import NormalFormGame, quantize

NEGATIVE_FLOOR = -1e-12
SUM_TOLERANCE = 1e-9

__all__ = [
    "DistributionError",
    "JointDistribution",
    "CCEConstraintMatrix",
    "CCECheck",
    "deviation_gains",
    "cce_gap",
    "cce_constraint_matrix",
    "verify_cce",
    "ReducedConstraintSystem",
    "dedup_joints",
    "joint_groups",
]


class DistributionError(ValueError):
    """A probability vector fails validation."""


@dataclass(frozen=True)
class JointDistribution:
    """A distribution over joint strategy profiles, flat in row-major order.

    Entries below -1e-12 or a total off 1 by more than 1e-9 are
    construction errors; tiny negatives inside the floor are clamped to 0.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64).reshape(-1)
        if arr.size == 0:
            raise DistributionError("distribution must be non-empty")
        if not np.isfinite(arr).all():
            raise DistributionError("distribution entries must be finite")
        worst = float(arr.min())
        if worst < NEGATIVE_FLOOR:
            raise DistributionError(
                f"negative probability {worst!r} below floor {NEGATIVE_FLOOR}"
            )
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise DistributionError(f"probabilities sum to {total!r}, expected 1")
        arr = np.maximum(arr, 0.0)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @classmethod
    def uniform(cls, size: int) -> "JointDistribution":
        return cls(np.full(size, 1.0 / size))

    @property
    def size(self) -> int:
        return self.probs.size

    def as_tensor(self, shape: tuple[int, ...]) -> np.ndarray:
        return self.probs.reshape(shape)


def _check_size(game: NormalFormGame, sigma: JointDistribution) -> None:
    if sigma.size != game.num_joints:
        raise DistributionError(
            f"distribution over {sigma.size} joints does not match game "
            f"with {game.num_joints}"
        )


def _player_gains(game: NormalFormGame, sigma: JointDistribution, p: int) -> np.ndarray:
    """All of player p's deviation gains, computed from the definition."""
    g = game.payoffs[p]
    tensor = sigma.as_tensor(g.shape)
    expected = float((tensor * g).sum())
    opponent_marginal = tensor.sum(axis=p)
    # the reshape and dot of np.tensordot over every axis but p's, without
    # its axis handling, which costs more than the product on small games
    moved = g.transpose((p, *(q for q in range(g.ndim) if q != p)))
    dev_payoffs = np.dot(moved.reshape(g.shape[p], -1), opponent_marginal.reshape(-1, 1))
    return dev_payoffs.reshape(-1) - expected


def deviation_gains(game: NormalFormGame, sigma: JointDistribution) -> tuple[np.ndarray, ...]:
    """Per-player vectors of deviation gains under ``sigma``."""
    _check_size(game, sigma)
    return tuple(_player_gains(game, sigma, p) for p in range(game.num_players))


def cce_gap(game: NormalFormGame, sigma: JointDistribution) -> float:
    """Distance of ``sigma`` from the CCE set: the sum over players of
    their largest deviation gain, clipped below at 0 per player."""
    gains = deviation_gains(game, sigma)
    return float(sum(max(0.0, float(g.max())) for g in gains))


@dataclass(frozen=True)
class CCECheck:
    """Result of an epsilon-CCE check; carries the binding constraint."""

    ok: bool
    epsilon: float
    worst_player: str
    worst_strategy: str
    worst_gain: float


def verify_cce(game: NormalFormGame, sigma: JointDistribution, epsilon: float = 0.0) -> CCECheck:
    """Check that every deviation gain under ``sigma`` is at most ``epsilon``."""
    gains = deviation_gains(game, sigma)
    worst_p, worst_i, worst = 0, 0, -np.inf
    for p, g in enumerate(gains):
        i = int(np.argmax(g))
        if g[i] > worst:
            worst_p, worst_i, worst = p, i, float(g[i])
    return CCECheck(
        ok=bool(worst <= epsilon),
        epsilon=float(epsilon),
        worst_player=game.players[worst_p],
        worst_strategy=game.strategies[worst_p][worst_i],
        worst_gain=worst,
    )


@dataclass(frozen=True)
class CCEConstraintMatrix:
    """The stacked deviation constraints of a game.

    ``values`` has one row per (player, strategy) pair — players in
    order, strategies in order within each player — and one column per
    joint profile in flat row-major order.  ``A @ sigma`` gives every
    deviation gain at once; row (p, a') is zero in every column whose
    p-th coordinate is a'.
    """

    values: np.ndarray

    @property
    def num_rows(self) -> int:
        return self.values.shape[0]

    @property
    def num_joints(self) -> int:
        return self.values.shape[1]


def cce_constraint_matrix(game: NormalFormGame) -> CCEConstraintMatrix:
    """Build the deviation constraint matrix of ``game``.

    Player p's rows are one broadcast subtraction: entry (a', a) of
    ``moveaxis(g, p, 0)`` with an axis inserted at p + 1 is G_p(a', a_-p),
    broadcast over a_p, minus G_p(a).  It is written straight into the
    player's row block, so no temporary block is allocated.
    """
    shape = game.shape
    rows = np.empty((sum(shape), game.num_joints))
    r = 0
    for p, g in enumerate(game.payoffs):
        block = rows[r : r + shape[p]].reshape((shape[p],) + shape)
        np.subtract(np.expand_dims(np.moveaxis(g, p, 0), p + 1), g, out=block)
        r += shape[p]
    rows.setflags(write=False)
    return CCEConstraintMatrix(rows)


@dataclass(frozen=True)
class ReducedConstraintSystem:
    """A constraint matrix with duplicate joint columns merged.

    ``labels[j]`` is the reduced column that joint j's column collapsed
    into, numbered in order of first occurrence.
    """

    matrix: CCEConstraintMatrix
    labels: np.ndarray

    @property
    def num_original_joints(self) -> int:
        return self.labels.size


def _column_labels(values: np.ndarray) -> np.ndarray:
    """Label the columns of the 2-D ``values``, the same label for
    bytewise-equal columns, numbered in order of first occurrence."""
    cols = np.ascontiguousarray(values.T)
    keys = cols.view(np.dtype((np.void, cols.itemsize * cols.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # the rank of each distinct column's first occurrence
    return np.argsort(np.argsort(first))[inverse.reshape(-1)]


def dedup_joints(matrix: CCEConstraintMatrix) -> ReducedConstraintSystem:
    """Merge joint columns that are identical after quantization at the
    payoff precision ``games.QUANT_DECIMALS``.

    Gains depend on columns only through their values, so any rating
    computed on the reduced system equals the full-system rating.
    """
    vals = quantize(matrix.values)
    labels = _column_labels(vals)
    reduced = CCEConstraintMatrix(vals[:, np.unique(labels, return_index=True)[1]])
    return ReducedConstraintSystem(matrix=reduced, labels=labels)


def joint_groups(game: NormalFormGame) -> np.ndarray:
    """Each joint's group label in ``dedup_joints`` of the game's
    constraint matrix, found without forming it: two joints share a column
    exactly when they share every player's block of rows, so the columns
    of each block are labelled, and then each joint's labels by player."""
    return _column_labels(np.array([
        _column_labels(quantize(np.expand_dims(np.moveaxis(g, p, 0), p + 1) - g).reshape(n, -1))
        for p, (g, n) in enumerate(zip(game.payoffs, game.shape))
    ]))
