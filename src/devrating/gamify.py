"""Turning score tables into normal-form games.

A score table holds per-model, per-task scores.  Two constructions are
provided: a three-player game (two symmetric model pickers plus a task
picker who is paid the absolute score margin, i.e. rewarded for
discriminating between the models) and a two-player zero-sum game (model
picker vs. task picker).  Games induced by populations of mixed strategies are built in
``devrating.improve``.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .games import GameValidationError, NormalFormGame, build_game

__all__ = [
    "ScoreTable",
    "load_score_table",
    "save_score_table",
    "game_from_table_3p",
    "game_from_table_2pzs",
    "pairwise_margins",
]


@dataclass(frozen=True)
class ScoreTable:
    """Real-valued scores for each (model, task) pair."""

    models: tuple[str, ...]
    tasks: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self):
        models = tuple(str(m) for m in self.models)
        tasks = tuple(str(t) for t in self.tasks)
        for labels, what in ((models, "model"), (tasks, "task")):
            if not labels:
                raise GameValidationError(f"score table needs at least one {what}")
            if len(set(labels)) != len(labels):
                raise GameValidationError(f"duplicate {what} labels")
        arr = np.asarray(self.scores, dtype=np.float64)
        if arr.shape != (len(models), len(tasks)):
            raise GameValidationError(
                f"score shape {arr.shape} != ({len(models)}, {len(tasks)})"
            )
        if not np.all(np.isfinite(arr)):
            raise GameValidationError("scores must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "tasks", tasks)
        object.__setattr__(self, "scores", arr)


def load_score_table(path) -> ScoreTable:
    """Read a score-table CSV: header row of task labels, first column of
    model labels."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if len(rows) < 2 or len(rows[0]) < 2:
        raise GameValidationError(f"score table {path} needs a header and data rows")
    tasks = [c.strip() for c in rows[0][1:]]
    models, body = [], []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(tasks) + 1:
            raise GameValidationError(
                f"row {r} of {path} has {len(row)} cells, expected {len(tasks) + 1}"
            )
        models.append(row[0].strip())
        try:
            body.append([float(x) for x in row[1:]])
        except ValueError as exc:
            raise GameValidationError(f"bad score in row {r} of {path}: {exc}") from None
    return ScoreTable(tuple(models), tuple(tasks), np.array(body))


def save_score_table(table: ScoreTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model", *table.tasks])
        for model, row in zip(table.models, table.scores):
            writer.writerow([model, *[repr(float(x)) for x in row]])


def game_from_table_3p(table: ScoreTable, players: tuple[str, str, str] = ("model_a", "model_b", "task")) -> NormalFormGame:
    """Three-player game from a score table.

    Two players pick models, one picks the task; the first model player
    is paid the score margin on the chosen task, the second its negation,
    and the task player the absolute margin (tasks are rewarded for
    separating the models).  The construction is symmetric in the two
    model players.
    """
    s = table.scores
    margin = s[:, None, :] - s[None, :, :]
    strategies = (table.models, table.models, table.tasks)
    return build_game(players, strategies, (margin, -margin, np.abs(margin)))


def game_from_table_2pzs(table: ScoreTable, players: tuple[str, str] = ("model", "task")) -> NormalFormGame:
    """Two-player zero-sum game: the model player receives the score, the
    task player its negation."""
    s = table.scores
    return build_game(players, (table.models, table.tasks), (s, -s))


def pairwise_margins(table: ScoreTable) -> tuple[tuple[str, ...], np.ndarray]:
    """Skew-symmetric matrix of task-averaged score margins between models;
    the pairwise collapse used to feed Elo from a score table."""
    s = table.scores
    margins = (s[:, None, :] - s[None, :, :]).mean(axis=2)
    return table.models, margins
