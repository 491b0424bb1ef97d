"""Inputs and operations of the three benchmark workloads.

Each workload has a fixed set of inputs that does not depend on the run
seed.  A run goes through the set in whole rounds, each round in an
order drawn from the run seed, so every run attempts the same operations
the same number of times per round and an input that fails, fails in
every run.  An operation is one table (``leaderboard``), one
``run_improvement_loop`` call (``loop``) or one game (``discrete``).
The operations call ``devrating`` through module attributes looked up at
call time, so the wrappers that ``tracing.Tracer`` installs are seen.
"""
from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import devrating as dr

WORKLOADS = ("leaderboard", "loop", "discrete")

# leaderboard: the score-table construction of scripts/scale_benchmark.py
# and acceptance criterion 10 (planted copies of a strictly best model on
# top of uniform scores), at a size where one rating takes seconds.
TABLE_SEED = 20250213
TABLE_COUNT = 3
TABLE_MODELS = 24
TABLE_TASKS = 8
TABLE_COPIES = 3

# loop: random 3x3 games, one loop seed each, population 8 (8x8 meta-games).
LOOP_SEED = 20250214
LOOP_COUNT = 5
LOOP_SHAPE = (3, 3)
LOOP_POPULATION = 8
LOOP_ITERATIONS = 10

# discrete: small games with tied integer payoffs.
DISCRETE_SEED = 20250211
DISCRETE_COUNT = 200
DISCRETE_SHAPES = ((2, 2), (2, 3), (2, 2, 2))
DISCRETE_PAYOFFS = (-2, 2)  # inclusive integer alphabet

ORACLE_REFS = Path(__file__).resolve().parent / "oracle_refs.json"


def score_table(k: int) -> dr.ScoreTable:
    rng = np.random.default_rng((TABLE_SEED, k))
    base = rng.uniform(0.05, 0.85, size=(TABLE_MODELS - TABLE_COPIES, TABLE_TASKS))
    top = base.max(axis=0) + 0.05
    scores = np.vstack([np.tile(top, (TABLE_COPIES, 1)), base])
    return dr.ScoreTable(
        models=tuple(f"model{i:02d}" for i in range(TABLE_MODELS)),
        tasks=tuple(f"task{t:02d}" for t in range(TABLE_TASKS)),
        scores=scores,
    )


def loop_input(k: int) -> tuple[dr.NormalFormGame, dr.LoopConfig]:
    """The full game of loop input ``k`` and the loop's configuration."""
    rng = np.random.default_rng((LOOP_SEED, k))
    config = dr.LoopConfig(iterations=LOOP_ITERATIONS, population_size=LOOP_POPULATION,
                           seed=int(rng.integers(2**31)))
    return dr.random_game(rng, LOOP_SHAPE), config


def discrete_payoffs() -> list[tuple[np.ndarray, ...]]:
    """Payoff tensors of the fixed discrete game set."""
    lo, hi = DISCRETE_PAYOFFS
    games = []
    for k in range(DISCRETE_COUNT):
        rng = np.random.default_rng((DISCRETE_SEED, k))
        shape = DISCRETE_SHAPES[k % len(DISCRETE_SHAPES)]
        games.append(tuple(rng.integers(lo, hi + 1, size=shape).astype(float) for _ in shape))
    return games


def payoffs_digest(games) -> str:
    h = hashlib.sha256()
    for payoffs in games:
        for g in payoffs:
            h.update(repr(g.shape).encode())
            h.update(np.ascontiguousarray(g, dtype=np.float64).tobytes())
    return h.hexdigest()


def load_oracle_refs(games) -> list[np.ndarray]:
    """Stored ``oracle_rating`` values of the discrete games.

    Refuses references made for another game set, so a change to the
    generator cannot be checked against stale values.
    """
    data = json.loads(ORACLE_REFS.read_text(encoding="utf-8"))
    if data["digest"] != payoffs_digest(games):
        raise RuntimeError(
            f"{ORACLE_REFS.name} does not match the discrete games; "
            "regenerate it with: python3 perfbench/make_oracle_refs.py"
        )
    return [np.array(r) for r in data["ratings"]]


def setup_inputs(workload: str) -> tuple[list, list | None]:
    """The workload's fixed inputs, plus the oracle ratings on ``discrete``."""
    if workload == "leaderboard":
        return [score_table(k) for k in range(TABLE_COUNT)], None
    if workload == "loop":
        return [loop_input(k) for k in range(LOOP_COUNT)], None
    if workload == "discrete":
        games = discrete_payoffs()
        return games, load_oracle_refs(games)
    raise ValueError(f"unknown workload {workload!r}")


def round_order(seed: int, round_index: int, count: int) -> list[int]:
    """Input indices of one round, in an order fixed by the run seed."""
    return [int(k) for k in np.random.default_rng((seed, round_index)).permutation(count)]


def game_from_payoffs(payoffs) -> dr.NormalFormGame:
    shape = payoffs[0].shape
    return dr.build_game(
        tuple(f"p{i + 1}" for i in range(len(shape))),
        tuple(tuple(f"s{j + 1}" for j in range(n)) for n in shape),
        payoffs,
    )


@dataclass
class Rated:
    """One deviation rating and the game it rated."""

    game: dr.NormalFormGame
    result: dr.RatingResult
    certificate: dr.RatingCertificate | None = None


@dataclass
class Operation:
    """Outcome of one timed operation on input ``ref``."""

    ref: int
    seconds: float
    attempted: int  # ratings started
    rated: list[Rated]  # ratings completed
    step_seconds: list[float]  # wall time of each table, loop iteration or game
    error: str | None = None  # the RatingError or ImprovementLoopError raised


class RatingCapture:
    """Records every rating that ``run_improvement_loop`` starts.

    The loop returns only gaps and payoffs, so the ratings it makes and
    the boundaries of its iterations are taken from one pass-through
    wrapper on the rater binding in ``devrating.improve``.  It adds one
    Python call to each ~90 ms iteration.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.rated: list[Rated] = []

    def __enter__(self):
        self._original = dr.improve.deviation_rating
        original, starts, rated = self._original, self.starts, self.rated

        def capture(game, *args, **kwargs):
            starts.append(time.perf_counter())
            result = original(game, *args, **kwargs)
            rated.append(Rated(game, result))
            return result

        dr.improve.deviation_rating = capture
        return self

    def __exit__(self, *exc):
        dr.improve.deviation_rating = self._original
        return False


def run_operation(workload: str, ref: int, op_input) -> Operation:
    """Rate one input of the fixed set; a rating or loop error is kept in
    ``Operation.error`` and ends the operation."""
    if workload == "loop":
        full, config = op_input
        with RatingCapture() as capture:
            start = time.perf_counter()
            error = None
            try:
                dr.run_improvement_loop(full, "deviation", config)
            except dr.ImprovementLoopError as exc:
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
        steps = [float(s) for s in np.diff([*capture.starts, end])]
        return Operation(ref, end - start, len(capture.starts), capture.rated, steps, error)
    start = time.perf_counter()
    try:
        if workload == "leaderboard":
            game = dr.game_from_table_3p(op_input)
        else:
            game = game_from_payoffs(op_input)
        result = dr.deviation_rating(game)
        rated = [Rated(game, result, dr.rating_certificate(game, result))]
        error = None
    except dr.RatingError as exc:
        rated, error = [], f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return Operation(ref, seconds, 1, rated, [seconds], error)
