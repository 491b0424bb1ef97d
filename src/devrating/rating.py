"""Deviation ratings via iterative tightening of CCE deviation constraints.

The rating of a strategy is its deviation gain at the strictest
coarse-correlated equilibrium found by repeatedly minimizing the largest
gain that is still free to move.  Each stage solves one LP over the
joint-distribution simplex:

    minimize   t
    subject to A_u @ sigma <= t          (rows not yet frozen)
               A_f @ sigma == r_f        (rows frozen at earlier stages)
               sigma in the simplex

Rows whose gain reaches the stage optimum (within ``active_tol``) are
frozen at their achieved gain, so the current solution stays feasible
for every later stage and stage objectives never increase.  Every stage
freezes at least one row, hence at most sum_p |A_p| stages run.  Rows
that are identically zero (e.g. a player with a single strategy) are
frozen at 0 up front; their pinned equations are vacuous, so this
changes nothing except the stage count.

Each stage LP has one row per (player, strategy) but one column per
joint profile, so it is solved over a working set of joint columns (a
restricted master LP).  The set starts as the ``WORKING_SET_PER_ROW``
times num_rows joints whose largest constraint value is smallest.  After
each solve every joint is priced with one product of the LP duals (of the
unfrozen rows, the pins and the simplex row) with the constraint matrix;
up to ``PRICING_BATCH_PER_ROW`` times num_rows joints whose reduced cost
is below ``-PRICING_TOL`` join the set and the LP is solved again.  The
stage ends when no joint outside the set prices negative, so its
optimum is that of the LP over all joints.  The set only grows, so the
previous stage's solution stays feasible for the pins.  A game with no
more joints than the initial width is solved over every joint at once.

A stage needs no LP once the pins fix every unfrozen row.  The frozen
rows that enter the LP as pins are kept as an orthonormal basis, with
the simplex row orthogonalized against it.  An unfrozen row that lies in
the span of the pins and the simplex row has the same gain at every
distribution that meets the pins.  How far its gain can move is bounded
by the max minus min of its residual outside that span.  When that bound
is at most ``FIXED_GAIN_TOL`` times ``active_tol`` for every unfrozen
row, the remaining stages freeze rows from the gains at the last LP
solution, with no further LP.  Such stages still count as stages and get
freeze records.  This is common because constraint rows have far lower
rank than their count: a row of a score-table game depends on the joint
only through the task marginal, and a 16-row 8×8 meta-game of a 3×3 game
has rank 6.

Each stage LP is passed once to one HiGHS solver object per rating, as
the same model scipy's ``method="highs"`` LP wrapper would build, so it
skips scipy's per-call option parsing.  A solve that is not optimal, or
whose solution misses its constraints, raises a typed ``RatingError``.

Constraints are divided by the game's payoff spread before solving and
results are scaled back; the factor is global, so exact cross-player ties
survive.  ``rate_reduced`` runs the same loop on the constraint system
with duplicate joint columns merged.

Ratings are invariant to cloning, mixing, payoff offsets, and strategy
relabeling, and never exceed 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp  # noqa: F401  perfbench/tracing.py times sparse assembly through this binding
from scipy.optimize import linprog  # noqa: F401  perfbench/tracing.py raises TraceError unless this is bound

try:
    from scipy.optimize._highspy._core import (
        HighsDebugLevel,
        HighsLp,
        HighsModelStatus,
        HighsOptions,
        HighsStatus,
        MatrixFormat,
        _Highs,
        kHighsInf,
        simplex_constants,
    )
except ImportError as exc:
    raise ImportError(
        "devrating needs scipy>=1.15.0, whose scipy.optimize._highspy._core "
        "provides the HiGHS solver object the stage LPs are passed to"
    ) from exc

from .cce import (
    JointDistribution,
    ReducedConstraintSystem,
    cce_constraint_matrix,
    dedup_joints,
    deviation_gains,
    verify_cce,
)
from .games import NormalFormGame, symmetrize_payoffs

__all__ = [
    "RatingError",
    "RatingInfeasibleError",
    "StageBudgetError",
    "SolverConfig",
    "FreezeRecord",
    "RatingResult",
    "RatingCertificate",
    "detect_active",
    "deviation_rating",
    "rate_reduced",
    "rating_certificate",
    "result_to_dict",
    "save_result",
]


# Working-set width per constraint row, pricing batch per constraint row,
# and the reduced cost below which a joint prices negative.
WORKING_SET_PER_ROW = 4
PRICING_BATCH_PER_ROW = 1
PRICING_TOL = 1e-9
# A row whose gain can move by at most this fraction of active_tol while
# the pins hold is fixed, and a stage whose rows are all fixed needs no LP.
FIXED_GAIN_TOL = 1e-3
# How far a stage LP solution may miss its bounds and rows before it is
# rejected: scipy's post-solve check, its default tol of 1e-9 widened as
# scipy's _check_result widens it.
RESIDUAL_TOL = np.sqrt(1e-9) * 10


class RatingError(Exception):
    """The rating engine failed to produce a result.

    When a stage LP failed, ``model_status`` is its HiGHS model status,
    which is also in the message.  Otherwise it is None.
    """

    def __init__(self, message: str, model_status: str | None = None):
        if model_status is not None:
            message += f" (HiGHS model status {model_status!r})"
        super().__init__(message)
        self.model_status = model_status


class RatingInfeasibleError(RatingError):
    """A stage LP with pinned constraints reported infeasibility.

    Pinned values are gains achieved by the previous stage's solution, so
    this indicates solver failure rather than a genuinely empty system.
    ``frozen`` maps each pinned row to its pinned value.
    """

    def __init__(self, message: str, frozen: dict, model_status: str | None = None):
        super().__init__(message, model_status)
        self.frozen = frozen


class StageBudgetError(RatingError):
    """More stages ran than there are constraint rows."""


@dataclass(frozen=True)
class SolverConfig:
    """Tolerance of the rating engine.

    active_tol   half-width of the tie band around a stage optimum,
                 relative to the payoff spread
    """

    active_tol: float = 1e-8


@dataclass(frozen=True)
class FreezeRecord:
    """One stage of the engine: which rows froze and at what objective."""

    stage: int
    rows: tuple[tuple[str, str], ...]
    objective: float


@dataclass(frozen=True)
class RatingResult:
    players: tuple[str, ...]
    strategies: tuple[tuple[str, ...], ...]
    ratings: tuple[np.ndarray, ...]
    equilibrium: JointDistribution
    freeze_log: tuple[FreezeRecord, ...]
    stage_count: int

    def rating(self, player, strategy) -> float:
        p = self.players.index(player) if isinstance(player, str) else int(player)
        if isinstance(strategy, str):
            i = self.strategies[p].index(strategy)
        else:
            i = int(strategy)
        return float(self.ratings[p][i])

    def by_label(self) -> dict[str, dict[str, float]]:
        return {
            player: {
                s: float(self.ratings[p][i])
                for i, s in enumerate(self.strategies[p])
            }
            for p, player in enumerate(self.players)
        }


def _lp_rows(values: np.ndarray) -> np.ndarray:
    """Every row a stage LP can use, over the columns (sigma, t): the
    constraint rows with coefficient -1 on t, the simplex row, then the
    constraint rows again with 0 on t (the pins).  ``values`` holds the
    working-set columns of the constraint matrix; the block is rebuilt
    when the set grows, and each solve takes its A_ub and A_eq as row
    slices of it."""
    num_rows = values.shape[0]
    block = np.zeros((2 * num_rows + 1, values.shape[1] + 1))
    block[:num_rows, :-1] = values
    block[:num_rows, -1] = -1.0
    block[num_rows, :-1] = 1.0
    block[num_rows + 1 :, :-1] = values
    return block


def _new_highs() -> _Highs:
    """A HiGHS solver with the options scipy's ``method="highs"`` sets."""
    highs = _Highs()
    options = HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = simplex_constants.SimplexStrategy.kSimplexStrategyDual
    highs.passOptions(options)
    return highs


def _stage_lp(highs: _Highs, lp_rows: np.ndarray, unfrozen: np.ndarray, frozen_rows: np.ndarray, frozen_vals: np.ndarray):
    """Minimize t subject to the ``unfrozen`` rows of ``_lp_rows`` being
    <= 0, the simplex row equal to 1 and the pins of ``frozen_rows`` equal
    to ``frozen_vals``, with every column but t nonnegative.  HiGHS gets
    the model that scipy's ``method="highs"`` builds from the same arrays,
    so it returns the same vertex.  Returns (raw sigma, objective,
    row duals in the order unfrozen rows, simplex row, pins)."""
    num_rows = (lp_rows.shape[0] - 1) // 2
    num_ub = unfrozen.size
    rows = lp_rows[np.concatenate((unfrozen, [num_rows], num_rows + 1 + frozen_rows))]
    b_eq = np.append(1.0, frozen_vals)
    m, n = rows.shape
    # every vector but the cost converts to HiGHS faster from a list
    lp = HighsLp()
    lp.num_col_ = n
    lp.num_row_ = m
    lp.col_cost_ = np.append(np.zeros(n - 1), 1.0)
    lp.col_lower_ = [0.0] * (n - 1) + [-kHighsInf]
    lp.col_upper_ = [kHighsInf] * n
    lp.row_lower_ = [-kHighsInf] * num_ub + b_eq.tolist()
    lp.row_upper_ = [0.0] * num_ub + b_eq.tolist()
    # compressed columns with zeros dropped and row indices sorted, as
    # scipy.sparse.csc_array builds them from a dense array
    cols, index = np.nonzero(rows.T)
    matrix = lp.a_matrix_
    matrix.format_ = MatrixFormat.kColwise
    matrix.num_col_ = n
    matrix.num_row_ = m
    matrix.start_ = np.append(0, np.cumsum(np.bincount(cols, minlength=n))).tolist()
    matrix.index_ = index.tolist()
    matrix.value_ = rows[index, cols].tolist()
    if highs.passModel(lp) == HighsStatus.kError:
        status = HighsModelStatus.kModelError
    elif highs.run() == HighsStatus.kError and highs.getModelStatus() == HighsModelStatus.kOptimal:
        # a failed run never counts as a solution
        status = HighsModelStatus.kSolveError
    else:
        status = highs.getModelStatus()
    model_status = highs.modelStatusToString(status)
    if status == HighsModelStatus.kInfeasible:
        raise RatingInfeasibleError(
            f"stage LP infeasible with {frozen_rows.size} pinned rows",
            {int(r): float(v) for r, v in zip(frozen_rows, frozen_vals)},
            model_status,
        )
    if status != HighsModelStatus.kOptimal:
        raise RatingError(f"stage LP failed with {frozen_rows.size} pinned rows", model_status)
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    objective = highs.getInfo().objective_function_value
    slack = np.append(np.zeros(num_ub), b_eq) - np.array(solution.row_value)
    if (
        np.isnan(x).any()
        or np.isnan(objective)
        or np.isnan(slack).any()
        or (x[:-1] < -RESIDUAL_TOL).any()
        or (slack[:num_ub] < -RESIDUAL_TOL).any()
        or (np.abs(slack[num_ub:]) > RESIDUAL_TOL).any()
    ):
        raise RatingError(
            f"stage LP solution with {frozen_rows.size} pinned rows misses its "
            f"constraints by more than {RESIDUAL_TOL:.2e}",
            model_status,
        )
    return x[:-1], float(objective), np.array(solution.row_dual)


def _entering_joints(values: np.ndarray, row_prices: np.ndarray, simplex_price: float, working: np.ndarray) -> np.ndarray:
    """Joints outside ``working`` whose reduced cost -(row_prices @ column)
    - simplex_price is below -PRICING_TOL, most negative first, at most
    PRICING_BATCH_PER_ROW per constraint row."""
    reduced = -(row_prices @ values) - simplex_price
    reduced[working] = np.inf
    candidates = np.flatnonzero(reduced < -PRICING_TOL)
    order = np.argsort(reduced[candidates], kind="stable")
    return candidates[order[: PRICING_BATCH_PER_ROW * values.shape[0]]]


def _sanitize(sigma_raw: np.ndarray) -> np.ndarray:
    """Clip solver noise below 0 and renormalize to an exact unit sum."""
    sigma = np.clip(sigma_raw, 0.0, None)
    total = sigma.sum()
    if total <= 0.0:
        raise RatingError("stage LP returned a zero distribution")
    return sigma / total


def detect_active(row_gains: np.ndarray, objective: float, *, config: SolverConfig = SolverConfig(), frozen: frozenset | set = frozenset()) -> tuple[int, ...]:
    """Rows to freeze after a stage: every unfrozen row whose gain lies
    within ``active_tol`` of the objective; falls back to the argmax row
    so at least one row always freezes.  Ties freeze together, which is
    what keeps exact duplicates (clones) at identical ratings."""
    active = {
        i
        for i in range(row_gains.size)
        if i not in frozen and abs(row_gains[i] - objective) <= config.active_tol
    }
    if not active:
        candidates = [i for i in range(row_gains.size) if i not in frozen]
        active = {max(candidates, key=lambda i: row_gains[i])}
    return tuple(sorted(active))


class _PinBasis:
    """Incrementally selected linearly independent subset of frozen rows,
    kept as an orthonormal basis of their span.

    A frozen row that lies in the span of already-pinned rows carries no
    new information: its gain is a fixed linear combination of the pinned
    gains at every joint distribution.  Keeping such rows as explicit LP
    equalities only injects the accumulated floating-point drift between
    stages, which can make the solver reject an (exactly redundant) pin
    system as infeasible.  Only basis rows are therefore passed to the
    stage LPs.

    The basis is preallocated for ``capacity`` rows, and it keeps the
    simplex direction orthogonalized against the pins, so that ``fixes``
    can tell when the pins leave no gain free to move."""

    def __init__(self, capacity: int, num_joints: int):
        self._q = np.empty((capacity, num_joints))
        self._size = 0
        self.rows: list[int] = []
        # unit simplex direction orthogonal to the pins; None once in their span
        self._ones: np.ndarray | None = np.full(num_joints, num_joints**-0.5)
        self._fixed: set[int] = set()
        self._not_fixed: dict[int, int] = {}  # row -> basis size when checked

    def _residual(self, vector: np.ndarray) -> np.ndarray:
        """``vector`` minus its projection onto the basis (two passes)."""
        v = np.array(vector, dtype=float)
        if self._size:
            q = self._q[: self._size]
            v -= (q @ v) @ q
            v -= (q @ v) @ q
        return v

    def try_add(self, index: int, vector: np.ndarray, rel_tol: float = 1e-9) -> bool:
        norm = float(np.linalg.norm(vector))
        if norm == 0.0:
            return False
        v = self._residual(vector)
        residual = float(np.linalg.norm(v))
        if residual <= rel_tol * norm:
            return False
        self._q[self._size] = v / residual
        self._size += 1
        self.rows.append(index)
        if self._ones is not None:
            ones = self._residual(self._ones)
            length = float(np.linalg.norm(ones))
            self._ones = ones / length if length > rel_tol else None
        return True

    def fixes(self, values: np.ndarray, rows: Sequence[int], tol: float) -> bool:
        """Whether every row of ``values`` listed in ``rows`` lies in the
        span of the pins and the simplex row, up to a residual whose max
        minus min is at most ``tol``.  That spread bounds how far the
        row's gain can move over the distributions that meet the pins.
        A row found fixed stays fixed, as pins are never removed; a row
        found not fixed is checked again only after the basis grows."""
        q = self._q[: self._size]
        for i in rows:
            if i in self._fixed:
                continue
            if self._not_fixed.get(i) == self._size:
                return False
            r = values[i] - (q @ values[i]) @ q
            if self._ones is not None:
                r -= (self._ones @ r) * self._ones
            if r.max() - r.min() > tol:
                self._not_fixed[i] = self._size
                return False
            self._fixed.add(i)
        return True


def _rate(game: NormalFormGame, config: SolverConfig, reduced: ReducedConstraintSystem | None = None) -> RatingResult:
    """Run the freezing loop on the constraint matrix of ``game``, or on
    ``reduced``, its deduplicated form, whose equilibrium is expanded
    back to the full joint space."""
    matrix = cce_constraint_matrix(game) if reduced is None else reduced.matrix
    factor = game.payoff_spread() or 1.0
    values = matrix.values / factor
    num_rows, num_joints = values.shape
    labels = [(game.players[p], game.strategies[p][i]) for p, i in matrix.row_keys]
    ratings = np.full(num_rows, np.nan)
    frozen: set[int] = set()
    basis = _PinBasis(num_rows, num_joints)
    log: list[FreezeRecord] = []

    def record(stage: int, rows: tuple[int, ...], objective: float) -> None:
        log.append(FreezeRecord(stage, tuple(labels[i] for i in rows), objective * factor))

    zero_rows = tuple(int(i) for i in np.flatnonzero(~values.any(axis=1)))
    if zero_rows:
        ratings[list(zero_rows)] = 0.0
        frozen.update(zero_rows)
        record(0, zero_rows, 0.0)

    # the joints whose largest constraint value is smallest, in column order
    working = np.sort(np.argsort(values.max(axis=0), kind="stable")[: WORKING_SET_PER_ROW * num_rows])
    lp_rows = _lp_rows(values[:, working])
    sigma = np.full(num_joints, 1.0 / num_joints)
    highs = _new_highs()
    stage = 0
    while len(frozen) < num_rows:
        stage += 1
        if stage > num_rows:
            raise StageBudgetError(
                f"exceeded stage budget {num_rows} with {num_rows - len(frozen)} rows left"
            )
        unfrozen = np.array(sorted(set(range(num_rows)) - frozen), dtype=int)
        if basis.rows and basis.fixes(values, unfrozen.tolist(), FIXED_GAIN_TOL * config.active_tol):
            # every distribution that meets the pins gives each unfrozen row
            # the same gain, so the gains of the last LP solution stand for all
            objective = float(gains[unfrozen].max())
            active = detect_active(gains, objective, config=config, frozen=frozenset(frozen))
        else:
            frozen_rows = np.array(basis.rows, dtype=int)
            frozen_vals = ratings[frozen_rows] if frozen_rows.size else np.empty(0)
            while True:
                sigma_raw, objective, row_dual = _stage_lp(highs, lp_rows, unfrozen, frozen_rows, frozen_vals)
                if working.size == num_joints:
                    break
                row_prices = np.zeros(num_rows)
                row_prices[unfrozen] = row_dual[: unfrozen.size]
                row_prices[frozen_rows] = row_dual[unfrozen.size + 1 :]
                entering = _entering_joints(values, row_prices, row_dual[unfrozen.size], working)
                if not entering.size:
                    break
                working = np.union1d(working, entering)
                lp_rows = _lp_rows(values[:, working])
            sigma = np.zeros(num_joints)
            sigma[working] = _sanitize(sigma_raw)
            gains = values @ sigma
            active = detect_active(gains, objective, config=config, frozen=frozenset(frozen))
            for i in active:
                basis.try_add(i, values[i])
        ratings[list(active)] = gains[list(active)]
        frozen.update(active)
        record(stage, active, objective)

    scaled = ratings * factor
    scaled.setflags(write=False)
    return RatingResult(
        players=game.players,
        strategies=game.strategies,
        ratings=tuple(np.split(scaled, np.cumsum(game.shape)[:-1])),
        equilibrium=JointDistribution(sigma if reduced is None else reduced.expand(sigma)),
        freeze_log=tuple(log),
        stage_count=stage,
    )


def deviation_rating(game: NormalFormGame, config: SolverConfig = SolverConfig()) -> RatingResult:
    """Rate every strategy of ``game`` by its deviation gain at the
    strictest reachable coarse-correlated equilibrium."""
    return _rate(game, config)


def rate_reduced(game: NormalFormGame, config: SolverConfig = SolverConfig(), symmetrize: Sequence[tuple] = ()) -> RatingResult:
    """Deviation ratings computed on the deduplicated constraint system.

    ``symmetrize`` lists player pairs to symmetrize first (a no-op when
    the game is already symmetric in those pairs).  The returned
    equilibrium is expanded back to the full joint space.
    """
    for p, q in symmetrize:
        game = symmetrize_payoffs(game, p, q)
    return _rate(game, config, dedup_joints(cce_constraint_matrix(game)))


@dataclass(frozen=True)
class RatingCertificate:
    """Self-check of a rating run, recomputed from the equilibrium.

    Discrepancies are reported here rather than raised; ``ok`` applies
    the default tolerances.
    """

    epsilon: float
    max_gain_error: float
    objectives_non_increasing: bool
    stage_count: int
    stage_bound: int

    def ok(self, epsilon_tol: float = 1e-7, gain_tol: float = 1e-6) -> bool:
        return (
            self.epsilon <= epsilon_tol
            and self.max_gain_error <= gain_tol
            and self.objectives_non_increasing
            and self.stage_count <= self.stage_bound
        )

    def to_dict(self) -> dict:
        return {
            "epsilon": float(self.epsilon),
            "max_gain_error": float(self.max_gain_error),
            "objectives_non_increasing": bool(self.objectives_non_increasing),
            "stage_count": int(self.stage_count),
            "stage_bound": int(self.stage_bound),
        }


def rating_certificate(game: NormalFormGame, result: RatingResult) -> RatingCertificate:
    """Recompute deviation gains at the reported equilibrium and compare
    them with the ratings; also check the freeze-log invariants."""
    gains = deviation_gains(game, result.equilibrium)
    check = verify_cce(game, result.equilibrium, epsilon=0.0)
    max_err = max(
        float(np.max(np.abs(g - r))) for g, r in zip(gains, result.ratings)
    )
    objectives = [rec.objective for rec in result.freeze_log if rec.stage > 0]
    monotone = all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:]))
    return RatingCertificate(
        epsilon=check.worst_gain,
        max_gain_error=max_err,
        objectives_non_increasing=monotone,
        stage_count=result.stage_count,
        stage_bound=sum(game.shape),
    )


def result_to_dict(result: RatingResult, certificate: RatingCertificate | None = None) -> dict:
    """JSON form: ratings keyed by player and strategy, the equilibrium as
    a flat row-major array, the freeze log, and the certificate."""
    return {
        "ratings": result.by_label(),
        "equilibrium": [float(x) for x in result.equilibrium.probs],
        "freeze_log": [
            {
                "stage": rec.stage,
                "rows": [[p, s] for p, s in rec.rows],
                "objective": float(rec.objective),
            }
            for rec in result.freeze_log
        ],
        "certificate": certificate.to_dict() if certificate is not None else None,
    }


def save_result(path, result: RatingResult, certificate: RatingCertificate | None = None) -> None:
    import json

    text = json.dumps(result_to_dict(result, certificate), indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
