"""Deviation ratings via iterative tightening of CCE deviation constraints.

The rating of a strategy is its deviation gain at the strictest
coarse-correlated equilibrium found by repeatedly minimizing the largest
gain that is still free to move.  Each stage solves one LP over the
joint-distribution simplex:

    minimize   t
    subject to A_u @ sigma <= t          (rows not yet frozen)
               A_f @ sigma <= r_f        (rows frozen at earlier stages)
               sigma in the simplex

A stage freezes the rows that are tight at every optimum of its LP, at
their gain at the solution found, so stage objectives never increase and
the rating does not depend on which optimal vertex the solver returns.
Since a frozen row is tight on the whole optimal face, ``<= r_f`` admits
the same later optima as ``== r_f`` would, and unlike equations it keeps
the previous solution's basis usable.  The candidates are the rows whose
gain is within ``active_tol`` of the optimum t*.  A candidate with a
nonzero row dual is tight at every optimum by complementary slackness.
So is a candidate that the pins and those rows fix (see below), as its
gain is the same all over the optimal face: tightness is settled by this
span test before any LP.  Only the rest are tested on the optimal face
(t fixed at t*) by minimizing the sum of their gains: each whose gain
there is below t* - ``active_tol`` is released, and the rest are tested
again until none is released.  The duals of the unfrozen rows sum to -1
(t has cost 1 and reduced cost 0), so some candidate has a nonzero dual:
every stage freezes at least one row, hence at most sum_p |A_p| stages
run, and a sole candidate freezes with no further LP.  Rows that are
identically zero (e.g. a player with a single strategy) are frozen at 0
up front; their rows are vacuous, so this changes nothing except the
stage count.

Each stage LP has one row per (player, strategy) but one column per
joint profile, so it is solved over a working set of joint columns (a
restricted master LP).  The set starts as the ``WORKING_SET_PER_ROW``
times num_rows joints whose largest constraint value is smallest.  After
each solve every live joint is priced with one product of the row duals
with the constraint matrix; up to ``PRICING_BATCH_PER_ROW`` times
num_rows joints whose reduced cost is below ``-PRICING_TOL`` join the
set and the LP is solved again.  A solve ends when no joint outside the
set prices negative, so its optimum is that of the LP over all joints.
The set only grows, so the previous stage's solution stays feasible.  A
game with no more joints than the initial width is solved over every
joint at once.

The optima of each stage lie on the optimal face of the stage before it:
a stage only adds ``<=`` rows at values the previous optimum reached,
and its optimum never exceeds the previous one.  So a joint whose
reduced cost at a stage LP's duals is above ``PRICING_TOL`` is 0 at
every optimum of that stage and of every later one, by the same
complementary slackness that makes a row with a nonzero dual tight.
Such a joint retires for the rest of the rating: pricing skips it, and
its working-set column, nonbasic at 0, is bounded above by 0, which
keeps the basis valid.  Every later solve, tightness test and span test
runs on the joints still live.

A stage needs no LP once the frozen rows (the pins) fix every unfrozen
row.  An unfrozen row that lies in the span of the pins and the simplex
row on the live joints has the same gain at every distribution on the
live joints that meets the pins.  How far its gain can move is bounded by
the max minus min of its residual outside that span.  The span test
(``_fixed``) builds an orthonormal basis of that span afresh on each
call, from the simplex row and the pins that are independent on the
joints live at the time, and projects all the rows it tests at once.
When the bound is at most ``FIXED_GAIN_TOL`` times ``active_tol`` for
every unfrozen row, the remaining stages freeze rows from the gains at
the last LP solution, with no further LP.  A row found fixed stays
fixed, so from then on every stage is LP-free, and they run in one pass
over the unfrozen rows sorted by that gain: each freezes the rows within
``active_tol`` of the largest gain left, the band rule of
``detect_active``.  Such stages still count as stages and get freeze
records.  This is common because constraint rows have far lower rank
than their count: a row of a score-table game depends on the joint only
through the task marginal, and a 16-row 8×8 meta-game of a 3×3 game has
rank 6.

Every LP of a rating is solved on one HiGHS model, changed in place:
pricing adds columns, retiring a joint bounds its column, freezing a row
changes its coefficient on t and its bound, and the tightness test
changes the costs and the bounds of t.  HiGHS keeps its basis across
these changes, so every solve after the first starts from the previous
optimum, which skips presolve.  The first solve does not presolve
either: it is over the small initial working set, where presolve costs
more than it saves.  A solve that is not optimal, or whose solution
misses its constraints, raises a typed ``RatingError``.

Constraints are divided by the game's payoff spread before solving and
results are scaled back; the factor is global, so exact cross-player ties
survive.  ``rate_reduced`` runs the same loop on the constraint system
with duplicate joint columns merged.

Ratings are invariant to cloning, payoff offsets, and strategy
relabeling, and never exceed 0.  They are invariant to mixing on generic
games; with tied payoffs, adding a mixture can change which rows are
tight at every optimum, and so the ratings.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp  # noqa: F401  perfbench/tracing.py times sparse assembly through this binding
from scipy.optimize import linprog  # noqa: F401  perfbench/tracing.py raises TraceError unless this is bound

try:
    from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs, kHighsInf
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
    """A stage LP with frozen rows reported infeasibility.

    Frozen bounds are gains achieved by an earlier stage's solution, so
    this indicates solver failure rather than a genuinely empty system.
    ``frozen`` maps each frozen row to its bound.
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

    def __post_init__(self):
        # the tie band around a stage optimum must hold the row at the optimum
        if not (np.isfinite(self.active_tol) and self.active_tol >= 0):
            raise ValueError(f"active_tol must be finite and >= 0, got {self.active_tol!r}")


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


def _new_highs() -> _Highs:
    """A silent HiGHS solver that never presolves: every solve but the
    first starts from the previous basis, which skips presolve, and on the
    first, over the small initial working set, presolve costs more than it
    saves.  The other options keep their HiGHS defaults, among them the
    dual simplex."""
    highs = _Highs()
    # one call per option costs less than building a HighsOptions
    highs.setOptionValue("presolve", "off")
    highs.setOptionValue("log_to_console", False)
    highs.setOptionValue("output_flag", False)
    return highs


class _StageModel:
    """The one HiGHS model of a rating, changed in place between solves so
    that HiGHS keeps its basis.

    Column 0 is t and the others are the ``working`` joints, in the order
    they joined.  Row i is constraint row i, ``values[i] @ sigma - t <= 0``
    while unfrozen and ``values[i] @ sigma <= r`` once frozen at r; the
    last row is the simplex row.  The cost of t is 1 and the cost of a
    joint column is ``weights @ values`` at that joint: zero for a stage
    LP, the indicator of the rows whose sum ``tight_rows`` minimizes.
    ``live`` lists the joints not retired, in joint order; a retired
    working-set column has upper bound 0."""

    def __init__(self, values: np.ndarray, working: np.ndarray):
        num_rows = values.shape[0]
        self._values = values
        self._highs = _new_highs()
        self._weights = np.zeros(num_rows)
        self._upper = np.zeros(num_rows)
        self.working = np.empty(0, dtype=int)
        self.live = np.arange(values.shape[1])
        self._live_values = values
        self._column = np.zeros(values.shape[1], dtype=np.int32)  # model column of a working joint, else 0
        self.frozen: dict[int, float] = {}
        self._check(self._highs.addRows(
            num_rows + 1,
            np.append(np.full(num_rows, -kHighsInf), 1.0),
            np.append(np.zeros(num_rows), 1.0),
            0,
            np.zeros(num_rows + 1, dtype=np.int32),
            np.empty(0, dtype=np.int32),
            np.empty(0),
        ))
        self._check(self._highs.addCols(
            1, np.ones(1), np.full(1, -kHighsInf), np.full(1, kHighsInf),
            num_rows, np.zeros(1, dtype=np.int32), np.arange(num_rows, dtype=np.int32), np.full(num_rows, -1.0),
        ))
        self._add(working)

    def _check(self, status: HighsStatus) -> None:
        if status == HighsStatus.kError:
            raise RatingError(
                "HiGHS rejected a change to the stage LP",
                self._highs.modelStatusToString(HighsModelStatus.kModelError),
            )

    def _add(self, joints: np.ndarray) -> None:
        """Append ``joints`` as columns: their constraint values and a 1 in
        the simplex row, compressed with zeros dropped."""
        block = np.vstack((self._values[:, joints], np.ones(joints.size)))
        cols, index = np.nonzero(block.T)
        self._check(self._highs.addCols(
            joints.size,
            self._weights @ block[:-1],
            np.zeros(joints.size),
            np.full(joints.size, kHighsInf),
            index.size,
            np.searchsorted(cols, np.arange(joints.size)).astype(np.int32),
            index.astype(np.int32),
            block[index, cols],
        ))
        self._column[joints] = np.arange(self.working.size + 1, self.working.size + joints.size + 1)
        self.working = np.concatenate((self.working, joints))

    def _set_weights(self, weights: np.ndarray) -> None:
        self._weights = weights
        size = self.working.size
        self._check(self._highs.changeColsCost(
            size, np.arange(1, size + 1, dtype=np.int32), weights @ self._values[:, self.working]
        ))

    def freeze(self, rows, bounds) -> None:
        """Turn each of ``rows`` into ``values[i] @ sigma <= bound``."""
        for i, bound in zip(rows, bounds):
            self._highs.changeCoeff(int(i), 0, 0.0)
            self._highs.changeRowBounds(int(i), -kHighsInf, float(bound))
            self.frozen[int(i)] = self._upper[i] = float(bound)

    def retire(self, reduced: np.ndarray) -> None:
        """Retire the live joints whose reduced cost ``reduced`` (in
        ``live`` order, at a stage LP optimum) is above ``PRICING_TOL``:
        each is 0 at every optimum of that stage, and so of every later
        one.  A retired working-set column is nonbasic at 0, so bounding
        it above by 0 keeps the basis valid."""
        dead = reduced > PRICING_TOL
        if not dead.any():
            return
        cols = self._column[self.live[dead]]
        cols = cols[cols > 0]
        self._check(self._highs.changeColsBounds(cols.size, cols, np.zeros(cols.size), np.zeros(cols.size)))
        self.live = self.live[~dead]
        self._live_values = self._values[:, self.live]

    def _run(self) -> tuple[np.ndarray, float, np.ndarray]:
        """Solve the model as it stands.  Returns (raw sigma over the
        working set, t, row duals in row order); t is the optimum of a
        stage LP, whose only cost is on t."""
        highs = self._highs
        if highs.run() == HighsStatus.kError and highs.getModelStatus() == HighsModelStatus.kOptimal:
            # a failed run never counts as a solution
            status = HighsModelStatus.kSolveError
        else:
            status = highs.getModelStatus()
        model_status = highs.modelStatusToString(status)
        if status == HighsModelStatus.kInfeasible:
            raise RatingInfeasibleError(
                f"stage LP infeasible with {len(self.frozen)} frozen rows", dict(self.frozen), model_status
            )
        if status != HighsModelStatus.kOptimal:
            raise RatingError(f"stage LP failed with {len(self.frozen)} frozen rows", model_status)
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        activity = np.array(solution.row_value)
        if (
            np.isnan(x).any()
            or np.isnan(activity).any()
            or (x[1:] < -RESIDUAL_TOL).any()
            or (activity[:-1] - self._upper > RESIDUAL_TOL).any()
            or abs(activity[-1] - 1.0) > RESIDUAL_TOL
        ):
            raise RatingError(
                f"stage LP solution with {len(self.frozen)} frozen rows misses its "
                f"constraints by more than {RESIDUAL_TOL:.2e}",
                model_status,
            )
        return x[1:], float(x[0]), np.array(solution.row_dual)

    def solve(self) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
        """Solve, adding the live joints that price negative until none
        does, so the optimum is that of the LP over every live joint.
        Returns what ``_run`` returns for the last solve and the reduced
        cost -(row duals @ column) - simplex dual of every live joint."""
        while True:
            x, objective, row_dual = self._run()
            reduced = -((row_dual[:-1] - self._weights) @ self._live_values) - row_dual[-1]
            entering = np.flatnonzero((reduced < -PRICING_TOL) & (self._column[self.live] == 0))
            if not entering.size:
                return x, objective, row_dual, reduced
            # most negative first, at most PRICING_BATCH_PER_ROW per constraint row
            order = np.argsort(reduced[entering], kind="stable")
            self._add(self.live[entering[order[: PRICING_BATCH_PER_ROW * self._values.shape[0]]]])

    def tight_rows(self, band: Sequence[int], objective: float, row_dual: np.ndarray, tol: float) -> tuple[int, ...]:
        """The rows of ``band`` that are tight at every optimum of the stage
        LP just solved, whose optimum is ``objective`` and row duals
        ``row_dual``.  A row with a nonzero dual is, by complementary
        slackness; a band of one row always holds such a row.  A row that
        the frozen rows, these rows and the simplex row fix (``_fixed``)
        has the same gain all over the optimal face, so it is tight there
        too.  The others are tested by minimizing their sum over the
        optimal face (t fixed at the optimum); each whose gain there is
        below ``objective - tol`` is released, and the rest are tested
        again until none is released."""
        band = np.array(band, dtype=int)
        # a row's dual is the reduced cost of its slack
        tight = np.abs(row_dual[band]) > PRICING_TOL
        if not tight.all():
            pins = [*self.frozen, *band[tight].tolist()]
            tight[~tight] = _fixed(self._values, pins, self.live, band[~tight], FIXED_GAIN_TOL * tol)
        candidates = band[~tight]
        if candidates.size:
            self._highs.changeColBounds(0, objective, objective)
            while candidates.size:
                weights = np.zeros(self._values.shape[0])
                weights[candidates] = 1.0
                self._set_weights(weights)
                x = self.solve()[0]
                kept = self._values[candidates][:, self.working] @ x >= objective - tol
                if kept.all():
                    break
                candidates = candidates[kept]
            self._set_weights(np.zeros(self._values.shape[0]))
            self._highs.changeColBounds(0, -kHighsInf, kHighsInf)
        return tuple(sorted(band[tight].tolist() + candidates.tolist()))


def _sanitize(sigma_raw: np.ndarray) -> np.ndarray:
    """Clip solver noise below 0 and renormalize to an exact unit sum."""
    sigma = np.clip(sigma_raw, 0.0, None)
    total = sigma.sum()
    if total <= 0.0:
        raise RatingError("stage LP returned a zero distribution")
    return sigma / total


def _in_band(gains: np.ndarray, top: float, tol: float) -> np.ndarray:
    """The tie rule: which of ``gains`` lie within ``tol`` of ``top``."""
    return np.abs(gains - top) <= tol


def detect_active(row_gains: np.ndarray, objective: float, *, config: SolverConfig = SolverConfig(), frozen: frozenset | set = frozenset()) -> tuple[int, ...]:
    """The candidates to freeze after a stage: every unfrozen row whose
    gain lies within ``active_tol`` of the objective, or else the argmax
    row.  Ties are candidates together, which is what keeps exact
    duplicates (clones) at identical ratings."""
    free = np.ones(row_gains.size, dtype=bool)
    free[list(frozen)] = False
    active = np.flatnonzero(free & _in_band(row_gains, objective, config.active_tol))
    if not active.size:
        candidates = np.flatnonzero(free)
        active = candidates[[np.argmax(row_gains[candidates])]]
    return tuple(active.tolist())


def _tail_stages(gains: np.ndarray, rows: Sequence[int], tol: float) -> list[tuple[float, tuple[int, ...]]]:
    """The (objective, rows) of each stage that freezes ``rows`` at fixed
    ``gains``, in one pass: the stages repeated ``detect_active`` gives
    with each objective the largest gain left.  In the rows sorted by
    gain, each band is the rows within ``tol`` of its first, a prefix of
    the rows left since the sort is descending."""
    rows = np.asarray(rows, dtype=int)
    order = rows[np.argsort(-gains[rows], kind="stable")]
    ordered = gains[order]
    stages = []
    start = 0
    while start < order.size:
        end = start + int(np.count_nonzero(_in_band(ordered[start:], ordered[start], tol)))
        stages.append((float(ordered[start]), tuple(sorted(order[start:end].tolist()))))
        start = end
    return stages


def _fixed(values: np.ndarray, pins: Sequence[int], live: np.ndarray, rows: Sequence[int], tol: float) -> np.ndarray:
    """Which of ``rows`` the ``pins`` fix on the ``live`` joints, as a
    boolean mask: which lie in the span of the pins and the simplex row
    there, up to a residual whose max minus min is at most ``tol``.  That
    spread bounds how far the row's gain can move over the distributions
    on the live joints that meet the pins.

    The span gets an orthonormal basis by Gram-Schmidt, the simplex row
    first and then each pin in order.  A pin joins only if its residual
    outside the basis is not negligible against its norm, a rank-revealing
    step: pins that are zero, repeated, or dependent on the live joints
    drop out."""
    q = np.empty((len(pins) + 1, live.size))
    q[0] = live.size**-0.5
    rank = 1
    for vector in values[np.ix_(pins, live)]:
        basis = q[:rank]
        # two passes, so the residual is orthogonal to the basis
        v = vector - (basis @ vector) @ basis
        v -= (basis @ v) @ basis
        residual = np.sqrt(v @ v)
        if residual > 1e-9 * np.sqrt(vector @ vector):
            q[rank] = v / residual
            rank += 1
    basis = q[:rank]
    r = values[np.ix_(rows, live)]
    r -= (r @ basis.T) @ basis
    return r.max(axis=1) - r.min(axis=1) <= tol


def _rate(game: NormalFormGame, config: SolverConfig, reduced: ReducedConstraintSystem | None = None) -> RatingResult:
    """Run the freezing loop on the constraint matrix of ``game``, or on
    ``reduced``, its deduplicated form, whose equilibrium is expanded
    back to the full joint space."""
    matrix = cce_constraint_matrix(game) if reduced is None else reduced.matrix
    factor = game.payoff_spread() or 1.0
    values = matrix.values / factor
    num_rows, num_joints = values.shape
    labels = [(game.players[p], game.strategies[p][i]) for p, i in matrix.row_keys]
    del matrix  # keep one dense copy of the constraints for the rating
    log: list[FreezeRecord] = []

    def record(stage: int, rows: tuple[int, ...], objective: float) -> None:
        log.append(FreezeRecord(stage, tuple(labels[i] for i in rows), objective * factor))

    # the joints whose largest constraint value is smallest, in column order
    model = _StageModel(values, np.sort(np.argsort(values.max(axis=0), kind="stable")[: WORKING_SET_PER_ROW * num_rows]))
    zero_rows = tuple(int(i) for i in np.flatnonzero(~values.any(axis=1)))
    if zero_rows:
        model.freeze(zero_rows, np.zeros(len(zero_rows)))
        record(0, zero_rows, 0.0)

    sigma = np.full(num_joints, 1.0 / num_joints)
    stage = 0
    while len(model.frozen) < num_rows:
        frozen = frozenset(model.frozen)
        unfrozen = [i for i in range(num_rows) if i not in frozen]
        if stage and _fixed(values, list(model.frozen), model.live, unfrozen, FIXED_GAIN_TOL * config.active_tol).all():
            # every distribution that meets the frozen rows gives each
            # unfrozen row the same gain, so the gains of the last LP
            # solution stand for all; a row found fixed stays fixed, so no
            # later stage needs an LP either, and the model, never solved
            # again, is left as it is
            for objective, active in _tail_stages(gains, unfrozen, config.active_tol):
                stage += 1
                model.frozen.update(zip(active, gains[list(active)].tolist()))
                record(stage, active, objective)
            break
        stage += 1
        if stage > num_rows:
            raise StageBudgetError(
                f"exceeded stage budget {num_rows} with {num_rows - len(model.frozen)} rows left"
            )
        sigma_raw, objective, row_dual, reduced_costs = model.solve()
        sigma = np.zeros(num_joints)
        sigma[model.working] = _sanitize(sigma_raw)
        gains = values @ sigma
        # every later stage's optima lie on this stage's optimal face
        model.retire(reduced_costs)
        band = detect_active(gains, objective, config=config, frozen=frozen)
        active = model.tight_rows(band, objective, row_dual, config.active_tol)
        model.freeze(active, gains[list(active)])
        record(stage, active, objective)

    scaled = np.array([model.frozen[i] for i in range(num_rows)]) * factor
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
