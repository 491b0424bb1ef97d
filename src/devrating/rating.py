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
the previous solution's basis usable.  The candidates are the unfrozen
rows that ``detect_active`` picks, those whose gain is within
``active_tol`` of the optimum t* or else the first row of largest gain,
and every unfrozen row whose dual is nonzero.  A candidate with a nonzero row dual is tight at every
optimum by complementary slackness, whatever its gain.  The rest are
tested on the optimal face (t fixed at t*) by minimizing the sum of their
gains: each whose gain there is below t* - ``active_tol`` is released,
and the rest are tested again until none is released.  The duals of the
unfrozen rows sum to -1 (t has cost 1 and reduced cost 0), so some
candidate has a nonzero dual: every stage freezes at least one row, hence
at most sum_p |A_p| stages run, and a sole candidate freezes with no
further LP.  Rows that are identically zero (e.g. a player with a single
strategy) are frozen at 0 up front; their rows are vacuous, so
this changes nothing except the stage count.

Each stage LP has one row per (player, strategy) but one column per
joint profile, so it is solved over a working set of joint columns (a
restricted master LP).  A game with at most ``WORKING_SET_PER_ROW``
times num_rows joints is solved over every joint at once.  A larger one
starts from num_rows joints, one basis' worth: those whose largest
constraint value is smallest, and of the joints tied at the cut, those
first in diagonal order (``_Constraints.tie_key``), so that when every
joint ties the set still holds every strategy of every player.  After
each solve every live joint is priced: the product of the row duals with
the constraint matrix; up to ``PRICING_BATCH_PER_ROW`` times num_rows
joints whose reduced cost is below ``-PRICING_TOL`` join the set and the
LP is solved again.  A solve ends when no joint outside the
set prices negative, so its optimum is that of the LP over all joints.
The set only grows, so the previous stage's solution stays feasible.

The optima of each stage lie on the optimal face of the stage before it:
a stage only adds ``<=`` rows at values the previous optimum reached,
and its optimum never exceeds the previous one.  So a joint whose
reduced cost at a stage LP's duals is above ``PRICING_TOL`` is 0 at
every optimum of that stage and of every later one, by the same
complementary slackness that makes a row with a nonzero dual tight.
Such a joint retires for the rest of the rating: pricing skips it, and
its working-set column, nonbasic at 0, is deleted from the model, which
keeps the basis valid.  Every later solve, tightness test and span test
runs on the joints still live.

A stage needs no LP once the frozen rows (the pins) fix every unfrozen
row.  An unfrozen row that lies in the span of the pins and the simplex
row on the live joints has the same gain at every distribution on the
live joints that meets the pins.  How far its gain can move is bounded by
the max minus min of its residual outside that span.  The span test
(``_fixed``) builds an orthonormal basis of that span afresh on each
call, from the simplex row and the pins that are independent on the
joints live at the time, until it spans every live joint, and projects
all the rows it tests at once.
When the bound is at most ``FIXED_GAIN_TOL`` times ``active_tol`` for
every unfrozen row, the remaining stages freeze rows from the gains at
the last LP solution, with no further LP.  A row found fixed stays
fixed, so from then on every stage is LP-free, and they run in one pass
over the gains as Python floats (``_tail_stages``), the unfrozen rows
sorted by gain, descending and stable: each freezes the rows within
``active_tol`` of the largest gain left, as repeated ``detect_active``
calls would.  The distance to that gain never decreases along the sorted
rows, so each band is a prefix of the rows left.  Such stages still count
as stages and get freeze records.  This is common because constraint rows have far lower rank
than their count: a row of a score-table game depends on the joint only
through the task marginal, and a 16-row 8×8 meta-game of a 3×3 game has
rank 6.

Every LP of a rating is solved on one HiGHS model, changed in place:
pricing adds columns, retiring a joint deletes its column, freezing a row
changes its coefficient on t and its bound, and the tightness test
changes the costs and the bounds of t.  HiGHS keeps its basis across
these changes, so every solve after the first starts from the previous
optimum, which skips presolve.  The first solve does not presolve
either: it is over the small initial working set, where presolve costs
more than it saves.  A solve that is not optimal, or whose solution
misses its constraints, raises a typed ``RatingError``.  Each thread
keeps one silent HiGHS solver and empties it for every rating.

Constraints are divided by the game's payoff spread before solving and
results are scaled back; the factor is global, so exact cross-player ties
survive.  The constraint matrix (rows times joints) is never formed: the
engine reads it through the payoff tensors.  Row (p, a') at joint a is
G_p(a', a_-p) - G_p(a) = e_p(a) - e_p(a', a_-p), where
e_p(a) = max_b G_p(b, a_-p) - G_p(a) is also the largest value of player
p's rows at a.  A block of columns is gathered from the tensors, pricing
all joints takes one contraction of e_p per player, and the live joints'
columns form one dense block once a joint retires or a span test runs.
While the working set holds every live joint, as in a game no wider than
the working set, the two blocks are one array, cut once per retirement.

Joints that no stage LP tells apart share one column.  A swap of
players p and q maps a game to itself when they have as many strategies,
G_q is G_p with axes p and q swapped, and every other player's tensor is
unchanged by the swap (``_player_swap``, which compares the quantized
tensors exactly); ``gamify.game_from_table_3p`` games have such a swap
of their two model players.  Every stage LP, and so its optimal face, is
then unchanged by the swap: twin rows (p, s) and (q, s) freeze together
at equal bounds.  The mean of an optimum and its swap is an optimum, and
a row slack at some optimum is slack there too.  So each stage's
objective and the rows tight at every optimum are those of the LP over
distributions that the swap leaves unchanged, its orbit quotient (LP
symmetry reduction; Bödi, Herr and Joswig, Math. Programming 2013),
applied at every stage.  Joints with equal columns, the duplicate groups
of ``cce.joint_groups``, are exchangeable in the same way.  A joint's
class is its orbit {a, swap(a)}, or in ``rate_reduced`` its duplicate
group joined with its swapped group; a game with no swap has the
identity for swap, so each of its classes in ``deviation_rating`` is one
joint.  ``_Constraints`` is the quotient by these classes: one column
per class, the mean of its columns, standing at its first joint, and no
rows for q, whose gains equal p's there.  The loop above runs on it
unchanged.  Each freeze record lists q's rows beside p's, q's ratings
are copies of p's, and the equilibrium splits each class's mass evenly
over its joints.

Ratings are invariant to cloning, payoff offsets, and strategy
relabeling, and never exceed 0.  They are invariant to mixing on generic
games; with tied payoffs, adding a mixture can change which rows are
tight at every optimum, and so the ratings.
"""
from __future__ import annotations

import math
import threading
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

from .cce import JointDistribution, deviation_gains, joint_groups
from .games import NormalFormGame, label_index

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
]


# A game with at most this many joints per constraint row is solved over
# every joint (a narrower start costs more re-solves than it saves); then
# the pricing batch per constraint row, and the reduced cost below which a
# joint prices negative.
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
# ``RatingCertificate.ok``'s tolerances on epsilon and max_gain_error.
CERTIFICATE_EPSILON_TOL = 1e-7
CERTIFICATE_GAIN_TOL = 1e-6


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
        """The rating of a strategy, each of player and strategy given as
        index or label; ``UnknownLabelError`` for one that does not exist."""
        p = label_index(self.players, player, "player")
        i = label_index(self.strategies[p], strategy, f"player {self.players[p]!r} strategy")
        return float(self.ratings[p][i])

    def by_label(self) -> dict[str, dict[str, float]]:
        return {
            player: {
                s: float(self.ratings[p][i])
                for i, s in enumerate(self.strategies[p])
            }
            for p, player in enumerate(self.players)
        }


def _player_swap(game: NormalFormGame) -> tuple[int, int] | None:
    """The first players p < q whose exchange maps ``game`` to itself, or
    None: they have as many strategies, G_q is G_p with axes p and q
    swapped, and every other player's tensor is unchanged by the swap.
    Payoffs are quantized when a game is built, so tensors are compared
    for exact equality."""
    g, shape = game.payoffs, game.shape
    for q in range(len(g)):
        for p in range(q):
            # the joint of every player's first strategy is its own swap:
            # a test of one payoff that rules out most games
            if shape[p] == shape[q] and g[p].item(0) == g[q].item(0) and all(
                (g[q if r == p else r] == np.swapaxes(g[r], p, q)).all() for r in range(len(g)) if r != q
            ):
                return p, q
    return None


class _Constraints:
    """The deviation constraint matrix of a game divided by its payoff
    spread, read from the payoff tensors and never formed.

    Rows are (player, strategy) pairs in ``cce_constraint_matrix`` order
    and columns are joints in flat row-major order.  Row (p, a') at joint
    a is G_p(a', a_-p) - G_p(a), gathered from G_p at the strategy
    profile a with a_p replaced by a'; ``_excess[p]`` is e_p(a) =
    max_b G_p(b, a_-p) - G_p(a), the largest of player p's rows at a,
    divided by the spread.

    The LP has one column per joint class.  A joint's class is its orbit
    under the swap of players p and q that maps the game to itself
    (``_player_swap``), joined with the duplicate groups of its joints
    when ``groups`` labels them (``cce.joint_groups``); with no swap,
    ``swap`` is the identity.  ``class_of`` names each joint's class by
    its first joint, where the class's column stands: the mean of the
    columns of that joint and its swapped joint, which is the mean over
    the class, since each of its joints shares a column with one of the
    two.  With a swap, the LP rows are the constraint rows without q's,
    whose gains equal p's on distributions that the swap leaves
    unchanged."""

    def __init__(self, game: NormalFormGame, groups: np.ndarray | None = None):
        self.spread = game.payoff_spread() or 1.0
        self._shape = shape = game.shape
        self._payoffs = game.payoffs
        self._excess = [(g.max(axis=p, keepdims=True) - g) / self.spread for p, g in enumerate(game.payoffs)]
        # each player's e_p with its own axis first, built on first use:
        # a rating whose working set holds every joint never prices here
        self._views = None
        # row_of[i] is the LP row of constraint row i and ``swap`` maps
        # each joint to the swapped one; with a swap of players p and q,
        # q's rows share p's LP rows
        self._pair = _player_swap(game)
        self.num_rows = sum(shape)
        self.row_of = np.arange(self.num_rows)
        self.swap = joints = np.arange(game.num_joints)
        if self._pair is not None:
            p, q = self._pair
            start = np.cumsum((0,) + shape)
            self.row_of[start[q] :] -= shape[q]
            self.row_of[start[q] : start[q + 1]] = self.row_of[start[p] : start[p + 1]]
            self.swap = joints.reshape(shape).swapaxes(p, q).ravel()
            self.num_rows -= shape[q]
        # the first joint of a joint's group, then of the group joined
        # with its swapped group, written over ``first``: with no swap,
        # ``joints`` is ``swap`` and keeps its values
        first = joints if groups is None else np.unique(groups, return_index=True)[1][groups]
        self.class_of = np.minimum(first, first[self.swap], out=first)

    def joint_max(self) -> np.ndarray:
        """The mean over each joint's orbit of the largest constraint value
        at its joints: a start key read from the tensors, as the largest
        value of an orbit's column would need every column."""
        top = np.maximum.reduce([e.ravel() for e in self._excess])
        return (top + top[self.swap]) / 2

    def tie_key(self, joints: np.ndarray) -> np.ndarray:
        """The diagonal of the strategy grid that each orbit of ``joints``
        lies on.  With m the first player with the most strategies, N of
        them, joint a lies on the diagonal whose shift for each other player
        p is (a_p + floor(a_m n_p / N)) mod n_p; the key reads these shifts
        as one mixed-radix number.  A diagonal holds one joint per strategy
        of m, and as a_m runs over them, floor(a_m n_p / N) runs over every
        strategy of p, so each diagonal holds every strategy of every
        player.  An orbit's key is the smaller of its joints' keys: a
        diagonal's joints then lie in at most N orbits, which share its key
        and hold every strategy of every player."""
        return np.minimum(self._diagonal(joints), self._diagonal(self.swap[joints]))

    def _diagonal(self, joints: np.ndarray) -> np.ndarray:
        m = int(np.argmax(self._shape))
        a = np.unravel_index(joints, self._shape)
        key = np.zeros(joints.size, dtype=int)
        for p, n in enumerate(self._shape):
            if p != m:
                key = key * n + (a[p] + a[m] * n // self._shape[m]) % n
        return key

    def initial_joints(self, live: np.ndarray) -> np.ndarray:
        """The joints of ``live`` (sorted) that column generation starts
        from, in joint order: all of them when there are at most
        ``WORKING_SET_PER_ROW`` times num_rows; else num_rows joints, one
        basis' worth, whose largest constraint value is smallest, the
        joints tied at the cut taken by ``tie_key`` and then joint order."""
        size = self.num_rows
        if live.size <= WORKING_SET_PER_ROW * size:
            return live
        joint_max = self.joint_max()[live]
        cut = np.partition(joint_max, size - 1)[size - 1]
        below = live[joint_max < cut]
        tied = live[joint_max == cut]
        tied = tied[np.lexsort((tied, self.tie_key(tied)))[: size - below.size]]
        return np.sort(np.concatenate((below, tied)))

    def zero_rows(self) -> np.ndarray:
        """The LP rows that are zero at every joint: all of a player's rows
        are, exactly when its payoffs do not depend on its own strategy."""
        zero = np.empty(self.num_rows, dtype=bool)
        zero[self.row_of] = np.repeat([not e.any() for e in self._excess], self._shape)
        return zero

    def columns(self, joints: np.ndarray) -> np.ndarray:
        """The columns of ``joints``, as ``cce_constraint_matrix`` computes
        them, divided by the spread: player p's rows gather G_p at the
        strategy profiles a of ``joints`` with a_p replaced by each of p's
        strategies, minus G_p(a).  With a swap, a column is the mean of
        the columns of a joint and its swapped joint on the LP rows.  The
        rows of q at the swapped joint are those of p at the joint, so the
        mean holds the mean of p's and q's rows on p's rows; every other
        player's rows are equal at both joints."""
        a = np.unravel_index(joints, self._shape)
        blocks = [
            g[a[:p] + (np.arange(n)[:, None],) + a[p + 1 :]] - g[a]
            for p, (g, n) in enumerate(zip(self._payoffs, self._shape))
        ]
        if self._pair is not None:
            p, q = self._pair
            blocks[p] = (blocks[p] + blocks.pop(q)) / 2
        return np.concatenate(blocks) / self.spread

    def price(self, y: np.ndarray) -> np.ndarray:
        """``y``, one dual per LP row, times the matrix, over every joint:
        per player, sum(y_p) e_p(a) - sum_a' y_p,a' e_p(a', a_-p).  With a
        swap, this is the mean over each orbit of the price with p's duals
        on p's rows and zeros on q's; by the same symmetry as in
        ``columns``, it equals the price with half of p's duals on each of
        p's and q's rows, the same at a joint and its swapped joint."""
        if self._views is None:
            self._views = [np.moveaxis(e, p, 0).reshape(e.shape[p], -1) for p, e in enumerate(self._excess)]
            # the part of an LP row's dual that each of its constraint rows gets
            self._share = 1.0 / np.bincount(self.row_of)[self.row_of]
        y = y[self.row_of] * self._share
        total = np.zeros(self._shape)
        start = 0
        for p, (e, view) in enumerate(zip(self._excess, self._views)):
            y_p = y[start : start + e.shape[p]]
            start += e.shape[p]
            total += y_p.sum() * e
            total -= np.expand_dims((y_p @ view).reshape(self._shape[:p] + self._shape[p + 1 :]), p)
        return total.ravel()


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


_thread = threading.local()


def _thread_highs() -> _Highs:
    """The calling thread's solver from ``_new_highs``, emptied of the
    last rating's model; ``clearModel`` keeps the options and costs far
    less than a new solver."""
    highs = getattr(_thread, "highs", None)
    if highs is None:
        highs = _thread.highs = _new_highs()
    else:
        highs.clearModel()
    return highs


class _StageModel:
    """The one HiGHS model of a rating, changed in place between solves so
    that HiGHS keeps its basis.

    Column 0 is t and the others are the ``working`` joints, in the order
    they joined; ``working_values`` holds their constraint columns.  Row i
    is LP row i of the constraints, A_i @ sigma - t <= 0 while unfrozen and
    A_i @ sigma <= r once frozen at r; the last row is the simplex row.
    ``pins`` lists the frozen rows in the order they froze.  The cost of t
    is 1 and the cost of a joint column is ``weights @ A`` at that joint:
    zero for a stage LP, the indicator of the rows whose sum ``tight_rows``
    minimizes.  ``live`` lists the joints not retired, in joint order, and
    holds every working-set joint, so a binary search in it finds them; a
    retired working-set column is deleted."""

    def __init__(self, constraints: _Constraints, working: np.ndarray, live: np.ndarray):
        num_rows = constraints.num_rows
        self._constraints = constraints
        self._highs = _thread_highs()
        self._weights = np.zeros(num_rows)
        self._upper = np.zeros(num_rows)
        self.pins: list[int] = []
        self.working = np.empty(0, dtype=int)
        self.working_values = np.empty((num_rows, 0))
        self.live = live
        lower, upper = np.full(num_rows + 1, -kHighsInf), np.zeros(num_rows + 1)
        lower[-1] = upper[-1] = 1.0
        self._check(self._highs.addRows(
            num_rows + 1, lower, upper, 0, np.zeros(num_rows + 1, dtype=np.int32), np.empty(0, dtype=np.int32), np.empty(0)
        ))
        self._check(self._highs.addCols(
            1, np.array([1.0]), np.array([-kHighsInf]), np.array([kHighsInf]),
            num_rows, np.zeros(1, dtype=np.int32), np.arange(num_rows, dtype=np.int32), np.full(num_rows, -1.0),
        ))
        self._add(working)
        # the columns of the live joints, in ``live`` order: while the
        # working set is every live joint, in that order, the same block as
        # ``working_values``; else built at the first retirement or span
        # test, and until then pricing contracts the tensors
        self._live_values = self.working_values if working.size == live.size else None

    def _check(self, status: HighsStatus) -> None:
        if status == HighsStatus.kError:
            raise RatingError(
                "HiGHS rejected a change to the stage LP",
                self._highs.modelStatusToString(HighsModelStatus.kModelError),
            )

    def _add(self, joints: np.ndarray) -> None:
        """Append ``joints`` as columns: their constraint values and a 1 in
        the simplex row, compressed with zeros dropped."""
        values = self._constraints.columns(joints)
        size = joints.size
        # one row per column, the simplex row last
        block = np.empty((size, values.shape[0] + 1))
        block[:, :-1] = values.T
        block[:, -1] = 1.0
        nonzero = block != 0
        cols, index = nonzero.nonzero()
        self._check(self._highs.addCols(
            size,
            self._weights @ values,
            np.zeros(size),
            np.full(size, kHighsInf),
            index.size,
            cols.searchsorted(np.arange(size)).astype(np.int32),
            index.astype(np.int32),
            block[nonzero],
        ))
        self.working = np.concatenate((self.working, joints))
        self.working_values = np.concatenate((self.working_values, values), axis=1)

    def live_values(self) -> np.ndarray:
        """The constraint columns of the live joints, in ``live`` order."""
        if self._live_values is None:
            self._live_values = self._constraints.columns(self.live)
        return self._live_values

    def _set_weights(self, weights: np.ndarray) -> None:
        self._weights = weights
        size = self.working.size
        self._check(self._highs.changeColsCost(size, np.arange(1, size + 1, dtype=np.int32), weights @ self.working_values))

    def freeze(self, rows: Sequence[int], bounds: Sequence[float]) -> None:
        """Turn each of ``rows`` into ``A_i @ sigma <= bound``."""
        for i, bound in zip(rows, bounds):
            self._highs.changeCoeff(i, 0, 0.0)
            self._highs.changeRowBounds(i, -kHighsInf, bound)
            self._upper[i] = bound
        self.pins += rows

    def retire(self, reduced: np.ndarray) -> None:
        """Retire the live joints whose reduced cost ``reduced`` (in
        ``live`` order, at a stage LP optimum) is above ``PRICING_TOL``:
        each is 0 at every optimum of that stage, and so of every later
        one.  A retired working-set column is nonbasic at 0, so deleting
        it keeps the basis valid."""
        dead = reduced > PRICING_TOL
        if not dead.nonzero()[0].size:
            return
        # a working set of every live joint is cut once for both
        shared = self._live_values is self.working_values
        gone = dead if shared else dead[np.searchsorted(self.live, self.working)]
        cols = gone.nonzero()[0]
        if cols.size:
            self._check(self._highs.deleteCols(cols.size, cols.astype(np.int32) + 1))
            kept = ~gone
            self.working = self.working[kept]
            self.working_values = self.working_values[:, kept]
        if shared:
            self.live = self.working
            self._live_values = self.working_values
        else:
            kept = ~dead
            self.live = self.live[kept]
            self._live_values = self._constraints.columns(self.live) if self._live_values is None else self._live_values[:, kept]

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
        if status != HighsModelStatus.kOptimal:
            model_status = highs.modelStatusToString(status)
            if status == HighsModelStatus.kInfeasible:
                frozen = dict(zip(self.pins, self._upper[self.pins].tolist()))
                raise RatingInfeasibleError(f"stage LP infeasible with {len(frozen)} frozen rows", frozen, model_status)
            raise RatingError(f"stage LP failed with {len(self.pins)} frozen rows", model_status)
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        activity = np.array(solution.row_value)
        t = x.item(0)
        # each test is false on NaN, so a NaN fails it
        if not (
            t == t
            and (x[1:] >= -RESIDUAL_TOL).all()
            and (activity[:-1] - self._upper <= RESIDUAL_TOL).all()
            and abs(activity.item(-1) - 1.0) <= RESIDUAL_TOL
        ):
            raise RatingError(
                f"stage LP solution with {len(self.pins)} frozen rows misses its "
                f"constraints by more than {RESIDUAL_TOL:.2e}",
                highs.modelStatusToString(status),
            )
        return x[1:], t, np.array(solution.row_dual)

    def solve(self) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
        """Solve, adding the live joints that price negative until none
        does, so the optimum is that of the LP over every live joint.
        Returns what ``_run`` returns for the last solve and the reduced
        cost -(row duals @ column) - simplex dual of every live joint."""
        while True:
            x, objective, row_dual = self._run()
            y = row_dual[:-1] - self._weights
            priced = self._constraints.price(y)[self.live] if self._live_values is None else y @ self._live_values
            reduced = -priced - row_dual[-1]
            if self._live_values is self.working_values:
                # no live joint is outside the working set
                return x, objective, row_dual, reduced
            negative = reduced < -PRICING_TOL
            negative[np.searchsorted(self.live, self.working)] = False
            entering = np.flatnonzero(negative)
            if not entering.size:
                return x, objective, row_dual, reduced
            # most negative first, at most PRICING_BATCH_PER_ROW per constraint row
            order = np.argsort(reduced[entering], kind="stable")
            self._add(self.live[entering[order[: PRICING_BATCH_PER_ROW * self._constraints.num_rows]]])

    def tight_rows(self, band: Sequence[int], objective: float, row_dual: Sequence[float], tol: float) -> list[int]:
        """The rows of ``band`` that are tight at every optimum of the stage
        LP just solved, whose optimum is ``objective`` and row duals
        ``row_dual``, in order.  A row with a nonzero dual is, by
        complementary slackness; ``band`` holds every unfrozen such row.
        The others are tested by minimizing their sum over the optimal face
        (t fixed at the optimum); each whose gain there is below
        ``objective - tol`` is released, and the rest are tested again
        until none is released."""
        # a row's dual is the reduced cost of its slack
        tight = [i for i in band if abs(row_dual[i]) > PRICING_TOL]
        if len(tight) == len(band):
            return list(band)
        candidates = np.array([i for i in band if not abs(row_dual[i]) > PRICING_TOL])
        self._highs.changeColBounds(0, objective, objective)
        while candidates.size:
            weights = np.zeros(self._constraints.num_rows)
            weights[candidates] = 1.0
            self._set_weights(weights)
            x = self.solve()[0]
            kept = self.working_values[candidates] @ x >= objective - tol
            if kept.all():
                break
            candidates = candidates[kept]
        self._set_weights(np.zeros(self._constraints.num_rows))
        self._highs.changeColBounds(0, -kHighsInf, kHighsInf)
        return sorted(tight + candidates.tolist())


def _sanitize(sigma_raw: np.ndarray) -> np.ndarray:
    """Clip solver noise below 0 and renormalize to an exact unit sum."""
    sigma = np.maximum(sigma_raw, 0.0)
    total = sigma.sum()
    if total <= 0.0:
        raise RatingError("stage LP returned a zero distribution")
    return sigma / total


def _in_band(gain: float, top: float, tol: float) -> bool:
    """The tie rule: whether ``gain`` lies within ``tol`` of ``top``."""
    return abs(gain - top) <= tol


def _near_top(gains: Sequence[float], top: float, rows: Sequence[int], tol: float) -> list[int]:
    """The rows of ``rows`` (sorted, not empty) whose gain lies within
    ``tol`` of ``top``, or else the first row of largest gain."""
    band = [i for i in rows if _in_band(gains[i], top, tol)]
    return band or [max(rows, key=gains.__getitem__)]


def detect_active(row_gains: np.ndarray, objective: float, *, config: SolverConfig = SolverConfig(), frozen: frozenset | set = frozenset()) -> tuple[int, ...]:
    """The candidates to freeze after a stage: every unfrozen row whose
    gain lies within ``active_tol`` of the objective, or else the argmax
    row.  Ties are candidates together, which is what keeps exact
    duplicates (clones) at identical ratings.  With every row frozen there
    is none; a frozen index that is not a row raises ``ValueError``."""
    bad = sorted(i for i in frozen if not 0 <= i < row_gains.size)
    if bad:
        raise ValueError(f"frozen row {bad[0]!r} is out of range for {row_gains.size} rows")
    rows = [i for i in range(row_gains.size) if i not in frozen]
    return tuple(_near_top(row_gains.tolist(), objective, rows, config.active_tol)) if rows else ()


def _tail_stages(gains: Sequence[float], rows: Sequence[int], tol: float) -> list[tuple[float, tuple[int, ...]]]:
    """The (objective, rows) of each stage that freezes ``rows`` at fixed
    ``gains``, in one pass: the stages repeated ``detect_active`` gives
    with each objective the largest gain left.  In the rows sorted by
    gain, descending and stable, each band is the rows within ``tol`` of
    its first: a prefix of the rows left, since the distance to the first
    never decreases along them."""
    order = sorted(rows, key=gains.__getitem__, reverse=True)
    stages = []
    start = 0
    while start < len(order):
        top = gains[order[start]]
        end = start + 1
        while end < len(order) and _in_band(gains[order[end]], top, tol):
            end += 1
        stages.append((float(top), tuple(sorted(order[start:end]))))
        start = end
    return stages


def _fixed(values: np.ndarray, pins: Sequence[int], rows: Sequence[int], tol: float) -> np.ndarray:
    """Which of ``rows`` the ``pins`` fix on the joints whose columns
    ``values`` holds, as a boolean mask: which lie in the span of the pins
    and the simplex row there, up to a residual whose max minus min is at
    most ``tol``.  That spread bounds how far the row's gain can move over
    the distributions on those joints that meet the pins.

    The span gets an orthonormal basis by Gram-Schmidt, the simplex row
    first and then each pin in order.  A pin joins only if its residual
    outside the basis is not negligible against its norm, a rank-revealing
    step: pins that are zero, repeated, or dependent on these joints drop
    out, as does every pin once the basis spans all the joints, where its
    residual is rounding error."""
    size = values.shape[1]
    q = np.empty((min(len(pins) + 1, size), size))
    q[0] = size ** -0.5
    rank = 1
    for i in pins:
        if rank == size:
            break
        vector = values[i]
        basis = q[:rank]
        # two passes, so the residual is orthogonal to the basis
        v = vector - (basis @ vector) @ basis
        v -= (basis @ v) @ basis
        residual = math.sqrt(v @ v)
        if residual > 1e-9 * math.sqrt(vector @ vector):
            q[rank] = v / residual
            rank += 1
    basis = q[:rank]
    r = values[rows]
    r -= (r @ basis.T) @ basis
    return np.maximum.reduce(r, axis=1) - np.minimum.reduce(r, axis=1) <= tol


def _rate(game: NormalFormGame, config: SolverConfig, groups: np.ndarray | None = None) -> RatingResult:
    """Run the freezing loop on the constraints of ``game`` over the first
    joint of each joint class (``_Constraints``), with ``groups`` labelling
    duplicate joints; the equilibrium splits each class's mass evenly
    over its joints."""
    constraints = _Constraints(game, groups)
    factor, tol = constraints.spread, config.active_tol
    labels = [(game.players[p], s) for p, names in enumerate(game.strategies) for s in names]
    # the constraint rows that each LP row stands for, in row order
    members: list[list[int]] = [[] for _ in range(constraints.num_rows)]
    for r, i in enumerate(constraints.row_of.tolist()):
        members[i].append(r)
    log: list[FreezeRecord] = []

    def record(stage: int, rows: Sequence[int], objective: float) -> None:
        full = sorted([r for i in rows for r in members[i]])
        log.append(FreezeRecord(stage, tuple([labels[r] for r in full]), objective * factor))

    # a class is named by its first joint, the one joint of it in the LP
    class_of = constraints.class_of
    class_size = np.bincount(class_of)
    live = class_size.nonzero()[0]
    model = _StageModel(constraints, constraints.initial_joints(live), live)
    # each LP row's frozen bound, 0 for the zero rows, and the rows not
    # yet frozen, in order
    bounds = [0.0] * constraints.num_rows
    zero = constraints.zero_rows()
    unfrozen = (~zero).nonzero()[0].tolist()
    zero_rows = zero.nonzero()[0].tolist()
    if zero_rows:
        model.freeze(zero_rows, [0.0] * len(zero_rows))
        record(0, zero_rows, 0.0)

    # the joints of the last solution and their masses
    support, mass = live, np.full(live.size, 1.0 / live.size)
    stage = 0
    while unfrozen:
        if stage and _fixed(model.live_values(), model.pins, unfrozen, FIXED_GAIN_TOL * tol).all():
            # every distribution that meets the frozen rows gives each
            # unfrozen row the same gain, so the gains of the last LP
            # solution stand for all; a row found fixed stays fixed, so no
            # later stage needs an LP either, and the model, never solved
            # again, is left as it is
            for objective, active in _tail_stages(gains, unfrozen, tol):
                stage += 1
                record(stage, active, objective)
            for i in unfrozen:
                bounds[i] = gains[i]
            break
        stage += 1
        if stage > constraints.num_rows:
            raise StageBudgetError(
                f"exceeded stage budget {constraints.num_rows} with {len(unfrozen)} rows left"
            )
        sigma_raw, objective, row_dual, reduced_costs = model.solve()
        support, mass = model.working, _sanitize(sigma_raw)
        gains = (model.working_values @ mass).tolist()
        # every later stage's optima lie on this stage's optimal face
        model.retire(reduced_costs)
        duals = row_dual.tolist()
        # the candidates of ``detect_active``, and every row with a nonzero dual
        band = set(_near_top(gains, objective, unfrozen, tol))
        band.update(i for i in unfrozen if abs(duals[i]) > PRICING_TOL)
        active = model.tight_rows(sorted(band), objective, duals, tol)
        model.freeze(active, [gains[i] for i in active])
        record(stage, active, objective)
        for i in active:
            bounds[i] = gains[i]
        unfrozen = [i for i in unfrozen if i not in active]

    # each class's mass, at its first joint, split evenly over its joints
    sigma = np.zeros(game.num_joints)
    sigma[support] = mass / class_size[support]
    scaled = np.array(bounds)[constraints.row_of] * factor
    scaled.setflags(write=False)
    ratings, start = [], 0
    for n in game.shape:
        ratings.append(scaled[start : start + n])
        start += n
    return RatingResult(
        players=game.players,
        strategies=game.strategies,
        ratings=tuple(ratings),
        equilibrium=JointDistribution(sigma[class_of]),
        freeze_log=tuple(log),
        stage_count=stage,
    )


def deviation_rating(game: NormalFormGame, config: SolverConfig = SolverConfig()) -> RatingResult:
    """Rate every strategy of ``game`` by its deviation gain at the
    strictest reachable coarse-correlated equilibrium."""
    return _rate(game, config)


def rate_reduced(game: NormalFormGame, config: SolverConfig = SolverConfig()) -> RatingResult:
    """Deviation ratings computed with duplicate joint columns merged.

    Each joint class of the LP is a group of duplicate joints
    (``cce.joint_groups``), joined with its swapped group when a swap of
    two players maps the game to itself; ``games.symmetrize_payoffs``
    makes a game symmetric in two players first.  The returned
    equilibrium spreads each class's mass evenly over its joints.
    """
    return _rate(game, config, joint_groups(game))


@dataclass(frozen=True)
class RatingCertificate:
    """Self-check of a rating run, recomputed from the equilibrium.

    Discrepancies are reported here rather than raised.  ``epsilon`` and
    ``max_gain_error`` are in payoff units, and ``ok`` multiplies their
    tolerances, ``CERTIFICATE_*_TOL``, by ``payoff_scale``, max(1, payoff
    spread), so that float rounding on large payoffs does not fail it.
    """

    epsilon: float
    max_gain_error: float
    objectives_non_increasing: bool
    stage_count: int
    stage_bound: int
    payoff_scale: float

    def ok(self) -> bool:
        return (
            self.epsilon <= CERTIFICATE_EPSILON_TOL * self.payoff_scale
            and self.max_gain_error <= CERTIFICATE_GAIN_TOL * self.payoff_scale
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
            "payoff_scale": float(self.payoff_scale),
        }


def rating_certificate(game: NormalFormGame, result: RatingResult) -> RatingCertificate:
    """Recompute deviation gains at the reported equilibrium and compare
    them with the ratings; also check the freeze-log invariants."""
    gains = deviation_gains(game, result.equilibrium)
    max_err = max(
        float(np.max(np.abs(g - r))) for g, r in zip(gains, result.ratings)
    )
    scale = max(1.0, game.payoff_spread())
    objectives = [rec.objective for rec in result.freeze_log if rec.stage > 0]
    monotone = all(b <= a + 1e-9 * scale for a, b in zip(objectives, objectives[1:]))
    return RatingCertificate(
        epsilon=max(float(g.max()) for g in gains),
        max_gain_error=max_err,
        objectives_non_increasing=monotone,
        stage_count=result.stage_count,
        stage_bound=sum(game.shape),
        payoff_scale=scale,
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
