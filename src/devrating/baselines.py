"""Baseline rating schemes: uniform averaging, Elo, and Nash averaging.

These are the comparison points for deviation ratings.  Uniform averaging
ranks strategies by mean payoff against all opponent profiles; Elo fits a
logistic win-probability model to a pairwise matrix; Nash averaging rates
strategies of a two-player zero-sum game by expected payoff against the
opponent's maximin strategy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .games import GameValidationError, NormalFormGame

__all__ = [
    "uniform_rating",
    "WinProbMatrix",
    "payoff_to_winprob",
    "EloResult",
    "elo_fit",
    "NashAveragingResult",
    "nash_averaging_2pzs",
]


def uniform_rating(game: NormalFormGame) -> tuple[np.ndarray, ...]:
    """Each strategy's mean payoff over all opponent profiles, per player."""
    out = []
    for p, g in enumerate(game.payoffs):
        axes = tuple(q for q in range(game.num_players) if q != p)
        out.append(g.mean(axis=axes) if axes else g.copy())
    return tuple(out)


@dataclass(frozen=True)
class WinProbMatrix:
    """Pairwise win probabilities over one set of labels.

    Entries lie in [0, 1], the diagonal is 0.5, and opposite entries sum
    to 1 (within 1e-9).
    """

    labels: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        if len(set(labels)) != len(labels):
            raise GameValidationError("win-probability labels must be unique")
        arr = np.asarray(self.probs, dtype=np.float64)
        n = len(labels)
        if arr.shape != (n, n):
            raise GameValidationError(
                f"win-probability matrix shape {arr.shape} != ({n}, {n})"
            )
        if not np.all(np.isfinite(arr)):
            raise GameValidationError("win probabilities must be finite")
        if np.any(arr < -1e-12) or np.any(arr > 1 + 1e-12):
            raise GameValidationError("win probabilities must lie in [0, 1]")
        if np.any(np.abs(np.diag(arr) - 0.5) > 1e-9):
            raise GameValidationError("diagonal win probabilities must be 0.5")
        if np.any(np.abs(arr + arr.T - 1.0) > 1e-9):
            raise GameValidationError("win probabilities must satisfy p_ij + p_ji = 1")
        arr = np.clip(arr, 0.0, 1.0)
        arr.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", arr)


def payoff_to_winprob(labels, payoffs, margin: float) -> WinProbMatrix:
    """Map a skew-symmetric payoff matrix (player-1 perspective) to win
    probabilities via ``(payoff / margin + 1) / 2``."""
    arr = np.asarray(payoffs, dtype=np.float64)
    if not (np.isfinite(margin) and margin > 0.0):
        raise GameValidationError(f"margin must be finite and > 0, got {margin!r}")
    if np.max(np.abs(arr)) > margin * (1 + 1e-12):
        raise GameValidationError("payoff magnitudes exceed the margin bound")
    return WinProbMatrix(tuple(labels), (arr / margin + 1.0) / 2.0)


#: Logistic model p(i beats j) = 1 / (1 + ELO_BASE^((r_j - r_i) / ELO_SCALE)).
ELO_BASE = 10.0
ELO_SCALE = 400.0
# the initial gradient-descent step (backtracking shrinks it per
# iteration as needed) and the iteration budget
_ELO_STEP = 1e5
_ELO_MAX_ITERS = 20000
_GRAD_TOL = 1e-9


def _elo_winprob(ratings: np.ndarray) -> np.ndarray:
    z = np.log(ELO_BASE) * (ratings[:, None] - ratings[None, :]) / ELO_SCALE
    return 1.0 / (1.0 + np.exp(-z))


@dataclass(frozen=True)
class EloResult:
    labels: tuple[str, ...]
    ratings: np.ndarray
    converged: bool
    grad_norm: float
    iterations: int
    loss: float

    def by_label(self) -> dict[str, float]:
        return {s: float(r) for s, r in zip(self.labels, self.ratings)}


def elo_fit(matrix: WinProbMatrix) -> EloResult:
    """Fit Elo ratings, with mean zero, to a win-probability matrix by
    full-batch gradient descent on the cross-entropy loss (log base 10).

    The loss is convex; non-convergence within the iteration budget (possible
    when observed probabilities sit at 0 or 1, pushing ratings apart
    without bound) is reported via ``converged`` and ``grad_norm``.
    """
    p_obs = matrix.probs
    n = p_obs.shape[0]
    off_diag = ~np.eye(n, dtype=bool)
    coef = np.log(ELO_BASE) / (ELO_SCALE * np.log(10.0))

    def loss_of(r: np.ndarray) -> float:
        p_hat = _elo_winprob(r)
        terms = -(p_obs * np.log10(p_hat) + (1.0 - p_obs) * np.log10(1.0 - p_hat))
        return float(terms[off_diag].sum())

    def grad_of(r: np.ndarray) -> np.ndarray:
        diff = _elo_winprob(r) - p_obs
        np.fill_diagonal(diff, 0.0)
        return coef * (diff.sum(axis=1) - diff.sum(axis=0))

    ratings = np.zeros(n)
    loss = loss_of(ratings)
    step = _ELO_STEP
    grad = grad_of(ratings)
    iterations = 0
    converged = False
    for iterations in range(1, _ELO_MAX_ITERS + 1):
        gnorm = float(np.max(np.abs(grad)))
        if gnorm < _GRAD_TOL:
            converged = True
            break
        g2 = float(grad @ grad)
        step = min(step * 2.0, _ELO_STEP)
        while step > 1e-300:
            candidate = ratings - step * grad
            cand_loss = loss_of(candidate)
            if cand_loss <= loss - 1e-4 * step * g2:
                break
            step *= 0.5
        ratings, loss = candidate, cand_loss
        grad = grad_of(ratings)
    gnorm = float(np.max(np.abs(grad)))
    converged = converged or gnorm < _GRAD_TOL

    ratings = ratings - ratings.mean()
    ratings.setflags(write=False)
    return EloResult(
        labels=matrix.labels,
        ratings=ratings,
        converged=converged,
        grad_norm=gnorm,
        iterations=iterations,
        loss=loss,
    )


@dataclass(frozen=True)
class NashAveragingResult:
    players: tuple[str, ...]
    strategies: tuple[tuple[str, ...], ...]
    ratings: tuple[np.ndarray, np.ndarray]
    maximin: tuple[np.ndarray, np.ndarray]
    value: float
    unique: bool


def _maximin_lp(payoff: np.ndarray):
    """Row player's maximin strategy for payoff matrix ``payoff``:
    maximize v s.t. x^T payoff >= v per column, x in the simplex."""
    n_rows, n_cols = payoff.shape
    n = n_rows + 1
    cost = np.zeros(n)
    cost[-1] = -1.0  # maximize v
    a_ub = np.hstack([-payoff.T, np.ones((n_cols, 1))])
    a_eq = np.concatenate([np.ones(n_rows), [0.0]])[None, :]
    bounds = [(0.0, None)] * n_rows + [(None, None)]
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=np.zeros(n_cols),
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=bounds,
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-9,
            "dual_feasibility_tolerance": 1e-9,
        },
    )
    if res.status != 0:
        raise GameValidationError(f"maximin LP failed: {res.message}")
    x = np.clip(res.x[:n_rows], 0.0, None)
    return x / x.sum(), float(-res.fun)


def _face_extent(payoff: np.ndarray, value: float, direction: np.ndarray, sense: float):
    """Optimize ``sense * direction @ x`` over the optimal-face polytope
    {x in simplex : x^T payoff >= value - 1e-8}."""
    n_rows, n_cols = payoff.shape
    res = linprog(
        -sense * direction,
        A_ub=-payoff.T,
        b_ub=np.full(n_cols, -(value - 1e-8)),
        A_eq=np.ones((1, n_rows)),
        b_eq=[1.0],
        bounds=[(0.0, None)] * n_rows,
        method="highs",
    )
    if res.status != 0:
        raise GameValidationError(f"optimal-face LP failed: {res.message}")
    return res.x


def nash_averaging_2pzs(game: NormalFormGame, uniqueness_probes: int = 2, seed: int = 0) -> NashAveragingResult:
    """Nash-averaging ratings of a two-player zero-sum game.

    Each strategy is rated by its expected payoff against the opponent's
    maximin strategy.  Uniqueness of the maximin pair is probed by
    re-optimizing random directions over each optimal face; ``unique``
    is False when any probe moves by more than 1e-6.
    """
    if game.num_players != 2:
        raise GameValidationError("nash averaging requires a two-player game")
    g1, g2 = game.payoffs
    if np.max(np.abs(g1 + g2)) > 1e-9:
        raise GameValidationError("nash averaging requires zero-sum payoffs")
    x, value = _maximin_lp(g1)
    y, value_col = _maximin_lp(-g1.T)
    if abs(value + value_col) > 1e-6:
        raise GameValidationError(
            f"maximin values disagree: {value} vs {-value_col}"
        )
    rng = np.random.default_rng(seed)
    unique = True
    for payoff, val, n in ((g1, value, g1.shape[0]), (-g1.T, -value, g1.shape[1])):
        for _ in range(uniqueness_probes):
            direction = rng.normal(size=n)
            lo = _face_extent(payoff, val, direction, -1.0)
            hi = _face_extent(payoff, val, direction, +1.0)
            if np.max(np.abs(hi - lo)) > 1e-6:
                unique = False
                break
        if not unique:
            break
    r1 = g1 @ y
    r2 = x @ g2
    r1.setflags(write=False)
    r2.setflags(write=False)
    return NashAveragingResult(
        players=game.players,
        strategies=game.strategies,
        ratings=(r1, r2),
        maximin=(x, y),
        value=value,
        unique=unique,
    )
