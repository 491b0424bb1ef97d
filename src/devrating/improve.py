"""Mixed-strategy populations, their meta-games, and the rating-driven
improvement loop on matrix games.

Each player keeps a population of K mixed strategies over the full
game.  Every iteration builds the K^N meta-game of exact expected
payoffs, rates the members, culls the lowest-rated fraction per player
(oldest first on ties), and refills with fresh Dirichlet(1, ..., 1)
draws.  Progress is tracked by the full game's CCE gap at a joint
distribution lifted from the meta level, plus the population-average
payoff per player.  ``population_game`` is the meta-game of one
population of mixtures held by both players of a symmetric base game.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .baselines import uniform_rating
from .cce import DistributionError, JointDistribution, cce_gap
from .games import GameValidationError, NormalFormGame, build_game
from .rating import RatingError, SolverConfig, deviation_rating

__all__ = [
    "Population",
    "random_population",
    "meta_game",
    "population_game",
    "dirichlet_mixtures",
    "lift_to_full",
    "LoopConfig",
    "IterationRecord",
    "Trajectory",
    "ImprovementLoopError",
    "run_improvement_loop",
    "save_trajectory",
    "RATERS",
]

RATERS = ("deviation", "uniform")


class ImprovementLoopError(RuntimeError):
    """A ``RatingError`` or ``DistributionError`` inside the loop, tagged
    with the iteration it happened at (``.iteration``); others escape."""

    def __init__(self, iteration: int, message: str):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


@dataclass(frozen=True)
class Population:
    """Per-player populations of mixed strategies.

    ``members[p]`` is a K x |A_p| row-stochastic matrix; every player
    has the same member count K.  ``ids`` are stable per-member tags
    (unique within a loop run) and ``born`` records the generation each
    member was created in (0 unless given), which breaks rating ties
    during culling.
    """

    members: tuple[np.ndarray, ...]
    ids: tuple[tuple[int, ...], ...] = ()
    born: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        members = tuple(np.asarray(m, dtype=np.float64) for m in self.members)
        if not members:
            raise GameValidationError("population needs at least one player")
        size = members[0].shape[0]
        for p, m in enumerate(members):
            if m.ndim != 2:
                raise GameValidationError(f"player {p} members must be a 2-d array")
            if m.shape[0] != size:
                raise GameValidationError("every player needs the same member count")
            if not np.isfinite(m).all() or (m < 0).any():
                raise GameValidationError(f"player {p} members are not distributions")
            if abs(m.sum(axis=1) - 1.0).max() > 1e-9:
                raise GameValidationError(f"player {p} members do not sum to 1")
        ids = self.ids if self.ids else tuple(tuple(range(size)) for _ in members)
        born = self.born if self.born else tuple((0,) * size for _ in members)
        for label, per_player in (("ids", ids), ("born", born)):
            if len(per_player) != len(members) or any(len(t) != size for t in per_player):
                raise GameValidationError(f"{label} must list one entry per member")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "born", born)

    @property
    def size(self) -> int:
        return self.members[0].shape[0]

    @property
    def num_players(self) -> int:
        return len(self.members)


def random_population(game: NormalFormGame, size: int, rng: np.random.Generator) -> Population:
    """Dirichlet(1, ..., 1) members — uniform over each simplex."""
    if size < 1:
        raise GameValidationError("population size must be at least 1")
    members = tuple(
        rng.dirichlet(np.ones(game.shape[p]), size=size) for p in range(game.num_players)
    )
    return Population(members=members)


def _member_labels(size: int) -> tuple[str, ...]:
    width = max(2, len(str(size - 1)))
    return tuple(f"m{i:0{width}d}" for i in range(size))


def _contract(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``np.tensordot(t, m, axes=(0, 0))``: t's first axis summed against
    m's rows, m's columns appended as the last axis.  It makes the same
    transpose, reshape and ``np.dot`` call, so the result is bitwise the
    same, without the axis handling that costs more than the product on
    small tensors."""
    return np.dot(t.transpose((*range(1, t.ndim), 0)).reshape(-1, t.shape[0]), m).reshape(t.shape[1:] + m.shape[1:])


def _member_payoffs(g: np.ndarray, members: Sequence[np.ndarray]) -> np.ndarray:
    """Expected payoff ``g`` at every tuple of members (``members[q]`` is
    player q's K_q x |A_q| matrix); each contracted axis re-emerges, size
    K_q, at the back, so after N rounds the axes are in player order."""
    t = g
    for m in members:
        t = _contract(t, m.T)
    return t


def meta_game(full: NormalFormGame, pop: Population) -> NormalFormGame:
    """Exact expected payoffs between population members.

    Entry (i_1, ..., i_N) of player p's tensor is the expected payoff of
    the product distribution of members (x_{1,i_1}, ..., x_{N,i_N}).
    """
    if pop.num_players != full.num_players:
        raise GameValidationError("population and game disagree on player count")
    for p, m in enumerate(pop.members):
        if m.shape[1] != full.shape[p]:
            raise GameValidationError(
                f"player {full.players[p]} members have {m.shape[1]} entries; "
                f"game has {full.shape[p]} strategies"
            )
    labels = _member_labels(pop.size)
    tensors = [_member_payoffs(g, pop.members) for g in full.payoffs]
    return build_game(full.players, (labels,) * full.num_players, tensors)


def population_game(base: NormalFormGame, mixtures) -> NormalFormGame:
    """Symmetric game induced by a population of mixed strategies.

    ``base`` must be a symmetric two-player game (G2 == G1 transposed
    within 1e-9); ``mixtures`` is a sequence of distributions over the
    base strategies, labeled ``mix-00``, ``mix-01``, ....  Entry (i, j)
    pays player 1 the expected base payoff of mixture i against mixture j.
    """
    if base.num_players != 2:
        raise GameValidationError("population game requires a two-player base")
    g1, g2 = base.payoffs
    if g1.shape[0] != g1.shape[1] or np.max(np.abs(g2 - g1.T)) > 1e-9:
        raise GameValidationError(
            "population game requires a symmetric base (G2 == G1 transposed)"
        )
    rows = [JointDistribution(np.asarray(m, dtype=np.float64)).probs for m in mixtures]
    if any(r.size != g1.shape[0] for r in rows):
        raise GameValidationError(
            f"mixtures must have length {g1.shape[0]} (one weight per base strategy)"
        )
    x = np.vstack(rows)
    labels = tuple(f"mix-{i:02d}" for i in range(len(rows)))
    tensors = [_member_payoffs(g, (x, x)) for g in base.payoffs]
    return build_game(base.players, (labels, labels), tensors)


def dirichlet_mixtures(rng: np.random.Generator, count: int, alpha) -> list[np.ndarray]:
    """Draw ``count`` mixtures from a Dirichlet with concentration ``alpha``."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim != 1 or np.any(alpha <= 0):
        raise GameValidationError("alpha must be a positive concentration vector")
    return list(rng.dirichlet(alpha, size=count))


def lift_to_full(sigma_meta: JointDistribution, pop: Population, full: NormalFormGame) -> JointDistribution:
    """Push a meta-level joint down to the full game's joint space:
    sigma(s) = sum over member tuples of sigma_meta(tuple) times the
    product of the selected members' probabilities at s."""
    shape = (pop.size,) * pop.num_players
    t = sigma_meta.as_tensor(shape)
    for m in pop.members:
        t = _contract(t, m)
    if t.shape != full.shape:
        raise GameValidationError("population does not match the full game's shape")
    return JointDistribution(t.reshape(-1))


@dataclass(frozen=True)
class LoopConfig:
    iterations: int
    population_size: int = 8
    cull_fraction: float = 0.25
    seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if not 0.0 < self.cull_fraction < 1.0:
            raise ValueError("cull_fraction must be in (0, 1)")
        if int(self.population_size * self.cull_fraction) < 1:
            raise ValueError(
                "population_size * cull_fraction must cull at least one member"
            )


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    cce_gap: float
    avg_payoffs: tuple[float, ...]
    culled: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Trajectory:
    records: tuple[IterationRecord, ...]
    meta: dict

    def gaps(self) -> np.ndarray:
        return np.array([r.cce_gap for r in self.records])

    def avg_payoffs(self) -> np.ndarray:
        return np.array([r.avg_payoffs for r in self.records])


def _rate_population(full, meta, pop, rater, solver):
    if rater == "deviation":
        result = deviation_rating(meta, solver)
        lifted = lift_to_full(result.equilibrium, pop, full)
        return result.ratings, lifted
    ratings = uniform_rating(meta)
    lifted = lift_to_full(JointDistribution.uniform(meta.num_joints), pop, full)
    return ratings, lifted


def run_improvement_loop(full: NormalFormGame, rater: str = "deviation", config: LoopConfig = LoopConfig(iterations=1)) -> Trajectory:
    """Run the cull-and-reseed loop and record per-iteration progress.

    Each record holds the full-game CCE gap of the lifted joint (the
    rating run's supporting equilibrium for the deviation rater, the
    uniform meta joint for the uniform rater), the uniform-over-members
    average payoff per player, and the culled member ids per player.
    Deterministic for a fixed config.
    """
    if rater not in RATERS:
        raise ValueError(f"unknown rater {rater!r}; expected one of {RATERS}")
    rng = np.random.default_rng(config.seed)
    pop = random_population(full, config.population_size, rng)
    n_cull = int(config.population_size * config.cull_fraction)
    next_id = config.population_size
    records = []

    for k in range(config.iterations):
        meta = meta_game(full, pop)
        try:
            ratings, lifted = _rate_population(full, meta, pop, rater, config.solver)
        except (RatingError, DistributionError) as exc:
            raise ImprovementLoopError(k, str(exc)) from exc
        gap = cce_gap(full, lifted)
        avg = tuple(float(g.mean()) for g in meta.payoffs)

        culled, kept = [], []
        for p in range(full.num_players):
            # lowest rated first, oldest first on ties, then by index as
            # np.lexsort orders them; reseeded in index order
            rated, ids, born = ratings[p].tolist(), list(pop.ids[p]), list(pop.born[p])
            out = sorted(sorted(range(pop.size), key=lambda i: (rated[i], born[i]))[:n_cull])
            culled.append(tuple(ids[i] for i in out))
            members = pop.members[p].copy()
            members[out] = rng.dirichlet(np.ones(full.shape[p]), size=n_cull)
            for i in out:
                ids[i], born[i] = next_id, k + 1
                next_id += 1
            kept.append((members, tuple(ids), tuple(born)))

        records.append(IterationRecord(k, gap, avg, tuple(culled)))
        members, ids, born = zip(*kept)
        pop = Population(members=members, ids=ids, born=born)

    meta_info = {
        "rater": rater,
        "gap_distribution": "rating-equilibrium" if rater == "deviation" else "uniform-population",
        "avg_payoff": "uniform-over-population",
        "seed": config.seed,
        "population_size": config.population_size,
        "cull_fraction": config.cull_fraction,
        "iterations": config.iterations,
    }
    return Trajectory(records=tuple(records), meta=meta_info)


def save_trajectory(trajectory: Trajectory, path, players: Sequence[str] | None = None) -> None:
    """CSV with leading ``# key: value`` metadata lines, then one row per
    iteration: iteration, cce_gap, one avg_payoff column per player, and
    the culled ids (comma-joined per player, players '|'-separated)."""
    num_players = len(trajectory.records[0].avg_payoffs) if trajectory.records else 0
    names = list(players) if players is not None else [f"p{i + 1}" for i in range(num_players)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(trajectory.meta):
            fh.write(f"# {key}: {trajectory.meta[key]}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "cce_gap", *(f"avg_payoff_{n}" for n in names), "culled"])
        for rec in trajectory.records:
            culled = "|".join(",".join(str(i) for i in ids) for ids in rec.culled)
            writer.writerow(
                [rec.iteration, repr(rec.cce_gap), *(repr(v) for v in rec.avg_payoffs), culled]
            )
