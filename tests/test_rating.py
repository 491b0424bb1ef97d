import ast
import dataclasses
import functools
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs

import devrating.cce
import devrating.improve
import devrating.rating
from devrating.cce import cce_constraint_matrix, dedup_joints, joint_groups, spread_over_groups, verify_cce
from devrating.analysis import check_property
from devrating.baselines import uniform_rating
from devrating.games import UnknownLabelError, build_game, clone_strategy, mix_strategy, quantize, random_game, symmetrize_payoffs
from devrating.gamify import ScoreTable, game_from_table_3p
from devrating.improve import LoopConfig, run_improvement_loop
from devrating.rating import (
    RatingError,
    RatingInfeasibleError,
    SolverConfig,
    StageBudgetError,
    detect_active,
    deviation_rating,
    rate_reduced,
    rating_certificate,
    result_to_dict,
)
from devrating.examples import (
    BIASED_SHAPLEY_EQUALIZER,
    biased_shapley,
    matching_pennies,
    prisoners_dilemma,
)

from oracles import oracle_rating

TABLE_RATING = -2720.0 / 964.0


def test_prisoners_dilemma_ratings():
    res = deviation_rating(prisoners_dilemma())
    assert res.rating("p1", "D") == pytest.approx(0.0, abs=1e-9)
    assert res.rating("p1", "C") == pytest.approx(-1.0, abs=1e-9)
    assert res.rating("p2", "C") == pytest.approx(-1.0, abs=1e-9)
    # two stages: defect rows pin at 0, cooperate rows pin at -1
    objectives = [rec.objective for rec in res.freeze_log]
    assert objectives == sorted(objectives, reverse=True)
    assert res.stage_count <= 4
    # the strictest equilibrium is mutual defection
    assert np.allclose(res.equilibrium.probs, [0, 0, 0, 1], atol=1e-9)


def test_rating_lookup_resolves_indices_and_labels():
    res = deviation_rating(prisoners_dilemma())
    assert res.rating(1, 0) == res.rating("p2", res.strategies[1][0]) == float(res.ratings[1][0])
    assert res.rating(np.int64(0), "D") == res.rating("p1", 1)
    for player, strategy in [(-1, -1), (0, -1), (5, 0), (2, 0), (0, 2), ("nobody", "C"), ("p1", "nope"), (0, "nope")]:
        with pytest.raises(UnknownLabelError):
            res.rating(player, strategy)


def test_matching_pennies_ratings_zero():
    res = deviation_rating(matching_pennies())
    for p in ("p1", "p2"):
        for s in ("H", "T"):
            assert res.rating(p, s) == pytest.approx(0.0, abs=1e-9)


def test_biased_shapley_table_values():
    res = deviation_rating(biased_shapley())
    for p in res.players:
        for s in ("R", "P", "S", "N"):
            assert res.rating(p, s) == pytest.approx(TABLE_RATING, abs=1e-6)
    assert res.stage_count <= 8


def test_biased_shapley_certificate():
    game = biased_shapley()
    res = deviation_rating(game)
    cert = rating_certificate(game, res)
    assert cert.ok()
    assert cert.epsilon == verify_cce(game, res.equilibrium).worst_gain
    assert cert.epsilon <= 1e-7
    assert cert.max_gain_error <= 1e-6
    assert cert.objectives_non_increasing
    assert cert.stage_count <= cert.stage_bound == 8


def test_equilibrium_matches_equalizer_structure():
    # At the strictest equilibrium every strategy's gain equals the shared
    # rating, so the returned joint must make all eight rows indifferent.
    game = biased_shapley()
    res = deviation_rating(game)
    check = verify_cce(game, res.equilibrium, epsilon=1e-7)
    assert check.ok
    A = cce_constraint_matrix(game)
    gains = A.values @ res.equilibrium.probs
    assert np.max(np.abs(gains - TABLE_RATING)) < 1e-6


def test_clone_rates_identically():
    game = clone_strategy(biased_shapley(), 0, "R")
    res = deviation_rating(game)
    assert res.rating("p1", "R#clone-1") == pytest.approx(res.rating("p1", "R"), abs=1e-9)


def test_ratings_deterministic():
    g = random_game(np.random.default_rng(33), (3, 4))
    r1 = deviation_rating(g)
    r2 = deviation_rating(g)
    for p in range(2):
        assert np.array_equal(r1.ratings[p], r2.ratings[p])
    assert np.array_equal(r1.equilibrium.probs, r2.equilibrium.probs)


def test_every_row_frozen_exactly_once():
    g = random_game(np.random.default_rng(12), (3, 3))
    res = deviation_rating(g)
    seen = [key for rec in res.freeze_log for key in rec.rows]
    assert len(seen) == len(set(seen)) == 6
    assert res.stage_count <= 6


def test_single_strategy_player():
    g = build_game(
        ("solo", "other"),
        (("only",), ("x", "y")),
        (np.array([[1.0, 2.0]]), np.array([[3.0, 0.0]])),
    )
    res = deviation_rating(g)
    assert res.rating("solo", "only") == 0.0
    assert res.rating("other", "x") == pytest.approx(0.0, abs=1e-9)
    assert res.rating("other", "y") == pytest.approx(-3.0, abs=1e-9)


def test_constant_game_all_zero():
    g = build_game(
        ("p1", "p2"),
        (("a", "b"), ("x", "y")),
        (np.full((2, 2), 2.5), np.full((2, 2), -1.0)),
    )
    res = deviation_rating(g)
    for p in range(2):
        assert np.allclose(res.ratings[p], 0.0)
    # no LP stage needed: all rows are identically zero
    assert np.allclose(res.equilibrium.probs, 0.25)


def test_scale_invariance_of_normalized_solver():
    g = random_game(np.random.default_rng(5), (3, 3))
    scaled = build_game(
        g.players, g.strategies, tuple(t * 1000.0 for t in g.payoffs)
    )
    r = deviation_rating(g)
    rs = deviation_rating(scaled)
    for p in range(2):
        assert np.max(np.abs(rs.ratings[p] - 1000.0 * r.ratings[p])) < 1e-3


def test_stage_budget_error(monkeypatch):
    # a stage that freezes nothing exhausts the budget of one stage per row
    monkeypatch.setattr(devrating.rating._StageModel, "tight_rows", lambda self, *args: ())
    g = random_game(np.random.default_rng(2), (3, 3))
    with pytest.raises(StageBudgetError):
        deviation_rating(g)


def test_tied_payoff_witness_matches_oracle():
    game = build_game(
        ["p1", "p2"],
        [["a", "b"], ["x", "y"]],
        [np.array([[0.0, 2.0], [0.0, 1.0]]), np.array([[1.0, 1.0], [0.0, 0.0]])],
    )
    expected, _ = oracle_rating(game)
    ratings = np.concatenate(deviation_rating(game).ratings)
    assert np.max(np.abs(ratings - expected)) <= 1e-8


def test_discrete_games_match_oracle():
    for k in range(30):
        game = _discrete_game(k)
        expected, _ = oracle_rating(game)
        assert np.max(np.abs(np.concatenate(deviation_rating(game).ratings) - expected)) <= 1e-8, k


def _tied_property_game(k: int):
    """2-3 players with 2-3 strategies each and tied payoffs in -2..2."""
    rng = np.random.default_rng(70_000 + k)
    shape = tuple(int(n) for n in rng.integers(2, 4, size=int(rng.integers(2, 4))))
    return _tied_game(rng, shape)


@pytest.mark.parametrize("name", ["clone", "offset", "permutation"])
def test_invariance_on_tied_payoffs(name):
    failed = [k for k in range(150) if not check_property(_tied_property_game(k), name, deviation_rating, seed=k).passed]
    assert failed == []


def test_mixture_on_tied_payoffs_follows_the_oracle():
    # Adding this mixture of player 2's strategies lowers player 1's
    # rating of b by 0.1929 under the oracle's own rule, so the mixture
    # property fails on this degenerate game for the rule, not the engine.
    game = build_game(
        ["p1", "p2"],
        [["a", "b"], ["x", "y"]],
        [np.array([[2.0, 0.0], [-2.0, 2.0]]), np.array([[1.0, -2.0], [-2.0, -2.0]])],
    )
    mixed = mix_strategy(game, 1, [0.1793, 0.8207])
    expected = {}
    for name, g in (("base", game), ("mixed", mixed)):
        expected[name], _ = oracle_rating(g)
        assert np.max(np.abs(np.concatenate(deviation_rating(g).ratings) - expected[name])) <= 1e-8
    assert expected["base"][1] - expected["mixed"][1] == pytest.approx(0.1929, abs=1e-4)


def test_infeasible_meta_game_rates(monkeypatch):
    # HiGHS once called a stage LP of this meta-game with 6 frozen rows
    # infeasible; its rows have rank 6, so that stage needs no LP
    rated = _recording_rater(monkeypatch)
    rng = np.random.default_rng((1, 0))
    config = LoopConfig(iterations=1, population_size=8, seed=int(rng.integers(2**31)))
    run_improvement_loop(random_game(rng, (3, 3)), "deviation", config)
    [(meta, result)] = rated
    assert rating_certificate(meta, result).ok()


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0])
def test_solver_config_rejects_bad_active_tol(tol):
    with pytest.raises(ValueError, match="active_tol"):
        SolverConfig(active_tol=tol)


def test_detect_active_band_and_ties():
    gains = np.array([-1.0, -0.5, -0.5 + 1e-10, -2.0])
    active = detect_active(gains, objective=-0.5, config=SolverConfig())
    assert active == (1, 2)
    # fallback: nothing within band -> argmax
    active = detect_active(gains, objective=0.5, config=SolverConfig())
    assert active == (2,)
    # frozen rows never reselected
    active = detect_active(gains, objective=-0.5, config=SolverConfig(), frozen={1})
    assert active == (2,)
    # no candidate once every row is frozen
    assert detect_active(gains, objective=-0.5, frozen={0, 1, 2, 3}) == ()
    # a frozen index that names no row
    for bad in (4, -1):
        with pytest.raises(ValueError, match=f"frozen row {bad} is out of range for 4 rows"):
            detect_active(gains, objective=-0.5, frozen={0, bad})


def _repeated_detect_active(gains, rows, tol):
    """The stages that freeze ``rows`` at fixed ``gains``, one
    ``detect_active`` call each, at the largest gain left."""
    frozen = set(range(gains.size)) - set(rows)
    stages = []
    while len(frozen) < gains.size:
        objective = max(gains[i] for i in range(gains.size) if i not in frozen)
        active = detect_active(gains, objective, config=SolverConfig(active_tol=tol), frozen=frozen)
        stages.append((float(objective), active))
        frozen |= set(active)
    return stages


def test_one_pass_tail_matches_repeated_detect_active():
    tol = SolverConfig().active_tol
    tail = devrating.rating._tail_stages
    # a chain of near-ties: row 1 is within tol of rows 0 and 2, which are
    # not within tol of each other
    gains = np.array([0.0, -0.6 * tol, -1.2 * tol])
    assert tail(gains, [0, 1, 2], tol) == [(0.0, (0, 1)), (-1.2 * tol, (2,))]
    assert tail(gains, [0, 1, 2], tol) == _repeated_detect_active(gains, [0, 1, 2], tol)
    rng = np.random.default_rng(11)
    for _ in range(50):
        # clusters of gains 0.4 tol apart, with exact ties, some rows frozen
        gains = -0.1 * rng.integers(0, 3, size=16) - 0.4 * tol * rng.integers(0, 6, size=16)
        rows = sorted(rng.choice(16, size=int(rng.integers(1, 17)), replace=False).tolist())
        assert tail(gains, rows, tol) == _repeated_detect_active(gains, rows, tol)


def test_result_serialization_schema(tmp_path):
    game = prisoners_dilemma()
    res = deviation_rating(game)
    cert = rating_certificate(game, res)
    d = result_to_dict(res, cert)
    assert set(d) == {"ratings", "equilibrium", "freeze_log", "certificate"}
    assert d["ratings"]["p1"]["D"] == pytest.approx(0.0, abs=1e-9)
    assert len(d["equilibrium"]) == 4
    assert all(set(rec) == {"stage", "rows", "objective"} for rec in d["freeze_log"])
    assert d["certificate"]["stage_bound"] == 4


def test_mixture_rating_is_weighted_average():
    g = random_game(np.random.default_rng(77), (3, 3))
    base = deviation_rating(g)
    w = np.array([0.2, 0.5, 0.3])
    mixed = mix_strategy(g, 1, w)
    res = deviation_rating(mixed)
    want = float(w @ base.ratings[1])
    assert res.rating("p2", "mix-1") == pytest.approx(want, abs=1e-7)


def _planted_table(seed: int, models: int, tasks: int, copies: int = 2) -> ScoreTable:
    """Uniform scores under ``copies`` planted copies of a model that is
    best on every task, as in the leaderboard benchmark."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.05, 0.85, size=(models - copies, tasks))
    scores = np.vstack([np.tile(base.max(axis=0) + 0.05, (copies, 1)), base])
    return ScoreTable(
        models=tuple(f"m{i:02d}" for i in range(models)),
        tasks=tuple(f"t{j}" for j in range(tasks)),
        scores=scores,
    )


def _wrap_highs(monkeypatch, **methods) -> None:
    """Make every HiGHS solver the engine takes call
    ``methods[name](highs, *args)`` in place of its own method ``name``."""
    original = devrating.rating._thread_highs

    class Wrapped:
        def __init__(self):
            self._highs = original()

        def __getattr__(self, name):
            if name in methods:
                return functools.partial(methods[name], self._highs)
            return getattr(self._highs, name)

    monkeypatch.setattr(devrating.rating, "_thread_highs", Wrapped)


def _counting_solves(monkeypatch) -> list[int]:
    """Count the engine's HiGHS runs; returns the list of the model's
    column counts, one entry per run."""
    columns: list[int] = []

    def run(highs):
        columns.append(highs.getNumCol())
        return highs.run()

    _wrap_highs(monkeypatch, run=run)
    return columns


def _recording_rater(monkeypatch) -> list:
    """Wrap the improvement loop's rater; returns the list of (meta-game,
    result) pairs it rated."""
    rated = []
    original = devrating.improve.deviation_rating

    def recording(game, *args, **kwargs):
        result = original(game, *args, **kwargs)
        rated.append((game, result))
        return result

    monkeypatch.setattr(devrating.improve, "deviation_rating", recording)
    return rated


def _freeze_sets(result):
    return [(rec.stage, frozenset(rec.rows)) for rec in result.freeze_log]


def _engine_games(monkeypatch) -> list:
    """Two planted 12×12×4 tables, the meta-games of a 10-iteration loop,
    the 30 ``_discrete_game`` games and 20 tied 4×4×4 games."""
    rated = _recording_rater(monkeypatch)
    run_improvement_loop(random_game(np.random.default_rng(8), (3, 3)), "deviation", LoopConfig(iterations=10, population_size=8, seed=5))
    monkeypatch.undo()
    return [
        *(game_from_table_3p(_planted_table(seed, 12, 4)) for seed in (31, 32)),
        *(meta for meta, _ in rated),
        *(_discrete_game(k) for k in range(30)),
        *(_tied_game(np.random.default_rng((4444, k)), (4, 4, 4)) for k in range(20)),
    ]


def test_column_generation_matches_exact_lp(monkeypatch):
    games = [
        game_from_table_3p(_planted_table(11, 12, 4)),
        game_from_table_3p(_planted_table(12, 16, 6)),
        *(random_game(np.random.default_rng(600 + k), (6, 6, 6)) for k in range(3)),
        # tied payoffs: degenerate stage optima over 48 of 64 joints
        *(_tied_game(np.random.default_rng((4444, k)), (4, 4, 4)) for k in range(60)),
    ]
    columns = _counting_solves(monkeypatch)
    working_set = [deviation_rating(games[0])]
    # the first run is over one basis' worth of joints, and t; the table is
    # symmetric in its model players, so its LP has one row per strategy
    # of model_a and of the task player
    assert columns[0] == devrating.rating._Constraints(games[0]).num_rows + 1 == 12 + 4 + 1
    assert max(columns) < games[0].num_joints + 1
    working_set += [deviation_rating(g) for g in games[1:]]
    monkeypatch.undo()
    monkeypatch.setattr(devrating.rating, "WORKING_SET_PER_ROW", 10**9)
    exact = [deviation_rating(g) for g in games]
    for g, cg, ex in zip(games, working_set, exact):
        assert _freeze_sets(cg) == _freeze_sets(ex)
        for p in range(g.num_players):
            assert np.max(np.abs(cg.ratings[p] - ex.ratings[p])) <= 1e-9
    monkeypatch.undo()

    # games no wider than the working set solve every LP over every joint
    for g in (random_game(np.random.default_rng(3), (8, 8)), random_game(np.random.default_rng(4), (2, 2, 2))):
        columns = _counting_solves(monkeypatch)
        deviation_rating(g)
        assert set(columns) == {g.num_joints + 1}
        monkeypatch.undo()


def _all_tied_pennies(n: int):
    """Generalized matching pennies: +1 on the diagonal and -1 off it for
    player 1, the negative for player 2.  Every joint has the same largest
    constraint value, and the equilibrium's support is every joint."""
    payoff = 2.0 * np.eye(n) - 1.0
    return build_game(("p1", "p2"), [[f"s{i}" for i in range(n)]] * 2, [payoff, -payoff])


def _first_joints(constraints) -> np.ndarray:
    """The joints at which the LP's columns stand: the first of each class."""
    return np.flatnonzero(constraints.class_of == np.arange(constraints.class_of.size))


def test_initial_working_set_is_a_lexsort_prefix_covering_every_strategy():
    games = [
        *(_tied_game(np.random.default_rng((4444, k)), (4, 4, 4)) for k in range(20)),
        game_from_table_3p(_planted_table(11, 12, 4)),
        game_from_table_3p(_planted_table(31, 12, 4, copies=3)),
        _all_tied_pennies(100),
    ]
    for game in games:
        constraints = devrating.rating._Constraints(game)
        # the tables are symmetric in their model players: the LP is over
        # the first joint of each orbit, keyed by orbit
        live = _first_joints(constraints)
        joints = constraints.initial_joints(live)
        order = np.lexsort((live, constraints.tie_key(live), constraints.joint_max()[live]))
        assert np.array_equal(joints, np.sort(live[order[: constraints.num_rows]]))
    # every joint ties: the orbits of the set cover every strategy of every
    # player, and a swap of two players with as many strategies exists
    for shape in ((100, 100), (24, 24, 8), (66, 18), (2, 4, 10), (3, 11, 5)):
        game = build_game(
            [f"p{i}" for i in range(len(shape))],
            [[f"s{j}" for j in range(n)] for n in shape],
            [np.zeros(shape)] * len(shape),
        )
        constraints = devrating.rating._Constraints(game)
        assert np.array_equal(constraints.swap, np.arange(game.num_joints)) == (shape[0] != shape[1])
        joints = constraints.initial_joints(_first_joints(constraints))
        assert joints.size == constraints.num_rows == sum(shape) - (shape[1] if shape[0] == shape[1] else 0)
        orbits = np.union1d(joints, constraints.swap[joints])
        for p, a_p in enumerate(np.unravel_index(orbits, shape)):
            assert np.array_equal(np.unique(a_p), np.arange(shape[p]))


def test_wide_support_game_rates_in_few_highs_runs(monkeypatch):
    game = _all_tied_pennies(100)
    columns = _counting_solves(monkeypatch)
    result = deviation_rating(game)
    assert len(columns) <= 3
    assert rating_certificate(game, result).ok()
    assert max(np.abs(r).max() for r in result.ratings) <= 1e-12


def test_certificate_tolerances_scale_with_payoffs():
    table = _planted_table(31, 12, 4)
    for scale in (1.0, 1e12):
        game = game_from_table_3p(ScoreTable(table.models, table.tasks, table.scores * scale))
        result = deviation_rating(game)
        certificate = rating_certificate(game, result)
        assert certificate.payoff_scale == max(1.0, game.payoff_spread())
        assert certificate.ok()
        # a rating off by 1e-5 of the payoff scale fails
        off = dataclasses.replace(result, ratings=(result.ratings[0] + 1e-5 * certificate.payoff_scale, *result.ratings[1:]))
        assert not rating_certificate(game, off).ok()
    # float rounding at this scale exceeds the unscaled gain tolerance
    assert certificate.max_gain_error > 1e-6
    # the monotone check allows a rise of 1e-9 of the payoff scale
    log = list(result.freeze_log)
    for rise, monotone in ((1e-10, True), (1e-8, False)):
        log[-1] = dataclasses.replace(log[-1], objective=log[-2].objective + rise * certificate.payoff_scale)
        rerun = dataclasses.replace(result, freeze_log=tuple(log))
        assert rating_certificate(game, rerun).objectives_non_increasing is monotone


def test_warm_model_matches_cold_solves(monkeypatch):
    games = _engine_games(monkeypatch)
    warm = [deviation_rating(g) for g in games]

    def cold_run(highs):
        # without a basis every run presolves and starts the simplex afresh
        highs.clearSolver()
        return highs.run()

    _wrap_highs(monkeypatch, run=cold_run)
    for g, w in zip(games, warm):
        cold = deviation_rating(g)
        assert _freeze_sets(cold) == _freeze_sets(w)
        # a stage with no LP freezes gains of the last LP solution, which the
        # pins fix only to this bound; warm and cold runs may end on
        # different optimal vertices
        tol = devrating.rating.FIXED_GAIN_TOL * SolverConfig().active_tol * g.payoff_spread()
        for p in range(g.num_players):
            assert np.max(np.abs(cold.ratings[p] - w.ratings[p])) <= tol


def test_rate_reduced_matches_direct_on_working_set_path():
    for seed in (21, 22):
        game = game_from_table_3p(_planted_table(seed, 12, 4))
        direct = deviation_rating(game)
        for symmetrize in ((), (("model_a", "model_b"),)):
            reduced = rate_reduced(game, symmetrize=symmetrize)
            for p in range(3):
                assert np.max(np.abs(direct.ratings[p] - reduced.ratings[p])) <= 1e-9


# with this seed, _planted_table((BENCHMARK_TABLE_SEED, k), 24, 8, copies=3)
# has the scores of table k of the benchmark's ``leaderboard`` set
BENCHMARK_TABLE_SEED = 20250213


def _symmetric_tied_game(rng, n: int):
    """A two-player game (G, G transposed) with payoffs in -2..2."""
    payoff = rng.integers(-2, 3, size=(n, n)).astype(float)
    names = [f"s{i}" for i in range(n)]
    return build_game(["p1", "p2"], [names, names], [payoff, payoff.T])


def _criterion_8_game(trial: int):
    """Criterion 8's symmetric game with one strategy cloned for both
    players, symmetrized as ``rate_reduced`` symmetrizes it."""
    rng = np.random.default_rng(40_000 + trial)
    size = int(rng.integers(3, 5))
    payoff = rng.uniform(-1.0, 1.0, size=(size, size))
    labels = [f"s{i}" for i in range(size)]
    game = build_game(["p1", "p2"], [labels, labels], [payoff, payoff.T])
    target = f"s{int(rng.integers(0, size))}"
    return symmetrize_payoffs(clone_strategy(clone_strategy(game, "p1", target), "p2", target), 0, 1)


def test_player_swap_detection():
    swap = devrating.rating._player_swap
    table = game_from_table_3p(_planted_table(31, 12, 4))
    assert swap(table) == (0, 1)
    assert swap(_symmetric_tied_game(np.random.default_rng(61), 4)) == (0, 1)

    def zeros(*shape):
        return build_game(
            [f"p{i}" for i in range(len(shape))], [[f"s{j}" for j in range(n)] for n in shape], [np.zeros(shape)] * len(shape)
        )

    # the first pair of players with as many strategies, and none without
    assert (swap(zeros(3, 3)), swap(zeros(3, 2, 3)), swap(zeros(3, 4)), swap(zeros(2, 3, 4))) == ((0, 1), (0, 2), None, None)
    # G_q is not G_p with its axes swapped
    payoff = np.random.default_rng(62).normal(size=(3, 3))
    names = ["a", "b", "c"]
    assert swap(build_game(["p1", "p2"], [names, names], [payoff, payoff])) is None
    # the task player's tensor changes under the swap: paid the signed margin
    margin = table.payoffs[0]
    assert swap(build_game(table.players, table.strategies, (margin, -margin, margin))) is None
    # one payoff off by 1e-12 survives quantization and breaks the swap;
    # the full LP's ratings stay next to the quotient's
    payoffs = [g.copy() for g in table.payoffs]
    payoffs[0][3, 0, 2] += 1e-12
    perturbed = build_game(table.players, table.strategies, payoffs)
    assert perturbed.payoffs[0][3, 0, 2] != table.payoffs[0][3, 0, 2]
    assert swap(perturbed) is None
    for a, b in zip(deviation_rating(perturbed).ratings, deviation_rating(table).ratings):
        assert np.max(np.abs(a - b)) <= 1e-10


def test_orbit_quotient_matches_full_lp(monkeypatch):
    games = [
        *(game_from_table_3p(_planted_table(seed, 12, 4)) for seed in (31, 32)),
        game_from_table_3p(_planted_table(31, 12, 4, copies=3)),
        *(game_from_table_3p(_planted_table((BENCHMARK_TABLE_SEED, k), 24, 8, copies=3)) for k in range(3)),
        *(_symmetric_tied_game(np.random.default_rng((6161, k)), 2 + k % 3) for k in range(40)),
    ]
    assert all(devrating.rating._player_swap(g) == (0, 1) for g in games)
    quotient = [deviation_rating(g) for g in games]
    # the full LP: no swap found
    monkeypatch.setattr(devrating.rating, "_player_swap", lambda game: None)
    for g, q in zip(games, quotient):
        full = deviation_rating(g)
        assert [(rec.stage, rec.rows) for rec in q.freeze_log] == [(rec.stage, rec.rows) for rec in full.freeze_log]
        assert q.stage_count == full.stage_count
        tol = devrating.rating.FIXED_GAIN_TOL * SolverConfig().active_tol * g.payoff_spread()
        for p in range(g.num_players):
            assert np.max(np.abs(q.ratings[p] - full.ratings[p])) <= tol
        assert rating_certificate(g, q).ok()
        # the swapped players' ratings are copies, the equilibrium symmetric
        assert np.array_equal(q.ratings[0], q.ratings[1])
        tensor = q.equilibrium.as_tensor(g.shape)
        assert np.array_equal(tensor, np.swapaxes(tensor, 0, 1))


def test_player_swap_runs_once_per_rating(monkeypatch):
    calls = []
    original = devrating.rating._player_swap
    monkeypatch.setattr(devrating.rating, "_player_swap", lambda game: calls.append(game) or original(game))
    symmetrized = functools.partial(rate_reduced, symmetrize=[(0, 1)])
    for game, rates in (
        (game_from_table_3p(_planted_table(31, 12, 4)), (deviation_rating, rate_reduced, symmetrized)),
        (_criterion_8_game(0), (deviation_rating, rate_reduced, symmetrized)),
        (random_game(np.random.default_rng(9), (3, 4, 2)), (deviation_rating, rate_reduced)),
    ):
        for rate in rates:
            calls.clear()
            rate(game)
            assert len(calls) == 1


def test_rate_reduced_merges_duplicates_without_a_swap():
    game = random_game(np.random.default_rng(9), (3, 4, 2))
    game = clone_strategy(clone_strategy(game, "p1", game.strategies[0][1]), "p3", game.strategies[2][0])
    labels = joint_groups(game)
    assert devrating.rating._player_swap(game) is None
    assert game.num_joints - (labels.max() + 1) == 24
    reduced, full = rate_reduced(game), deviation_rating(game)
    for a, b in zip(reduced.ratings, full.ratings):
        assert np.max(np.abs(a - b)) <= 1e-9 * game.payoff_spread()
    # the equilibrium is constant on each group of duplicate joints
    probs = reduced.equilibrium.probs
    assert np.array_equal(probs, probs[np.unique(labels, return_index=True)[1]][labels])
    assert rating_certificate(game, reduced).ok()


def test_symmetric_tied_games_match_oracle():
    for k in range(30):
        game = _symmetric_tied_game(np.random.default_rng((6262, k)), 3 if k % 3 == 0 else 2)
        expected, _ = oracle_rating(game)
        assert np.max(np.abs(np.concatenate(deviation_rating(game).ratings) - expected)) <= 1e-8, k


def test_rate_reduced_rates_swap_classes_in_one_engine_run(monkeypatch):
    rate = devrating.rating._rate
    calls = []

    def counting(*args):
        calls.append(args)
        return rate(*args)

    monkeypatch.setattr(devrating.rating, "_rate", counting)
    # criterion 8's games and criterion 10's table
    for game in [*(_criterion_8_game(trial) for trial in range(25)), game_from_table_3p(_planted_table(2024, 66, 18, copies=4))]:
        calls.clear()
        result = rate_reduced(game)
        assert len(calls) == 1
        assert rating_certificate(game, result).ok()
        # each class, duplicate groups joined with their swaps, is rated
        # by its first joint and gets its mass spread evenly
        tensor = result.equilibrium.as_tensor(game.shape)
        assert np.array_equal(tensor, np.swapaxes(tensor, 0, 1))
        # the classes: groups with the smaller label of a group and its
        # swapped group share a class, named by its first joint
        labels = joint_groups(game)
        swap = np.arange(game.num_joints).reshape(game.shape).swapaxes(0, 1).ravel()
        joined = np.unique(np.minimum(labels, labels[swap]), return_inverse=True)[1].reshape(-1)
        first = np.unique(joined, return_index=True)[1]
        assert np.array_equal(devrating.rating._Constraints(game, labels).class_of, first[joined])


def _tied_game(rng, shape):
    """A game with integer payoffs drawn uniformly from -2..2, so that
    payoffs tie and stage optima are degenerate."""
    return build_game(
        [f"p{i}" for i in range(len(shape))],
        [[f"s{j}" for j in range(n)] for n in shape],
        [rng.integers(-2, 3, size=shape).astype(float) for _ in shape],
    )


# with this seed, _discrete_game(k) has the tensors of game k of the
# benchmark's ``discrete`` set (perfbench/workloads.py)
BENCHMARK_DISCRETE_SEED = 20250211


def _discrete_game(k: int, seed: int = 7070):
    """A small game with tied integer payoffs in -2..2."""
    return _tied_game(np.random.default_rng((seed, k)), [(2, 2), (2, 3), (2, 2, 2)][k % 3])


def test_zero_tolerance_freezes_a_row_every_stage():
    # stage 1 has a row with dual -0.5 whose gain rounds just off t*: the
    # zero-width band must still take it, or later bands hold only rows the
    # face LP releases and the stage budget runs out
    game = _discrete_game(77, BENCHMARK_DISCRETE_SEED)
    result = deviation_rating(game, SolverConfig(0.0))
    assert rating_certificate(game, result).ok()
    expected, _ = oracle_rating(game)
    assert np.max(np.abs(np.concatenate(result.ratings) - expected)) <= 1e-9


def test_ratings_do_not_depend_on_the_tolerance():
    for k in range(2, 200, 5):
        game = _discrete_game(k, BENCHMARK_DISCRETE_SEED)
        reference = np.concatenate(deviation_rating(game).ratings)
        for tol in (0.0, 1e-14, 1e-10, 1e-8, 1e-6):
            ratings = np.concatenate(deviation_rating(game, SolverConfig(tol)).ratings)
            assert np.max(np.abs(ratings - reference)) <= 1e-12 * max(1.0, game.payoff_spread()), (k, tol)


def test_lp_free_stages_match_lp_path(monkeypatch):
    rated = _recording_rater(monkeypatch)
    run_improvement_loop(random_game(np.random.default_rng(8), (3, 3)), "deviation", LoopConfig(iterations=10, population_size=8, seed=5))
    monkeypatch.undo()
    tables = [game_from_table_3p(_planted_table(seed, 12, 4)) for seed in (31, 32)]
    metas = [meta for meta, _ in rated]
    discrete = [_discrete_game(k) for k in range(30)]
    games = tables + metas + discrete
    tail_stages = devrating.rating._tail_stages
    lp_free, skipped = [], []
    for g in games:
        tails = []

        def recording(*args):
            tails.append(args)
            return tail_stages(*args)

        monkeypatch.setattr(devrating.rating, "_tail_stages", recording)
        lp_free.append(deviation_rating(g))
        skipped.append(bool(tails))  # a stage ran no LP
        monkeypatch.undo()
    # every call of the span test is the check that starts the LP-free tail
    monkeypatch.setattr(devrating.rating, "_fixed", lambda values, pins, rows, tol: np.zeros(len(rows), dtype=bool))
    for g, free in zip(games, lp_free):
        with_lp = deviation_rating(g)
        assert _freeze_sets(free) == _freeze_sets(with_lp)
        assert free.stage_count == with_lp.stage_count
        for p in range(g.num_players):
            assert np.max(np.abs(free.ratings[p] - with_lp.ratings[p])) <= 1e-9
    assert skipped[0]  # a table
    assert any(skipped[len(tables) : len(tables) + len(metas)])  # a meta-game
    assert any(skipped[len(tables) + len(metas) :])  # a discrete game

    # negative control: a row just outside the span of the pins is not fixed
    monkeypatch.undo()
    rng = np.random.default_rng(9)
    values = rng.normal(size=(5, 12))
    values[3] = 2.0 * values[0] - values[1] + 0.5  # in the span of rows 0, 1 and the simplex row
    values[4] = values[3]
    values[4, 7] += 1e-6  # just outside it
    tol = devrating.rating.FIXED_GAIN_TOL * SolverConfig().active_tol
    mask = devrating.rating._fixed(values, [0, 1], [2, 3, 4], tol)
    assert mask.tolist() == [False, True, False]

    # pin 2 is 1e-10 away from pin 0, so the Gram-Schmidt drops it as
    # dependent, and row 3, 1e-7 away, is not fixed; a basis cut at eps
    # level (an SVD cut at 12 eps times the largest singular value) keeps
    # pin 2 and calls row 3 fixed
    for seed in range(5):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(4, 12))
        d = rng.normal(size=12)
        values[2] = values[0] + 1e-10 * d
        values[3] = values[0] + 1e-7 * d
        assert devrating.rating._fixed(values, [0, 1, 2], [3], tol).tolist() == [False]


def _lstsq_fixed(values, pins, live, rows, tol) -> list[bool]:
    """The span test by least squares: each row's residual after its best
    fit by the pins and the simplex row on the ``live`` joints."""
    basis = np.column_stack([np.ones(live.size), values[np.ix_(pins, live)].T])
    mask = []
    for i in rows:
        row = values[i, live]
        residual = row - basis @ np.linalg.lstsq(basis, row, rcond=None)[0]
        mask.append(bool(residual.max() - residual.min() <= tol))
    return mask


def test_span_test_drops_dependent_pins_like_lstsq():
    rng = np.random.default_rng(10)
    live = np.array([0, 2, 3, 5, 7, 8, 10, 11])
    values = rng.normal(size=(11, 12))
    values[2] = values[0]  # a duplicated pin
    values[3] = 2.0 * values[0] - 3.0 * values[1]  # a combination of pins
    values[4, live] = 0.7  # constant on the live joints only
    values[5, live] = 3.0 * values[1, live]  # dependent on the live joints only
    values[6] = 0.0  # a zero row, as frozen up front
    values[7] = 0.5 * values[0] + values[1] - 0.25  # in the span
    values[8] = values[7]
    values[8, 5] += 1e-6  # just outside it, on a live joint
    values[9] = values[7]
    values[9, 1] += 1.0  # outside it only on a joint not live
    tol = devrating.rating.FIXED_GAIN_TOL * SolverConfig().active_tol
    rows = [7, 8, 9, 10]
    # on every joint, rows 4 and 5 are pins of their own and row 9 is not fixed
    for joints, fixed in ((live, [True, False, True, False]), (np.arange(12), [True, False, False, False])):
        for pins in ([0, 1], [0, 1, 2], [0, 3, 1], [4, 0, 1], [0, 5, 1], [6, 0, 6, 1, 2, 3, 4, 5, 0]):
            expected = _lstsq_fixed(values, pins, joints, rows, tol)
            assert expected == fixed
            assert devrating.rating._fixed(values[:, joints], pins, rows, tol).tolist() == expected


def test_retired_joints_leave_ratings_unchanged(monkeypatch):
    games = _engine_games(monkeypatch)
    columns = _counting_solves(monkeypatch)
    face = [deviation_rating(games[0])]
    face_runs = len(columns)
    face += [deviation_rating(g) for g in games[1:]]
    monkeypatch.setattr(devrating.rating._StageModel, "retire", lambda self, reduced: None)
    columns.clear()
    full = [deviation_rating(games[0])]
    assert face_runs < len(columns)
    full += [deviation_rating(g) for g in games[1:]]
    for g, f, u in zip(games, face, full):
        assert _freeze_sets(f) == _freeze_sets(u)
        assert f.stage_count == u.stage_count
        # the smaller face can make different stages LP-free, whose ratings
        # the pins fix only to this bound
        tol = devrating.rating.FIXED_GAIN_TOL * SolverConfig().active_tol * g.payoff_spread()
        for p in range(g.num_players):
            assert np.max(np.abs(f.ratings[p] - u.ratings[p])) <= tol


def test_retire_keeps_every_joint_with_zero_reduced_cost():
    # the planted copies make duplicate joint columns, so every joint in
    # the support whose model is a copy has a twin with the same reduced cost
    game = game_from_table_3p(_planted_table(31, 12, 4))
    values = cce_constraint_matrix(game).values / game.payoff_spread()
    joints = np.arange(values.shape[1])
    model = devrating.rating._StageModel(devrating.rating._Constraints(game), joints, joints)
    x, objective, _, reduced = model.solve()
    support = model.working[x > 0]
    model.retire(reduced)
    tol = devrating.rating.PRICING_TOL
    assert np.array_equal(model.live, np.flatnonzero(reduced <= tol))
    assert 0 < model.live.size < values.shape[1]
    twins = [
        k
        for j in support
        for k in np.flatnonzero((values == values[:, [j]]).all(axis=0))
        if k != j
    ]
    assert twins and np.isin(twins, model.live).all()
    assert np.abs(reduced[twins]).max() <= tol
    # the optimum of the stage survives on the joints still live
    assert model.solve()[1] == pytest.approx(objective, abs=1e-12)


def test_live_joints_stay_sorted_and_hold_the_working_set(monkeypatch):
    # the stage model finds working-set joints in ``live`` by binary search
    calls = {"retire": 0, "_add": 0, "retired": 0}

    def checked(name):
        method = getattr(devrating.rating._StageModel, name)

        def wrapper(self, *args):
            before = self.live.size
            method(self, *args)
            calls[name] += 1
            calls["retired"] += before - self.live.size
            assert (np.diff(self.live) > 0).all()
            assert np.isin(self.working, self.live).all()

        monkeypatch.setattr(devrating.rating._StageModel, name, wrapper)

    checked("retire")
    checked("_add")
    # over orbits, the two-copy 12x12x4 tables need no pricing round
    table = game_from_table_3p(_planted_table(31, 12, 4, copies=3))
    deviation_rating(table)
    # column generation: pricing adds joints after the initial working set
    assert calls["_add"] > 1 and calls["retired"] > 0
    adds = calls["_add"]
    # meta-games no wider than the working set: every joint at once
    run_improvement_loop(random_game(np.random.default_rng(8), (3, 3)), "deviation", LoopConfig(iterations=3, population_size=8, seed=5))
    assert calls["_add"] > adds
    adds = calls["_add"]
    rate_reduced(game_from_table_3p(_planted_table(32, 12, 4, copies=3)))
    assert calls["_add"] > adds


def test_face_lp_releases_a_band_row_on_tied_payoffs(monkeypatch):
    # a band row with a zero dual is not always tight at every optimum
    tight_rows = devrating.rating._StageModel.tight_rows
    released = []

    def recording_tight_rows(self, band, *args):
        active = tight_rows(self, band, *args)
        released.append(len(active) < len(band))
        return active

    monkeypatch.setattr(devrating.rating._StageModel, "tight_rows", recording_tight_rows)
    for k in range(150):
        deviation_rating(_tied_property_game(k))
    assert any(released)


def _linprog_stage_one(game) -> float:
    """The stage-1 optimum, min t subject to every nonzero constraint row
    of ``game`` being <= t over the simplex, as ``linprog`` finds it."""
    values = cce_constraint_matrix(game).values
    values = values[values.any(axis=1)]
    m, n = values.shape
    res = linprog(
        np.append(np.zeros(n), 1.0),
        A_ub=np.hstack((values, -np.ones((m, 1)))),
        b_ub=np.zeros(m),
        A_eq=np.append(np.ones(n), 0.0)[None],
        b_eq=[1.0],
        bounds=[(0, None)] * n + [(None, None)],
        method="highs",
    )
    assert res.status == 0
    return float(res.fun)


def test_direct_stage_lp_matches_linprog(monkeypatch):
    rated = _recording_rater(monkeypatch)
    run_improvement_loop(random_game(np.random.default_rng(8), (3, 3)), "deviation", LoopConfig(iterations=1, population_size=8, seed=5))
    monkeypatch.undo()
    [(meta, _)] = rated
    table = game_from_table_3p(_planted_table(31, 12, 4))
    columns = _counting_solves(monkeypatch)
    deviation_rating(table)
    assert len(set(columns)) > 1  # a pricing re-solve on the table
    monkeypatch.undo()
    for g in [table, meta, *(_discrete_game(k) for k in range(6))]:
        [objective] = [rec.objective for rec in deviation_rating(g).freeze_log if rec.stage == 1]
        assert objective == pytest.approx(_linprog_stage_one(g), abs=1e-9 * g.payoff_spread())


def test_direct_attempt_failing_the_residual_check_raises(monkeypatch):
    def off_by_1e3(highs):
        """The reported activity of the last row, the simplex row, misses
        by 1e-3; it is an equality row, so only the equality-residual
        check can catch it."""
        solution = highs.getSolution()
        solution.row_value = [*solution.row_value[:-1], solution.row_value[-1] + 1e-3]
        return solution

    _wrap_highs(monkeypatch, getSolution=off_by_1e3)
    with pytest.raises(RatingError, match="misses its constraints") as err:
        deviation_rating(prisoners_dilemma())
    assert err.value.model_status == "Optimal"
    assert "HiGHS model status 'Optimal'" in str(err.value)


def test_infeasible_stage_lp_reports_model_status_and_pins():
    # no distribution meets row 0 of the prisoner's dilemma frozen below its smallest value
    game = prisoners_dilemma()
    values = cce_constraint_matrix(game).values / game.payoff_spread()
    joints = np.arange(values.shape[1])
    model = devrating.rating._StageModel(devrating.rating._Constraints(game), joints, joints)
    bound = float(values[0].min()) - 1.0
    model.freeze([0], [bound])
    with pytest.raises(RatingInfeasibleError) as err:
        model.solve()
    assert (err.value.model_status, err.value.frozen) == ("Infeasible", {0: bound})
    assert "HiGHS model status 'Infeasible'" in str(err.value)


def test_non_optimal_stage_lp_raises_with_model_status(monkeypatch):
    def no_iterations():
        # a solver of its own, so the limit stays out of the thread's solver
        highs = devrating.rating._new_highs()
        highs.setOptionValue("simplex_iteration_limit", 0)
        return highs

    monkeypatch.setattr(devrating.rating, "_thread_highs", no_iterations)
    with pytest.raises(RatingError, match="Iteration limit reached") as err:
        deviation_rating(game_from_table_3p(_planted_table(31, 12, 4)))
    assert not isinstance(err.value, RatingInfeasibleError)
    assert err.value.model_status == "Iteration limit reached"


@pytest.mark.parametrize(
    "reported, expected",
    [(HighsModelStatus.kPostsolveError, "Postsolve error"), (HighsModelStatus.kOptimal, "Solve error")],
)
def test_failed_run_raises_with_model_status(monkeypatch, reported, expected):
    # a run that returns kError keeps HiGHS's own model status, and never counts as optimal
    def failed_run(highs):
        highs.run()
        return HighsStatus.kError

    _wrap_highs(monkeypatch, run=failed_run, getModelStatus=lambda highs: reported)
    with pytest.raises(RatingError) as err:
        deviation_rating(prisoners_dilemma())
    assert not isinstance(err.value, RatingInfeasibleError)
    assert err.value.model_status == expected


def test_highs_binds_every_method_the_engine_calls():
    # fails by name on a scipy whose HiGHS bindings lack a method the engine calls
    tree = ast.parse(Path(devrating.rating.__file__).read_text(encoding="utf-8"))
    called = {
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and ast.unparse(node.func.value) in ("highs", "self._highs")
    }
    assert {"run", "addCols", "changeCoeff", "changeRowBounds", "changeColBounds", "deleteCols", "changeColsCost", "getSolution"} <= called
    assert [name for name in sorted(called) if not hasattr(_Highs, name)] == []


def test_missing_highs_bindings_name_the_required_scipy():
    # scipy.optimize itself imports the bindings, so hide them only after it
    src = str(Path(devrating.rating.__file__).resolve().parents[1])
    code = (
        "import sys, scipy.optimize\n"
        "sys.modules['scipy.optimize._highspy._core'] = None\n"
        f"sys.path.insert(0, {src!r})\n"
        "import devrating\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode != 0
    assert "ImportError: devrating needs scipy>=1.15.0" in proc.stderr


def _operator_games() -> list:
    """Games of 2-4 players at mixed payoff scales, among them players
    with one strategy and players whose payoffs ignore their own strategy,
    whose rows are all zero."""
    rng = np.random.default_rng(55)
    games = []
    for shape in ((2, 3), (3, 1, 4), (2, 2, 3, 2), (4, 3, 2), (1, 5)):
        payoffs = [rng.normal(size=shape) * 10.0 ** int(rng.integers(-3, 3)) for _ in shape]
        payoffs[-1] = np.broadcast_to(np.take(payoffs[-1], [0], axis=len(shape) - 1), shape)
        games.append(build_game(
            [f"p{i}" for i in range(len(shape))], [[f"s{j}" for j in range(n)] for n in shape], payoffs
        ))
    return games


def test_constraint_operator_matches_dense_matrix():
    rng = np.random.default_rng(56)
    zero = []
    for game in _operator_games():
        values = cce_constraint_matrix(game).values / game.payoff_spread()
        constraints = devrating.rating._Constraints(game)
        # no swap: every joint is its own class, every row its own LP row
        joints = np.arange(game.num_joints)
        assert np.array_equal(constraints.swap, joints) and np.array_equal(constraints.class_of, joints)
        assert np.array_equal(constraints.row_of, np.arange(values.shape[0]))
        subset = rng.permutation(game.num_joints)[: max(1, game.num_joints // 2)]
        assert np.array_equal(constraints.columns(np.arange(game.num_joints)), values)
        assert np.array_equal(constraints.columns(subset), values[:, subset])
        assert np.array_equal(constraints.zero_rows(), ~values.any(axis=1))
        zero.append(constraints.zero_rows().any())
        assert np.max(np.abs(constraints.joint_max() - values.max(axis=0))) <= 1e-12
        for y in (rng.normal(size=values.shape[0]), rng.uniform(size=values.shape[0])):
            assert np.max(np.abs(constraints.price(y) - y @ values)) <= 1e-12
    assert all(zero)


def test_orbit_operator_matches_dense_quotient():
    rng = np.random.default_rng(58)
    # symmetric in players 0 and 2, with player 1 between them
    r0, r1 = rng.normal(size=(3, 2, 3)), rng.normal(size=(3, 2, 3))
    between = build_game(["p0", "p1", "p2"], [["a", "b", "c"], ["x", "y"], ["a", "b", "c"]], [r0, r1 + np.swapaxes(r1, 0, 2), np.swapaxes(r0, 0, 2)])
    games = [game_from_table_3p(_planted_table(31, 12, 4)), _symmetric_tied_game(rng, 3), between]
    for game, pair in zip(games, [(0, 1), (0, 1), (0, 2)]):
        assert devrating.rating._player_swap(game) == pair
        values = cce_constraint_matrix(game).values / game.payoff_spread()
        constraints = devrating.rating._Constraints(game)
        swap = np.arange(game.num_joints).reshape(game.shape).swapaxes(*pair).ravel()
        assert np.array_equal(constraints.swap, swap)
        # the rows of every player but q, each column the mean of its orbit's
        p, q = pair
        start = np.cumsum((0,) + game.shape)
        kept = np.r_[0 : start[q], start[q + 1] : start[-1]]
        quotient = ((values + values[:, swap]) / 2)[kept]
        joints = np.arange(game.num_joints)
        assert constraints.num_rows == kept.size
        assert np.max(np.abs(constraints.columns(joints) - quotient)) <= 1e-15
        assert np.array_equal(constraints.zero_rows(), ~quotient.any(axis=1))
        assert np.max(np.abs(constraints.joint_max() - (values.max(axis=0) + values.max(axis=0)[swap]) / 2)) <= 1e-15
        for y in (rng.normal(size=kept.size), rng.uniform(size=kept.size)):
            assert np.max(np.abs(constraints.price(y) - y @ quotient)) <= 1e-12
        # the equilibrium and ratings of a rating, orbit by orbit: the
        # classes are the orbits, each at its smaller joint, and a rating
        # splits each orbit's mass evenly
        assert np.array_equal(constraints.class_of, np.minimum(joints, swap))
        probs = deviation_rating(game).equilibrium.probs
        assert np.array_equal(probs, probs[swap]) and probs.sum() == pytest.approx(1.0)
        assert np.array_equal(constraints.row_of[kept], np.arange(kept.size))
        assert np.array_equal(constraints.row_of[start[q] : start[q + 1]], constraints.row_of[start[p] : start[p + 1]])


def _traced(call):
    """``call()`` and the peak of the memory it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_column_gather_allocates_at_most_two_and_a_half_blocks():
    game = random_game(np.random.default_rng(57), (30, 30, 8))
    constraints = devrating.rating._Constraints(game)
    joints = np.arange(game.num_joints)
    values, peak = _traced(lambda: constraints.columns(joints))
    assert values.shape == (68, game.num_joints)
    assert peak <= 2.5 * values.nbytes


def test_rating_never_forms_the_constraint_matrix(monkeypatch):
    # criterion 10's table; its dense constraint matrix takes 94 MB
    game = game_from_table_3p(_planted_table(2024, 66, 18, copies=4))
    dense = sum(game.shape) * game.num_joints * 8

    def forbidden(*args):
        raise AssertionError("the rating built the dense constraint matrix")

    monkeypatch.setattr(devrating.cce, "cce_constraint_matrix", forbidden)
    monkeypatch.setattr(devrating.cce, "dedup_joints", forbidden)
    # grouping duplicate joints reads each player's block of rows in turn
    for rate, bound in ((deviation_rating, dense / 4), (rate_reduced, 3 * dense)):
        result, peak = _traced(lambda: rate(game))
        assert result.stage_count == 51
        assert peak < bound
    report, peak = _traced(lambda: check_property(game, "bounds", uniform_rating))
    assert report.property == "bounds" and peak < dense / 4


def test_cyclic_game_rates_in_one_stage_without_the_live_block():
    # A[i, i+1] = 1 and A[i+1, i] = -1 mod 200, zero-sum: one 400 x 40 000
    # block of live columns would take 128 MB
    n = 200
    a = np.zeros((n, n))
    a[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    a[(np.arange(n) + 1) % n, np.arange(n)] = -1.0
    names = [f"s{i}" for i in range(n)]
    game = build_game(["p1", "p2"], [names, names], [a, -a])
    result, peak = _traced(lambda: deviation_rating(game))
    assert result.stage_count == 1
    assert rating_certificate(game, result).ok()
    assert peak < 32 * 2**20


def _bytewise_labels(game) -> np.ndarray:
    """The duplicate rule one column at a time: quantized columns that are
    bytewise equal share a label, numbered by first occurrence."""
    seen = {}
    columns = np.ascontiguousarray(quantize(cce_constraint_matrix(game).values).T)
    return np.array([seen.setdefault(column.tobytes(), len(seen)) for column in columns])


def test_joint_groups_equal_dense_dedup_groups():
    games = [game_from_table_3p(_planted_table(31, 12, 4)), game_from_table_3p(_planted_table(32, 12, 4, copies=3))]
    games += [_tied_game(np.random.default_rng((4444, k)), (4, 4, 4)) for k in range(20)]
    games += [_criterion_8_game(trial) for trial in range(25)]
    for game in games:
        labels = joint_groups(game)
        assert np.array_equal(labels, dedup_joints(cce_constraint_matrix(game)).labels)
        assert np.array_equal(labels, _bytewise_labels(game))
    # criterion 10's table: same groups, and the equilibrium spread over
    # them as spread_over_groups spreads it
    game = game_from_table_3p(_planted_table(2024, 66, 18, copies=4))
    labels, dense = joint_groups(game), dedup_joints(cce_constraint_matrix(game))
    assert np.array_equal(labels, dense.labels) and labels.max() + 1 == 71_442
    first = np.unique(labels, return_index=True)[1]
    probs = rate_reduced(game).equilibrium.probs
    assert np.array_equal(probs, spread_over_groups(probs[first] * np.bincount(labels), dense.labels))


def test_thread_solver_reuse_leaves_ratings_bitwise():
    assert devrating.rating._thread_highs() is devrating.rating._thread_highs()
    table = game_from_table_3p(_planted_table(31, 12, 4))
    before = [game_from_table_3p(_planted_table(32, 12, 4)), _tied_game(np.random.default_rng((4444, 0)), (4, 4, 4)), _discrete_game(2)]
    results = {}

    def rate(name, games):
        results[name] = [deviation_rating(g) for g in games][-1]

    # a new thread starts with a solver of its own
    for name, games in (("first", [table]), ("after", [*before, table])):
        thread = threading.Thread(target=rate, args=(name, games))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
    first, after = results["first"], results["after"]
    assert first.freeze_log == after.freeze_log and first.stage_count == after.stage_count
    assert all(np.array_equal(x, y) for x, y in zip(first.ratings, after.ratings))
    assert np.array_equal(first.equilibrium.probs, after.equilibrium.probs)


def test_mixed_payoff_scales_keep_oracle_and_certificates():
    # HiGHS scales the stage LPs; without that, a player whose payoffs are
    # far smaller than the others' gets wrong ratings
    for scale in (1e-4, 1e-6):
        for k in range(24):
            shape = ((2, 2), (2, 3), (3, 3), (2, 2, 2))[k % 4]
            base = random_game(np.random.default_rng((8080, k)), shape)
            small = k % len(shape)
            payoffs = [g * scale if p == small else g for p, g in enumerate(base.payoffs)]
            game = build_game(base.players, base.strategies, payoffs)
            result = deviation_rating(game)
            if scale == 1e-4:
                reference, _ = oracle_rating(game)
                assert np.max(np.abs(np.concatenate(result.ratings) - reference)) <= 1e-6
            else:
                assert rating_certificate(game, result).ok()


_DIGEST = """
import hashlib
import numpy as np
from devrating import ScoreTable, deviation_rating, game_from_table_3p
rng = np.random.default_rng(2024)
base = rng.uniform(0.05, 0.85, size=(62, 18))
scores = np.vstack([np.tile(base.max(axis=0) + 0.05, (4, 1)), base])
table = ScoreTable(
    models=tuple(f"model{i:02d}" for i in range(66)),
    tasks=tuple(f"task{j:02d}" for j in range(18)),
    scores=scores,
)
result = deviation_rating(game_from_table_3p(table))
digest = hashlib.sha256()
for r in result.ratings:
    digest.update(r.tobytes())
digest.update(result.equilibrium.probs.tobytes())
digest.update(repr(result.freeze_log).encode())
print(digest.hexdigest())
"""


def test_rating_is_bitwise_equal_across_blas_thread_counts():
    # criterion 10's rating, with one and with two BLAS threads
    src = str(Path(devrating.rating.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", _DIGEST], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]
