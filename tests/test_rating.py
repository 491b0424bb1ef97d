import ast
import functools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs

import devrating.improve
import devrating.rating
from devrating.cce import cce_constraint_matrix, verify_cce
from devrating.analysis import check_property
from devrating.games import build_game, clone_strategy, mix_strategy, random_game
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
    monkeypatch.setattr(devrating.rating, "detect_active", lambda *args, **kwargs: ())
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
    """Make every HiGHS solver the engine creates call
    ``methods[name](highs, *args)`` in place of its own method ``name``."""
    original = devrating.rating._new_highs

    class Wrapped:
        def __init__(self):
            self._highs = original()

        def __getattr__(self, name):
            if name in methods:
                return functools.partial(methods[name], self._highs)
            return getattr(self._highs, name)

    monkeypatch.setattr(devrating.rating, "_new_highs", Wrapped)


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


def _tied_game(rng, shape):
    """A game with integer payoffs drawn uniformly from -2..2, so that
    payoffs tie and stage optima are degenerate."""
    return build_game(
        [f"p{i}" for i in range(len(shape))],
        [[f"s{j}" for j in range(n)] for n in shape],
        [rng.integers(-2, 3, size=shape).astype(float) for _ in shape],
    )


def _discrete_game(k: int):
    """A small game with tied integer payoffs in -2..2."""
    return _tied_game(np.random.default_rng((7070, k)), [(2, 2), (2, 3), (2, 2, 2)][k % 3])


def _span_test_calls(monkeypatch, off: str | None = None) -> list[tuple[str, np.ndarray]]:
    """Record every call of the span test ``_fixed`` as (site, mask): site
    "shortcut" for a call from ``tight_rows``, "tail" for the one that
    starts the LP-free tail.  At the site ``off``, no row is fixed."""
    fixed = devrating.rating._fixed
    tight_rows = devrating.rating._StageModel.tight_rows
    calls, inside = [], []

    def in_tight_rows(self, *args):
        inside.append(True)
        try:
            return tight_rows(self, *args)
        finally:
            inside.pop()

    def recording(values, pins, live, rows, tol):
        site = "shortcut" if inside else "tail"
        mask = np.zeros(len(rows), dtype=bool) if site == off else fixed(values, pins, live, rows, tol)
        calls.append((site, mask))
        return mask

    monkeypatch.setattr(devrating.rating._StageModel, "tight_rows", in_tight_rows)
    monkeypatch.setattr(devrating.rating, "_fixed", recording)
    return calls


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
    _span_test_calls(monkeypatch, off="tail")
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
    mask = devrating.rating._fixed(values, [0, 1], np.arange(12), [2, 3, 4], tol)
    assert mask.tolist() == [False, True, False]


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
            assert devrating.rating._fixed(values, pins, joints, rows, tol).tolist() == expected


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
    model = devrating.rating._StageModel(values, np.arange(values.shape[1]))
    x, objective, _, reduced = model.solve()
    model.retire(reduced)
    tol = devrating.rating.PRICING_TOL
    assert np.array_equal(model.live, np.flatnonzero(reduced <= tol))
    assert 0 < model.live.size < values.shape[1]
    twins = [
        k
        for j in model.working[x > 0]
        for k in np.flatnonzero((values == values[:, [j]]).all(axis=0))
        if k != j
    ]
    assert twins and np.isin(twins, model.live).all()
    assert np.abs(reduced[twins]).max() <= tol
    # the optimum of the stage survives on the joints still live
    assert model.solve()[1] == pytest.approx(objective, abs=1e-12)


def test_span_shortcut_keeps_no_row_the_lp_test_releases(monkeypatch):
    calls = _span_test_calls(monkeypatch)
    tight_rows = devrating.rating._StageModel.tight_rows
    released = []

    def recording_tight_rows(self, band, *args):
        active = tight_rows(self, band, *args)
        released.append(len(active) < len(band))  # only the LP test releases a row
        return active

    monkeypatch.setattr(devrating.rating._StageModel, "tight_rows", recording_tight_rows)
    deviation_rating(game_from_table_3p(_planted_table(31, 12, 4)))
    assert any(mask.any() for site, mask in calls if site == "shortcut")
    released.clear()
    games = [_tied_property_game(k) for k in range(150)]
    shortcut = [deviation_rating(g) for g in games]
    assert any(released)
    monkeypatch.undo()
    _span_test_calls(monkeypatch, off="shortcut")
    for g, s in zip(games, shortcut):
        assert _freeze_sets(deviation_rating(g)) == _freeze_sets(s)


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
    values = cce_constraint_matrix(prisoners_dilemma()).values
    model = devrating.rating._StageModel(values, np.arange(values.shape[1]))
    bound = float(values[0].min()) - 1.0
    model.freeze([0], [bound])
    with pytest.raises(RatingInfeasibleError) as err:
        model.solve()
    assert (err.value.model_status, err.value.frozen) == ("Infeasible", {0: bound})
    assert "HiGHS model status 'Infeasible'" in str(err.value)


def test_non_optimal_stage_lp_raises_with_model_status(monkeypatch):
    original = devrating.rating._new_highs

    def no_iterations():
        highs = original()
        highs.setOptionValue("simplex_iteration_limit", 0)
        return highs

    monkeypatch.setattr(devrating.rating, "_new_highs", no_iterations)
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
    assert {"run", "addCols", "changeCoeff", "changeRowBounds", "changeColBounds", "changeColsBounds", "changeColsCost", "getSolution"} <= called
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
