import csv

import numpy as np
import pytest

import devrating.analysis
from devrating.analysis import (
    PROPERTY_NAMES,
    check_property,
    dedup_joints,
    quantize,
    rate_reduced,
    save_contributions,
    symmetrize_payoffs,
    task_contributions,
)
from devrating.baselines import uniform_rating
from devrating.cce import cce_constraint_matrix, spread_over_groups
from devrating.games import GameValidationError, build_game, clone_strategy, random_game
from devrating.gamify import ScoreTable, game_from_table_3p
from devrating.rating import deviation_rating
from devrating.examples import biased_shapley


@pytest.fixture
def rated_table():
    rng = np.random.default_rng(4)
    table = ScoreTable(
        ("m1", "m2", "m3"),
        ("t1", "t2"),
        np.round(rng.uniform(0, 1, (3, 2)), 3),
    )
    game = game_from_table_3p(table)
    return game, deviation_rating(game)


def test_contribution_row_sums_equal_ratings(rated_table):
    game, result = rated_table
    cm = task_contributions(game, result, "model_a")
    assert cm.values.shape == (3, 2)
    assert np.max(np.abs(cm.values.sum(axis=1) - cm.ratings)) < 1e-8


def test_contributions_match_triple_sum(rated_table):
    game, result = rated_table
    cm = task_contributions(game, result, "model_a")
    sigma = result.equilibrium.as_tensor(game.shape)
    g = game.payoffs[0]
    for i in range(3):
        for t in range(2):
            total = 0.0
            for a in range(3):
                for b in range(3):
                    total += sigma[a, b, t] * (g[i, b, t] - g[a, b, t])
            assert cm.values[i, t] == pytest.approx(total, abs=1e-10)


def test_single_task_contribution_equals_rating():
    table = ScoreTable(("m1", "m2"), ("only",), np.array([[0.9], [0.2]]))
    game = game_from_table_3p(table)
    result = deviation_rating(game)
    cm = task_contributions(game, result, "model_a")
    assert np.allclose(cm.values[:, 0], cm.ratings)


def test_contributions_reject_bad_player(rated_table):
    game, result = rated_table
    with pytest.raises(GameValidationError):
        task_contributions(game, result, "task")


def test_contributions_csv_layout(tmp_path, rated_table):
    game, result = rated_table
    cm = task_contributions(game, result, "model_a")
    path = tmp_path / "contrib.csv"
    save_contributions(cm, path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["model", "t1", "t2", "rating"]
    for i, row in enumerate(rows[1:]):
        assert row[0] == cm.models[i]
        assert float(row[-1]) == pytest.approx(float(cm.ratings[i]), abs=1e-12)


def test_symmetrize_fixed_point_and_projection():
    rng = np.random.default_rng(2)
    g = random_game(rng, (3, 3))
    s = symmetrize_payoffs(g, 0, 1)
    assert np.allclose(s.payoffs[1], s.payoffs[0].T)
    assert np.allclose(symmetrize_payoffs(s, 0, 1).payoffs[0], s.payoffs[0])
    with pytest.raises(GameValidationError):
        symmetrize_payoffs(random_game(rng, (2, 3)), 0, 1)


def test_symmetrize_three_player_spectator():
    rng = np.random.default_rng(3)
    g = random_game(rng, (2, 2, 3))
    s = symmetrize_payoffs(g, 0, 1)
    # spectator's payoffs become invariant under swapping the pair
    assert np.allclose(s.payoffs[2], np.swapaxes(s.payoffs[2], 0, 1))


def test_dedup_merges_clone_columns():
    game = clone_strategy(biased_shapley(), 1, "P")
    A = cce_constraint_matrix(game)
    red = dedup_joints(A)
    assert A.num_joints == 20
    assert red.matrix.num_joints == 16
    assert np.count_nonzero(np.bincount(red.labels) > 1) == 4  # one per row of the cloned player's opponent
    # each joint's label names the reduced column its column collapsed into
    assert np.array_equal(red.matrix.values[:, red.labels], quantize(A.values))
    # expansion reproduces row gains
    w = np.random.default_rng(0).dirichlet(np.ones(16))
    assert np.max(np.abs(A.values @ spread_over_groups(w, red.labels) - red.matrix.values @ w)) < 1e-10


def test_dedup_identity_on_distinct_columns():
    g = random_game(np.random.default_rng(5), (2, 3))
    A = cce_constraint_matrix(g)
    red = dedup_joints(A)
    assert red.matrix.num_joints == A.num_joints
    assert np.array_equal(red.labels, np.arange(A.num_joints))


def test_expand_rejects_a_vector_not_one_per_group():
    red = dedup_joints(cce_constraint_matrix(clone_strategy(random_game(np.random.default_rng(6), (2, 2)), 0, 0)))
    assert red.labels.max() + 1 == 4 and red.num_original_joints == 6
    for size in (7, 3):
        with pytest.raises(ValueError, match=f"{size} reduced probabilities for 4 groups"):
            spread_over_groups(np.full(size, 1.0 / size), red.labels)
    assert spread_over_groups(np.full(4, 0.25), red.labels).sum() == pytest.approx(1.0)


def test_rate_reduced_equals_direct_with_clones():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        g1 = rng.uniform(-1, 1, (3, 3))
        g1 = 0.5 * (g1 + g1.T)
        game = build_game(
            ("p1", "p2"),
            (("a", "b", "c"), ("a", "b", "c")),
            (g1, g1.T),
        )
        game = clone_strategy(clone_strategy(game, 0, "b"), 1, "b")
        direct = deviation_rating(game)
        reduced = rate_reduced(game, symmetrize=(("p1", "p2"),))
        for p in range(2):
            assert np.max(np.abs(direct.ratings[p] - reduced.ratings[p])) < 1e-6
        # the expanded equilibrium is still a valid certificate
        from devrating.rating import rating_certificate

        assert rating_certificate(game, reduced).ok()


def test_check_property_all_pass_for_deviation():
    g = random_game(np.random.default_rng(10), (3, 2))
    for name in PROPERTY_NAMES:
        report = check_property(g, name, deviation_rating, seed=3)
        assert report.passed, (name, report.deviation, report.detail)
        assert report.witness is None


def test_bounds_row_minima_equal_dense_row_minima():
    rng = np.random.default_rng(11)
    games = [random_game(rng, shape) for shape in ((2, 3), (3, 1, 4), (2, 2, 3, 2))]
    games.append(build_game(["p1", "p2"], [["a", "b"], ["c", "d", "e"]], [rng.integers(-2, 3, (2, 3)).astype(float) for _ in range(2)]))
    games.append(game_from_table_3p(ScoreTable(("m1", "m2", "m3"), ("t1", "t2"), rng.uniform(0, 1, (3, 2)) * 1e3)))
    games.append(biased_shapley())
    for g in games:
        assert np.array_equal(np.concatenate(devrating.analysis._row_minima(g)), cce_constraint_matrix(g).values.min(axis=1))


def test_check_property_rejects_unknown_name():
    g = random_game(np.random.default_rng(0), (2, 2))
    with pytest.raises(ValueError):
        check_property(g, "sorcery", deviation_rating)


def test_check_property_rejects_bad_tolerance():
    g = random_game(np.random.default_rng(0), (2, 2))
    for tol in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="tolerance"):
            check_property(g, "clone", deviation_rating, tolerance=tol)
    assert check_property(g, "clone", deviation_rating, tolerance=0.0).tolerance == 0.0


def test_uniform_rating_fails_clone_with_witness():
    # cloning shifts uniform averages whenever the cloned strategy's
    # interaction profile is non-uniform, so some seed must fail
    failed = None
    for seed in range(12):
        g = random_game(np.random.default_rng(100 + seed), (3, 3))
        report = check_property(g, "clone", uniform_rating, seed=seed)
        if not report.passed:
            failed = report
            break
    assert failed is not None
    assert failed.witness is not None
    assert set(failed.witness) == {"game", "transformed"}
    assert failed.deviation > failed.tolerance


def test_check_property_accepts_tuple_raters():
    g = random_game(np.random.default_rng(6), (2, 2))
    report = check_property(g, "permutation", uniform_rating, seed=2)
    assert report.passed  # uniform averages permute with the strategies
