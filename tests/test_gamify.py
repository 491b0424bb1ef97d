import numpy as np
import pytest

from devrating.games import GameValidationError
from devrating.gamify import (
    ScoreTable,
    game_from_table_2pzs,
    game_from_table_3p,
    load_score_table,
    pairwise_margins,
    save_score_table,
)
from devrating.improve import Population, dirichlet_mixtures, meta_game, population_game
from devrating.examples import (
    BIASED_SHAPLEY_EQUALIZER,
    biased_shapley,
    biased_shapley_base,
)
from devrating.rating import deviation_rating


@pytest.fixture
def table():
    rng = np.random.default_rng(7)
    return ScoreTable(
        ("m1", "m2", "m3"),
        ("t1", "t2"),
        np.round(rng.uniform(0, 1, (3, 2)), 3),
    )


def test_score_table_validation():
    with pytest.raises(GameValidationError):
        ScoreTable(("a", "a"), ("t",), np.zeros((2, 1)))
    with pytest.raises(GameValidationError):
        ScoreTable(("a", "b"), ("t",), np.zeros((2, 2)))
    with pytest.raises(GameValidationError):
        ScoreTable(("a",), ("t",), np.array([[np.inf]]))


def test_score_table_rejects_a_string_for_labels():
    # read as labels, "ab" is the models "a" and "b"
    with pytest.raises(GameValidationError, match="not the string"):
        ScoreTable(models="ab", tasks=("t",), scores=np.zeros((2, 1)))
    with pytest.raises(GameValidationError, match="not the string"):
        ScoreTable(models=("a", "b"), tasks="tu", scores=np.zeros((2, 2)))


def test_csv_roundtrip(tmp_path, table):
    path = tmp_path / "scores.csv"
    save_score_table(table, path)
    back = load_score_table(path)
    assert back.models == table.models
    assert back.tasks == table.tasks
    assert np.array_equal(back.scores, table.scores)


def test_game_from_table_3p_payoff_structure(table):
    g = game_from_table_3p(table)
    assert g.players == ("model_a", "model_b", "task")
    assert g.shape == (3, 3, 2)
    s = table.scores
    margin = s[:, None, :] - s[None, :, :]
    assert np.allclose(g.payoffs[0], margin)
    assert np.allclose(g.payoffs[1], -margin)
    assert np.allclose(g.payoffs[2], np.abs(margin))
    # symmetric in the two model players
    assert np.allclose(g.payoffs[0], -np.swapaxes(g.payoffs[0], 0, 1))
    assert np.allclose(g.payoffs[2], np.swapaxes(g.payoffs[2], 0, 1))


def test_game_from_table_3p_model_symmetry(table):
    res = deviation_rating(game_from_table_3p(table))
    assert np.max(np.abs(res.ratings[0] - res.ratings[1])) < 1e-7


def test_game_from_table_2pzs(table):
    g = game_from_table_2pzs(table)
    assert g.shape == (3, 2)
    assert np.allclose(g.payoffs[0], table.scores)
    assert np.allclose(g.payoffs[0] + g.payoffs[1], 0.0)


def test_pairwise_margins_skew_symmetric(table):
    labels, m = pairwise_margins(table)
    assert labels == table.models
    assert np.allclose(m, -m.T)
    want = float((table.scores[0] - table.scores[2]).mean())
    assert m[0, 2] == pytest.approx(want)


def test_population_game_identity_basis():
    base = biased_shapley_base()
    pg = population_game(base, [np.eye(3)[i] for i in range(3)])
    assert np.allclose(pg.payoffs[0], base.payoffs[0])
    assert np.allclose(pg.payoffs[1], base.payoffs[1])


def test_population_game_equalizer_member_matches_table():
    base = biased_shapley_base()
    mixtures = [np.eye(3)[i] for i in range(3)] + [np.array(BIASED_SHAPLEY_EQUALIZER)]
    pg = population_game(base, mixtures)
    full = biased_shapley()
    assert np.max(np.abs(pg.payoffs[0] - full.payoffs[0])) < 1e-9
    assert np.max(np.abs(pg.payoffs[1] - full.payoffs[1])) < 1e-9
    # a population game is the meta-game of both players holding the mixtures
    x = np.vstack(mixtures)
    meta = meta_game(base, Population((x, x)))
    assert all(np.array_equal(a, b) for a, b in zip(pg.payoffs, meta.payoffs))


def test_population_game_duplicate_members_are_clones():
    base = biased_shapley_base()
    w = np.array([0.5, 0.3, 0.2])
    pg = population_game(base, [w, w])
    assert np.allclose(pg.payoffs[0][0], pg.payoffs[0][1])
    assert np.allclose(pg.payoffs[0][:, 0], pg.payoffs[0][:, 1])


def test_population_game_rejects_asymmetric_base():
    rng = np.random.default_rng(1)
    from devrating.games import random_game

    g = random_game(rng, (3, 3))
    with pytest.raises(GameValidationError):
        population_game(g, [np.eye(3)[0]])


def test_dirichlet_mixtures_valid():
    rng = np.random.default_rng(0)
    draws = dirichlet_mixtures(rng, 5, np.array([1.0, 2.0, 0.5]))
    assert len(draws) == 5
    for d in draws:
        assert d.shape == (3,)
        assert abs(d.sum() - 1.0) < 1e-12
        assert d.min() >= 0.0
    with pytest.raises(GameValidationError):
        dirichlet_mixtures(rng, 2, np.array([1.0, -1.0]))
