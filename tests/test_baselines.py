import numpy as np
import pytest

from devrating.baselines import (
    EloConfig,
    WinProbMatrix,
    elo_fit,
    nash_averaging_2pzs,
    payoff_to_winprob,
    uniform_rating,
)
from devrating.games import GameValidationError, build_game, random_game
from devrating.rating import deviation_rating
from devrating.examples import biased_shapley, matching_pennies

UNIFORM_TABLE = (-2126.0 / 964.0, -2367.0 / 964.0, -3331.0 / 964.0, -2496.0 / 964.0)


def test_uniform_rating_reference_values():
    ratings = uniform_rating(biased_shapley())
    for p in range(2):
        assert np.max(np.abs(ratings[p] - np.array(UNIFORM_TABLE))) < 1e-12


def test_uniform_rating_is_mean_over_opponents():
    g = random_game(np.random.default_rng(0), (2, 3, 2))
    ratings = uniform_rating(g)
    want = g.payoffs[1].mean(axis=(0, 2))
    assert np.allclose(ratings[1], want)


def test_winprob_matrix_validation():
    with pytest.raises(GameValidationError):
        WinProbMatrix(("a", "b"), np.array([[0.5, 0.8], [0.3, 0.5]]))  # not complementary
    with pytest.raises(GameValidationError):
        WinProbMatrix(("a", "b"), np.array([[0.4, 0.8], [0.2, 0.5]]))  # bad diagonal
    m = WinProbMatrix(("a", "b"), np.array([[0.5, 0.8], [0.2, 0.5]]))
    assert m.probs[0, 1] == 0.8


def test_payoff_to_winprob_affine_map():
    labels = ("a", "b")
    payoffs = np.array([[0.0, 0.5], [-0.5, 0.0]])
    m = payoff_to_winprob(labels, payoffs, margin=1.0)
    assert m.probs[0, 1] == pytest.approx(0.75)
    assert m.probs[1, 0] == pytest.approx(0.25)
    with pytest.raises(GameValidationError):
        payoff_to_winprob(labels, payoffs, margin=0.25)  # exceeds margin
    with pytest.raises(GameValidationError):
        payoff_to_winprob(labels, payoffs, margin=0.0)


def test_elo_two_model_reference_gap():
    # a 0.7597 win probability corresponds to a ~200 point Elo gap
    m = WinProbMatrix(("strong", "weak"), np.array([[0.5, 0.7597], [0.2403, 0.5]]))
    fit = elo_fit(m, EloConfig())
    assert fit.converged
    gap = fit.by_label()["strong"] - fit.by_label()["weak"]
    assert gap == pytest.approx(200.0, abs=0.1)
    assert abs(np.mean(fit.ratings)) < 1e-9  # mean-zero anchor


def test_elo_recovers_logistic_ground_truth():
    rng = np.random.default_rng(8)
    true = rng.uniform(-300, 300, 5)
    true -= true.mean()
    cfg = EloConfig()
    labels = tuple(f"m{i}" for i in range(5))
    probs = np.full((5, 5), 0.5)
    for i in range(5):
        for j in range(5):
            if i != j:
                probs[i, j] = 1.0 / (1.0 + cfg.base ** ((true[j] - true[i]) / cfg.scale))
    fit = elo_fit(WinProbMatrix(labels, probs), cfg)
    assert fit.converged
    assert np.max(np.abs(fit.ratings - true)) < 1e-3


def test_elo_flat_matrix_gives_zeros():
    m = WinProbMatrix(("a", "b", "c"), np.full((3, 3), 0.5))
    fit = elo_fit(m, EloConfig())
    assert np.allclose(fit.ratings, 0.0)


def test_elo_first_zero_anchor():
    m = WinProbMatrix(("a", "b"), np.array([[0.5, 0.7597], [0.2403, 0.5]]))
    fit = elo_fit(m, EloConfig(anchor="first-zero"))
    assert fit.ratings[0] == 0.0
    assert fit.by_label()["b"] == pytest.approx(-200.0, abs=0.1)


@pytest.mark.parametrize("field, value", [
    ("scale", 0.0), ("scale", -400.0), ("scale", np.inf), ("scale", np.nan),
    ("learning_rate", 0.0), ("learning_rate", -1.0), ("learning_rate", np.inf),
    ("base", 1.0), ("base", 0.5), ("base", np.inf), ("base", np.nan),
    ("max_iters", 0), ("max_iters", -3), ("max_iters", 2.5),
    ("anchor", "median-zero"),
])
def test_elo_config_rejects_bad_fields(field, value):
    with pytest.raises(GameValidationError, match=field if field != "anchor" else "unknown anchor"):
        EloConfig(**{field: value})


def test_nash_averaging_matching_pennies():
    res = nash_averaging_2pzs(matching_pennies())
    assert res.value == pytest.approx(0.0, abs=1e-9)
    assert res.unique
    assert np.allclose(res.maximin[0], [0.5, 0.5], atol=1e-9)
    for p in range(2):
        assert np.allclose(res.ratings[p], 0.0, atol=1e-9)


def test_nash_averaging_dominant_column():
    # p1's second row dominates; value is the best p2 can hold it to
    g1 = np.array([[0.0, -1.0], [2.0, 1.0]])
    g = build_game(("p1", "p2"), (("a", "b"), ("x", "y")), (g1, -g1))
    res = nash_averaging_2pzs(g)
    assert res.value == pytest.approx(1.0, abs=1e-8)
    assert res.unique
    assert np.allclose(res.maximin[0], [0.0, 1.0], atol=1e-8)
    assert np.allclose(res.maximin[1], [0.0, 1.0], atol=1e-8)
    # skill ratings: expected payoff of each pure row against maximin play
    assert np.allclose(res.ratings[0], [-1.0, 1.0], atol=1e-8)


def test_nash_averaging_rejects_general_sum():
    g = build_game(
        ("p1", "p2"), (("a", "b"), ("x", "y")),
        (np.ones((2, 2)), np.ones((2, 2))),
    )
    with pytest.raises(GameValidationError):
        nash_averaging_2pzs(g)
    g3 = random_game(np.random.default_rng(0), (2, 2, 2))
    with pytest.raises(GameValidationError):
        nash_averaging_2pzs(g3)


def test_nash_averaging_flags_non_unique():
    # both columns identical for p2: optimal y is any mixture -> not unique
    g1 = np.array([[1.0, 1.0], [-1.0, -1.0]])
    g = build_game(("p1", "p2"), (("a", "b"), ("x", "y")), (g1, -g1))
    res = nash_averaging_2pzs(g, uniqueness_probes=4, seed=1)
    assert not res.unique


def test_deviation_equals_nash_averaging_shifted():
    # two-player zero-sum with a unique equilibrium: deviation ratings are
    # Nash-averaging skill ratings shifted by the game value per player
    rng = np.random.default_rng(21)
    found = 0
    for _ in range(10):
        g1 = rng.uniform(-1, 1, (3, 3))
        g = build_game(("p1", "p2"), (("r1", "r2", "r3"), ("c1", "c2", "c3")), (g1, -g1))
        na = nash_averaging_2pzs(g, uniqueness_probes=3, seed=0)
        if not na.unique:
            continue
        found += 1
        dev = deviation_rating(g)
        assert np.max(np.abs(dev.ratings[0] - (na.ratings[0] - na.value))) < 1e-5
        assert np.max(np.abs(dev.ratings[1] - (na.ratings[1] + na.value))) < 1e-5
    assert found >= 5
