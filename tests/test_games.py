import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from devrating.games import (
    QUANT_DECIMALS,
    GameValidationError,
    UnknownLabelError,
    append_strategy,
    apply_offset,
    build_game,
    clone_strategy,
    game_from_dict,
    game_to_dict,
    load_game,
    mix_strategy,
    permute_strategies,
    quantize,
    random_game,
    save_game,
)
from devrating.examples import matching_pennies, prisoners_dilemma
from devrating.rating import deviation_rating


def test_build_game_basic():
    g = build_game(
        ("row", "col"),
        (("a", "b"), ("x", "y")),
        (np.zeros((2, 2)), np.ones((2, 2))),
    )
    assert g.num_players == 2
    assert g.shape == (2, 2)
    assert g.num_joints == 4
    assert g.player_index("col") == 1
    assert g.strategy_index(0, "b") == 1
    assert g.strategy_index("col", 1) == 1


def test_build_game_rejects_bad_shapes():
    with pytest.raises(GameValidationError):
        build_game(("p1", "p2"), (("a",), ("x", "y")), (np.zeros((2, 2)), np.zeros((2, 2))))


def test_build_game_rejects_duplicate_labels():
    with pytest.raises(GameValidationError):
        build_game(("p1", "p1"), (("a", "b"), ("x", "y")), (np.zeros((2, 2)),) * 2)
    with pytest.raises(GameValidationError):
        build_game(("p1", "p2"), (("a", "a"), ("x", "y")), (np.zeros((2, 2)),) * 2)


def test_build_game_rejects_a_string_for_labels():
    # a string is a sequence of characters: read as labels, "xy" is players "x" and "y"
    for players, strategies in (("xy", (("a", "b"), ("c", "d"))), (("p1", "p2"), ["ab", "cd"])):
        with pytest.raises(GameValidationError, match="not the string"):
            build_game(players, strategies, (np.zeros((2, 2)),) * 2)


def test_build_game_rejects_nonfinite_with_location():
    payoff = np.zeros((2, 2))
    payoff[1, 0] = np.nan
    with pytest.raises(GameValidationError) as err:
        build_game(("p1", "p2"), (("a", "b"), ("x", "y")), (payoff, np.zeros((2, 2))))
    assert "(1, 0)" in str(err.value)


def test_payoffs_are_quantized_and_readonly():
    payoff = np.full((2, 2), 1.0 + 4.9e-15)
    g = build_game(("p1", "p2"), (("a", "b"), ("x", "y")), (payoff, payoff))
    assert np.all(g.payoffs[0] == 1.0)
    with pytest.raises(ValueError):
        g.payoffs[0][0, 0] = 2.0


def test_unknown_labels_raise():
    g = matching_pennies()
    with pytest.raises(UnknownLabelError):
        g.player_index("nobody")
    with pytest.raises(UnknownLabelError):
        g.strategy_index(0, "nope")


def test_boolean_keys_are_not_indices():
    g = matching_pennies()
    result = deviation_rating(g)
    for key in (True, False, np.True_, np.False_):
        with pytest.raises(UnknownLabelError):
            g.player_index(key)
        with pytest.raises(UnknownLabelError):
            g.strategy_index(0, key)
        with pytest.raises(UnknownLabelError):
            result.rating(key, 0)
        with pytest.raises(UnknownLabelError):
            result.rating(0, key)
    # integers of either kind still index
    assert g.player_index(np.int64(1)) == 1 and result.rating(1, 0) == result.ratings[1][0]


def test_payoff_spread():
    g = prisoners_dilemma()
    assert g.payoff_spread() == 5.0


def test_clone_strategy_duplicates_slices():
    g = prisoners_dilemma()
    c = clone_strategy(g, 0, "C")
    assert c.shape == (3, 2)
    assert c.strategies[0] == ("C", "D", "C#clone-1")
    assert np.allclose(c.payoffs[0][2], c.payoffs[0][0])
    assert np.allclose(c.payoffs[1][2], c.payoffs[1][0])
    c2 = clone_strategy(c, 0, "C")
    assert c2.strategies[0][-1] == "C#clone-2"


def test_mix_strategy_weights():
    g = prisoners_dilemma()
    m = mix_strategy(g, 0, [0.25, 0.75])
    assert m.shape == (3, 2)
    for q in range(2):
        want = 0.25 * g.payoffs[q][0] + 0.75 * g.payoffs[q][1]
        assert np.allclose(m.payoffs[q][2], want)
    with pytest.raises(GameValidationError):
        mix_strategy(g, 0, [0.5, 0.6])
    with pytest.raises(GameValidationError):
        mix_strategy(g, 0, [1.5, -0.5])


def test_append_strategy_shape_checks():
    g = matching_pennies()
    with pytest.raises(GameValidationError):
        append_strategy(g, 0, "x", [np.zeros(3), np.zeros(2)])
    with pytest.raises(GameValidationError):
        append_strategy(g, 0, "H", [np.zeros(2), np.zeros(2)])  # duplicate label


def test_apply_offset_changes_only_target_player():
    g = matching_pennies()
    values = np.array([3.0, -2.0])
    shifted = apply_offset(g, 1, values)
    assert np.allclose(shifted.payoffs[0], g.payoffs[0])
    # Player 2's payoff moves by the offset indexed by the opponent action.
    for i in range(2):
        for j in range(2):
            assert shifted.payoffs[1][i, j] == g.payoffs[1][i, j] + values[i]


def test_permute_strategies_roundtrip():
    g = prisoners_dilemma()
    perm = permute_strategies(g, 0, [1, 0])
    assert perm.strategies[0] == ("D", "C")
    back = permute_strategies(perm, 0, [1, 0])
    assert np.allclose(back.payoffs[0], g.payoffs[0])
    assert back.strategies[0] == g.strategies[0]
    with pytest.raises(GameValidationError):
        permute_strategies(g, 0, [0, 0])


def test_random_game_bounds_and_determinism():
    g1 = random_game(np.random.default_rng(9), (2, 3, 2))
    g2 = random_game(np.random.default_rng(9), (2, 3, 2))
    assert g1.shape == (2, 3, 2)
    for a, b in zip(g1.payoffs, g2.payoffs):
        assert np.array_equal(a, b)
        assert a.min() >= -1 and a.max() <= 1


def test_json_roundtrip(tmp_path):
    g = random_game(np.random.default_rng(3), (2, 3))
    path = tmp_path / "game.json"
    save_game(g, path)
    h = load_game(path)
    assert h.players == g.players
    assert h.strategies == g.strategies
    for a, b in zip(g.payoffs, h.payoffs):
        assert np.array_equal(a, b)
    # serialization is stable
    save_game(h, tmp_path / "game2.json")
    assert (tmp_path / "game.json").read_bytes() == (tmp_path / "game2.json").read_bytes()


def test_game_dict_schema():
    g = matching_pennies()
    d = game_to_dict(g)
    assert set(d) == {"players", "strategies", "payoffs"}
    assert d["players"] == list(g.players)
    restored = game_from_dict(json.loads(json.dumps(d)))
    assert restored.players == g.players


def test_game_from_dict_rejects_garbage():
    with pytest.raises(GameValidationError):
        game_from_dict({"players": ["p1"], "strategies": [["a"]]})
    game = {"players": ["p1", "p2"], "strategies": [["x", "y"], ["z"]], "payoffs": [[1.0, 2.0], [3, 4]]}
    assert game_from_dict(game).shape == (2, 1)
    for field, value in (
        ("players", 5),
        ("players", "ab"),  # not read as the players "a" and "b"
        ("players", [1, 2]),
        ("strategies", 5),
        ("strategies", [5, ["z"]]),
        ("strategies", ["xy", "z"]),  # not read as the strategies "x" and "y"
        ("payoffs", [[{"k": 1}, 2.0], [3.0, 4.0]]),
        ("payoffs", [["1", 2.0], [3.0, 4.0]]),
        ("payoffs", [[True, False], [3.0, 4.0]]),  # not read as 1.0 and 0.0
        ("payoffs", [[[1.0], [2.0, 3.0]], [3.0, 4.0]]),
    ):
        with pytest.raises(GameValidationError):
            game_from_dict({**game, field: value})


@given(st.floats(min_value=-10, max_value=10))
@example(x=8.255111545554435)  # rounds 5.33e-15 away, more than the half unit 5e-15
@settings(max_examples=60, deadline=None)
def test_quantize_error_bound(x):
    q = float(quantize(np.array([x]))[0])
    # np.round scales and scales back, which costs up to about one more ulp
    assert abs(q - x) <= 0.5 * 10.0 ** (-QUANT_DECIMALS) + 2 * np.spacing(abs(x))


def test_quantize_idempotent_and_validates():
    arr = np.array([1.00000000000000049, -2.5e-15])
    q = quantize(arr)
    assert np.array_equal(quantize(q), q)
    assert q[0] == 1.0 and q[1] == 0.0
    # array-likes are read as float64
    assert quantize([1, 2]).dtype == np.float64
