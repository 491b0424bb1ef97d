"""Tests of the benchmark's own checker and tracer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import devrating as dr  # noqa: E402
from devrating.examples import biased_shapley, prisoners_dilemma  # noqa: E402

import checker  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _check(game, result):
    return checker.check_rating(game.payoffs, result.ratings, result.equilibrium.probs)


def test_gains_match_library_on_three_players():
    game = dr.random_game(np.random.default_rng(5), (2, 3, 4))
    sigma = np.random.default_rng(6).dirichlet(np.ones(game.num_joints))
    expected = dr.deviation_gains(game, dr.JointDistribution(sigma))
    for mine, lib in zip(checker.gains(game.payoffs, sigma), expected):
        np.testing.assert_allclose(mine, lib, atol=1e-12)


def test_accepts_biased_shapley():
    game = biased_shapley()
    result = dr.deviation_rating(game)
    assert _check(game, result) == []
    for ratings in result.ratings:
        np.testing.assert_allclose(ratings, -2720.0 / 964.0, atol=1e-9)


def test_accepts_prisoners_dilemma():
    game = prisoners_dilemma()
    assert _check(game, dr.deviation_rating(game)) == []


def test_rejects_corrupted_rating():
    game = prisoners_dilemma()
    result = dr.deviation_rating(game)
    ratings = [r.copy() for r in result.ratings]
    ratings[1][0] -= 0.01
    problems = checker.check_rating(game.payoffs, ratings, result.equilibrium.probs)
    assert any("differ from gains" in p for p in problems)


def test_rejects_corrupted_equilibrium():
    game = prisoners_dilemma()
    result = dr.deviation_rating(game)
    # All mass on (C, C): both players gain by defecting.
    sigma = np.zeros(game.num_joints)
    sigma[0] = 1.0
    problems = checker.check_rating(game.payoffs, result.ratings, sigma)
    assert any("not a CCE" in p for p in problems)


def test_leaderboard_checks():
    ratings = (np.array([-0.1, -0.1, -0.3]), np.array([-0.1, -0.1, -0.3]))
    assert checker.check_leaderboard(ratings, copies=2) == []
    assert checker.check_leaderboard((np.array([-0.1, -0.2, -0.3]),) * 2, copies=2)
    assert checker.check_leaderboard((np.array([-0.1, -0.1, 0.0]),) * 2, copies=2)
    assert checker.check_leaderboard((ratings[0], np.array([-0.1, -0.1, -0.2])), copies=2)


def test_tracer_restores_bindings_and_keeps_ratings_bitwise():
    game = workloads.game_from_payoffs(workloads.discrete_payoffs()[2])
    plain = dr.deviation_rating(game)
    before = (dr.rating.linprog, dr.rating.sp, dr.improve.deviation_rating, dr.build_game)
    tracer = tracing.Tracer()
    with tracer:
        assert dr.rating.linprog is not before[0]
        traced = dr.deviation_rating(game)
    assert (dr.rating.linprog, dr.rating.sp, dr.improve.deviation_rating, dr.build_game) == before
    assert traced.equilibrium.probs.tobytes() == plain.equilibrium.probs.tobytes()
    for a, b in zip(plain.ratings, traced.ratings):
        assert a.tobytes() == b.tobytes()
    totals = tracer.totals()
    assert totals["ratings"] == 1
    assert totals["stages"] == plain.stage_count == totals["lp_calls"]
    root = [s for s in tracer.spans if s["parent"] is None]
    assert [s["layer"] for s in root] == ["rating.engine_self"]
    wall = root[0]["end"] - root[0]["start"]
    assert sum(s["self"] for s in tracer.spans) == pytest.approx(wall, rel=1e-9)


def test_tracer_refuses_an_unbound_solver(monkeypatch):
    monkeypatch.setattr(dr.rating, "linprog", lambda *a, **k: None)
    before = dr.rating.sp
    with pytest.raises(tracing.TraceError):
        with tracing.Tracer():
            pass
    assert dr.rating.sp is before


def test_rating_error_is_a_failed_operation(monkeypatch):
    def fail(game, *args, **kwargs):
        raise dr.RatingInfeasibleError("stage LP infeasible", {})

    monkeypatch.setattr(dr, "deviation_rating", fail)
    op = workloads.run_operation("discrete", 0, workloads.discrete_payoffs()[0])
    assert (op.attempted, op.rated, op.error) == (1, [], "RatingInfeasibleError: stage LP infeasible")


def test_loop_error_is_a_failed_operation(monkeypatch):
    original = dr.improve.deviation_rating
    calls = []

    def fail_third(game, *args, **kwargs):
        calls.append(game)
        if len(calls) == 3:
            raise dr.RatingInfeasibleError("stage LP infeasible", {})
        return original(game, *args, **kwargs)

    monkeypatch.setattr(dr.improve, "deviation_rating", fail_third)
    op = workloads.run_operation("loop", 0, workloads.loop_input(0))
    assert op.attempted == 3 and len(op.rated) == 2 and len(op.step_seconds) == 3
    assert op.error.startswith("ImprovementLoopError: iteration 2")
    assert dr.improve.deviation_rating is fail_third


def test_rounds_repeat_the_fixed_set():
    order = workloads.round_order(7, 0, 10)
    assert sorted(order) == list(range(10))
    assert order == workloads.round_order(7, 0, 10) != workloads.round_order(7, 1, 10)
