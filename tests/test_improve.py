import numpy as np
import pytest

from devrating.cce import JointDistribution, cce_gap
from devrating.games import GameValidationError, random_game
from devrating import improve
from devrating.improve import (
    ImprovementLoopError,
    LoopConfig,
    Population,
    lift_to_full,
    meta_game,
    random_population,
    run_improvement_loop,
    save_trajectory,
)
from devrating.rating import RatingError, deviation_rating
from devrating.examples import matching_pennies


def test_population_validation():
    with pytest.raises(GameValidationError):
        Population(members=(np.array([[0.6, 0.3]]),))  # doesn't sum to 1
    with pytest.raises(GameValidationError):
        Population(members=(np.eye(2), np.eye(3)))  # unequal member counts
    pop = Population(members=(np.eye(2), np.eye(2)))
    assert pop.size == 2 and pop.num_players == 2
    assert pop.ids == ((0, 1), (0, 1))
    assert pop.born == ((0, 0), (0, 0))


def test_random_population_members_are_distributions():
    g = random_game(np.random.default_rng(0), (3, 4))
    pop = random_population(g, 6, np.random.default_rng(1))
    assert pop.size == 6
    assert pop.members[0].shape == (6, 3)
    assert pop.members[1].shape == (6, 4)
    for m in pop.members:
        assert np.allclose(m.sum(axis=1), 1.0)


def test_meta_game_pure_basis_recovers_game():
    g = random_game(np.random.default_rng(3), (3, 3))
    pop = Population(members=(np.eye(3), np.eye(3)))
    mg = meta_game(g, pop)
    for p in range(2):
        assert np.allclose(mg.payoffs[p], g.payoffs[p])


def test_meta_game_bilinear_values():
    g = random_game(np.random.default_rng(5), (2, 2))
    mem = np.array([[0.5, 0.5], [1.0, 0.0]])
    mg = meta_game(g, Population(members=(mem, mem)))
    for p in range(2):
        for i in range(2):
            for j in range(2):
                want = mem[i] @ g.payoffs[p] @ mem[j]
                assert mg.payoffs[p][i, j] == pytest.approx(want, abs=1e-12)


def test_meta_game_duplicate_members_clone_slices():
    g = random_game(np.random.default_rng(6), (2, 2))
    w = np.array([0.7, 0.3])
    mg = meta_game(g, Population(members=(np.vstack([w, w]), np.eye(2))))
    assert np.allclose(mg.payoffs[0][0], mg.payoffs[0][1])


def test_meta_game_shape_mismatch():
    g = random_game(np.random.default_rng(0), (2, 3))
    with pytest.raises(GameValidationError):
        meta_game(g, Population(members=(np.eye(2), np.eye(2))))


def test_lift_point_mass_and_uniform_collapse():
    g = random_game(np.random.default_rng(1), (2, 2))
    mem = np.array([[0.5, 0.5], [1.0, 0.0]])
    pop = Population(members=(mem, mem))
    lifted = lift_to_full(JointDistribution(np.eye(4)[3]), pop, g)
    assert np.allclose(lifted.probs, [1, 0, 0, 0])
    pop_u = Population(members=(np.full((3, 2), 0.5), np.full((3, 2), 0.5)))
    sigma = JointDistribution(np.random.default_rng(2).dirichlet(np.ones(9)))
    assert np.allclose(lift_to_full(sigma, pop_u, g).probs, 0.25)


def test_lift_matches_expansion_oracle():
    rng = np.random.default_rng(9)
    g = random_game(rng, (2, 3))
    pop = Population(members=(rng.dirichlet(np.ones(2), 4), rng.dirichlet(np.ones(3), 4)))
    sigma = JointDistribution(rng.dirichlet(np.ones(16)))
    lifted = lift_to_full(sigma, pop, g).as_tensor((2, 3))
    brute = np.zeros((2, 3))
    st = sigma.as_tensor((4, 4))
    for i in range(4):
        for j in range(4):
            brute += st[i, j] * np.outer(pop.members[0][i], pop.members[1][j])
    assert np.max(np.abs(lifted - brute)) < 1e-12


def test_ne_population_records_zero_gap():
    mp = matching_pennies()
    ne = np.full((4, 2), 0.5)
    pop = Population(members=(ne, ne))
    mg = meta_game(mp, pop)
    res = deviation_rating(mg)
    lifted = lift_to_full(res.equilibrium, pop, mp)
    assert cce_gap(mp, lifted) < 1e-6


def test_loop_config_validation():
    with pytest.raises(ValueError):
        LoopConfig(iterations=0)
    with pytest.raises(ValueError):
        LoopConfig(iterations=1, cull_fraction=0.0)
    with pytest.raises(ValueError):
        LoopConfig(iterations=1, population_size=3, cull_fraction=0.25)


def test_loop_determinism_and_records():
    g = random_game(np.random.default_rng(11), (3, 3))
    cfg = LoopConfig(iterations=4, population_size=8, seed=7)
    t1 = run_improvement_loop(g, "deviation", cfg)
    t2 = run_improvement_loop(g, "deviation", cfg)
    assert t1.records == t2.records
    assert len(t1.records) == 4
    for rec in t1.records:
        assert rec.cce_gap >= 0.0
        assert len(rec.avg_payoffs) == 2
        assert all(len(ids) == 2 for ids in rec.culled)  # quarter of 8


def test_loop_culls_lowest_rated_oldest_first(monkeypatch):
    # population 8 culls 2 members per player; the reference reseeds one
    # culled member at a time, in index order
    g = random_game(np.random.default_rng(13), (3, 3))
    cfg = LoopConfig(iterations=3, population_size=8, seed=5)
    seen = []

    def recording_meta_game(full, pop):
        seen.append(pop)
        return meta_game(full, pop)

    monkeypatch.setattr(improve, "meta_game", recording_meta_game)
    trajectory = run_improvement_loop(g, "deviation", cfg)
    rng = np.random.default_rng(5)
    pop = random_population(g, 8, rng)
    next_id = 8
    for k, record in enumerate(trajectory.records):
        got = seen[k]
        assert got.ids == pop.ids and got.born == pop.born
        assert all(type(v) is int for t in got.ids + got.born for v in t)
        assert all(np.array_equal(a, b) for a, b in zip(got.members, pop.members))
        res = deviation_rating(meta_game(g, pop))
        members, ids, born = [], [], []
        for p in range(2):
            ranked = sorted(range(8), key=lambda i: (res.ratings[p][i], pop.born[p][i]))
            out = sorted(ranked[:2])
            assert record.culled[p] == tuple(pop.ids[p][i] for i in out)
            m, pid, pborn = pop.members[p].copy(), list(pop.ids[p]), list(pop.born[p])
            for i in out:
                m[i] = rng.dirichlet(np.ones(3))
                pid[i], pborn[i] = next_id, k + 1
                next_id += 1
            members.append(m)
            ids.append(tuple(pid))
            born.append(tuple(pborn))
        pop = Population(tuple(members), tuple(ids), tuple(born))


def test_loop_wraps_a_rating_failure_with_its_iteration(monkeypatch):
    calls = []
    failure = RatingError("stage LP failed", "kInfeasible")

    def failing_at_third_call(meta, solver):
        calls.append(meta)
        if len(calls) == 3:
            raise failure
        return deviation_rating(meta, solver)

    monkeypatch.setattr(improve, "deviation_rating", failing_at_third_call)
    game = random_game(np.random.default_rng(2), (3, 3))
    with pytest.raises(ImprovementLoopError, match="iteration 2: stage LP failed") as info:
        run_improvement_loop(game, "deviation", LoopConfig(iterations=5, population_size=4, seed=1))
    assert info.value.iteration == 2
    assert info.value.__cause__ is failure


def test_loop_lets_a_fault_outside_the_rater_escape(monkeypatch):
    def broken(meta, solver):
        raise TypeError("not a rating failure")

    monkeypatch.setattr(improve, "deviation_rating", broken)
    game = random_game(np.random.default_rng(2), (3, 3))
    with pytest.raises(TypeError, match="not a rating failure"):
        run_improvement_loop(game, "deviation", LoopConfig(iterations=2, population_size=4, seed=1))


def test_loop_rejects_unknown_rater():
    g = random_game(np.random.default_rng(0), (2, 2))
    with pytest.raises(ValueError):
        run_improvement_loop(g, "alchemy", LoopConfig(iterations=1))


def test_trajectory_csv(tmp_path):
    g = random_game(np.random.default_rng(17), (2, 2))
    trajectory = run_improvement_loop(g, "uniform", LoopConfig(iterations=3, seed=2))
    path = tmp_path / "t.csv"
    save_trajectory(trajectory, path, players=g.players)
    lines = path.read_text().splitlines()
    meta_lines = [l for l in lines if l.startswith("# ")]
    assert any(l == "# rater: uniform" for l in meta_lines)
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "iteration,cce_gap,avg_payoff_p1,avg_payoff_p2,culled"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 3
