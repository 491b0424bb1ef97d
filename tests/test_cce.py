import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devrating.cce import (
    DistributionError,
    JointDistribution,
    cce_constraint_matrix,
    cce_gap,
    deviation_gains,
    verify_cce,
)
from devrating.games import apply_offset, random_game
from devrating.examples import prisoners_dilemma

from oracles import oracle_constraint_rows, oracle_deviation_gain


def _random_sigma(rng, num_joints):
    return JointDistribution(rng.dirichlet(np.ones(num_joints)))


def test_joint_distribution_validation():
    with pytest.raises(DistributionError):
        JointDistribution(np.array([0.5, 0.6]))
    with pytest.raises(DistributionError):
        JointDistribution(np.array([1.5, -0.5]))
    # tiny negatives from solvers are clamped
    d = JointDistribution(np.array([1.0 + 1e-13, -1e-13]))
    assert d.probs[1] == 0.0


def test_point_mass_and_uniform():
    d = JointDistribution(np.eye(6)[1 * 3 + 2])
    assert d.probs[1 * 3 + 2] == 1.0
    u = JointDistribution.uniform(6)
    assert np.allclose(u.probs, 1 / 6)
    t = u.as_tensor((2, 3))
    assert t.shape == (2, 3)


def test_pairwise_gain_prisoners_dilemma():
    g = prisoners_dilemma()
    sigma = JointDistribution(np.eye(4)[0])  # both cooperate
    # defecting against C yields temptation 5 over reward 3
    assert deviation_gains(g, sigma)[0][g.strategy_index(0, "D")] == pytest.approx(2.0)


def test_gains_at_dd_are_nonpositive():
    g = prisoners_dilemma()
    sigma = JointDistribution(np.eye(4)[3])
    gains = deviation_gains(g, sigma)
    assert gains[0][1] == pytest.approx(0.0)
    assert gains[0][0] == pytest.approx(-1.0)
    check = verify_cce(g, sigma)
    assert check.ok and check.worst_gain == pytest.approx(0.0)


def test_cce_gap_clips_negatives():
    g = prisoners_dilemma()
    cc = JointDistribution(np.eye(4)[0])
    dd = JointDistribution(np.eye(4)[3])
    assert cce_gap(g, cc) == pytest.approx(4.0)  # both can gain 2
    assert cce_gap(g, dd) == 0.0


def test_verify_cce_reports_worst_row():
    g = prisoners_dilemma()
    cc = JointDistribution(np.eye(4)[0])
    check = verify_cce(g, cc)
    assert not check.ok
    assert check.worst_strategy == "D"
    assert check.worst_gain == pytest.approx(2.0)
    assert verify_cce(g, cc, epsilon=2.0 + 1e-12).ok


def test_constraint_matrix_matches_loop_oracle():
    # 2 to 4 players, unequal strategy counts, players with a single strategy
    for seed, shape in [(0, (2, 2)), (1, (3, 2)), (2, (2, 2, 3)), (3, (4, 2)), (4, (1, 3, 2)), (5, (3, 2, 1, 2))]:
        g = random_game(np.random.default_rng(seed), shape)
        A = cce_constraint_matrix(g)
        vals, _ = oracle_constraint_rows(g)
        assert A.values.tobytes() == vals.tobytes()  # bitwise, so rows in oracle order
        assert A.num_rows == sum(shape)
        assert A.num_joints == int(np.prod(shape))


def test_matrix_rows_zero_at_own_columns():
    g = random_game(np.random.default_rng(4), (2, 3))
    A = cce_constraint_matrix(g)
    tensorized = A.values.reshape(A.num_rows, *g.shape)
    row = 0
    for p in range(2):
        for a in range(g.shape[p]):
            assert np.allclose(np.take(tensorized[row], a, axis=p), 0.0)
            row += 1


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_matrix_times_sigma_equals_gains(seed):
    rng = np.random.default_rng(seed)
    players = int(rng.integers(2, 4))
    shape = tuple(int(rng.integers(2, 4)) for _ in range(players))
    g = random_game(rng, shape)
    sigma = _random_sigma(rng, g.num_joints)
    A = cce_constraint_matrix(g)
    stacked = A.values @ sigma.probs
    gains = np.concatenate(deviation_gains(g, sigma))
    assert np.max(np.abs(stacked - gains)) < 1e-10


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_gains_are_offset_invariant(seed):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
    g = random_game(rng, shape)
    p = int(rng.integers(2))
    shifted = apply_offset(g, p, rng.uniform(-5, 5, tuple(n for q, n in enumerate(shape) if q != p)))
    sigma = _random_sigma(rng, g.num_joints)
    before = np.concatenate(deviation_gains(g, sigma))
    after = np.concatenate(deviation_gains(shifted, sigma))
    assert np.max(np.abs(before - after)) < 1e-9


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_gain_matches_explicit_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    shape = tuple(int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 4))))
    g = random_game(rng, shape)
    sigma = _random_sigma(rng, g.num_joints)
    tensor = sigma.as_tensor(g.shape)
    gains = deviation_gains(g, sigma)
    for p in range(g.num_players):
        for a in range(g.shape[p]):
            want = oracle_deviation_gain(g, tensor, p, a)
            got = gains[p][a]
            assert got == pytest.approx(want, abs=1e-11)
