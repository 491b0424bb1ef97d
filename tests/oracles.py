"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written on a different computational
route from the package: constraint rows come from explicit Python loops
over joint profiles (no broadcasting), and each stage LP is solved by
brute-force vertex enumeration (no scipy.optimize).  Slow but
transparent; intended for small games only.

The staged oracle freezes, at each stage, the rows that are tight at
*every* optimal vertex (the selection-independent active set) at the
stage's optimal objective, so it is insensitive to which optimizer a
solver would have returned.  ``spread_over_groups`` spreads one mass per
duplicate-joint group evenly over the group's joints, as the engine's
equilibrium should.
"""
from __future__ import annotations

import itertools

import numpy as np

RESIDUAL_TOL = 1e-9
FEAS_TOL = 1e-9
ACTIVE_TOL = 1e-7


def oracle_constraint_rows(game):
    """Deviation-gain rows via explicit loops; returns (matrix, keys)."""
    joints = list(itertools.product(*[range(n) for n in game.shape]))
    rows, keys = [], []
    for p in range(game.num_players):
        for a in range(game.shape[p]):
            row = []
            for s in joints:
                s_dev = list(s)
                s_dev[p] = a
                row.append(
                    float(game.payoffs[p][tuple(s_dev)]) - float(game.payoffs[p][s])
                )
            rows.append(row)
            keys.append((p, a))
    return np.array(rows), keys


def oracle_deviation_gain(game, sigma_tensor, p, a):
    """Expected gain of player p deviating to strategy a, by full loops."""
    total = 0.0
    for s in itertools.product(*[range(n) for n in game.shape]):
        s_dev = list(s)
        s_dev[p] = a
        total += sigma_tensor[s] * (
            float(game.payoffs[p][tuple(s_dev)]) - float(game.payoffs[p][s])
        )
    return total


def oracle_stage_lp(values, frozen):
    """Solve  min t  s.t.  values[u] @ sigma <= t for unfrozen rows u,
    values[f] @ sigma = frozen[f], sigma in the simplex,
    by enumerating vertices of the feasible region in (sigma, t) space.

    Returns (t_star, vertices) where vertices holds every optimal vertex
    as a sigma array.
    """
    num_rows, num_joints = values.shape
    unfrozen = [i for i in range(num_rows) if i not in frozen]
    if not unfrozen:
        raise ValueError("no unfrozen rows to optimize")
    n = num_joints + 1  # sigma plus t

    eq_rows = [np.append(np.ones(num_joints), 0.0)]
    eq_rhs = [1.0]
    for i, val in sorted(frozen.items()):
        eq_rows.append(np.append(values[i], 0.0))
        eq_rhs.append(val)
    E = np.array(eq_rows)
    e = np.array(eq_rhs)
    rank_e = np.linalg.matrix_rank(E)

    # Inequality pool: sigma_j >= 0 and row_i @ sigma - t <= 0.
    pool, rhs_pool = [], []
    for j in range(num_joints):
        vec = np.zeros(n)
        vec[j] = 1.0
        pool.append(vec)
        rhs_pool.append(0.0)
    for i in unfrozen:
        pool.append(np.append(values[i], -1.0))
        rhs_pool.append(0.0)
    pool = np.array(pool)
    rhs_pool = np.array(rhs_pool)

    need = n - rank_e
    best_t = None
    vertices = {}
    for subset in itertools.combinations(range(len(pool)), need):
        M = np.vstack([E, pool[list(subset)]])
        rhs = np.concatenate([e, rhs_pool[list(subset)]])
        x, _, rank, _ = np.linalg.lstsq(M, rhs, rcond=None)
        if rank < n:
            continue
        if np.max(np.abs(M @ x - rhs)) > RESIDUAL_TOL:
            continue
        sigma, t = x[:num_joints], x[num_joints]
        if sigma.min() < -FEAS_TOL:
            continue
        if np.max(values[unfrozen] @ sigma - t) > FEAS_TOL:
            continue
        key = tuple(np.round(x, 10))
        if key in vertices:
            continue
        vertices[key] = (sigma, t)
        if best_t is None or t < best_t:
            best_t = t
    if best_t is None:
        raise ValueError("no feasible vertex found")
    optimal = [
        sigma for sigma, t in vertices.values() if t <= best_t + RESIDUAL_TOL
    ]
    return float(best_t), optimal


def oracle_rating(game):
    """Full staged rating by repeated vertex-enumeration LPs.

    Returns (ratings, objectives): one rating per constraint row in
    (player, strategy) order and the optimal objective of every stage.
    """
    values, _ = oracle_constraint_rows(game)
    num_rows = values.shape[0]
    frozen: dict[int, float] = {}
    ratings = np.full(num_rows, np.nan)
    objectives = []

    while len(frozen) < num_rows:
        t_star, optimal = oracle_stage_lp(values, frozen)
        objectives.append(t_star)
        unfrozen = [i for i in range(num_rows) if i not in frozen]
        active = []
        for i in unfrozen:
            gains = [float(values[i] @ sigma) for sigma in optimal]
            if min(gains) >= t_star - ACTIVE_TOL:
                active.append(i)
        if not active:
            # Numerical guard; a minimizing vertex always has a tight row.
            gains = np.array([float(values[i] @ optimal[0]) for i in unfrozen])
            active = [unfrozen[int(np.argmax(gains))]]
        for i in active:
            frozen[i] = t_star
            ratings[i] = t_star
    return ratings, objectives


def spread_over_groups(reduced_probs, labels):
    """Spread each group's mass evenly over its joints; ``labels[j]`` is joint j's group."""
    sizes = np.bincount(labels)
    if np.shape(reduced_probs) != sizes.shape:
        raise ValueError(f"{np.size(reduced_probs)} reduced probabilities for {sizes.size} groups")
    return (reduced_probs / sizes)[labels]
