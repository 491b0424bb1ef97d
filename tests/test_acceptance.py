"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each criterion is one test.  Criteria 1-4 register every game they rate
in a shared ledger so criterion 5 can audit all of those runs with the
equilibrium certificate.  Wall-clock budgets are asserted where a
criterion carries one.  Criterion 9 is statistical and soft: a trend
regression emits a warning with the trajectories written to disk rather
than a hard failure.
"""
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from devrating.analysis import (
    PROPERTY_NAMES,
    check_property,
    task_contributions,
)
from devrating.baselines import nash_averaging_2pzs, uniform_rating
from devrating.cce import verify_cce
from devrating.examples import biased_shapley, biased_shapley_base
from devrating.games import build_game, clone_strategy, random_game, symmetrize_payoffs
from devrating.gamify import ScoreTable, game_from_table_3p
from devrating.improve import (
    LoopConfig,
    dirichlet_mixtures,
    population_game,
    run_improvement_loop,
    save_trajectory,
)
from devrating.rating import deviation_rating, rate_reduced, rating_certificate

TABLE_RATING = -2720.0 / 964.0
# Exact per-strategy payoff means of the reference table: each row of the
# base payoffs sums to (-2126, -2367, -3331, -2496)/241 over 4 opponent
# strategies, so the uniform ratings are these values divided by 964.
UNIFORM_REFERENCE = (-2126.0 / 964.0, -2367.0 / 964.0, -3331.0 / 964.0, -2496.0 / 964.0)

_CACHE: dict[str, dict] = {}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")


def _checked(num: int, detail_fn, asserts) -> None:
    """Run ``asserts`` (a callable), printing one PASS/FAIL line."""
    try:
        asserts()
    except AssertionError:
        _report(num, False, detail_fn())
        raise
    _report(num, True, detail_fn())


def _memo(key: str, builder) -> dict:
    if key not in _CACHE:
        _CACHE[key] = builder()
    return _CACHE[key]


def _recording_rater(ledger: list):
    def rate(game):
        result = deviation_rating(game)
        ledger.append((game, result))
        return result

    return rate


# ---------------------------------------------------------------------------
# criterion 1: reference table values


def _build_c1() -> dict:
    game = biased_shapley()
    start = time.perf_counter()
    result = deviation_rating(game)
    uniform = uniform_rating(game)
    elapsed = time.perf_counter() - start
    return {
        "game": game,
        "result": result,
        "uniform": uniform,
        "elapsed": elapsed,
        "rated": [(game, result)],
    }


def test_criterion_01_reference_table():
    data = _memo("c1", _build_c1)
    flat = np.concatenate(data["result"].ratings)

    def asserts():
        assert np.max(np.abs(flat - TABLE_RATING)) <= 1e-6
        for ratings in data["uniform"]:
            assert np.max(np.abs(ratings - np.array(UNIFORM_REFERENCE))) <= 1e-12
        assert data["elapsed"] < 1.0

    _checked(1, lambda: (
        f"all deviation ratings {TABLE_RATING:.6f}, uniform matches exact means, "
        f"{data['elapsed']*1000:.0f} ms"
    ), asserts)


# ---------------------------------------------------------------------------
# criterion 2: invariance property battery


def _build_c2() -> dict:
    rated: list = []
    rater = _recording_rater(rated)
    reports = []
    start = time.perf_counter()
    for prop in PROPERTY_NAMES:
        for trial in range(100):
            rng = np.random.default_rng(1_000_000 + trial)
            n_players = int(rng.integers(2, 4))
            sizes = [int(rng.integers(2, 5)) for _ in range(n_players)]
            game = random_game(rng, sizes)
            reports.append(check_property(game, prop, rater, seed=trial, tolerance=1e-6))
    elapsed = time.perf_counter() - start
    return {"reports": reports, "elapsed": elapsed, "rated": rated}


def test_criterion_02_property_battery():
    data = _memo("c2", _build_c2)
    failures = [r for r in data["reports"] if not r.passed]

    def asserts():
        assert len(data["reports"]) == 600
        assert not failures, failures[:3]
        assert data["elapsed"] < 300.0

    _checked(2, lambda: (
        f"{len(data['reports'])} checks over {PROPERTY_NAMES}, "
        f"{len(failures)} failures, {data['elapsed']:.0f} s"
    ), asserts)


# ---------------------------------------------------------------------------
# criterion 3: vertex-enumeration oracle equivalence


def _build_c3() -> dict:
    from oracles import oracle_rating

    rated: list = []
    worst = 0.0
    for trial in range(50):
        game = random_game(np.random.default_rng(20_000 + trial), [2, 2])
        result = deviation_rating(game)
        rated.append((game, result))
        reference, _ = oracle_rating(game)
        worst = max(worst, float(np.max(np.abs(np.concatenate(result.ratings) - reference))))
    for trial in range(20):
        game = random_game(np.random.default_rng(30_000 + trial), [2, 2, 2])
        result = deviation_rating(game)
        rated.append((game, result))
        reference, _ = oracle_rating(game)
        worst = max(worst, float(np.max(np.abs(np.concatenate(result.ratings) - reference))))
    return {"worst": worst, "rated": rated}


def test_criterion_03_oracle_equivalence():
    data = _memo("c3", _build_c3)

    def asserts():
        assert len(data["rated"]) == 70
        assert data["worst"] <= 1e-6

    _checked(3, lambda: f"70 games, worst |engine - oracle| = {data['worst']:.2e}", asserts)


# ---------------------------------------------------------------------------
# criterion 4: two-player zero-sum consistency with maximin averaging


def _build_c4() -> dict:
    rated: list = []
    worst = 0.0
    found = attempts = 0
    stream = 0
    while found < 30:
        attempts += 1
        assert attempts <= 200, "could not find 30 unique-equilibrium games"
        rng = np.random.default_rng(10_000 + stream)
        stream += 1
        payoff = rng.uniform(-1.0, 1.0, size=(3, 3))
        labels = [tuple(f"a{i}" for i in range(3)), tuple(f"b{i}" for i in range(3))]
        game = build_game(["p1", "p2"], labels, [payoff, -payoff])
        averaged = nash_averaging_2pzs(game, uniqueness_probes=3, seed=stream)
        if not averaged.unique:
            continue
        found += 1
        result = deviation_rating(game)
        rated.append((game, result))
        worst = max(
            worst,
            float(np.max(np.abs(result.ratings[0] - (averaged.ratings[0] - averaged.value)))),
            float(np.max(np.abs(result.ratings[1] - (averaged.ratings[1] + averaged.value)))),
        )
    return {"worst": worst, "attempts": attempts, "rated": rated}


def test_criterion_04_zero_sum_consistency():
    data = _memo("c4", _build_c4)

    def asserts():
        assert len(data["rated"]) == 30
        assert data["worst"] <= 1e-5

    _checked(4, lambda: (
        f"30 unique-equilibrium games in {data['attempts']} draws, "
        f"worst offset error {data['worst']:.2e}"
    ), asserts)


# ---------------------------------------------------------------------------
# criterion 5: equilibrium certificate over every game rated above


def test_criterion_05_certificates():
    rated = []
    for key, builder in (("c1", _build_c1), ("c2", _build_c2), ("c3", _build_c3), ("c4", _build_c4)):
        rated.extend(_memo(key, builder)["rated"])
    worst_eps = worst_err = 0.0
    checked = 0

    def asserts():
        nonlocal worst_eps, worst_err, checked
        assert len(rated) > 1000  # criteria 1-4 rate well over a thousand games
        for game, result in rated:
            check = verify_cce(game, result.equilibrium, epsilon=1e-7)
            cert = rating_certificate(game, result)
            worst_eps = max(worst_eps, check.worst_gain)
            worst_err = max(worst_err, cert.max_gain_error)
            checked += 1
            assert check.ok, (game.players, check)
            assert cert.max_gain_error <= 1e-6
            assert cert.stage_count <= cert.stage_bound

    _checked(5, lambda: (
        f"{checked} rated games audited, worst gain {worst_eps:.2e}, "
        f"worst |gain - rating| {worst_err:.2e}"
    ), asserts)


# ---------------------------------------------------------------------------
# criterion 6: mixture populations rate equally where averaging splits


def test_criterion_06_population_study():
    """Populations of 12 mixtures over the reference 3x3 game.

    Each population spans the base simplex (the three vertex policies are
    members, the other nine are seeded Dirichlet draws), so every member
    is a mixture of equally-rated strategies and mixture invariance forces
    all deviation ratings to coincide.  Uniform averaging has no such
    structure and spreads widely on the biased draws.
    """
    base = biased_shapley_base()
    vertex_policies = [np.eye(3)[i] for i in range(3)]
    alphas = [(1.0, 1.0, 1.0), (2.0, 1.0, 1.0), (1.0, 3.0, 1.0), (5.0, 2.0, 1.0), (1.0, 1.0, 4.0)]
    dev_spreads = []
    uni_spreads = []
    for k, alpha in enumerate(alphas):
        rng = np.random.default_rng(60 + k)
        members = vertex_policies + list(dirichlet_mixtures(rng, 9, np.array(alpha)))
        population = population_game(base, members)
        result = deviation_rating(population)
        flat = np.concatenate(result.ratings)
        dev_spreads.append(float(flat.max() - flat.min()))
        uniform = uniform_rating(population)
        uni_spreads.append(max(float(u.max() - u.min()) for u in uniform))

    def asserts():
        assert all(spread <= 1e-6 for spread in dev_spreads), dev_spreads
        # the four biased populations must be separated by uniform averaging
        assert max(uni_spreads[1:]) >= 1e-3, uni_spreads

    _checked(6, lambda: (
        f"5 populations, deviation spreads <= {max(dev_spreads):.1e}, "
        f"uniform spreads up to {max(uni_spreads):.2f}"
    ), asserts)


# ---------------------------------------------------------------------------
# criterion 7: model-vs-model-vs-task game from a score table


def _dominator_table() -> ScoreTable:
    return ScoreTable(
        models=("m_star", "m1", "m2", "m3", "m4"),
        tasks=("t1", "t2", "t3", "t4"),
        scores=np.array(
            [
                [0.95, 0.85, 0.96, 0.75],
                [0.90, 0.75, 0.60, 0.65],
                [0.85, 0.80, 0.90, 0.40],
                [0.50, 0.60, 0.95, 0.70],
                [0.30, 0.40, 0.50, 0.60],
            ]
        ),
    )


def test_criterion_07_dominator_table():
    table = _dominator_table()
    game = game_from_table_3p(table)
    result = deviation_rating(game)
    ratings = result.ratings[0]
    contributions = task_contributions(game, result, "model_a")
    row_sum_err = float(np.max(np.abs(contributions.values.sum(axis=1) - contributions.ratings)))

    # duplicate the dominating row: only the exact copy may tie it
    dup = ScoreTable(
        models=("m_star", "m_star_copy", "m1", "m2", "m3"),
        tasks=table.tasks,
        scores=np.vstack([table.scores[0], table.scores[0], table.scores[1:4]]),
    )
    dup_ratings = deviation_rating(game_from_table_3p(dup)).ratings[0]

    def asserts():
        assert int(np.argmax(ratings)) == 0
        assert np.all(ratings[1:] < ratings[0] - 1e-6)  # unique maximum
        assert row_sum_err <= 1e-8
        assert abs(dup_ratings[0] - dup_ratings[1]) <= 1e-9  # exact copies tie
        assert np.all(dup_ratings[2:] < dup_ratings[0] - 1e-6)

    _checked(7, lambda: (
        f"dominating model rated {ratings[0]:.3f} vs runner-up {np.sort(ratings)[-2]:.3f}, "
        f"contribution row-sum error {row_sum_err:.1e}"
    ), asserts)


# ---------------------------------------------------------------------------
# criterion 8: symmetrized + deduplicated solves match direct solves


def test_criterion_08_reduction_equivalence():
    worst = 0.0
    for trial in range(25):
        rng = np.random.default_rng(40_000 + trial)
        size = int(rng.integers(3, 5))
        payoff = rng.uniform(-1.0, 1.0, size=(size, size))
        labels = tuple(f"s{i}" for i in range(size))
        game = build_game(["p1", "p2"], [labels, labels], [payoff, payoff.T])
        # inject the same clone into both players, preserving the symmetry
        target = f"s{int(rng.integers(0, size))}"
        game = clone_strategy(game, "p1", target)
        game = clone_strategy(game, "p2", target)
        direct = deviation_rating(game)
        reduced = rate_reduced(symmetrize_payoffs(game, "p1", "p2"))
        for p in range(2):
            worst = max(worst, float(np.max(np.abs(direct.ratings[p] - reduced.ratings[p]))))

    def asserts():
        assert worst <= 1e-6

    _checked(8, lambda: f"25 cloned symmetric games, worst |direct - reduced| = {worst:.2e}", asserts)


# ---------------------------------------------------------------------------
# criterion 9 (soft): selection by deviation rating drives the gap down


def test_criterion_09_improvement_trend():
    start = time.perf_counter()
    finals = {"deviation": [], "uniform": []}
    trajectories = []
    for seed in range(20):
        full = random_game(np.random.default_rng(9_000 + seed), [3, 3])
        for rater in ("deviation", "uniform"):
            config = LoopConfig(iterations=200, population_size=8, cull_fraction=0.25, seed=seed)
            trajectory = run_improvement_loop(full, rater=rater, config=config)
            finals[rater].append(trajectory.records[-1].cce_gap)
            trajectories.append((seed, rater, trajectory))
    elapsed = time.perf_counter() - start
    median_dev = float(np.median(finals["deviation"]))
    median_uni = float(np.median(finals["uniform"]))

    if median_dev > median_uni:  # soft criterion: report, do not fail
        out_dir = Path(tempfile.mkdtemp(prefix="improvement-regression-"))
        for seed, rater, trajectory in trajectories:
            save_trajectory(trajectory, out_dir / f"trajectory_{rater}_seed{seed}.csv")
        warnings.warn(
            f"improvement-loop trend regression: median final gap {median_dev:.4f} "
            f"(deviation) > {median_uni:.4f} (uniform); trajectories in {out_dir}"
        )

    def asserts():
        assert len(finals["deviation"]) == 20 and len(finals["uniform"]) == 20
        assert all(g >= 0.0 for g in finals["deviation"] + finals["uniform"])
        assert elapsed < 600.0

    _checked(9, lambda: (
        f"median final gap {median_dev:.4f} (deviation) vs {median_uni:.4f} (uniform), "
        f"{elapsed:.0f} s"
    ), asserts)


# ---------------------------------------------------------------------------
# criterion 10: leaderboard-scale table end to end


def test_criterion_10_leaderboard_scale():
    rng = np.random.default_rng(2024)
    base_scores = rng.uniform(0.05, 0.85, size=(62, 18))
    top_row = base_scores.max(axis=0) + 0.05
    scores = np.vstack([np.tile(top_row, (4, 1)), base_scores])
    table = ScoreTable(
        models=tuple(f"model{i:02d}" for i in range(66)),
        tasks=tuple(f"task{j:02d}" for j in range(18)),
        scores=scores,
    )
    game = game_from_table_3p(table)
    start = time.perf_counter()
    result = deviation_rating(game)
    elapsed = time.perf_counter() - start
    certificate = rating_certificate(game, result)
    model_ratings = result.ratings[0]
    top_spread = float(model_ratings[:4].max() - model_ratings[:4].min())
    fifth_best = float(np.sort(model_ratings)[-5])

    def asserts():
        assert elapsed < 120.0
        assert certificate.epsilon <= 1e-7
        assert certificate.max_gain_error <= 1e-6
        assert certificate.stage_count <= certificate.stage_bound
        assert top_spread <= 1e-6  # the four duplicated top rows tie
        assert np.all(model_ratings[4:] < model_ratings[:4].min() - 1e-6)
        assert set(np.flatnonzero(model_ratings >= model_ratings.max() - 1e-9)) == {0, 1, 2, 3}

    _checked(10, lambda: (
        f"66x66x18 game rated in {elapsed:.0f} s ({result.stage_count} stages), "
        f"top-4 spread {top_spread:.1e}, fifth best {fifth_best:.3f}"
    ), asserts)
