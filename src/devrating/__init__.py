"""Clone-invariant deviation ratings for N-player normal-form games.

Rates each strategy by its deviation gain at the strictest
coarse-correlated equilibrium reachable via iterated LP tightening, with
uniform / Elo / Nash-averaging baselines, score-table gamification,
equilibrium-backed per-task contributions, and a population-improvement
simulation harness.
"""

from .games import (
    GameError,
    GameValidationError,
    UnknownLabelError,
    NormalFormGame,
    build_game,
    quantize,
    clone_strategy,
    mix_strategy,
    append_strategy,
    apply_offset,
    permute_strategies,
    symmetrize_payoffs,
    random_game,
    game_to_dict,
    game_from_dict,
    load_game,
    save_game,
)
from .cce import (
    DistributionError,
    JointDistribution,
    CCEConstraintMatrix,
    CCECheck,
    deviation_gains,
    cce_gap,
    cce_constraint_matrix,
    verify_cce,
    ReducedConstraintSystem,
    dedup_joints,
    joint_groups,
)
from .rating import (
    RatingError,
    RatingInfeasibleError,
    StageBudgetError,
    SolverConfig,
    FreezeRecord,
    RatingResult,
    RatingCertificate,
    detect_active,
    deviation_rating,
    rate_reduced,
    rating_certificate,
    result_to_dict,
)
from .baselines import (
    EloConfig,
    EloResult,
    NashAveragingResult,
    WinProbMatrix,
    elo_fit,
    nash_averaging_2pzs,
    payoff_to_winprob,
    uniform_rating,
)
from .gamify import (
    ScoreTable,
    game_from_table_2pzs,
    game_from_table_3p,
    load_score_table,
    pairwise_margins,
    save_score_table,
)
from .analysis import (
    ContributionMatrix,
    PROPERTY_NAMES,
    PropertyReport,
    check_property,
    save_contributions,
    task_contributions,
)
from .improve import (
    ImprovementLoopError,
    IterationRecord,
    LoopConfig,
    Population,
    Trajectory,
    dirichlet_mixtures,
    lift_to_full,
    meta_game,
    population_game,
    random_population,
    run_improvement_loop,
    save_trajectory,
)

__version__ = "0.1.0"
