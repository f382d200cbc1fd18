"""Exact solvers and information-relaxation dual bounds for finite dynamic
zero-sum games.

Player A maximizes and player B minimizes the same expected total cost.
``games`` holds the data model, ``matrix_games`` the per-state minimax LP
kernel, ``solvers`` the exact machinery (Shapley value iteration, best
responses by policy iteration, naive policy iteration, sandwich
intervals), ``duality`` the Monte Carlo dual bounds, ``builtin_games`` two
ready-made benchmark games and ``experiments``/``cli`` the reproduction
pipeline.
"""

from .builtin_games import (
    WasteGameConfig,
    build_two_period_matrix_game,
    build_waste_inspection_game,
    first_action_value_generator,
    suboptimal_minimizer_policy,
    uniform_policy,
)
from .duality import (
    AbsContinuityViolation,
    CellBudgetExceeded,
    DualEstimate,
    PathCapExceeded,
    ReferenceMeasure,
    estimate_dual_bound_finite,
    estimate_dual_bound_ssp,
    estimate_dual_bounds,
    exact_dual_bound_enumeration,
    make_uniform_reference,
    scenario_rng,
    validate_abs_continuity,
)
from .games import (
    PLAYER_A,
    PLAYER_B,
    Discounted,
    FiniteHorizon,
    GameModel,
    MdpView,
    MixedPolicy,
    Ssp,
    check_policy,
    embed_finite_horizon,
    fix_player,
    game_from_dict,
    game_to_dict,
    lift_policy,
    load_game,
    make_game,
    make_policy,
    policy_from_dict,
    pure_policy,
    validate,
    values_from_dict,
)
from .matrix_games import MatrixGameSolution, solve
from .solvers import (
    ImproperPair,
    NoConvergence,
    PolicyIterationTrace,
    SandwichResult,
    UnboundedValue,
    best_response,
    evaluate_policy_pair,
    naive_policy_iteration,
    sandwich,
    shapley_backup,
    shapley_value_iteration,
    solve_view,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
