"""Deciding safe improvements between games via outcome-correspondence reasoning.

A library and CLI for the question: given a set of normal-form games and
qualitative assumptions about how their outcomes correspond, is one game
guaranteed to yield a (Pareto-)preferred outcome over another? The package
covers the game-theoretic primitives, the binary-constraint representation
with path-consistency propagation and an exact oracle, the closedness
conditions under which propagation is complete, the safe-improvement
deciders, and generators for the classic hardness and incompleteness
instances.
"""

from .assumptions import (
    AssumptionSelection,
    DecreasingRiskPair,
    build_assumption_bcs,
    discover_risk_labelings,
    oc_decreasing_risk,
    oc_dominance,
    oc_isomorphism,
    oc_nash,
)
from .bcs import (
    Assignment,
    Bcs,
    Correspondence,
    PropagatedBcs,
    Variable,
    compose,
    derivable,
    enumerate_satisfying,
    implies,
    intersect,
    inverse,
    path_consistency,
    path_consistency_sweeps,
    pin,
    refuted,
)
from .closedness import (
    ClosednessReport,
    ClosednessWitness,
    is_join_closed,
    is_max_closed,
    join_table_from_hasse,
    joins_from_orders,
    orders_for_assumptions,
    search_max_orders,
    validate_join_family,
)
from .errors import InputError
from .games import (
    Isomorphism,
    NormalFormGame,
    Outcome,
    ParetoRelation,
    ReductionTrace,
    dominated_actions,
    find_isomorphisms,
    fully_reduce,
    is_fully_reduced,
    one_round_reduction,
    pareto_compare,
    pure_nash_equilibria,
    strictly_dominates,
)
from .reductions import (
    SiHardnessInstance,
    augment_always_satisfiable,
    csp_to_si_games,
    implication_instance,
    join_incompleteness_instance,
    montanari_instance,
    random_bcs,
    random_join_closed_bcs,
    random_max_closed_bcs,
    random_semilattice,
)
from .si import (
    DecisionMode,
    Preference,
    SiVerdict,
    decide_si,
    find_any_si,
    find_si_on,
    improvement_oc,
    pareto_preference,
    player_preference,
)

__all__ = [name for name in dir() if not name.startswith("_")]
