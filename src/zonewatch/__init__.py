"""State estimation for partially observed single-clock timed finite automata."""

from .intervals import (
    INF,
    Interval,
    add,
    contains,
    distance,
    format_time,
    intersect,
    parse_interval,
    parse_time,
    subset,
)
from .model import (
    ID_RESET,
    TAU,
    Diagnostic,
    ModelError,
    TFA,
    TimedObservation,
    TimedRun,
    RunStep,
    Transition,
    check_run,
    dump_model,
    load_model,
    model_from_dict,
    model_to_dict,
    parse_observation,
    project,
    validate,
)
from .zones import (
    Edge,
    ExtendedState,
    ZoneAutomaton,
    build_zone_automaton,
    build_zones,
    to_dot,
)
from .estimation import (
    BeliefState,
    Estimate,
    InvariantError,
    Witness,
    belief_advance,
    belief_init,
    belief_query,
    estimate,
    lambda_estimation,
    t_reachable,
)
from .observer import ObserverSession, OfflineObserver, build_offline_observer
from .oracle import (
    DifferentialReport,
    GridConfig,
    RandomModelConfig,
    brute_consistent_states,
    differential_check,
    enumerate_runs,
    random_model,
)

__version__ = "0.1.0"
