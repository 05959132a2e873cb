"""Single-objective genetic-algorithm engine with lifecycle hooks, constrained genes, and a CLI."""

from .config import (
    AdaptivePair,
    CrossoverKind,
    GaConfig,
    MutationKind,
    NumGenes,
    ParentSelection,
    PercentGenes,
    Probability,
    validate,
)
from .engine import (
    GaControl,
    LifecycleHooks,
    RunResult,
    StopReason,
    best_solution,
    fitness_history,
    run,
)
from .errors import HookError
from .genome import (
    UNCONSTRAINED,
    DiscreteSet,
    GeneSchema,
    GeneType,
    Unconstrained,
    ValueRange,
    coerce_gene,
    init_population,
)
from .operators import mutate

__all__ = [
    "AdaptivePair",
    "CrossoverKind",
    "DiscreteSet",
    "GaConfig",
    "GaControl",
    "GeneSchema",
    "GeneType",
    "HookError",
    "LifecycleHooks",
    "MutationKind",
    "NumGenes",
    "ParentSelection",
    "PercentGenes",
    "Probability",
    "RunResult",
    "StopReason",
    "UNCONSTRAINED",
    "Unconstrained",
    "ValueRange",
    "best_solution",
    "coerce_gene",
    "fitness_history",
    "init_population",
    "mutate",
    "run",
    "validate",
]
