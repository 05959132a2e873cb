"""Exception hierarchy shared by all gakit modules."""


class GaError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(GaError):
    """A configuration field violates one of its constraints."""

    def __init__(self, field: str, constraint: str, got) -> None:
        super().__init__(f"config field {field!r}: requires {constraint}, got {got!r}")
        self.field = field
        self.constraint = constraint
        self.got = got


class ConfigFileError(GaError):
    """A configuration file line is malformed or a key is duplicated."""

    def __init__(self, line: int, reason: str) -> None:
        super().__init__(f"config file line {line}: {reason}")
        self.line = line
        self.reason = reason


class EmptySpace(GaError):
    """A gene space admits no values under the configured gene type."""


class NonFiniteGene(GaError):
    """A gene value is NaN/inf, or exceeds the exact double-precision integer range."""


class InsufficientSpace(GaError):
    """A gene space is too small to provide pairwise-distinct gene values."""


class DimensionMismatch(GaError):
    """A user-supplied population does not match sol_per_pop x num_genes."""


class NonPositiveFitness(GaError):
    """Roulette and stochastic-universal selection require strictly positive fitness."""


class LengthMismatch(GaError):
    """Two chromosomes, or a chromosome and its problem, differ in length."""


class FitnessError(GaError):
    """A fitness evaluation raised, returned a non-finite value, or (batched) the wrong shape."""

    def __init__(self, message: str, generation=None, solution_index=None) -> None:
        where = []
        if generation is not None:
            where.append(f"generation {generation}")
        if solution_index is not None:
            where.append(f"solution {solution_index}")
        super().__init__(f"{message} ({', '.join(where)})" if where else message)
        self.generation = generation
        self.solution_index = solution_index


class HookError(GaError):
    """A lifecycle hook raised an exception that is not a GaError; it is the __cause__.

    generation is the engine state's generation when the hook fired (on_stop
    sees the last one run), or None before the first generation.
    """

    def __init__(self, hook: str, generation=None) -> None:
        where = "" if generation is None else f" (generation {generation})"
        super().__init__(f"lifecycle hook {hook} raised{where}")
        self.hook = hook
        self.generation = generation


class EmptyHistory(GaError):
    """A fitness history with no entries cannot be rendered."""


class UsageError(GaError):
    """Invalid command-line invocation."""
