"""Span tracing of one gakit run from outside the library.

A traced run stamps ``time.perf_counter()`` in all seven ``LifecycleHooks``
and wraps the fitness callable. The engine fires the hooks in a fixed order,
``start, (fitness, parents, crossover, mutation, generation) x G, stop``, so
consecutive stamps bound the engine's stages:

    generation start -> on_fitness      engine.fitness      (evaluate_population)
    on_fitness       -> on_parents      operators.select
    on_parents       -> on_crossover    operators.crossover
    on_crossover     -> on_mutation     operators.mutate
    on_mutation      -> on_generation   genome.normalize

A generation starts at ``on_start`` (generation 0) or at the previous
``on_generation``. Fitness calls made after the last ``on_generation`` are the
final evaluation and hang off the root span.

During the run the hooks only append stamps and keep references to the stage
arrays; spans and counts are built after ``run`` returns, so tracing adds no
work between two stamps beyond the stamp itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

import gakit

# Stage span name -> the per-layer metric that sums it.
STAGES = {
    "engine.fitness": "engine.fitness_s",
    "operators.select": "operators.select_s",
    "operators.crossover": "operators.crossover_s",
    "operators.mutate": "operators.mutate_s",
    "genome.normalize": "genome.normalize_s",
}

_ROOT = "engine.run"
_GENERATION = "engine.generation"
_CALL = "problems.fitness"


@dataclass(frozen=True)
class Span:
    """One timed interval. ``parent`` is the id of the span that caused it."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "run": self.run_id, "id": self.id, "name": self.name,
            "start": self.start, "end": self.end, "parent": self.parent,
        }


def covered_length(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


class RunTracer:
    """Hooks plus a fitness wrapper that record one run; see the module docstring."""

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.stamps: list = []   # (event, perf_counter)
        self.calls: list = []    # (start, end, number of stamps taken before the call)
        self.crossover: list = []
        self.mutated: list = []
        self.normalized: list = []
        self.final_population = None
        self.wall = None

    def _stamp(self, event):
        stamps = self.stamps

        def hook(_state):
            stamps.append((event, time.perf_counter()))

        return hook

    def _on_mutation(self, state):
        self.stamps.append(("mutation", time.perf_counter()))
        self.crossover.append(state.last_generation_offspring_crossover)
        self.mutated.append(state.last_generation_offspring_mutation)

    def _on_generation(self, state):
        self.stamps.append(("generation", time.perf_counter()))
        self.normalized.append(state.last_record.offspring_mutation)

    def _on_stop(self, state):
        self.stamps.append(("stop", time.perf_counter()))
        self.final_population = state.population

    def hooks(self) -> gakit.LifecycleHooks:
        return gakit.LifecycleHooks(
            on_start=self._stamp("start"),
            on_fitness=self._stamp("fitness"),
            on_parents=self._stamp("parents"),
            on_crossover=self._stamp("crossover"),
            on_mutation=self._on_mutation,
            on_generation=self._on_generation,
            on_stop=self._on_stop,
        )

    def wrap(self, fitness):
        calls, stamps = self.calls, self.stamps
        clock = time.perf_counter

        def traced_fitness(solution, solution_idx):
            t0 = clock()
            value = fitness(solution, solution_idx)
            calls.append((t0, clock(), len(stamps)))
            return value

        return traced_fitness

    def run(self, cfg, fitness):
        """Run gakit once under the tracer and return its RunResult."""
        hooks = self.hooks()
        traced = self.wrap(fitness)
        t0 = time.perf_counter()
        result = gakit.run(cfg, traced, hooks)
        self.wall = (t0, time.perf_counter())
        return result

    def spans(self) -> list:
        """Build the span tree of the finished run."""
        events = [e for e, _ in self.stamps]
        times = [t for _, t in self.stamps]
        generations = (len(events) - 2) // 5
        per_generation = ["fitness", "parents", "crossover", "mutation", "generation"]
        if events != ["start"] + per_generation * generations + ["stop"]:
            raise ValueError(f"hooks fired out of lifecycle order: {events[:12]}")
        spans: list = []

        def add(name, start, end, parent):
            spans.append(Span(len(spans), name, start, end, parent, self.run_id))
            return len(spans) - 1

        root = add(_ROOT, self.wall[0], self.wall[1], None)
        # A call made after k stamps belongs to the fitness stage that starts at
        # stamp k - 1 (on_start or an on_generation), unless that was the last one.
        fitness_span_by_stamp = {}
        for g in range(generations):
            base = 5 * g  # index of the stamp that opens generation g
            gen = add(_GENERATION, times[base], times[base + 5], root)
            for k, name in enumerate(STAGES):
                sid = add(name, times[base + k], times[base + k + 1], gen)
                if k == 0:
                    fitness_span_by_stamp[base + 1] = sid
        for start, end, n_stamps in self.calls:
            add(_CALL, start, end, fitness_span_by_stamp.get(n_stamps, root))
        return spans

    def counts(self) -> dict:
        """Exact counts of the run's gene work."""
        changed = sum(int(np.count_nonzero(np.asarray(m) != np.asarray(c)))
                      for c, m in zip(self.crossover, self.mutated))
        normalize_changed = sum(int(np.count_nonzero(np.asarray(n) != np.asarray(m)))
                                for m, n in zip(self.mutated, self.normalized))
        scanned = sum(int(np.asarray(m).size) for m in self.mutated)
        return {
            "problems.fitness_calls": len(self.calls),
            "operators.genes_changed": changed,
            "genome.normalize_changed": normalize_changed,
            "genome.normalize_scanned": scanned,
        }


def run_breakdown(spans) -> tuple:
    """Per-layer seconds of one traced run, plus its per-generation milliseconds.

    The five stage times and engine.other_s sum to trace.run_s, the traced
    wall time. engine.other_s is everything outside the generation loop's
    stages: init_population, the final evaluation and loop bookkeeping.
    """
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    seconds = dict.fromkeys(STAGES.values(), 0.0)
    seconds["problems.fitness_s"] = seconds["engine.eval_overhead_s"] = 0.0
    gen_ms = []
    wall = 0.0
    for s in spans:
        if s.name in STAGES:
            seconds[STAGES[s.name]] += s.duration
            if s.name == "engine.fitness":
                seconds["engine.eval_overhead_s"] += selfs[s.id]
        elif s.name == _CALL and by_id[s.parent].name == "engine.fitness":
            seconds["problems.fitness_s"] += s.duration
        elif s.name == _GENERATION:
            gen_ms.append(s.duration * 1e3)
        elif s.name == _ROOT:
            wall = s.duration
    seconds["engine.other_s"] = wall - sum(seconds[m] for m in STAGES.values())
    seconds["trace.run_s"] = wall
    return seconds, gen_ms
