"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Statistical criteria use fixed seed sets, so results are exact and
reproducible; runtime bounds are asserted with wall-clock measurements.
"""

import time
from pathlib import Path

import numpy as np

from gakit.cli import format_fitness_csv, main
from gakit.config import (
    AdaptivePair,
    GaConfig,
    MutationKind,
    ParentSelection,
    PercentGenes,
    validate,
)
from gakit.engine import (
    GaControl,
    LifecycleHooks,
    evaluate_population,
    fitness_history,
    run,
)
from gakit.genome import (
    DiscreteSet,
    GeneSchema,
    GeneType,
    ValueRange,
    coerce_gene,
)
from gakit.problems import (
    DEFAULT_EQUATION,
    MlpSpec,
    OneMaxProblem,
    classification_fitness,
    linear_fitness,
    mlp_parameter_count,
    onemax_fitness,
    xor_dataset,
)

GOLDEN = Path(__file__).parent / "golden"


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


def test_criterion_1_linear_equation_reproduction():
    # 20 distinct seeds (3..22); at least 18 must reach fitness >= 100 within
    # 100 generations and the median generations-to-threshold must be <= 60.
    fitness = linear_fitness(DEFAULT_EQUATION)
    start = time.perf_counter()
    gens_to_hit = []
    for seed in range(3, 23):
        cfg = validate(GaConfig(num_generations=100, sol_per_pop=10,
                                num_parents_mating=5, num_genes=3, seed=seed))
        result = run(cfg, fitness)
        hist = result.best_solutions_fitness
        gens_to_hit.append(
            int(np.argmax(hist >= 100.0)) if np.any(hist >= 100.0) else 101
        )
    elapsed = time.perf_counter() - start
    successes = sum(1 for g in gens_to_hit if g <= 100)
    median = float(np.median(gens_to_hit))
    ok = successes >= 18 and median <= 60.0 and elapsed < 5.0
    _report(1, "linear-equation reproduction", ok,
            f"{successes}/20 solved, median {median:.0f} generations, {elapsed:.2f}s")


def test_criterion_2_onemax_reaches_optimum():
    problem = OneMaxProblem(100)
    fitness = onemax_fitness(problem)
    start = time.perf_counter()
    solved = 0
    for seed in range(20):
        cfg = validate(GaConfig(
            num_generations=1000, sol_per_pop=50, num_parents_mating=10, num_genes=100,
            parent_selection=ParentSelection.STEADY_STATE,
            mutation=MutationKind.ADAPTIVE,
            mutation_rate=AdaptivePair(PercentGenes(20.0), PercentGenes(5.0)),
            keep_parents=2, gene_space=problem.gene_space, gene_type=problem.gene_type,
            seed=seed,
        ))

        def stop_at_optimum(state):
            if state.last_record.best_fitness >= 100.0:
                return GaControl.STOP

        result = run(cfg, fitness, LifecycleHooks(on_generation=stop_at_optimum))
        if np.any(result.best_solutions_fitness >= 100.0):
            solved += 1
    elapsed = time.perf_counter() - start
    ok = solved >= 18 and elapsed < 30.0
    _report(2, "onemax optimum", ok, f"{solved}/20 reached 100/100, {elapsed:.1f}s")


def test_criterion_3_fitness_oracle_values():
    fitness = linear_fitness(DEFAULT_EQUATION)
    pop = np.array([[11.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    values = evaluate_population(pop, fitness)
    expected = np.array([
        1_000_000.0,
        1.0 / (44.0 + 1e-6),
        1.0 / (38.5 + 1e-6),
    ])
    rel = np.abs(values - expected) / expected
    ok = bool(np.all(rel <= 1e-9))
    _report(3, "fitness oracle", ok, f"max relative error {rel.max():.2e}")


def test_criterion_4_lifecycle_ordering():
    events = []
    hooks = LifecycleHooks(
        on_start=lambda s: events.append("start"),
        on_fitness=lambda s: events.append("fitness"),
        on_parents=lambda s: events.append("parents"),
        on_crossover=lambda s: events.append("crossover"),
        on_mutation=lambda s: events.append("mutation"),
        on_generation=lambda s: events.append("generation"),
        on_stop=lambda s: events.append("stop"),
    )
    cfg = validate(GaConfig(num_generations=10, sol_per_pop=8,
                            num_parents_mating=4, num_genes=3, seed=0))
    run(cfg, lambda s, i: float(np.sum(s)), hooks)
    expected = (["start"]
                + ["fitness", "parents", "crossover", "mutation", "generation"] * 10
                + ["stop"])
    ok = events == expected
    _report(4, "lifecycle ordering", ok, f"{len(events)} events")


def test_criterion_5_stop_control():
    def stop_at_five(state):
        if state.generation + 1 == 5:
            return GaControl.STOP

    cfg = validate(GaConfig(num_generations=100, sol_per_pop=8,
                            num_parents_mating=4, num_genes=3, seed=0))
    result = run(cfg, lambda s, i: float(np.sum(s)),
                 LifecycleHooks(on_generation=stop_at_five))
    ok = (result.completed_generations == 5
          and len(result.best_solutions_fitness) == 6)
    _report(5, "stop control", ok,
            f"completed {result.completed_generations}, "
            f"history {len(result.best_solutions_fitness)}")


def test_criterion_6_deterministic_csv():
    fitness = linear_fitness(DEFAULT_EQUATION)
    texts = []
    for _ in range(2):
        cfg = validate(GaConfig(num_generations=40, sol_per_pop=10,
                                num_parents_mating=5, num_genes=3, seed=123))
        result = run(cfg, fitness)
        texts.append(format_fitness_csv(fitness_history(result)))
    ok = texts[0].encode() == texts[1].encode()
    _report(6, "determinism", ok, f"{len(texts[0])} bytes")


def test_criterion_7_elitism_monotonicity():
    xor_spec = MlpSpec((2, 2, 1))
    onemax = OneMaxProblem(20)
    problems_under_test = [
        ("linear", linear_fitness(DEFAULT_EQUATION), dict(num_genes=3)),
        ("onemax", onemax_fitness(onemax),
         dict(num_genes=20, gene_space=onemax.gene_space, gene_type=onemax.gene_type)),
        ("xor", classification_fitness(xor_spec, xor_dataset()),
         dict(num_genes=mlp_parameter_count(xor_spec))),
    ]
    violations = 0
    for name, fitness, extra in problems_under_test:
        for seed in range(50):
            cfg = validate(GaConfig(
                num_generations=15, sol_per_pop=10, num_parents_mating=5,
                parent_selection=ParentSelection.STEADY_STATE, keep_parents=2,
                seed=seed, **extra,
            ))
            result = run(cfg, fitness)
            if np.any(np.diff(result.best_solutions_fitness) < 0):
                violations += 1
    ok = violations == 0
    _report(7, "elitism monotonicity", ok, f"{violations} violations over 150 runs")


def test_criterion_8_constraint_closure_fuzz():
    configs = [
        dict(num_genes=8, gene_space=DiscreteSet(tuple(range(10))),
             gene_type=GeneType.INT8, allow_duplicate_genes=False),
        dict(num_genes=6, gene_space=ValueRange(0, 50, step=2.5),
             gene_type=GeneType.FLOAT64),
        dict(num_genes=4,
             gene_space=[DiscreteSet((0, 1, 2)), ValueRange(-10, 10, step=5),
                         ValueRange(0, 1), DiscreteSet((0.5, 1.5, 2.5, 3.5))],
             gene_type=[GeneType.INT8, GeneType.INT16, GeneType.FLOAT32,
                        GeneType.FLOAT64]),
        dict(num_genes=5, gene_space=ValueRange(0, 32, step=1),
             gene_type=GeneType.UINT8, allow_duplicate_genes=False,
             mutation_by_replacement=True),
        dict(num_genes=4, gene_space=[ValueRange(0, 10), ValueRange(0, 1, step=0.1)] * 2,
             gene_type=[GeneType.INT32, GeneType.FLOAT32] * 2),
    ]
    applications = 0
    violations = 0

    for idx, extra in enumerate(configs):
        cfg = validate(GaConfig(
            num_generations=70, sol_per_pop=20, num_parents_mating=6,
            keep_parents=2, seed=idx, mutation=MutationKind.RANDOM,
            mutation_rate=PercentGenes(40.0), **extra,
        ))
        schema = GeneSchema.from_config(cfg)

        def check_population(state, cfg=cfg, schema=schema):
            nonlocal violations
            for row in state.population:
                values = row.tolist()
                if not cfg.allow_duplicate_genes and len(set(values)) != len(values):
                    violations += 1
                for j, v in enumerate(values):
                    if coerce_gene(v, schema.types[j]) != v:
                        violations += 1
                    if not schema.rules[j].contains(v):
                        violations += 1

        run(cfg, lambda s, i: float(np.sum(s)),
            LifecycleHooks(on_generation=check_population))
        # selection + one crossover and one mutation per offspring, per generation
        applications += cfg.num_generations * (1 + 2 * (cfg.sol_per_pop - cfg.keep_parents))

    ok = violations == 0 and applications >= 10_000
    _report(8, "constraint closure", ok,
            f"{applications} operator applications, {violations} violations")


def test_criterion_9_xor_neuroevolution():
    spec = MlpSpec((2, 2, 1))
    fitness = classification_fitness(spec, xor_dataset())
    start = time.perf_counter()
    solved = 0
    for seed in range(20):
        cfg = validate(GaConfig(
            num_generations=500, sol_per_pop=50, num_parents_mating=25,
            num_genes=mlp_parameter_count(spec),
            mutation=MutationKind.ADAPTIVE,
            mutation_rate=AdaptivePair(PercentGenes(40.0), PercentGenes(10.0)),
            keep_parents=2, random_delta_range=(-3.0, 3.0), seed=seed,
        ))

        def stop_at_perfect(state):
            if state.last_record.best_fitness >= 1.0:
                return GaControl.STOP

        result = run(cfg, fitness, LifecycleHooks(on_generation=stop_at_perfect))
        if np.any(result.best_solutions_fitness >= 1.0):
            solved += 1
    elapsed = time.perf_counter() - start
    ok = solved >= 15 and elapsed < 60.0
    _report(9, "xor neuroevolution", ok, f"{solved}/20 reached 1.0, {elapsed:.1f}s")


def test_criterion_10_cli_contract(tmp_path, capsys):
    out = tmp_path / "run.csv"
    svg_direct = tmp_path / "direct.svg"
    svg_report = tmp_path / "reported.svg"

    code_solve = main(["solve", "--problem", "linear", "--generations", "20",
                       "--seed", "7", "--out", str(out), "--svg", str(svg_direct)])
    code_report = main(["report", "--in", str(out), "--svg", str(svg_report)])
    golden_csv = (GOLDEN / "linear_seed7.csv").read_bytes()
    golden_svg = (GOLDEN / "linear_seed7.svg").read_bytes()

    round_trip = svg_direct.read_bytes() == svg_report.read_bytes()
    golden_match = out.read_bytes() == golden_csv and svg_direct.read_bytes() == golden_svg
    code_usage = main(["solve", "--problem", "nosuch"])
    code_config = main(["solve", "--parents", "12", "--pop", "10"])
    capsys.readouterr()

    ok = (code_solve == 0 and code_report == 0 and round_trip and golden_match
          and code_usage == 2 and code_config == 3)
    _report(10, "cli contract", ok,
            f"exit codes {code_solve}/{code_report}/{code_usage}/{code_config}, "
            f"round-trip {round_trip}, golden {golden_match}")
