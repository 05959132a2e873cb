"""Workloads, correctness checks and measurement loops of the gakit benchmark.

Each workload is a ``gakit solve`` command line. The benchmark turns it into
``(cfg, fitness)`` through the public ``cli.parse_invocation`` and
``cli.build_solve_config`` and times calls into public gakit functions from
outside the library. All load comes from this one process; the CLI runs as
one child process at a time.

``measure(..., trace=False)`` reports the end-to-end metrics, with no hooks
installed. ``measure(..., trace=True)`` reports the per-layer metrics from
separate traced runs (see ``tracing``), alternated with untraced runs so the
tracing overhead is measured too.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import gakit
from gakit import cli

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """A ``gakit solve`` argv (without --seed) and the digest of its default-seed run.

    ``digest`` is the sha256 of the fitness CSV that the default seed must
    produce; None skips that check (used for resized workloads in tests).
    """

    name: str
    argv: tuple
    digest: Optional[str]


# Why onemax and xor exist is recorded in BENCHMARK.json. lattice (40 genes of
# four integer types on a 200-point step lattice, no duplicates) exercises
# sampling, typed-lattice enumeration and duplicate repair; it is runnable
# here but left out of BENCHMARK.json, whose time budget fits two workloads
# at a run length long enough to be steady. All three keep the CLI default
# parallel_fitness=false, so every run is single-threaded.
WORKLOADS = {w.name: w for w in (
    Workload("onemax", ("solve", "--problem", "onemax", "--generations", "200"),
             "ae98590fc534d7d5baeb4df1fbf1334e22435dbf9803c4a9e7887a290511159e"),
    Workload("xor", ("solve", "--problem", "xor"),
             "107b5e83a407a252cd0481ac10a43dd361a4d0c01c4f24b655e696271bccc45c"),
    Workload("lattice", ("solve", "--problem", "onemax", "--genes", "40", "--pop", "20",
                         "--parents", "6", "--generations", "100",
                         "--config", str(HERE / "lattice.cfg")),
             "4d2e974e48be8bcc068f001c6d3efb39fecd4914b9cb70db25d9ab2c90975ee8"),
)}

END_TO_END = {
    "run_s": "s",
    "evals_per_s": "1/s",
    "setup_s": "s",
    "cli_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "config.build_s": "s",
    "genome.init_s": "s",
    "engine.fitness_s": "s",
    "problems.fitness_s": "s",
    "engine.eval_overhead_s": "s",
    "problems.fitness_calls": "count",
    "operators.select_s": "s",
    "operators.crossover_s": "s",
    "operators.mutate_s": "s",
    "operators.genes_changed": "count",
    "genome.normalize_s": "s",
    "genome.normalize_changed_frac": "ratio",
    "engine.gen_ms.p50": "ms",
    "engine.gen_ms.p90": "ms",
    "engine.other_s": "s",
    "trace.run_s": "s",
    "cli.report_s": "s",
    "trace.overhead_frac": "ratio",
}

# Reported as the mean over traced runs, not the median, so that the stage
# seconds and engine.other_s add up to trace.run_s exactly.
MEAN_METRICS = frozenset(tracing.STAGES.values()) | {
    "problems.fitness_s", "engine.eval_overhead_s", "engine.other_s", "trace.run_s",
}

# One set-up step repeats argv -> initial population until this many seconds
# have passed, at most _SETUP_MAX times; each repeat is one setup_s sample.
_SETUP_SECONDS = 0.25
_SETUP_MAX = 50


class CheckFailed(Exception):
    """A run finished but its output is wrong."""


class Checks:
    """Counts attempted and failed runs. A run fails if it raises or fails a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def attempt(self, label: str, fn, *args):
        """Call fn(*args); on any exception count a failure, report it, return None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a failing run is counted and reported, not fatal
            self.failed += 1
            print(f"perfbench: {label} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None


def solve_argv(workload: Workload, seed: Optional[int]) -> list:
    argv = list(workload.argv)
    if seed is not None:
        argv += ["--seed", str(seed)]
    return argv


def build(argv):
    """argv -> (cfg, fitness) through the CLI's public entry points."""
    return cli.build_solve_config(cli.parse_invocation(argv))


def init_rng(cfg) -> np.random.Generator:
    # The engine draws its initial population from the (seed, generation 0,
    # stage 0) substream; check_setup verifies this stays true.
    return np.random.default_rng([int(cfg.seed), 0, 0])


def history_csv(result) -> str:
    return cli.format_fitness_csv(gakit.fitness_history(result))


def exact_digest(result) -> str:
    """Digest of every bit of the run's history, for repeat-run identity."""
    h = hashlib.sha256()
    for arr in (result.best_solutions_fitness, result.mean_fitness, result.best_solutions,
                result.best_solution_indices):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def csv_digest(csv_text: str) -> str:
    return hashlib.sha256(csv_text.encode()).hexdigest()


# ---------------------------------------------------------------- checks


def _per_gene(value, kinds, n: int) -> list:
    return [value] * n if isinstance(value, kinds) else list(value)


def _membership(space, gene_type):
    """A predicate accepting exactly the admissible stored values of one gene."""
    if isinstance(space, gakit.DiscreteSet):
        allowed = {gakit.coerce_gene(v, gene_type) for v in space.values}
        return allowed.__contains__
    if isinstance(space, gakit.ValueRange):
        lo, hi, step = space.lo, space.hi, space.step
        if step is None:
            return lambda v: lo <= v < hi
        return lambda v: lo <= v < hi and lo + round((v - lo) / step) * step == v
    return math.isfinite


def check_genes(rows, cfg) -> None:
    """Every gene is a fixed point of its type, inside its space, and distinct if required."""
    n = cfg.num_genes
    spaces = _per_gene(cfg.gene_space if cfg.gene_space is not None else gakit.UNCONSTRAINED,
                       (gakit.Unconstrained, gakit.DiscreteSet, gakit.ValueRange), n)
    types = _per_gene(cfg.gene_type, gakit.GeneType, n)
    members = [_membership(s, t) for s, t in zip(spaces, types)]
    for row in np.asarray(rows, dtype=float).tolist():
        if len(row) != n:
            raise CheckFailed(f"chromosome has {len(row)} genes, expected {n}")
        for j, v in enumerate(row):
            if gakit.coerce_gene(v, types[j]) != v or not members[j](v):
                raise CheckFailed(f"gene {j} = {v!r} is outside {spaces[j]} / {types[j].value}")
        if not cfg.allow_duplicate_genes and len(set(row)) != n:
            raise CheckFailed(f"duplicate genes in {row}")


def check_result(result, cfg) -> str:
    """Check one finished run and return its fitness CSV."""
    if result.completed_generations != cfg.num_generations:
        raise CheckFailed(f"run stopped after {result.completed_generations} generations")
    best = np.asarray(result.best_solutions_fitness)
    if best.shape != (cfg.num_generations + 1,):
        raise CheckFailed(f"history has {best.shape} entries")
    if np.any(np.diff(best) < 0):
        # keep_parents >= 1 carries the best parent over, so best never drops.
        raise CheckFailed("best fitness decreased between generations")
    check_genes(result.best_solutions, cfg)
    return history_csv(result)


def check_repeats(name: str, values) -> None:
    if len(set(values)) > 1:
        raise CheckFailed(f"{name} differs between runs of one seed: {values}")


def check_setup(population, cfg, reference) -> None:
    """The set-up's initial population is the one the engine's run started from."""
    check_genes(population, cfg)
    row = population[int(reference.best_solution_indices[0])]
    if not np.array_equal(row, reference.best_solutions[0]):
        raise CheckFailed("init_population differs from the run's generation-0 population")


def default_seed_run(workload: Workload):
    """Untimed warm-up at the default seed: digest, history and final population checks."""
    cfg, fitness = build(solve_argv(workload, None))
    final = {}

    def keep_population(state):
        final["population"] = state.population

    result = gakit.run(cfg, fitness, gakit.LifecycleHooks(on_stop=keep_population))
    csv_text = check_result(result, cfg)
    check_genes(final["population"], cfg)
    if workload.digest is not None and csv_digest(csv_text) != workload.digest:
        raise CheckFailed(
            f"default-seed fitness history digest {csv_digest(csv_text)} "
            f"!= stored {workload.digest}"
        )


# ----------------------------------------------------------- measurement


class Reference:
    """The first run of the measured seed; every later run must repeat it bit for bit."""

    def __init__(self) -> None:
        self.digest = None
        self.result = None
        self.csv = None

    def check(self, result, cfg) -> None:
        csv_text = check_result(result, cfg)
        digest = exact_digest(result)
        if self.digest is None:
            self.digest, self.result, self.csv = digest, result, csv_text
        elif digest != self.digest:
            raise CheckFailed("a repeated run of the same seed produced a different history")


def timed_run(argv, reference: Reference) -> tuple:
    """One untimed build, then one timed gakit.run with no hooks: (seconds, evaluations)."""
    cfg, fitness = build(argv)
    t0 = time.perf_counter()
    result = gakit.run(cfg, fitness)
    seconds = time.perf_counter() - t0
    reference.check(result, cfg)
    return seconds, (result.completed_generations + 1) * cfg.sol_per_pop


def setup_samples(argv, reference: Reference, traced: bool) -> list:
    """Repeat argv -> initial population; one entry per repeat.

    Untraced entries are the total seconds; traced entries split out the
    seconds of build_solve_config and init_population.
    """
    samples = []
    deadline = time.perf_counter() + _SETUP_SECONDS
    while len(samples) < _SETUP_MAX:
        t0 = time.perf_counter()
        inv = cli.parse_invocation(argv)
        t1 = time.perf_counter()
        cfg, _fitness = cli.build_solve_config(inv)
        t2 = time.perf_counter()
        population = gakit.init_population(cfg, init_rng(cfg))
        t3 = time.perf_counter()
        if not samples and reference.result is not None:
            check_setup(population, cfg, reference.result)
        samples.append({"config.build": t2 - t1, "genome.init": t3 - t2} if traced else t3 - t0)
        if t3 >= deadline:
            break
    return samples


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def cli_run(argv, reference: Reference, tag: str) -> tuple:
    """One `python -m gakit.cli solve ... --out --svg` child: (wall seconds, peak RSS MB)."""
    OUT.mkdir(exist_ok=True)
    csv_path, svg_path = OUT / f"{tag}.csv", OUT / f"{tag}.svg"
    log_path = OUT / f"{tag}.log"
    cmd = [sys.executable, "-m", "gakit.cli", *argv, "--out", str(csv_path), "--svg", str(svg_path)]
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=log, stderr=log)
        _pid, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise CheckFailed(f"gakit solve exited {proc.returncode}: {log_path.read_text()[-2000:]}")
    csv_text = csv_path.read_text()
    if reference.csv is None or csv_text != reference.csv:
        raise CheckFailed("the CLI's CSV differs from the library run's history")
    if svg_path.read_text() != cli.render_fitness_svg(cli.parse_fitness_csv(csv_text)):
        raise CheckFailed("the CLI's SVG differs from rendering its CSV")
    return seconds, usage.ru_maxrss / 1024.0


def traced_run(argv, reference: Reference, run_id: int) -> tuple:
    """One traced run: (tracer, spans, seconds of the CLI report step)."""
    cfg, fitness = build(argv)
    tracer = tracing.RunTracer(run_id)
    result = tracer.run(cfg, fitness)
    reference.check(result, cfg)  # tracing must not change a single draw
    check_genes(tracer.final_population, cfg)
    t0 = time.perf_counter()
    csv_text = cli.format_fitness_csv(gakit.fitness_history(result))
    cli.render_fitness_svg(cli.parse_fitness_csv(csv_text))
    report_s = time.perf_counter() - t0
    return tracer, tracer.spans(), report_s


# ------------------------------------------------------------- summaries


def summary(values) -> dict:
    """Median, quartiles (statistics.quantiles, n=4), sample count, and the 90th
    percentile where at least ten samples lie beyond it."""
    values = [float(v) for v in values]
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    p90 = statistics.quantiles(values, n=10)[8] if len(values) >= 100 else None
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "p90": p90,
            "n": len(values)}


def machine_note() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def cycle(steps, seconds: float) -> None:
    """Call the steps in turn until `seconds` have passed; each runs at least once.

    The deadline is checked after every step, not every round, so a run
    overshoots it by at most one step.
    """
    deadline = time.perf_counter() + seconds
    for n in itertools.count():
        steps[n % len(steps)]()
        if n >= len(steps) - 1 and time.perf_counter() >= deadline:
            return


def _end_to_end(workload, seed, seconds, checks, reference) -> dict:
    argv = solve_argv(workload, seed)
    samples = {name: [] for name in END_TO_END}

    def library():
        timed = checks.attempt("run", timed_run, argv, reference)
        if timed is not None:
            samples["run_s"].append(timed[0])
            samples["evals_per_s"].append(timed[1] / timed[0])

    def child():
        result = checks.attempt("cli", cli_run, argv, reference, f"{workload.name}-{seed}")
        if result is not None:
            samples["cli_s"].append(result[0])
            samples["peak_rss_mb"].append(result[1])

    def setup():
        samples["setup_s"].extend(checks.attempt("setup", setup_samples, argv, reference, False)
                                  or ())

    cycle([library, setup, child, setup], seconds)
    return samples


def _per_layer(workload, seed, seconds, checks, reference) -> dict:
    argv = solve_argv(workload, seed)
    samples = {name: [] for name in PER_LAYER}
    untraced, gen_ms, setups, spans = [], [], [], []

    def library():
        timed = checks.attempt("run", timed_run, argv, reference)
        if timed is not None:
            untraced.append(timed[0])

    def traced():
        nonlocal spans
        result = checks.attempt("traced run", traced_run, argv, reference, len(gen_ms))
        if result is None:
            return
        tracer, spans, report_s = result
        seconds_by_layer, run_gen_ms = tracing.run_breakdown(spans)
        for name, value in seconds_by_layer.items():
            samples[name].append(value)
        gen_ms.append(run_gen_ms)
        counts = tracer.counts()
        samples["problems.fitness_calls"].append(counts["problems.fitness_calls"])
        samples["operators.genes_changed"].append(counts["operators.genes_changed"])
        samples["genome.normalize_changed_frac"].append(
            counts["genome.normalize_changed"] / max(counts["genome.normalize_scanned"], 1))
        samples["cli.report_s"].append(report_s)

    def setup():
        setups.extend(checks.attempt("setup", setup_samples, argv, reference, True) or ())

    cycle([library, setup, traced, setup], seconds)
    write_spans(spans, OUT / f"spans-{workload.name}-{seed}.jsonl")
    for name in ("problems.fitness_calls", "operators.genes_changed"):
        checks.attempt(f"{name} repeat", check_repeats, name, samples[name])
    pooled = [ms for run in gen_ms for ms in run]
    if len(pooled) > 1:
        deciles = statistics.quantiles(pooled, n=10)
        samples["engine.gen_ms.p50"] = [deciles[4]]
        samples["engine.gen_ms.p90"] = [deciles[8]]
    if untraced and samples["trace.run_s"]:
        samples["trace.overhead_frac"] = [
            statistics.median(samples["trace.run_s"]) / statistics.median(untraced) - 1.0]
    samples["config.build_s"] = [s["config.build"] for s in setups]
    samples["genome.init_s"] = [s["genome.init"] for s in setups]
    return samples


def write_spans(spans, path: Path) -> None:
    """Write the spans of one traced run as JSON lines."""
    OUT.mkdir(exist_ok=True)
    with open(path, "w") as f:
        for span in spans:
            f.write(json.dumps(span.as_dict()) + "\n")


def measure(workload: Workload, seed: int, seconds: float, trace: bool, out=sys.stdout) -> dict:
    """Run one benchmark invocation and return the result object.

    Prints a machine note and a table of every metric (median, quartiles,
    sample count) to ``out``; the caller prints the returned object.
    """
    checks = Checks()
    reference = Reference()
    checks.attempt("default-seed run", default_seed_run, workload)
    if trace:
        samples = _per_layer(workload, seed, seconds, checks, reference)
        units = PER_LAYER
    else:
        samples = _end_to_end(workload, seed, seconds, checks, reference)
        units = END_TO_END
    print("machine " + json.dumps(machine_note()), file=out)
    print(f"workload={workload.name} seed={seed} seconds={seconds} trace={int(trace)}", file=out)
    print(f"{'metric':30} {'unit':6} {'value':>11} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'p90':>11} {'n':>5}", file=out)
    metrics = {}
    for name, unit in units.items():
        values = samples.get(name)
        if not values:
            continue
        s = summary(values)
        value = sum(values) / len(values) if name in MEAN_METRICS else s["median"]
        metrics[name] = {"value": value, "unit": unit}
        p90 = "-" if s["p90"] is None else f"{s['p90']:.5g}"
        print(f"{name:30} {unit:6} {value:11.5g} {s['median']:11.5g} {s['q1']:11.5g} "
              f"{s['q3']:11.5g} {p90:>11} {s['n']:5d}", file=out)
    fail_frac = checks.failed / max(checks.attempted, 1)
    print(f"{'fail_frac':30} {'ratio':6} {fail_frac:11.5g}   ({checks.failed} failed of "
          f"{checks.attempted} attempted)", file=out)
    correct = checks.failed == 0 and checks.attempted > 0 and set(metrics) == set(units)
    return {
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
