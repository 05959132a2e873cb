"""Command-line front end: solve built-in problems, export fitness CSVs, render SVG curves.

Exit codes: 0 success, 2 usage error, 3 configuration error, 4 runtime error
during the evolution (fitness failures and other GA-domain errors).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import engine, problems
from .config import (
    AdaptivePair,
    GaConfig,
    MutationKind,
    NumGenes,
    PercentGenes,
    Probability,
    validate,
)
from .errors import ConfigError, ConfigFileError, EmptyHistory, GaError, UsageError
from .genome import DiscreteSet, GeneType, ValueRange, population_from_csv

_PROBLEMS = ("linear", "onemax", "xor")

_XOR_SPEC = problems.MlpSpec((2, 2, 1))


@dataclass
class CliInvocation:
    """One parsed command line: subcommand plus explicitly-provided flags."""

    subcommand: str
    flags: dict
    config_path: Optional[str] = None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_invocation(argv) -> CliInvocation:
    """Parse argv into a CliInvocation; unknown flags or bad values raise UsageError."""
    parser = _Parser(prog="gakit", description="genetic-algorithm benchmark runner")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    solve = sub.add_parser("solve", help="run a built-in problem")
    solve.add_argument("--problem", choices=_PROBLEMS)
    solve.add_argument("--genes", type=int)
    solve.add_argument("--generations", type=int)
    solve.add_argument("--pop", type=int)
    solve.add_argument("--parents", type=int)
    solve.add_argument("--seed", type=int)
    solve.add_argument("--selection")
    solve.add_argument("--crossover")
    solve.add_argument("--mutation")
    solve.add_argument("--mutation-percent", dest="mutation_percent")
    solve.add_argument("--keep-parents", dest="keep_parents", type=int)
    solve.add_argument("--config")
    solve.add_argument("--out")
    solve.add_argument("--svg")

    report = sub.add_parser("report", help="render an SVG from a fitness CSV")
    report.add_argument("--in", dest="in_path", required=True)
    report.add_argument("--svg", required=True)

    ns = parser.parse_args(list(argv))
    flags = {k: v for k, v in vars(ns).items() if k != "subcommand" and v is not None}
    return CliInvocation(
        subcommand=ns.subcommand, flags=flags, config_path=flags.pop("config", None)
    )


def load_config_file(path) -> dict:
    """Parse key=value lines; '#' starts a comment, blank lines are skipped."""
    mapping: dict = {}
    text = Path(path).read_text()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigFileError(lineno, f"expected key=value, got {raw_line.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigFileError(lineno, "empty key")
        if key in mapping:
            raise ConfigFileError(lineno, f"duplicate key {key!r}")
        mapping[key] = value
    return mapping


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_interval(text: str) -> tuple:
    lo, _, hi = text.partition(",")
    return (float(lo), float(hi))


def _plain_rate(variant: str, value: str):
    if variant == "percent":
        return PercentGenes(float(value))
    if variant == "num":
        return NumGenes(int(value))
    if variant == "probability":
        return Probability(float(value))
    raise ValueError(f"unknown rate variant {variant!r}")


def parse_rate_spec(text: str):
    """Parse rate syntax: 'percent:10', 'num:3', 'probability:0.05', 'adaptive:percent:20,5'."""
    head, _, rest = text.partition(":")
    if head == "adaptive":
        variant, _, values = rest.partition(":")
        high, _, low = values.partition(",")
        return AdaptivePair(_plain_rate(variant, high), _plain_rate(variant, low))
    return _plain_rate(head, rest)


def _parse_gene_space(text: str):
    if text.lower() in ("unconstrained", "none"):
        return None
    head, _, rest = text.partition(":")
    if head == "set":
        return DiscreteSet(tuple(float(v) for v in rest.split(",")))
    if head == "range":
        parts = [float(v) for v in rest.split(",")]
        if len(parts) == 2:
            return ValueRange(parts[0], parts[1])
        if len(parts) == 3:
            return ValueRange(parts[0], parts[1], parts[2])
    raise ValueError(f"unknown gene space syntax {text!r}")


def _parse_gene_type(text: str):
    names = [t.strip() for t in text.split(",")]
    if len(names) == 1:
        return GeneType(names[0])
    return tuple(GeneType(n) for n in names)


_KEY_PARSERS = {
    "num_generations": int,
    "sol_per_pop": int,
    "num_parents_mating": int,
    "num_genes": int,
    "parent_selection": str,
    "tournament_k": int,
    "crossover": str,
    "mutation": str,
    "mutation_rate": parse_rate_spec,
    "mutation_by_replacement": _parse_bool,
    "random_delta_range": _parse_interval,
    "init_range": _parse_interval,
    "keep_parents": int,
    "allow_duplicate_genes": _parse_bool,
    "gene_space": _parse_gene_space,
    "gene_type": _parse_gene_type,
    "initial_population": lambda path: population_from_csv(Path(path).read_text()),
    "seed": int,
}


def _config_from_file_map(mapping: dict) -> dict:
    kwargs = {}
    for key, raw in mapping.items():
        if key == "problem":
            continue
        if key not in _KEY_PARSERS:
            raise ConfigError(key, "a known configuration key", raw)
        try:
            kwargs[key] = _KEY_PARSERS[key](raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(key, f"a parsable value ({exc})", raw) from None
    return kwargs


def _parse_mutation_percent(text: str):
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) == 1:
        return PercentGenes(float(parts[0]))
    if len(parts) == 2:
        return AdaptivePair(PercentGenes(float(parts[0])), PercentGenes(float(parts[1])))
    raise UsageError(f"--mutation-percent takes P or P_HIGH,P_LOW, got {text!r}")


_FLAG_TO_FIELD = {
    "genes": "num_genes",
    "generations": "num_generations",
    "pop": "sol_per_pop",
    "parents": "num_parents_mating",
    "seed": "seed",
    "selection": "parent_selection",
    "crossover": "crossover",
    "mutation": "mutation",
    "keep_parents": "keep_parents",
}


def _preset(problem: str) -> dict:
    if problem == "linear":
        return dict(
            num_generations=100, sol_per_pop=10, num_parents_mating=5, num_genes=3
        )
    if problem == "onemax":
        return dict(
            num_generations=1000, sol_per_pop=50, num_parents_mating=10, num_genes=100,
            mutation=MutationKind.ADAPTIVE,
            mutation_rate=AdaptivePair(PercentGenes(20.0), PercentGenes(5.0)),
            keep_parents=2,
            gene_space=DiscreteSet((0.0, 1.0)),
            gene_type=GeneType.INT8,
        )
    if problem == "xor":
        return dict(
            num_generations=500, sol_per_pop=50, num_parents_mating=25,
            num_genes=problems.mlp_parameter_count(_XOR_SPEC),
            mutation=MutationKind.ADAPTIVE,
            mutation_rate=AdaptivePair(PercentGenes(40.0), PercentGenes(10.0)),
            keep_parents=2,
            random_delta_range=(-3.0, 3.0),
        )
    raise UsageError(f"unknown problem {problem!r}")


def _fixed_gene_count(problem: str) -> Optional[int]:
    if problem == "linear":
        return len(problems.DEFAULT_EQUATION.inputs)
    if problem == "xor":
        return problems.mlp_parameter_count(_XOR_SPEC)
    return None


def build_solve_config(inv: CliInvocation):
    """Merge preset, config file, and flags (flags win) into a validated GaConfig."""
    file_map = load_config_file(inv.config_path) if inv.config_path else {}
    problem = inv.flags.get("problem") or file_map.get("problem") or "linear"
    if problem not in _PROBLEMS:
        raise ConfigError("problem", f"one of {_PROBLEMS}", problem)

    kwargs = _preset(problem)
    overrides = _config_from_file_map(file_map)
    rate_overridden = "mutation_rate" in overrides
    kwargs.update(overrides)
    for flag, field in _FLAG_TO_FIELD.items():
        if flag in inv.flags:
            kwargs[field] = inv.flags[flag]
    if "mutation_percent" in inv.flags:
        kwargs["mutation_rate"] = _parse_mutation_percent(inv.flags["mutation_percent"])
        rate_overridden = True
    if not rate_overridden and isinstance(kwargs.get("mutation_rate"), AdaptivePair):
        # When the user switches a preset away from adaptive mutation, its
        # paired rate no longer applies; fall back to the library default.
        mutation = kwargs.get("mutation")
        if str(getattr(mutation, "value", mutation)).lower() not in ("adaptive",):
            kwargs["mutation_rate"] = PercentGenes(10.0)

    fixed = _fixed_gene_count(problem)
    if fixed is not None and kwargs.get("num_genes") != fixed:
        raise ConfigError("num_genes", f"{fixed} for the {problem} problem", kwargs.get("num_genes"))

    cfg = validate(GaConfig(**kwargs))
    if problem == "linear":
        fitness = problems.linear_fitness(problems.DEFAULT_EQUATION)
    elif problem == "onemax":
        fitness = problems.onemax_fitness(problems.OneMaxProblem(cfg.num_genes))
    else:
        fitness = problems.classification_fitness(_XOR_SPEC, problems.xor_dataset())
    return cfg, fitness


def _fmt9(value: float) -> str:
    return format(float(value), ".9g")


def format_fitness_csv(history) -> str:
    """Serialize history rows with 9-significant-digit values, newline-terminated."""
    lines = ["generation,best_fitness,mean_fitness"]
    for generation, best, mean in history:
        lines.append(f"{int(generation)},{_fmt9(best)},{_fmt9(mean)}")
    return "\n".join(lines) + "\n"


def parse_fitness_csv(text: str):
    """Parse a fitness CSV back into (generation, best, mean) rows."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "generation,best_fitness,mean_fitness":
        raise ConfigFileError(1, "missing fitness CSV header")
    history = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 3:
            raise ConfigFileError(lineno, f"expected 3 columns, got {len(cells)}")
        try:
            history.append((int(cells[0]), float(cells[1]), float(cells[2])))
        except ValueError:
            raise ConfigFileError(lineno, f"unparsable row {line!r}") from None
    return history


_SVG_W, _SVG_H = 800, 500
_M_LEFT, _M_RIGHT, _M_TOP, _M_BOTTOM = 70, 20, 20, 45
_BEST_COLOR, _MEAN_COLOR = "#1f77b4", "#ff7f0e"


def render_fitness_svg(history) -> str:
    """Self-contained 800x500 SVG with best/mean polylines, ticks, and a legend.

    Output is byte-deterministic for identical input.
    """
    if not history:
        raise EmptyHistory("cannot render an empty fitness history")
    gens = [row[0] for row in history]
    best = [row[1] for row in history]
    mean = [row[2] for row in history]

    x_min, x_max = float(min(gens)), float(max(gens))
    if x_max == x_min:
        x_max = x_min + 1.0
    y_min = min(min(best), min(mean))
    y_max = max(max(best), max(mean))
    pad = (y_max - y_min) * 0.05
    if pad == 0.0:
        pad = max(abs(y_max), 1.0) * 0.05
    y_min -= pad
    y_max += pad

    plot_w = _SVG_W - _M_LEFT - _M_RIGHT
    plot_h = _SVG_H - _M_TOP - _M_BOTTOM

    def sx(g: float) -> float:
        return _M_LEFT + (g - x_min) / (x_max - x_min) * plot_w

    def sy(v: float) -> float:
        return _SVG_H - _M_BOTTOM - (v - y_min) / (y_max - y_min) * plot_h

    def polyline(ys, color: str) -> str:
        points = " ".join(f"{sx(g):.2f},{sy(v):.2f}" for g, v in zip(gens, ys))
        return (
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}" />'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white" />',
        f'<line x1="{_M_LEFT}" y1="{_SVG_H - _M_BOTTOM}" x2="{_SVG_W - _M_RIGHT}" '
        f'y2="{_SVG_H - _M_BOTTOM}" stroke="black" />',
        f'<line x1="{_M_LEFT}" y1="{_M_TOP}" x2="{_M_LEFT}" '
        f'y2="{_SVG_H - _M_BOTTOM}" stroke="black" />',
    ]
    for i in range(5):
        frac = i / 4
        xv = x_min + frac * (x_max - x_min)
        xpix = sx(xv)
        parts.append(
            f'<line x1="{xpix:.2f}" y1="{_SVG_H - _M_BOTTOM}" x2="{xpix:.2f}" '
            f'y2="{_SVG_H - _M_BOTTOM + 5}" stroke="black" />'
        )
        parts.append(
            f'<text x="{xpix:.2f}" y="{_SVG_H - _M_BOTTOM + 18}" font-size="11" '
            f'text-anchor="middle">{xv:.6g}</text>'
        )
        yv = y_min + frac * (y_max - y_min)
        ypix = sy(yv)
        parts.append(
            f'<line x1="{_M_LEFT - 5}" y1="{ypix:.2f}" x2="{_M_LEFT}" '
            f'y2="{ypix:.2f}" stroke="black" />'
        )
        parts.append(
            f'<text x="{_M_LEFT - 8}" y="{ypix + 4:.2f}" font-size="11" '
            f'text-anchor="end">{yv:.6g}</text>'
        )
    parts.append(
        f'<text x="{_M_LEFT + plot_w / 2:.2f}" y="{_SVG_H - 8}" font-size="12" '
        f'text-anchor="middle">generation</text>'
    )
    parts.append(
        f'<text x="15" y="{_M_TOP + plot_h / 2:.2f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 15 {_M_TOP + plot_h / 2:.2f})">fitness</text>'
    )
    parts.append(polyline(best, _BEST_COLOR))
    parts.append(polyline(mean, _MEAN_COLOR))
    legend_x = _SVG_W - _M_RIGHT - 120
    parts.append(
        f'<line x1="{legend_x}" y1="{_M_TOP + 12}" x2="{legend_x + 24}" '
        f'y2="{_M_TOP + 12}" stroke="{_BEST_COLOR}" stroke-width="1.5" />'
    )
    parts.append(
        f'<text x="{legend_x + 30}" y="{_M_TOP + 16}" font-size="12">best</text>'
    )
    parts.append(
        f'<line x1="{legend_x}" y1="{_M_TOP + 30}" x2="{legend_x + 24}" '
        f'y2="{_M_TOP + 30}" stroke="{_MEAN_COLOR}" stroke-width="1.5" />'
    )
    parts.append(
        f'<text x="{legend_x + 30}" y="{_M_TOP + 34}" font-size="12">mean</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def run_solve(inv: CliInvocation) -> int:
    """Build the config, run the engine, print the best triple, write reports."""
    cfg, fitness = build_solve_config(inv)
    result = engine.run(cfg, fitness)
    csv_text = format_fitness_csv(engine.fitness_history(result))

    solution, fit, index = engine.best_solution(result)
    genes = ",".join(_fmt9(v) for v in solution)
    print(f"best=[{genes}] fitness={_fmt9(fit)} index={index}")

    if "out" in inv.flags:
        Path(inv.flags["out"]).write_text(csv_text)
    if "svg" in inv.flags:
        # Render from the CSV-normalized history so solve --svg and a later
        # report --in on the exported CSV agree byte for byte.
        svg = render_fitness_svg(parse_fitness_csv(csv_text))
        Path(inv.flags["svg"]).write_text(svg)
    return 0


def run_report(inv: CliInvocation) -> int:
    """Render the SVG curve for a previously exported fitness CSV."""
    history = parse_fitness_csv(Path(inv.flags["in_path"]).read_text())
    Path(inv.flags["svg"]).write_text(render_fitness_svg(history))
    return 0


def main(argv=None) -> int:
    try:
        inv = parse_invocation(sys.argv[1:] if argv is None else argv)
        if inv.subcommand == "solve":
            return run_solve(inv)
        return run_report(inv)
    except (UsageError, OSError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (ConfigError, ConfigFileError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 3
    except GaError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
