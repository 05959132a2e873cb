"""Command-line front end: solve built-in problems, export fitness CSVs, render SVG curves.

Exit codes: 0 success, 2 usage error, 3 configuration error, 4 runtime error
during the evolution (fitness failures and other GA-domain errors).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

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
from .errors import (
    ConfigError,
    ConfigFileError,
    DimensionMismatch,
    GaError,
    UnplottableHistory,
    UsageError,
)
from .genome import DiscreteSet, GeneType, ValueRange, population_from_csv

_XOR_SPEC = problems.MlpSpec((2, 2, 1))


@dataclass(frozen=True)
class _Problem:
    """A built-in problem: its preset config fields and its fitness for a validated config.

    A problem whose gene count is fixed accepts only its preset num_genes.
    """

    preset: dict
    fixed_genes: bool
    fitness: Callable[[GaConfig], object]


_PROBLEMS = {
    "linear": _Problem(
        preset=dict(num_generations=100, sol_per_pop=10, num_parents_mating=5,
                    num_genes=len(problems.DEFAULT_EQUATION.inputs)),
        fixed_genes=True,
        fitness=lambda cfg: problems.linear_fitness(problems.DEFAULT_EQUATION),
    ),
    "onemax": _Problem(
        preset=dict(
            num_generations=1000, sol_per_pop=50, num_parents_mating=10, num_genes=100,
            mutation=MutationKind.ADAPTIVE,
            mutation_rate=AdaptivePair(PercentGenes(20.0), PercentGenes(5.0)),
            keep_parents=2,
            gene_space=problems.OneMaxProblem.gene_space,
            gene_type=problems.OneMaxProblem.gene_type,
        ),
        fixed_genes=False,
        fitness=lambda cfg: problems.onemax_fitness(problems.OneMaxProblem(cfg.num_genes)),
    ),
    "xor": _Problem(
        preset=dict(
            num_generations=500, sol_per_pop=50, num_parents_mating=25,
            num_genes=problems.mlp_parameter_count(_XOR_SPEC),
            mutation=MutationKind.ADAPTIVE,
            mutation_rate=AdaptivePair(PercentGenes(40.0), PercentGenes(10.0)),
            keep_parents=2,
            random_delta_range=(-3.0, 3.0),
        ),
        fixed_genes=True,
        fitness=lambda cfg: problems.classification_fitness(_XOR_SPEC, problems.xor_dataset()),
    ),
}


def percent(text: str):
    """--mutation-percent's value: P, or P_HIGH,P_LOW for an adaptive pair.

    Public so that argparse's error reads "invalid percent value".
    """
    rates = [PercentGenes(float(p)) for p in text.split(",")]
    if len(rates) > 2:
        raise ValueError(f"more than two percents in {text!r}")
    return AdaptivePair(*rates) if len(rates) == 2 else rates[0]


# Each solve flag that sets a GaConfig field: its name in CliInvocation.flags
# (the flag is --name, with '-' for '_') -> (the field, the parser of its value).
_FIELD_FLAGS = {
    "genes": ("num_genes", int),
    "generations": ("num_generations", int),
    "pop": ("sol_per_pop", int),
    "parents": ("num_parents_mating", int),
    "seed": ("seed", int),
    "selection": ("parent_selection", str),
    "crossover": ("crossover", str),
    "mutation": ("mutation", str),
    "mutation_percent": ("mutation_rate", percent),
    "keep_parents": ("keep_parents", int),
}


@dataclass
class CliInvocation:
    """One parsed command line: subcommand plus explicitly-provided flags."""

    subcommand: str
    flags: dict


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _parser() -> _Parser:
    """The gakit parser, built on the first parse; nothing changes it after that."""
    parser = _Parser(prog="gakit", description="genetic-algorithm benchmark runner")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    solve = sub.add_parser("solve", help="run a built-in problem")
    solve.add_argument("--problem", choices=tuple(_PROBLEMS))
    for name, (_field, parse) in _FIELD_FLAGS.items():
        solve.add_argument("--" + name.replace("_", "-"), type=parse)
    for name in ("--config", "--out", "--svg"):
        solve.add_argument(name)

    report = sub.add_parser("report", help="render an SVG from a fitness CSV")
    report.add_argument("--in", dest="in_path", required=True)
    report.add_argument("--svg", required=True)
    return parser


def parse_invocation(argv) -> CliInvocation:
    """Parse argv into a CliInvocation; unknown flags or bad values raise UsageError.

    The parser is built once per process, on the first call, and every call
    parses into a fresh namespace, so calls share no state.
    """
    ns = _parser().parse_args(list(argv))
    flags = {k: v for k, v in vars(ns).items() if k != "subcommand" and v is not None}
    return CliInvocation(subcommand=ns.subcommand, flags=flags)


def _read_text(path: str) -> str:
    """A file's UTF-8 text; a path or file that cannot be read as one is a usage error.

    The error names the path as given: Path("") would name the working directory.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # also an undecodable byte, or a NUL in the path
        raise UsageError(f"cannot read {path!r}: {getattr(exc, 'strerror', None) or exc}") from None


def load_config_file(path) -> dict:
    """Parse key=value lines; '#' starts a comment, blank lines are skipped."""
    mapping: dict = {}
    text = _read_text(path)
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
    "initial_population": lambda path: population_from_csv(_read_text(path)),
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
        except (ValueError, TypeError, DimensionMismatch) as exc:
            raise ConfigError(key, f"a parsable value ({exc})", raw) from None
    return kwargs


def build_solve_config(inv: CliInvocation):
    """Merge preset, config file, and flags (flags win) into a validated GaConfig."""
    config_path = inv.flags.get("config")
    file_map = load_config_file(config_path) if config_path is not None else {}
    # A present but empty problem= is a value, and fails the check below.
    problem = inv.flags.get("problem", file_map.get("problem", "linear"))
    if problem not in _PROBLEMS:
        raise ConfigError("problem", f"one of {tuple(_PROBLEMS)}", problem)

    spec = _PROBLEMS[problem]
    overrides = _config_from_file_map(file_map)
    overrides.update((field, inv.flags[name]) for name, (field, _parse) in _FIELD_FLAGS.items()
                     if name in inv.flags)
    kwargs = {**spec.preset, **overrides}
    mutation = kwargs.get("mutation")
    if ("mutation_rate" not in overrides and isinstance(kwargs.get("mutation_rate"), AdaptivePair)
            and str(getattr(mutation, "value", mutation)).lower() != "adaptive"):
        # When the user switches a preset away from adaptive mutation, its
        # paired rate no longer applies; fall back to the GaConfig default.
        del kwargs["mutation_rate"]

    fixed = spec.preset["num_genes"]
    if spec.fixed_genes and kwargs.get("num_genes") != fixed:
        raise ConfigError("num_genes", f"{fixed} for the {problem} problem", kwargs.get("num_genes"))

    cfg = validate(GaConfig(**kwargs))
    return cfg, spec.fitness(cfg)


def _fmt9(value: float) -> str:
    return format(float(value), ".9g")


def format_fitness_csv(history) -> str:
    """Serialize history rows with 9-significant-digit values, newline-terminated."""
    lines = ["generation,best_fitness,mean_fitness"]
    for generation, best, mean in history:
        lines.append(f"{int(generation)},{_fmt9(best)},{_fmt9(mean)}")
    return "\n".join(lines) + "\n"


def parse_fitness_csv(text: str):
    """Parse a fitness CSV back into (generation, best, mean) rows; blank lines are skipped.

    Errors name the line of the file, blank lines counted.
    """
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    header_line, header = lines[0] if lines else (1, "")
    if header != "generation,best_fitness,mean_fitness":
        raise ConfigFileError(header_line, "missing fitness CSV header")
    history = []
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 3:
            raise ConfigFileError(lineno, f"expected 3 columns, got {len(cells)}")
        try:
            row = (int(cells[0]), float(cells[1]), float(cells[2]))
        except ValueError:
            raise ConfigFileError(lineno, f"unparsable row {line!r}") from None
        if not all(abs(v) <= sys.float_info.max for v in row):  # exact for a huge int too
            raise ConfigFileError(lineno, f"value not finite as a double in row {line!r}")
        history.append(row)
    if not history:
        raise ConfigFileError(header_line + 1, "no data rows after the header")
    return history


_SVG_W, _SVG_H = 800, 500
_M_LEFT, _M_RIGHT, _M_TOP, _M_BOTTOM = 70, 20, 20, 45
_BEST_COLOR, _MEAN_COLOR = "#1f77b4", "#ff7f0e"


def _element(tag: str, body=None, **attrs) -> str:
    """One SVG element. An attribute name's '_' is written '-', a float value with 2 decimals."""
    text = " ".join(
        f'{name.replace("_", "-")}="{format(value, ".2f" if isinstance(value, float) else "")}"'
        for name, value in attrs.items()
    )
    return f"<{tag} {text} />" if body is None else f"<{tag} {text}>{body}</{tag}>"


def render_fitness_svg(history) -> str:
    """Self-contained 800x500 SVG with best/mean polylines, ticks, and a legend.

    Output is byte-deterministic for identical input. An empty history, or one
    whose axis span (padded or not) no positive double holds, raises
    UnplottableHistory.
    """
    if not history:
        raise UnplottableHistory("cannot render an empty fitness history")
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
    if not (0.0 < x_max - x_min < math.inf and 0.0 < y_max - y_min < math.inf):
        raise UnplottableHistory(
            f"cannot plot generations {x_min:g}..{x_max:g} against fitness "
            f"{y_min:g}..{y_max:g}: a span is zero or overflows a double"
        )

    plot_w = _SVG_W - _M_LEFT - _M_RIGHT
    plot_h = _SVG_H - _M_TOP - _M_BOTTOM
    axis_y = _SVG_H - _M_BOTTOM

    def sx(g: float) -> float:
        return _M_LEFT + (g - x_min) / (x_max - x_min) * plot_w

    def sy(v: float) -> float:
        return axis_y - (v - y_min) / (y_max - y_min) * plot_h

    def polyline(ys, color: str) -> str:
        points = " ".join(f"{sx(g):.2f},{sy(v):.2f}" for g, v in zip(gens, ys))
        return _element("polyline", fill="none", stroke=color, stroke_width="1.5", points=points)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        _element("rect", width=_SVG_W, height=_SVG_H, fill="white"),
        _element("line", x1=_M_LEFT, y1=axis_y, x2=_SVG_W - _M_RIGHT, y2=axis_y, stroke="black"),
        _element("line", x1=_M_LEFT, y1=_M_TOP, x2=_M_LEFT, y2=axis_y, stroke="black"),
    ]
    for i in range(5):
        frac = i / 4
        xv = x_min + frac * (x_max - x_min)
        xpix = sx(xv)
        parts.append(_element("line", x1=xpix, y1=axis_y, x2=xpix, y2=axis_y + 5, stroke="black"))
        parts.append(_element("text", f"{xv:.6g}", x=xpix, y=axis_y + 18, font_size=11,
                              text_anchor="middle"))
        yv = y_min + frac * (y_max - y_min)
        ypix = sy(yv)
        parts.append(_element("line", x1=_M_LEFT - 5, y1=ypix, x2=_M_LEFT, y2=ypix, stroke="black"))
        parts.append(_element("text", f"{yv:.6g}", x=_M_LEFT - 8, y=ypix + 4, font_size=11,
                              text_anchor="end"))
    parts.append(_element("text", "generation", x=_M_LEFT + plot_w / 2, y=_SVG_H - 8,
                          font_size=12, text_anchor="middle"))
    y_mid = _M_TOP + plot_h / 2
    parts.append(_element("text", "fitness", x=15, y=y_mid, font_size=12, text_anchor="middle",
                          transform=f"rotate(-90 15 {y_mid:.2f})"))
    parts.append(polyline(best, _BEST_COLOR))
    parts.append(polyline(mean, _MEAN_COLOR))
    legend_x = _SVG_W - _M_RIGHT - 120
    for y, color, label in ((_M_TOP + 12, _BEST_COLOR, "best"), (_M_TOP + 30, _MEAN_COLOR, "mean")):
        parts.append(_element("line", x1=legend_x, y1=y, x2=legend_x + 24, y2=y, stroke=color,
                              stroke_width="1.5"))
        parts.append(_element("text", label, x=legend_x + 30, y=y + 4, font_size=12))
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
    history = parse_fitness_csv(_read_text(inv.flags["in_path"]))
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
    except (ConfigError, ConfigFileError, UnplottableHistory) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 3
    except GaError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 4
    except MemoryError as err:
        print(f"runtime error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
