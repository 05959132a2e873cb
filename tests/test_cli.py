"""CLI parsing, config files, CSV/SVG reporting, and exit codes."""

from pathlib import Path

import numpy as np
import pytest

from gakit import engine
from gakit.cli import (
    build_solve_config,
    format_fitness_csv,
    load_config_file,
    main,
    parse_fitness_csv,
    parse_invocation,
    parse_rate_spec,
    render_fitness_svg,
)
from gakit.config import AdaptivePair, NumGenes, PercentGenes, Probability
from gakit.errors import ConfigFileError, EmptyHistory, UsageError

GOLDEN = Path(__file__).parent / "golden"


# --- invocation parsing -------------------------------------------------------

def test_parse_valid_solve_invocation():
    inv = parse_invocation(
        ["solve", "--problem", "onemax", "--genes", "20", "--generations", "100",
         "--seed", "42", "--out", "run.csv"]
    )
    assert inv.subcommand == "solve"
    assert inv.flags["problem"] == "onemax"
    assert inv.flags["genes"] == 20
    assert inv.flags["generations"] == 100
    assert inv.flags["seed"] == 42
    assert inv.flags["out"] == "run.csv"


def test_parse_rejects_unknown_problem():
    with pytest.raises(UsageError) as err:
        parse_invocation(["solve", "--problem", "nosuch"])
    assert "nosuch" in str(err.value)


def test_parse_valid_report_invocation():
    inv = parse_invocation(["report", "--in", "run.csv", "--svg", "run.svg"])
    assert inv.subcommand == "report"
    assert inv.flags["in_path"] == "run.csv"
    assert inv.flags["svg"] == "run.svg"


def test_parse_rejects_unknown_flag():
    with pytest.raises(UsageError):
        parse_invocation(["solve", "--bogus", "1"])


def test_parse_requires_subcommand():
    with pytest.raises(UsageError):
        parse_invocation([])


def test_report_requires_input():
    with pytest.raises(UsageError):
        parse_invocation(["report", "--svg", "x.svg"])


# --- config files ----------------------------------------------------------------

def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("num_generations=100\nsol_per_pop=10\n")
    assert load_config_file(path) == {"num_generations": "100", "sol_per_pop": "10"}


def test_config_file_duplicate_key(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("num_generations=100\nnum_generations=5\n")
    with pytest.raises(ConfigFileError) as err:
        load_config_file(path)
    assert err.value.line == 2
    assert "duplicate" in err.value.reason


def test_config_file_comments_and_blanks(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("# comment only\n\n  \n")
    assert load_config_file(path) == {}


def test_config_file_malformed_line(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("num_generations=1\nnot a pair\n")
    with pytest.raises(ConfigFileError) as err:
        load_config_file(path)
    assert err.value.line == 2


def test_rate_spec_syntax():
    assert parse_rate_spec("percent:10") == PercentGenes(10.0)
    assert parse_rate_spec("num:3") == NumGenes(3)
    assert parse_rate_spec("probability:0.05") == Probability(0.05)
    assert parse_rate_spec("adaptive:percent:20,5") == AdaptivePair(
        PercentGenes(20.0), PercentGenes(5.0)
    )


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("problem=onemax\nnum_genes=30\nnum_generations=5\nseed=9\n")
    inv = parse_invocation(
        ["solve", "--config", str(path), "--generations", "7"]
    )
    cfg, _ = build_solve_config(inv)
    assert cfg.num_generations == 7  # flag wins
    assert cfg.num_genes == 30       # file wins over preset
    assert cfg.seed == 9


def test_initial_population_loads_from_csv_path(tmp_path):
    pop = tmp_path / "seed_pop.csv"
    pop.write_text("\n".join("0,1" for _ in range(6)) + "\n")
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"problem=onemax\nnum_genes=2\nsol_per_pop=6\nnum_parents_mating=3\n"
        f"initial_population={pop}\n"
    )
    cfg, _ = build_solve_config(parse_invocation(["solve", "--config", str(conf)]))
    assert np.array(cfg.initial_population).shape == (6, 2)


@pytest.mark.parametrize("text", ["", "\n\n", "0,1\n0\n"])
def test_unusable_initial_population_csv_exits_three(tmp_path, capsys, text):
    # An empty or ragged population file is a config-file fault, not a run failure.
    pop = tmp_path / "pop.csv"
    pop.write_text(text)
    conf = tmp_path / "run.conf"
    conf.write_text(f"problem=onemax\nnum_genes=2\ninitial_population={pop}\n")
    assert main(["solve", "--config", str(conf)]) == 3
    err = capsys.readouterr().err
    assert "config error" in err and "initial_population" in err


def test_distinct_genes_from_too_small_a_space_exit_three(tmp_path, capsys):
    # Five distinct genes cannot come from {0, 1}: a config error, not a run failure.
    conf = tmp_path / "run.conf"
    conf.write_text("gene_space=set:0,1\nallow_duplicate_genes=false\n")
    assert main(["solve", "--problem", "onemax", "--genes", "5", "--config", str(conf)]) == 3
    err = capsys.readouterr().err
    assert "config error" in err and "gene_space" in err


# --- solve/report runs -------------------------------------------------------------

def test_solve_linear_writes_101_rows(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["solve", "--problem", "linear", "--seed", "5", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.startswith("best=[") and "fitness=" in printed and "index=" in printed
    lines = out.read_text().splitlines()
    assert lines[0] == "generation,best_fitness,mean_fitness"
    assert len(lines) == 102  # header + 101 history rows
    assert lines[1].startswith("0,")


def test_solve_with_operators_disabled_is_legal(tmp_path):
    code = main(["solve", "--problem", "onemax", "--genes", "12", "--generations", "10",
                 "--mutation", "none", "--crossover", "none", "--keep-parents", "0",
                 "--seed", "1", "--out", str(tmp_path / "o.csv")])
    assert code == 0


def test_overparented_config_exits_three(capsys):
    code = main(["solve", "--parents", "12", "--pop", "10"])
    assert code == 3
    assert "num_parents_mating" in capsys.readouterr().err


def test_keep_parents_filling_population_exits_three(capsys):
    code = main(["solve", "--pop", "4", "--parents", "4", "--keep-parents", "4",
                 "--generations", "3"])
    assert code == 3
    assert "keep_parents" in capsys.readouterr().err


@pytest.mark.parametrize("crossover", ["single_point", "two_points"])
def test_one_gene_crossover_exits_three(crossover, capsys):
    # Used to loop forever (two_points) or end in a numpy traceback (single_point).
    code = main(["solve", "--problem", "onemax", "--genes", "1", "--generations", "3",
                 "--crossover", crossover])
    assert code == 3
    assert "crossover" in capsys.readouterr().err


def test_usage_error_exits_two(capsys):
    assert main(["solve", "--problem", "nosuch"]) == 2
    assert "nosuch" in capsys.readouterr().err


@pytest.mark.parametrize("percent", ["abc", "10,x", "1,2,3"])
def test_unparsable_mutation_percent_exits_two(percent, capsys):
    assert main(["solve", "--mutation-percent", percent]) == 2
    err = capsys.readouterr().err
    assert "--mutation-percent" in err and "Traceback" not in err


def test_missing_input_file_exits_two(tmp_path, capsys):
    assert main(["report", "--in", str(tmp_path / "absent.csv"),
                 "--svg", str(tmp_path / "x.svg")]) == 2
    assert "usage error" in capsys.readouterr().err


def test_operator_names_accepted_from_flags_and_file(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("parent_selection=tournament\ntournament_k=4\n"
                    "mutation_rate=num:1\n")
    inv = parse_invocation(["solve", "--problem", "linear", "--config", str(conf),
                            "--crossover", "two_points", "--mutation", "swap",
                            "--seed", "0"])
    cfg, _ = build_solve_config(inv)
    assert cfg.parent_selection.value == "tournament"
    assert cfg.tournament_k == 4
    assert cfg.crossover.value == "two_points"
    assert cfg.mutation.value == "swap"


def test_xor_preset_runs(tmp_path):
    code = main(["solve", "--problem", "xor", "--generations", "5", "--seed", "2",
                 "--out", str(tmp_path / "xor.csv")])
    assert code == 0
    assert len((tmp_path / "xor.csv").read_text().splitlines()) == 7


def test_runtime_error_exits_four(tmp_path, capsys):
    # An all-zero seeded population makes every fitness 0, which roulette
    # selection rejects at run time.
    pop = tmp_path / "zeros.csv"
    pop.write_text("\n".join("0,0,0,0" for _ in range(6)) + "\n")
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"problem=onemax\nnum_genes=4\nsol_per_pop=6\nnum_parents_mating=3\n"
        f"parent_selection=roulette\ninitial_population={pop}\n"
    )
    code = main(["solve", "--config", str(conf)])
    assert code == 4
    assert "fitness" in capsys.readouterr().err


@pytest.mark.parametrize("error", [
    MemoryError(),
    MemoryError("Unable to allocate 745. GiB for an array with shape (1000000000, 100)"),
])
def test_out_of_memory_exits_four_without_traceback(monkeypatch, capsys, error):
    # A size numpy cannot allocate surfaces as MemoryError; raise it directly
    # rather than asking for such a size, which depends on the host.
    def run(cfg, fitness, hooks=None):
        raise error

    monkeypatch.setattr(engine, "run", run)
    assert main(["solve", "--problem", "onemax", "--generations", "1"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and "Traceback" not in err
    assert (str(error) or "out of memory") in err


def test_csv_round_trip_produces_identical_svg(tmp_path):
    out = tmp_path / "run.csv"
    svg_direct = tmp_path / "direct.svg"
    svg_report = tmp_path / "reported.svg"
    assert main(["solve", "--problem", "onemax", "--genes", "16", "--generations", "40",
                 "--seed", "3", "--out", str(out), "--svg", str(svg_direct)]) == 0
    assert main(["report", "--in", str(out), "--svg", str(svg_report)]) == 0
    assert svg_direct.read_bytes() == svg_report.read_bytes()


def test_identical_seeds_produce_identical_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["solve", "--problem", "linear", "--seed", "11"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# --- formatting --------------------------------------------------------------------

def test_csv_uses_nine_significant_digits():
    text = format_fitness_csv([(0, 0.022727272210743804, 1234567.891)])
    assert text == "generation,best_fitness,mean_fitness\n0,0.0227272722,1234567.89\n"


def test_csv_parse_round_trip():
    history = [(0, 1.5, 1.0), (1, 2.25, 1.75)]
    assert parse_fitness_csv(format_fitness_csv(history)) == history


def test_csv_parse_rejects_bad_header():
    with pytest.raises(ConfigFileError):
        parse_fitness_csv("nope\n0,1,2\n")


# --- SVG ---------------------------------------------------------------------------

def test_svg_single_entry_has_two_one_point_polylines():
    svg = render_fitness_svg([(0, 1.0, 1.0)])
    polylines = [part for part in svg.split("<polyline") if 'points="' in part][0:]
    points = [part.split('points="')[1].split('"')[0] for part in svg.split("<polyline")[1:]]
    assert len(points) == 2
    assert all(len(p.split()) == 1 for p in points)


def test_svg_empty_history_rejected():
    with pytest.raises(EmptyHistory):
        render_fitness_svg([])


def test_svg_byte_deterministic():
    history = [(0, 1.0, 0.5), (1, 2.0, 1.0), (2, 2.5, 1.5)]
    assert render_fitness_svg(history) == render_fitness_svg(history)


def test_svg_has_fixed_viewport_and_legend():
    svg = render_fitness_svg([(0, 1.0, 0.5), (1, 2.0, 1.0)])
    assert 'width="800" height="500"' in svg
    assert ">best</text>" in svg
    assert ">mean</text>" in svg


# --- golden fixtures ----------------------------------------------------------------

def test_golden_csv_and_svg_match(tmp_path):
    out = tmp_path / "run.csv"
    svg = tmp_path / "run.svg"
    assert main(["solve", "--problem", "linear", "--generations", "20", "--seed", "7",
                 "--out", str(out), "--svg", str(svg)]) == 0
    assert out.read_bytes() == (GOLDEN / "linear_seed7.csv").read_bytes()
    assert svg.read_bytes() == (GOLDEN / "linear_seed7.svg").read_bytes()
