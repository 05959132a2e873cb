"""CLI parsing, config files, CSV/SVG reporting, and exit codes."""

import dataclasses
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from gakit import cli, engine
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
from gakit.config import AdaptivePair, GaConfig, NumGenes, PercentGenes, Probability
from gakit.errors import ConfigFileError, UnplottableHistory, UsageError
from gakit.genome import GeneType, ValueRange

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


def test_parse_invocation_calls_share_no_state():
    argv = ["solve", "--problem", "onemax", "--seed", "3", "--mutation-percent", "20,5"]
    first = parse_invocation(argv)
    with pytest.raises(UsageError):
        parse_invocation(["solve", "--pop", "many"])  # an error between them changes nothing
    second = parse_invocation(argv)
    assert first == second and first is not second and first.flags is not second.flags
    first.flags["seed"] = 4
    del first.flags["problem"]
    assert parse_invocation(argv) == second and second.flags["seed"] == 3
    assert parse_invocation(["report", "--in", "a.csv", "--svg", "a.svg"]).flags == {
        "in_path": "a.csv", "svg": "a.svg"}


def _help_texts(parser, capsys) -> list:
    texts = []
    for argv in (["--help"], ["solve", "--help"], ["report", "--help"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
        texts.append(capsys.readouterr().out)
    return texts + [parser.format_help(), parser.format_usage()]


def test_the_parser_is_built_once_and_reads_as_a_freshly_built_one(capsys):
    with pytest.raises(UsageError):
        parse_invocation(["solve", "--bogus", "1"])
    parser = cli._parser()
    assert cli._parser() is parser
    fresh = cli._parser.__wrapped__()
    assert fresh is not parser
    assert _help_texts(parser, capsys) == _help_texts(fresh, capsys)
    with pytest.raises(UsageError, match="the following arguments are required: subcommand"):
        parser.parse_args([])


def test_importing_the_cli_builds_no_parser(monkeypatch):
    # A second copy of the module, loaded beside the first, holds its own parser cache.
    spec = importlib.util.spec_from_file_location("gakit._cli_copy", cli.__file__)
    copy = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, copy)
    spec.loader.exec_module(copy)
    assert copy._parser.cache_info().currsize == 0
    assert copy.parse_invocation(["solve", "--seed", "1"]).flags == {"seed": 1}
    assert copy._parser.cache_info().currsize == 1


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


@pytest.mark.parametrize("flag, value, field, expected", [
    ("--genes", "7", "num_genes", 7),
    ("--generations", "3", "num_generations", 3),
    ("--pop", "30", "sol_per_pop", 30),
    ("--parents", "4", "num_parents_mating", 4),
    ("--seed", "5", "seed", 5),
    ("--selection", "rank", "parent_selection", "rank"),
    ("--crossover", "uniform", "crossover", "uniform"),
    ("--mutation", "swap", "mutation", "swap"),
    ("--keep-parents", "1", "keep_parents", 1),
])
def test_each_field_flag_sets_its_field(flag, value, field, expected):
    # Every value differs from the onemax preset and from the GaConfig default.
    cfg, _ = build_solve_config(parse_invocation(["solve", "--problem", "onemax", flag, value]))
    assert getattr(cfg, field) == expected


def test_flag_table_and_file_keys_name_config_fields():
    fields = {f.name for f in dataclasses.fields(GaConfig)}
    assert {field for field, _parse in cli._FIELD_FLAGS.values()} <= fields
    assert set(cli._KEY_PARSERS) <= fields


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


def _solve_config(tmp_path, text, *flags):
    conf = tmp_path / "run.conf"
    conf.write_text(text)
    cfg, _ = build_solve_config(parse_invocation(["solve", "--config", str(conf), *flags]))
    return cfg


@pytest.mark.parametrize("text, field, expected", [
    ("gene_space=range:0,10", "gene_space", ValueRange(0, 10)),
    ("gene_space=range:0,10,2.5", "gene_space", ValueRange(0, 10, 2.5)),
    ("gene_space=unconstrained", "gene_space", None),
    ("gene_type=int8,float32,float64", "gene_type",
     (GeneType.INT8, GeneType.FLOAT32, GeneType.FLOAT64)),
    ("init_range=-2,2", "init_range", (-2.0, 2.0)),
    ("random_delta_range=-0.5,0.25", "random_delta_range", (-0.5, 0.25)),
    ("allow_duplicate_genes=true", "allow_duplicate_genes", True),
    ("gene_type=int16", "gene_type", GeneType.INT16),
])
def test_config_file_values_parse(tmp_path, text, field, expected):
    cfg = _solve_config(tmp_path, f"problem=linear\n{text}\n")
    assert getattr(cfg, field) == expected


@pytest.mark.parametrize("mutation, percent, expected", [
    ("random", "20", PercentGenes(20.0)),
    ("adaptive", "30,5", AdaptivePair(PercentGenes(30.0), PercentGenes(5.0))),
])
def test_mutation_percent_flag_sets_the_rate(tmp_path, mutation, percent, expected):
    cfg = _solve_config(tmp_path, "", "--mutation", mutation, "--mutation-percent", percent)
    assert cfg.mutation_rate == expected


@pytest.mark.parametrize("text, named", [
    ("allow_duplicate_genes=maybe", "allow_duplicate_genes"),
    ("mutation_rate=fraction:3", "mutation_rate"),
    ("gene_space=interval:0,1", "gene_space"),
    ("=5", "empty key"),
    ("parallel_fitness=false", "parallel_fitness"),
    ("problem=nosuch", "problem"),
])
def test_bad_config_file_line_exits_three(tmp_path, capsys, text, named):
    conf = tmp_path / "run.conf"
    conf.write_text(text + "\n")
    assert main(["solve", "--config", str(conf)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err and "Traceback" not in err


def test_fixed_gene_count_exits_three(capsys):
    assert main(["solve", "--problem", "xor", "--genes", "5"]) == 3
    err = capsys.readouterr().err
    assert "num_genes" in err and "9 for the xor problem" in err


def test_distinct_genes_from_too_small_a_space_exit_three(tmp_path, capsys):
    # Five distinct genes cannot come from {0, 1}: a config error, not a run failure.
    conf = tmp_path / "run.conf"
    conf.write_text("gene_space=set:0,1\nallow_duplicate_genes=false\n")
    assert main(["solve", "--problem", "onemax", "--genes", "5", "--config", str(conf)]) == 3
    err = capsys.readouterr().err
    assert "config error" in err and "gene_space" in err


@pytest.mark.parametrize("genes, text", [
    ("2", "gene_space=range:0,1\ngene_type=int8\n"),  # both genes can hold only 0
    ("4", "gene_space=range:0.5,3.5\ngene_type=int16\n"),  # only 1, 2 and 3 fit
])
def test_distinct_genes_from_too_few_integers_of_a_range_exit_three(tmp_path, capsys, genes, text):
    conf = tmp_path / "run.conf"
    conf.write_text(text + "allow_duplicate_genes=false\n")
    assert main(["solve", "--problem", "onemax", "--genes", genes, "--config", str(conf)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: config field 'gene_space': ") and "ValueRange" in err


_UNCONSTRAINED_INT8 = "gene_space=unconstrained\ngene_type=int8\n"
_PAST_2_53 = "gene_space=range:1152921504606846976,1152921504606851072\ngene_type=int64\n"


@pytest.mark.parametrize("genes, text, code", [
    ("10", _UNCONSTRAINED_INT8, 3),  # the default init_range (-4, 4) rounds to 9 integers
    ("9", _UNCONSTRAINED_INT8, 0),
    ("17", _PAST_2_53, 3),  # 4,096 integers from 2**60, but only 16 doubles
    ("16", _PAST_2_53, 0),
])
def test_distinct_genes_count_what_init_can_draw(tmp_path, capsys, genes, text, code):
    conf = tmp_path / "run.conf"
    conf.write_text(text + "allow_duplicate_genes=false\n")
    argv = ["solve", "--problem", "onemax", "--genes", genes, "--generations", "2",
            "--config", str(conf), "--out", str(tmp_path / "out.csv")]
    assert main(argv) == code
    if code:
        assert capsys.readouterr().err.startswith("config error: config field 'gene_space': ")


@pytest.mark.parametrize("text, names_init_range", [
    (_UNCONSTRAINED_INT8, True),  # the default init_range (-4, 4) rounds to 9 integers
    ("gene_space=set:0,1,2,3,4,5,6,7,8\ngene_type=int8\n", False),  # 9 values, from the set
])
def test_distinctness_error_names_init_range_where_its_integers_fall_short(tmp_path, capsys, text,
                                                                          names_init_range):
    conf = tmp_path / "run.conf"
    conf.write_text(text + "allow_duplicate_genes=false\n")
    argv = ["solve", "--problem", "onemax", "--genes", "10", "--generations", "2",
            "--config", str(conf), "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert ("init_range (-4.0, 4.0)" in err) is names_init_range


def test_distinct_unconstrained_integers_of_a_given_population_run(tmp_path, capsys):
    # Init draws nothing from a given population, and a repair needs only a
    # value outside its row's other genes: ten int8 genes, each row a
    # permutation of 0..9, run, though init_range (-4, 4) gives only 9 integers.
    pop = tmp_path / "pop.csv"
    rng = np.random.default_rng(0)
    pop.write_text("".join(",".join(map(str, rng.permutation(10))) + "\n" for _ in range(4)))
    conf = tmp_path / "run.conf"
    text = _UNCONSTRAINED_INT8 + "allow_duplicate_genes=false\n"
    argv = ["solve", "--problem", "onemax", "--genes", "10", "--pop", "4", "--parents", "2",
            "--generations", "2", "--config", str(conf), "--out", str(tmp_path / "out.csv")]
    conf.write_text(text)
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("config error: config field 'gene_space': ")
    conf.write_text(text + f"initial_population={pop}\n")
    assert main(argv) == 0


@pytest.mark.parametrize("values", ["nan", "0,inf", "-inf"])
def test_non_finite_discrete_value_exits_three(tmp_path, capsys, values):
    conf = tmp_path / "run.conf"
    conf.write_text(f"gene_space=set:{values}\n")
    assert main(["solve", "--problem", "onemax", "--genes", "3", "--config", str(conf)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: config field 'gene_space': requires finite discrete "
                          "values, got DiscreteSet(values=(")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_duplicate_repair_failure_names_row_gene_and_type(tmp_path, capsys, seed):
    # int8 coerces 0.2 to 0.0, so gene 1 holds one value and a row whose gene 0
    # drew 0.0 has no distinct value left for it.
    conf = tmp_path / "run.conf"
    conf.write_text("gene_space=set:0,0.2\ngene_type=float64,int8\nallow_duplicate_genes=false\n")
    argv = ["solve", "--problem", "onemax", "--genes", "2", "--seed", str(seed),
            "--config", str(conf)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert re.match(r"runtime error: init row \d+, gene 1 \(int8\): space DiscreteSet"
                    r"\(values=\(0\.0, 0\.2\)\) has 1 admissible value, "
                    r"none outside \[0\.0\]$", err)


@pytest.mark.parametrize("seed, generation, row", [(1, 3, 0), (6, 1, 1)])
def test_duplicate_repair_failure_in_mutation_names_generation_and_row(tmp_path, capsys, seed,
                                                                       generation, row):
    # Every given row is distinct, but a replaced gene 0 of 0.0 leaves gene 1
    # (int8 coerces 0.2 to 0.0) no distinct value.
    pop = tmp_path / "pop.csv"
    pop.write_text("0.2,0.0\n" * 4)
    conf = tmp_path / "run.conf"
    conf.write_text("gene_space=set:0,0.2\ngene_type=float64,int8\nallow_duplicate_genes=false\n"
                    f"mutation=random\nmutation_by_replacement=true\ninitial_population={pop}\n")
    argv = ["solve", "--problem", "onemax", "--genes", "2", "--pop", "4", "--parents", "2",
            "--seed", str(seed), "--config", str(conf)]
    assert main(argv) == 4
    assert capsys.readouterr().err == (
        f"runtime error: generation {generation}, mutation row {row}, gene 1 (int8): space "
        "DiscreteSet(values=(0.0, 0.2)) has 1 admissible value, none outside [0.0]\n"
    )


def test_space_with_no_value_of_its_type_exits_four_naming_init(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("gene_space=range:0.2,0.4\ngene_type=int8\n")
    assert main(["solve", "--problem", "onemax", "--config", str(conf)]) == 4
    assert capsys.readouterr().err == (
        "runtime error: init row 0, gene 0 (int8): no value of ValueRange(lo=0.2, hi=0.4, "
        "step=None) representable as int8 found in 100 draws\n"
    )


# A float64 gene 0 holds values of [0.2, 0.4); an int8 gene 1 holds none.
_EMPTY_GENE_1 = "gene_space=range:0.2,0.4\ngene_type=float64,int8\n"
_NO_INT8_FOUND = ("gene 1 (int8): no value of ValueRange(lo=0.2, hi=0.4, step=None) "
                  "representable as int8 found in 100 draws\n")


@pytest.mark.parametrize("duplicates", ["true", "false"])
def test_empty_space_at_init_exits_four_naming_row_and_gene(tmp_path, capsys, duplicates):
    conf = tmp_path / "run.conf"
    conf.write_text(f"{_EMPTY_GENE_1}allow_duplicate_genes={duplicates}\n")
    argv = ["solve", "--problem", "onemax", "--genes", "2", "--pop", "4", "--parents", "2",
            "--config", str(conf)]
    assert main(argv) == 4
    assert capsys.readouterr().err == f"runtime error: init row 0, {_NO_INT8_FOUND}"


@pytest.mark.parametrize("seed, generation, row", [(1, 0, 0), (2, 0, 2), (3, 1, 0)])
def test_empty_space_in_mutation_exits_four_naming_generation_row_and_gene(tmp_path, capsys,
                                                                           seed, generation, row):
    # A given population is coerced, not resampled, so the first draw of gene 1 is mutation's.
    pop = tmp_path / "pop.csv"
    pop.write_text("0.3,0.0\n" * 6)
    conf = tmp_path / "run.conf"
    conf.write_text(f"{_EMPTY_GENE_1}mutation=random\ninitial_population={pop}\n")
    argv = ["solve", "--problem", "onemax", "--genes", "2", "--pop", "6", "--parents", "2",
            "--seed", str(seed), "--config", str(conf)]
    assert main(argv) == 4
    assert capsys.readouterr().err == (
        f"runtime error: generation {generation}, mutation row {row}, {_NO_INT8_FOUND}"
    )


@pytest.mark.parametrize("selection, scheme", [
    ("roulette", "fitness-proportional selection"),
    ("stochastic_universal", "stochastic universal sampling"),
])
def test_zero_fitness_exits_four_naming_generation_and_selection(tmp_path, capsys, selection,
                                                                 scheme):
    # Every onemax gene is 0, so every fitness is 0.
    conf = tmp_path / "run.conf"
    conf.write_text("gene_space=set:0\n")
    argv = ["solve", "--problem", "onemax", "--selection", selection, "--config", str(conf)]
    assert main(argv) == 4
    assert capsys.readouterr().err == (
        f"runtime error: generation 0, selection {scheme} requires every fitness value > 0\n"
    )


def test_unallocatable_population_exits_four_naming_init(capsys):
    # 710 PiB is past any 64-bit address space, so the allocation fails before
    # any memory is touched whatever the host's overcommit policy.
    argv = ["solve", "--problem", "onemax", "--genes", "100000", "--pop", str(10**12),
            "--parents", "2"]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err == ("runtime error: init: cannot allocate a population of shape "
                   "(1000000000000, 100000)\n")


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


@pytest.mark.parametrize("percent", ["abc", "10,x", "1,2,3", "20;5"])
def test_unparsable_mutation_percent_exits_two(percent, capsys):
    assert main(["solve", "--mutation-percent", percent]) == 2
    err = capsys.readouterr().err
    assert "--mutation-percent" in err and "Traceback" not in err
    assert repr(percent) in err


def test_empty_config_path_exits_two(capsys):
    # An empty path names no file, like any other path that cannot be read. The
    # message names the path given, not the working directory Path("") stands for.
    assert main(["solve", "--config", "", "--generations", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: cannot read '': ") and "'.'" not in err
    assert "Traceback" not in err


def test_empty_input_path_exits_two_naming_it(tmp_path, capsys):
    assert main(["report", "--in", "", "--svg", str(tmp_path / "x.svg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: cannot read '': ") and "'.'" not in err
    assert not (tmp_path / "x.svg").exists()


def test_empty_problem_in_config_file_exits_three(tmp_path, capsys):
    # An empty value is a value: it fails the problem check, it does not pick the preset.
    conf = tmp_path / "run.conf"
    conf.write_text("problem=\nnum_generations=1\n")
    assert main(["solve", "--config", str(conf)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "problem" in err and "Traceback" not in err


def test_missing_input_file_exits_two(tmp_path, capsys):
    assert main(["report", "--in", str(tmp_path / "absent.csv"),
                 "--svg", str(tmp_path / "x.svg")]) == 2
    assert "usage error" in capsys.readouterr().err


def _undecodable_input(tmp_path, case):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"num_genes=4\n\xff\n")
    if case == "config":
        return ["solve", "--config", str(bad)]
    if case == "report":
        return ["report", "--in", str(bad), "--svg", str(tmp_path / "x.svg")]
    conf = tmp_path / "run.conf"
    conf.write_text(f"problem=onemax\nnum_genes=4\ninitial_population={bad}\n")
    return ["solve", "--config", str(conf)]


@pytest.mark.parametrize("case", ["config", "report", "initial_population"])
def test_undecodable_file_exits_two(tmp_path, capsys, case):
    # Like a missing file, a file that is not UTF-8 text is a usage error.
    assert main(_undecodable_input(tmp_path, case)) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "bad.bin" in err and "Traceback" not in err
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "onemax", "--genes", "99999999999999999999999"],
    ["solve", "--problem", "linear", "--pop", "99999999999999999999999"],
])
def test_population_numpy_cannot_index_exits_three(capsys, argv):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "num_genes * 8" in err and "Traceback" not in err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_report_of_non_finite_csv_exits_three_and_writes_no_svg(tmp_path, capsys, cell):
    csv = tmp_path / "run.csv"
    csv.write_text(f"generation,best_fitness,mean_fitness\n0,1,1\n1,2,{cell}\n")
    svg = tmp_path / "run.svg"
    assert main(["report", "--in", str(csv), "--svg", str(svg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "line 3" in err
    assert not svg.exists()


@pytest.mark.parametrize("rows, named", [
    ("", "no data rows"),
    ("0,1e308,1\n1,-1e308,1\n", "overflows a double"),  # the span is past a double
    ("0,1.75e308,1\n1,0,1\n", "overflows a double"),   # the 5 % pad is past a double
    ("100000000000000000,1,1\n", "is zero"),          # generation + 1 rounds to itself
])
def test_report_of_unplottable_csv_exits_three_and_writes_no_svg(tmp_path, capsys, rows, named):
    csv = tmp_path / "run.csv"
    csv.write_text(f"generation,best_fitness,mean_fitness\n{rows}")
    svg = tmp_path / "run.svg"
    assert main(["report", "--in", str(csv), "--svg", str(svg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err and "Traceback" not in err
    assert not svg.exists()


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


@pytest.mark.parametrize("row, reason", [
    ("0,1.5", "3 columns"),
    ("0,x,1.5", "unparsable"),
    ("0,nan,1.5", "not finite"),
    ("0,1.5,-inf", "not finite"),
    pytest.param("1" + "0" * 400 + ",1,1", "not finite", id="generation-no-double-holds"),
])
def test_csv_parse_rejects_bad_row(row, reason):
    with pytest.raises(ConfigFileError) as err:
        parse_fitness_csv(f"generation,best_fitness,mean_fitness\n0,1,1\n{row}\n")
    assert err.value.line == 3 and reason in err.value.reason


def test_csv_parse_errors_count_blank_lines():
    with pytest.raises(ConfigFileError) as err:
        parse_fitness_csv("generation,best_fitness,mean_fitness\n\n\n0,1,1\n1,x,1\n")
    assert err.value.line == 5 and "'1,x,1'" in err.value.reason


# --- SVG ---------------------------------------------------------------------------

def test_svg_single_entry_has_two_one_point_polylines():
    svg = render_fitness_svg([(0, 1.0, 1.0)])
    polylines = [part for part in svg.split("<polyline") if 'points="' in part][0:]
    points = [part.split('points="')[1].split('"')[0] for part in svg.split("<polyline")[1:]]
    assert len(points) == 2
    assert all(len(p.split()) == 1 for p in points)


def test_svg_empty_history_rejected():
    with pytest.raises(UnplottableHistory):
        render_fitness_svg([])


def test_svg_unplottable_span_rejected():
    with pytest.raises(UnplottableHistory):
        render_fitness_svg([(0, 1e308, 1.0), (1, -1e308, 1.0)])


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


def test_zero_generation_run_matches_the_golden_first_row(tmp_path):
    # Generation 0 draws only the init stream; its row is the golden's first row.
    out = tmp_path / "run.csv"
    assert main(["solve", "--problem", "linear", "--generations", "0", "--seed", "7",
                 "--out", str(out)]) == 0
    golden = (GOLDEN / "linear_seed7.csv").read_bytes().splitlines(keepends=True)
    assert out.read_bytes() == b"".join(golden[:2])
