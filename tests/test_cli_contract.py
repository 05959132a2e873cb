"""A derandomized search of the CLI contract: exit 0, 2, 3 or 4, never a traceback.

Each example is one in-process `cli.main` call: generated argv plus the files
it names (a config file built from the `cli._KEY_PARSERS` keys, an initial
population CSV, a fitness CSV for `report`), written to a fresh directory.
Counts that `validate` accepts stay small (generations <= 3, pop and genes
<= 12), so every run ends in milliseconds; the huge counts lie past numpy's
index bound, which `validate` rejects before anything is allocated. Nothing
here starts a thread or a process.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gakit import cli

HUGE = ["99999999999999999999999", str(2**60)]
MALFORMED = ["", "x", "1.5", "1e3", " ", "0x10", "nan"]
UNDECODABLE = b"num_genes=4\n\xff\xfe\n"


def _pick(draw, good, bad):
    """One value of good, or of bad one time in eight."""
    return draw(st.sampled_from(bad if draw(st.integers(0, 7)) == 0 else good))


# (good, bad) values per config-file key; "{dir}" stands for the example's directory.
_COUNT = (["1", "2", "3"], ["0", "-1", *HUGE, *MALFORMED])
_NAMES = {
    "parent_selection": (["steady_state", "roulette", "stochastic_universal", "rank",
                          "tournament", "random"], ["best", ""]),
    "crossover": (["single_point", "two_points", "uniform", "scattered", "none"], ["blend"]),
    "mutation": (["random", "swap", "inversion", "scramble", "adaptive", "none"], ["flip"]),
}
_BOOL = (["true", "false", "1", "no"], ["maybe", ""])
_INTERVAL = (["-1,1", "0,0.5", "-1e300,1e300"], ["1,-1", "-1e308,1e308", "nan,1", "1", "x,y"])
KEY_VALUES = {
    "num_generations": _COUNT,
    "sol_per_pop": _COUNT,
    "num_parents_mating": _COUNT,
    "num_genes": _COUNT,
    "tournament_k": _COUNT,
    "keep_parents": (["-1", "0", "1"], ["3", *HUGE, *MALFORMED]),
    **_NAMES,
    "mutation_rate": (["percent:10", "num:1", "probability:0.5", "adaptive:percent:20,5",
                       "adaptive:num:2,1"],
                      ["percent:0", "percent:inf", "num:99999999999999999999999",
                       "probability:nan", "adaptive:num:1,2", "adaptive:", "fraction:3",
                       "percent:x"]),
    "mutation_by_replacement": _BOOL,
    "random_delta_range": _INTERVAL,
    "init_range": _INTERVAL,
    "allow_duplicate_genes": _BOOL,
    "gene_space": (["set:0,1", "set:0.5", "set:0,1,2,3,4,5,6,7,8,9,10,11", "set:1e308,-1e308",
                    "range:0,10", "range:0,10,0.5", "range:0,100000,1", "unconstrained"],
                   ["set:", "set:nan", "range:1,0", "range:0,1e308,1e-300", "interval:0,1"]),
    "gene_type": (["int8", "uint8", "int16", "float32", "float64", "int", "uint64"],
                  ["int8,float32", "bogus", ""]),
    "initial_population": (["{dir}/pop.csv"], ["{dir}/absent.csv", ""]),
    "seed": (["0", "7", str(2**64 - 1)], [str(2**64), "-1", *MALFORMED]),
}
_CELLS = (["0", "1", "2", "-3", "1.5", "1e308", "-1e308"],
          ["nan", "inf", "-inf", "x", "", "1" + "0" * 400])
_FITNESS_HEADER = "generation,best_fitness,mean_fitness"


def _csv(draw, rows, width) -> bytes:
    lines = [",".join(_pick(draw, *_CELLS) for _ in range(width)) for _ in range(rows)]
    return ("\n".join(lines) + "\n").encode()


@st.composite
def _population_file(draw, pop: str, genes: str) -> bytes:
    kind = _pick(draw, ["fits"], ["any", "undecodable", "empty"])
    if kind == "undecodable":
        return UNDECODABLE
    if kind == "empty":
        return b""
    if kind == "fits" and pop.isdigit() and genes.isdigit() and max(int(pop), int(genes)) <= 12:
        return _csv(draw, int(pop), int(genes))
    return _csv(draw, draw(st.integers(1, 4)), draw(st.integers(1, 4)))


@st.composite
def _config_file(draw) -> bytes:
    if draw(st.integers(0, 9)) == 0:
        return UNDECODABLE
    keys = draw(st.lists(st.sampled_from(["problem", *KEY_VALUES]), max_size=5))
    lines = []
    for key in keys:
        if key == "problem":
            lines.append(f"problem={_pick(draw, ['linear', 'onemax', 'xor'], ['nosuch'])}")
        else:
            lines.append(f"{key}={_pick(draw, *KEY_VALUES[key])}")
    lines.append(_pick(draw, ["# comment", ""], ["not a pair", "=5", lines[-1] if lines else ""]))
    return ("\n".join(lines) + "\n").encode()


@st.composite
def _fitness_file(draw) -> bytes:
    kind = _pick(draw, ["rows"], ["undecodable", "no header", "two columns"])
    if kind == "undecodable":
        return UNDECODABLE
    header = "generation,best" if kind == "no header" else _FITNESS_HEADER
    rows = draw(st.integers(0, 4))
    # Generations are integers; two-column rows are malformed.
    body = "".join(f"{_pick(draw, [str(g)], _CELLS[1] + ['1e308', '-1'])},"
                   f"{_pick(draw, *_CELLS)}"
                   + ("" if kind == "two columns" else f",{_pick(draw, *_CELLS)}") + "\n"
                   for g in range(rows))
    return (header + "\n" + body).encode()


def _optional_flag(draw, flag, good, bad) -> list:
    return [flag, _pick(draw, good, bad)] if draw(st.booleans()) else []


_GOOD_GENES = {"linear": ["3"], "onemax": ["2", "5", "12"], "xor": ["9"]}


@st.composite
def _solve(draw):
    problem = draw(st.sampled_from(sorted(_GOOD_GENES)))
    pop = _pick(draw, ["4", "6", "12"], ["1", "2", "0", "-3", *HUGE, "x"])
    genes = _pick(draw, _GOOD_GENES[problem], ["1", "12", "0", *HUGE, "x"])
    # The generation count, population size and gene count are always pinned,
    # so no preset's larger defaults ever run.
    argv = ["solve", "--generations", _pick(draw, ["0", "1", "3"], ["-1", "x", "1.5"]),
            "--pop", pop, "--genes", genes,
            "--parents", _pick(draw, ["2", "3"], ["1", "12", "0", *HUGE, "x"])]
    if draw(st.integers(0, 3)):  # else the config file or the default picks it
        argv += ["--problem", problem]
    argv += _optional_flag(draw, "--seed", ["0", "5"], [str(2**64), "-1", "x"])
    argv += _optional_flag(draw, "--selection", *_NAMES["parent_selection"])
    argv += _optional_flag(draw, "--crossover", *_NAMES["crossover"])
    mutation = _optional_flag(draw, "--mutation", *_NAMES["mutation"])
    adaptive = mutation[1:] == ["adaptive"] or (not mutation and problem != "linear")
    argv += mutation + _optional_flag(draw, "--mutation-percent", ["30,5" if adaptive else "10"],
                                      ["5,30", "0", "101", "nan", "abc", "1,2,3"])
    argv += _optional_flag(draw, "--keep-parents", ["-1", "0", "1"], ["2", "9", *HUGE])
    argv += _optional_flag(draw, "--out", ["{dir}/out.csv"], ["{dir}/no/such/dir/out.csv"])
    argv += _optional_flag(draw, "--svg", ["{dir}/out.svg"], ["{dir}"])
    files = {"pop.csv": draw(_population_file(pop, genes))}
    if draw(st.booleans()):
        argv += ["--config", _pick(draw, ["{dir}/run.conf"], ["{dir}/absent.conf"])]
        files["run.conf"] = draw(_config_file())
    return argv, files


@st.composite
def _report(draw):
    argv = ["report", "--in", _pick(draw, ["{dir}/fit.csv"], ["{dir}/absent.csv"]),
            "--svg", "{dir}/report.svg"]
    return argv, {"fit.csv": draw(_fitness_file())}


def _run(case) -> tuple:
    """(exit code, stderr, {name: text} of each SVG written)."""
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            with open(f"{tmp}/{name}", "wb") as fh:
                fh.write(content.replace(b"{dir}", tmp.encode()))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([arg.replace("{dir}", tmp) for arg in argv])
        svgs = {name: open(f"{tmp}/{name}").read() for name in ("report.svg", "out.svg")
                if os.path.isfile(f"{tmp}/{name}")}
    return code, err.getvalue(), svgs


_REPORT_NAN = b"generation,best_fitness,mean_fitness\n0,1,1\n1,2,nan\n"
_REPORT_ARGV = ["report", "--in", "{dir}/fit.csv", "--svg", "{dir}/report.svg"]


@settings(max_examples=300)
@given(case=st.one_of(_solve(), _report()))
# The reproduced inputs of the undecodable-file, size-cap, non-finite-report,
# header-only-report and overflowing-span fixes; the search generates each kind
# of value as well.
@example(case=(["solve", "--config", "{dir}/run.conf"], {"run.conf": UNDECODABLE}))
@example(case=(["report", "--in", "{dir}/fit.csv", "--svg", "{dir}/report.svg"],
               {"fit.csv": UNDECODABLE}))
@example(case=(["solve", "--config", "{dir}/run.conf"],
               {"run.conf": b"problem=onemax\nnum_genes=4\ninitial_population={dir}/pop.csv\n",
                "pop.csv": UNDECODABLE}))
@example(case=(["solve", "--problem", "onemax", "--genes", "99999999999999999999999"], {}))
@example(case=(["solve", "--problem", "linear", "--pop", "99999999999999999999999"], {}))
@example(case=(["report", "--in", "{dir}/fit.csv", "--svg", "{dir}/report.svg"],
               {"fit.csv": _REPORT_NAN}))
@example(case=(_REPORT_ARGV, {"fit.csv": f"{_FITNESS_HEADER}\n".encode()}))
@example(case=(_REPORT_ARGV, {"fit.csv": f"{_FITNESS_HEADER}\n0,1e308,1\n1,-1e308,1\n".encode()}))
def test_cli_exits_with_a_contract_code_and_no_traceback(case):
    code, err, svgs = _run(case)
    assert code in (0, 2, 3, 4), (code, err)
    assert "Traceback" not in err
    if code != 0:
        assert err.split(":", 1)[0] in ("usage error", "config error", "runtime error"), err
        assert "report.svg" not in svgs  # a failed report writes no SVG
    for name, svg in svgs.items():
        assert "nan" not in svg and "inf" not in svg, name


def test_search_draws_every_config_file_key():
    assert set(KEY_VALUES) == set(cli._KEY_PARSERS)
