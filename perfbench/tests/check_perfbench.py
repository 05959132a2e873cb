"""Self-tests of the benchmark harness.

    python -m pytest -q perfbench/tests/check_perfbench.py

The file name keeps it out of the repository's default test collection; the
benchmark runs outside the library's test suite.
"""

import dataclasses
import io
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import harness  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def tiny(name: str) -> harness.Workload:
    """The workload at 3 generations; its default-seed digest no longer applies."""
    w = harness.WORKLOADS[name]
    return dataclasses.replace(w, argv=w.argv + ("--generations", "3"), digest=None)


def test_metric_names_and_units_match_benchmark_json():
    for section, declared in (("end_to_end", harness.END_TO_END),
                              ("per_layer", harness.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in SPEC[section]}
        assert listed == declared
        for name in listed:
            assert NAME.fullmatch(name), name
    assert {w["name"] for w in SPEC["workloads"]} <= set(harness.WORKLOADS)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 3.0, 0, 0),
        Span(2, "b", 2.0, 5.0, 0, 0),     # overlaps a: union [1, 5]
        Span(3, "c", 7.0, 8.0, 0, 0),
        Span(4, "d", 9.0, 12.0, 0, 0),    # only [9, 10] lies inside root
        Span(5, "grandchild", 2.5, 4.5, 2, 0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 1.0 + 1.0))
    assert selfs[2] == pytest.approx(3.0 - 2.0)  # a grandchild only counts for its parent
    assert selfs[1] == pytest.approx(2.0)
    assert tracing.covered_length([], 0.0, 1.0) == 0.0


def test_traced_run_breakdown_adds_up_and_repeats():
    argv = harness.solve_argv(tiny("onemax"), 5)
    per_run = []
    for run_id in range(2):
        cfg, fitness = harness.build(argv)
        tracer = tracing.RunTracer(run_id)
        tracer.run(cfg, fitness)
        spans = tracer.spans()
        seconds, gen_ms = tracing.run_breakdown(spans)
        stages = sum(seconds[m] for m in tracing.STAGES.values())
        assert stages + seconds["engine.other_s"] == pytest.approx(seconds["trace.run_s"], abs=1e-12)
        assert seconds["engine.fitness_s"] == pytest.approx(
            seconds["problems.fitness_s"] + seconds["engine.eval_overhead_s"], abs=1e-12)
        assert len(gen_ms) == cfg.num_generations
        per_run.append(tracer.counts())
    assert per_run[0] == per_run[1]
    assert per_run[0]["problems.fitness_calls"] == (cfg.num_generations + 1) * cfg.sol_per_pop


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_smoke_each_workload(name, trace):
    out = io.StringIO()
    result = harness.measure(tiny(name), seed=11, seconds=0, trace=trace, out=out)
    assert result["correct"], out.getvalue()
    assert result["failed"] == 0 and result["attempted"] >= 3
    units = harness.PER_LAYER if trace else harness.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert json.loads(json.dumps(result)) == result


def test_default_seed_digest_mismatch_is_a_failure():
    wrong = dataclasses.replace(tiny("xor"), digest="0" * 64)
    result = harness.measure(wrong, seed=1, seconds=0, trace=False, out=io.StringIO())
    assert not result["correct"]
    assert result["failed"] == 1


def test_gene_check_rejects_out_of_space_values():
    cfg, _ = harness.build(harness.solve_argv(tiny("lattice"), 2))
    good = [list(range(0, 80, 2))]
    harness.check_genes(good, cfg)
    for bad in ([200] + good[0][1:],      # outside [0, 200)
                [0.5] + good[0][1:],      # not an integer
                [2] + good[0][1:]):       # duplicates gene 1
        with pytest.raises(harness.CheckFailed):
            harness.check_genes([bad], cfg)
