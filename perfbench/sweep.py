"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py [--workloads NAME ...] [--seeds 1-10]
                               [--seconds S] [--trace 0|1] [--baseline FILE]

Runs ``perfbench/run.py`` once per workload and seed, one child at a time,
and prints for every metric the median of the per-run values, their
quartiles (``statistics.quantiles(n=4)``), and the quartile spread as a share
of the median next to the metric's bound from BENCHMARK.json. With
``--trace 1`` it also prints each stage's share of the traced wall time.
``--baseline FILE`` merges the figures, the machine note and each workload's
reason from BENCHMARK.json into FILE.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

STAGE_METRICS = (
    "engine.fitness_s", "operators.select_s", "operators.crossover_s",
    "operators.mutate_s", "genome.normalize_s", "engine.other_s",
)


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """One benchmark child: (result object, machine note). Raises if it failed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    # Exit 1 still prints a result (with correct=false); anything else did not finish.
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    machine = next(json.loads(ln[len("machine "):]) for ln in lines if ln.startswith("machine "))
    return json.loads(lines[-1]), machine


def spread_row(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline")
    args = parser.parse_args(argv)

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    baseline_path = Path(args.baseline) if args.baseline else None
    baseline = json.loads(baseline_path.read_text()) if baseline_path and baseline_path.exists() else {}
    section = "per_layer" if args.trace else "end_to_end"
    steady = True

    for workload in args.workloads:
        runs = []
        machine = None
        for seed in args.seeds:
            result, machine = run_once(workload, seed, seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed={seed} " + json.dumps(
                {k: round(v["value"], 6) for k, v in result["metrics"].items()}), flush=True)
        print(f"\n{workload}: {len(runs)} runs of {seconds:g} s, trace={args.trace}")
        print(f"{'metric':30} {'unit':6} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} bound")
        rows = {}
        for metric in declared:
            name = metric["name"]
            row = spread_row([r["metrics"][name]["value"] for r in runs])
            row["unit"] = metric["unit"]
            rows[name] = row
            bound = metric.get("bound")
            flag = ""
            if bound is not None:
                row["bound"] = bound
                flag = f"{bound:g}" + ("" if name == "setup_s" or row["spread"] < bound / 3
                                      else "  <-- above a third of the bound")
                if flag.endswith("bound"):
                    steady = False
            print(f"{name:30} {metric['unit']:6} {row['median']:11.5g} {row['q1']:11.5g} "
                  f"{row['q3']:11.5g} {row['spread']:7.3f} {flag}")
        if not all(r["correct"] for r in runs):
            steady = False
            print("some runs were not correct; see their stderr")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{'fail_frac':30} {'ratio':6} {failed / attempted:11.5g}   "
              f"({failed} failed of {attempted} attempted)")
        entry = baseline.setdefault("workloads", {}).setdefault(workload, {})
        if workload in whys:
            entry["why"] = whys[workload]
        entry[section] = rows
        entry.setdefault("fail_frac", {})[section] = {"failed": failed, "attempted": attempted}
        if args.trace:
            wall = rows["trace.run_s"]["median"]
            shares = {m: rows[m]["median"] / wall for m in STAGE_METRICS}
            entry["stage_shares"] = shares
            print("stage shares of trace.run_s: " + ", ".join(
                f"{m} {100 * v:.1f}%" for m, v in shares.items()))
        entry.setdefault("runs", {})[section] = {"seconds": seconds, "seeds": args.seeds}
        baseline["machine"] = machine

    if baseline_path:
        baseline_path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
