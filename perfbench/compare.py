"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``run.py`` (copies of
``perfbench/out``).  For every workload and metric the script prints the
base median, the new median, their ratio and each side's run-to-run
spread (distance between the quartiles as a share of the median).  An
end-to-end metric reads:

* ``unresolved`` when either spread exceeds the metric's bound, unless
  every new run is better, or every new run worse, than every base run;
* ``worse`` when the new median is worse than the base by more than the
  bound;
* ``better`` when it is better by more than both the bound and the spread;
* ``unchanged`` otherwise.

Per-layer metrics have no bound and get no verdict.  The script also
compares, for every workload and seed run on both sides, the input and
output digests of each operation, and warns when the two sets were taken on
different kernel backends, Python versions or run lengths.  It exits 1 when
any digest differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> list[dict]:
    runs = []
    for path in sorted(directory.glob("*-trace[01].json")):
        runs.append(json.loads(path.read_text()))
    if not runs:
        raise SystemExit(f"no result files in {directory}")
    return runs


def spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else None


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1
    b, n = statistics.median(base), statistics.median(new)
    worse_by = sign * (n - b) / abs(b) if b else 0.0
    spreads = [spread(base), spread(new)]
    if None in spreads or max(spreads) > bound:
        if all(sign * x < sign * y for x in new for y in base):
            return "better"
        if all(sign * x > sign * y for x in new for y in base):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > max(bound, *spreads):
        return "better"
    return "unchanged"


def _fmt(x: float | None) -> str:
    return "-" if x is None else f"{x:.4g}"


def compare(base_runs: list[dict], new_runs: list[dict], spec: dict) -> int:
    for key in ("backend", "python", "seconds"):
        seen = {side: sorted({r["meta"][key] for r in runs})
                for side, runs in (("base", base_runs), ("new", new_runs))}
        if seen["base"] != seen["new"] or len(seen["base"]) > 1:
            print(f"WARNING: {key} differs: base {seen['base']}, new {seen['new']}; "
                  "these ratios mix them")

    status = 0
    base_ops = {(r["meta"]["workload"], r["meta"]["seed"]): r["ops"] for r in base_runs}
    for r in new_runs:
        key = (r["meta"]["workload"], r["meta"]["seed"])
        if key in base_ops and base_ops[key] != r["ops"]:
            print(f"DIGESTS DIFFER: {key[0]} seed {key[1]}")
            status = 1
    for side, runs in (("base", base_runs), ("new", new_runs)):
        failing = sum(1 for r in runs if r["failures"])
        if failing:
            print(f"{side}: {failing} runs had failed operations")

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'workload':16s} {'metric':32s} {'base':>10s} {'new':>10s} "
          f"{'ratio':>7s} {'spread':>13s}  verdict")
    workloads = sorted({r["meta"]["workload"] for r in base_runs + new_runs})
    for workload in workloads:
        for trace in (0, 1):
            b = [r for r in base_runs if r["meta"]["workload"] == workload and r["meta"]["trace"] == trace]
            n = [r for r in new_runs if r["meta"]["workload"] == workload and r["meta"]["trace"] == trace]
            if not b or not n:
                continue
            for metric in b[0]["metrics"]:
                bv = [r["metrics"][metric]["value"] for r in b if metric in r["metrics"]]
                nv = [r["metrics"][metric]["value"] for r in n if metric in r["metrics"]]
                if not nv:
                    continue
                bm, nm = statistics.median(bv), statistics.median(nv)
                ratio = nm / bm if bm else None
                spec_m = bounds.get(metric)
                word = verdict(bv, nv, spec_m["better"], spec_m["bound"]) if spec_m else "-"
                spreads = f"{_fmt(spread(bv))}/{_fmt(spread(nv))}"
                print(f"{workload:16s} {metric:32s} {_fmt(bm):>10s} {_fmt(nm):>10s} "
                      f"{_fmt(ratio):>7s} {spreads:>13s}  {word}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    return compare(load(args.base), load(args.new), spec)


if __name__ == "__main__":
    sys.exit(main())
