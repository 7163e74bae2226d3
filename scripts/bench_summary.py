#!/usr/bin/env python3
"""Summarise alternating parent/change bench runs into one JSON file.

Each argument after --parent and --change is a report that bench/run.py
wrote (.bench_out/<workload>-seed<n>-trace<t>.json, copied aside after each
run, since the next run of that workload and seed overwrites it).  The i-th
parent report and the i-th change report of one workload, seed and trace
form a pair, so list them in the order they ran.  Per workload, seed and
trace, and per metric of the reports, the output holds each side's values,
median and quartiles, the change in the median relative to the parent's,
and how many pairs the change won (its value better than its partner's,
"better" taken from BENCHMARK.json, else lower).

    python3 scripts/bench_summary.py --out BENCH_24.json \\
        --parent runs/p1.json runs/p2.json --change runs/c1.json runs/c2.json
"""

import argparse
import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _better() -> dict:
    """Metric name -> "lower" or "higher", from BENCHMARK.json's metric lists."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except OSError:
        return {}
    return {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def _spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def summarise(parent: list, change: list) -> dict:
    """The summary of paired reports (loaded JSON objects), keyed by "<workload> seed<n> trace<t>"."""
    better = _better()
    groups = {}
    for side, reports in (("parent", parent), ("change", change)):
        for report in reports:
            key = f"{report['workload']} seed{report['env']['seed']} trace{report['trace']}"
            groups.setdefault(key, {"parent": [], "change": []})[side].append(report)
    out = {}
    for key, sides in groups.items():
        if len(sides["parent"]) != len(sides["change"]):
            raise SystemExit(f"{key}: {len(sides['parent'])} parent reports, {len(sides['change'])} change reports")
        metrics = {}
        for name, entry in sides["parent"][0]["metrics"].items():
            p = [r["metrics"][name]["value"] for r in sides["parent"]]
            c = [r["metrics"][name]["value"] for r in sides["change"]]
            if None in p or None in c:
                continue
            lower = better.get(name, "lower") == "lower"
            wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
            pm, cm = statistics.median(p), statistics.median(c)
            metrics[name] = {
                "unit": entry["unit"],
                "better": "lower" if lower else "higher",
                "parent": _spread(p),
                "change": _spread(c),
                "median_change_rel": (cm - pm) / pm if pm else None,
                "change_wins": wins,
            }
        out[key] = {"pairs": len(sides["parent"]), "metrics": metrics}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", nargs="+", required=True, help="parent reports, in run order")
    p.add_argument("--change", nargs="+", required=True, help="change reports, in run order")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    loaded = {}
    for side in ("parent", "change"):
        loaded[side] = []
        for path in getattr(args, side):
            with open(path) as fh:
                loaded[side].append(json.load(fh))
    env = {k: v for k, v in loaded["change"][0]["env"].items() if k != "seed"}
    summary = {"env": env, "workloads": summarise(loaded["parent"], loaded["change"])}
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    for key, group in summary["workloads"].items():
        for name, m in group["metrics"].items():
            if key.endswith("trace0") or name.endswith("total_s") or name.endswith(".calls"):
                rel = m["median_change_rel"]
                print(
                    f"{key:<33} {name:<40} parent {m['parent']['median']:.6g} change {m['change']['median']:.6g}"
                    f" ({'n/a' if rel is None else f'{rel:+.1%}'}) wins {m['change_wins']}/{group['pairs']}"
                )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
