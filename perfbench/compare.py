"""Summarize one set of saved benchmark results, or compare two.

A result set is a directory of the JSON files ``run.py`` saves (untraced
runs only).  Per workload and end-to-end metric it prints the median and
quartiles of each set and their spread (IQR / median).  With two sets it
also prints pair wins (runs paired by seed; B better than A, ties count for
neither) and a verdict against the metric's bound from ``BENCHMARK.json``:

- ``unresolved``: either spread exceeds the bound, unless every B run is
  better than every A run;
- ``regression``: B's median is worse than A's by more than the bound;
- ``gain``: B wins at least 9/10 of the pairs and the medians differ by
  more than A's interquartile distance;
- ``no change`` otherwise.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(directory: str) -> dict:
    """{workload: {seed: {metric: value}}} from the untraced runs in a directory."""
    runs: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        res = json.loads(path.read_text())
        if res.get("trace"):
            continue
        runs.setdefault(res["workload"], {})[res["seed"]] = {
            k: m["value"] for k, m in res["metrics"].items()}
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse(a: float, b: float, lower_is_better: bool) -> float:
    """How much worse b is than a, as a share of a (negative: better)."""
    return (b - a) / a if lower_is_better else (a - b) / a


def verdict(a: dict, b: dict, metric: dict) -> str:
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
    spread_a = (qa[2] - qa[0]) / qa[1]
    spread_b = (qb[2] - qb[0]) / qb[1]
    best_a = min(a.values()) if lower else max(a.values())
    worst_b = max(b.values()) if lower else min(b.values())
    all_better = (worst_b < best_a) if lower else (worst_b > best_a)
    if (spread_a > bound or spread_b > bound) and not all_better:
        return "unresolved"
    if worse(qa[1], qb[1], lower) > bound:
        return "regression"
    seeds = sorted(set(a) & set(b))
    wins = sum(1 for s in seeds if worse(a[s], b[s], lower) < 0)
    if seeds and wins >= 0.9 * len(seeds) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        return "gain"
    return "no change"


def main(dirs: list) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(d) for d in dirs]
    for workload in sorted(set().union(*sets)):
        print(f"== {workload}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            cells = []
            values = []
            for s in sets:
                vals = {seed: m[name] for seed, m in s.get(workload, {}).items() if name in m}
                values.append(vals)
                if not vals:
                    cells.append("no runs")
                    continue
                q1, med, q3 = quartiles(list(vals.values()))
                cells.append(f"median {med:.6g} [q1 {q1:.6g}, q3 {q3:.6g}] "
                             f"spread {(q3 - q1) / med:.3f} (n={len(vals)})")
            line = f"  {name} ({metric['unit']}, bound {metric['bound']}): " + " | ".join(cells)
            if len(sets) == 2 and all(values):
                a, b = values
                lower = metric["better"] == "lower"
                seeds = sorted(set(a) & set(b))
                wins = sum(1 for s in seeds if worse(a[s], b[s], lower) < 0)
                losses = sum(1 for s in seeds if worse(a[s], b[s], lower) > 0)
                line += (f" | B wins {wins}/{len(seeds)} pairs, loses {losses}"
                         f" -> {verdict(a, b, metric)}")
            print(line)
    return 0
