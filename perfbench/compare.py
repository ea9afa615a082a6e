"""Summaries of baseline files, and the comparison of two of them.

A baseline file (``run.py --baseline``) holds one record per run: ten
untraced runs per workload, one seed each, and two traced runs.  Compare
pairs the untraced runs of two files by workload and seed and, for each
end-to-end metric, gives a verdict by these rules:

- improved: the new side wins at least 9 of every 10 pairs (ties count
  for neither side), over at least 10 pairs, and the medians differ by
  more than the old side's quartile spread;
- worse: the new median is worse than the old by more than the bound;
- unresolved: neither of the above, and the old side's spread (quartile
  distance over median) is wider than the metric's bound, so "unchanged"
  cannot be told apart from noise, unless every new run beats every old run;
- unchanged: otherwise.

Output digests are compared per workload and seed and any change is
reported; a change is not a failure, since some changes alter results on
purpose.
"""

from __future__ import annotations

import json
import math
import statistics


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _untraced(result, workload):
    return {r["seed"]: r for r in result["runs"] if r["workload"] == workload and not r["trace"]}


def summarise(result, spec) -> dict:
    """Per workload: each end-to-end metric's quartiles and spread, the
    traced run's per-layer values, and its tracing overhead."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in result["runs"]):
        runs = _untraced(result, workload)
        entry = {"runs": len(runs), "failed": sum(r["failed"] for r in runs.values()), "end_to_end": {}}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs.values()]
            q1, med, q3 = _quartiles(values)
            spread = (q3 - q1) / med if med else math.inf
            entry["end_to_end"][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "unit": m["unit"],
                "spread": spread, "bound": m["bound"], "samples": len(values),
            }
        entry["output_digests"] = {str(s): r["output_digest"] for s, r in runs.items()}
        traced = [r for r in result["runs"] if r["workload"] == workload and r["trace"]]
        if traced:
            entry["per_layer"] = {k: v["value"] for k, v in traced[0]["metrics"].items()}
            # Each traced run was made right next to the untraced run of its
            # seed, once after it and once before it; the mean of the two
            # throughput ratios cancels a steady drift between neighbours.
            ratios = [t["metrics"]["trace.instances_per_s"]["value"]
                      / runs[t["seed"]]["metrics"]["instances_per_s"]["value"]
                      for t in traced if t["seed"] in runs]
            if ratios:
                entry["tracing_overhead"] = 1 - statistics.fmean(ratios)
        summary[workload] = entry
    return summary


def print_summary(summary) -> None:
    for workload, entry in summary.items():
        print(f"\n{workload}: {entry['runs']} runs, {entry['failed']} failed instances")
        for name, s in entry["end_to_end"].items():
            flag = "ok" if s["spread"] <= s["bound"] / 3 else ("within bound" if s["spread"] <= s["bound"] else "TOO WIDE")
            print(f"  {name:<18} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g}"
                  f" {s['unit']:<6} spread {s['spread']:.4f} of bound {s['bound']} ({flag})")
        if "tracing_overhead" in entry:
            print(f"  tracing overhead {entry['tracing_overhead']:.2%} of instances_per_s")
        digests = set(entry["output_digests"].values())
        print(f"  {len(digests)} distinct output digests over {len(entry['output_digests'])} seeds")


def verdict(old, new, better: str, bound: float) -> tuple[str, int, int]:
    """(verdict, pairs won by new, pairs) for seed-paired value lists."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(old, new))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    q1, med_old, q3 = _quartiles(old)
    med_new = statistics.median(new)
    gap = sign * (med_new - med_old)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gap > q3 - q1:
        return "improved", wins, len(pairs)
    if med_old and -gap / med_old > bound:
        return "worse", wins, len(pairs)
    all_better = all(sign * (b - a) > 0 for a in old for b in new)
    if med_old and (q3 - q1) / med_old > bound and not all_better:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def main(old_path: str, new_path: str, spec) -> int:
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    print(f"old {old_path}: commit {old['meta']['commit']}")
    print(f"new {new_path}: commit {new['meta']['commit']}")
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        a, b = _untraced(old, workload), _untraced(new, workload)
        seeds = sorted(set(a) & set(b))
        if not seeds:
            print(f"\n{workload}: no runs on common seeds")
            continue
        print(f"\n{workload}: {len(seeds)} seed pairs")
        for m in spec["end_to_end"]:
            xs = [a[s]["metrics"][m["name"]]["value"] for s in seeds]
            ys = [b[s]["metrics"][m["name"]]["value"] for s in seeds]
            v, wins, n = verdict(xs, ys, m["better"], m["bound"])
            (q1a, ma, q3a), (q1b, mb, q3b) = _quartiles(xs), _quartiles(ys)
            print(f"  {m['name']:<18} old {ma:.6g} [{q1a:.6g}, {q3a:.6g}]  new {mb:.6g} [{q1b:.6g}, {q3b:.6g}]"
                  f" {m['unit']}  won {wins}/{n}  {v}")
        changed = [s for s in seeds if a[s]["output_digest"] != b[s]["output_digest"]]
        if changed:
            print(f"  output digest changed on seeds {changed}")
        else:
            print("  output digests identical")
        failed = sum(b[s]["failed"] for s in seeds), sum(a[s]["failed"] for s in seeds)
        if failed[0] or failed[1]:
            print(f"  failed instances: old {failed[1]}, new {failed[0]}")
    return 0
