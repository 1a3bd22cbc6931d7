"""Compare benchmark results of a parent commit and a change.

    python3 perfbench/compare.py PARENT_RECORDS CHANGE_RECORDS

Each argument is a directory of the record files that perfbench/run.py writes
to perfbench/out/records, one per run. Run parent and change in pairs on the
same seeds, alternating which side goes first. Runs pair up by workload and
seed, in start order.

For each workload and end-to-end metric this prints both sides' median and
quartiles, the change's win fraction over the pairs (ties count for neither
side), and a verdict:

  worse       the change's median is worse than the parent's by more than the bound
  better      the change wins at least 9/10 of at least 10 pairs and the medians
              differ by more than the parent's interquartile distance
  unresolved  either side's interquartile distance exceeds the bound, and not
              every change run beats every parent run
  unchanged   otherwise

Traced runs (--trace 1) are listed after, one row per per-layer metric, with
no verdict: counts must match exactly unless the change meant to move them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory):
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        records.append(json.loads(path.read_text(encoding="utf-8")))
    if not records:
        sys.exit(f"error: no record files in {directory}")
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(parent, change):
    """(parent record, change record) pairs matched by seed, in start order."""
    by_seed = defaultdict(lambda: ([], []))
    for side, records in ((0, parent), (1, change)):
        for r in sorted(records, key=lambda r: r["started_at"]):
            by_seed[r["seed"]][side].append(r)
    out = []
    for seed in sorted(by_seed):
        out.extend(zip(*by_seed[seed]))
    return out


def verdict(metric, value_pairs):
    """Quartiles of both sides, the change's gain, its wins, and the verdict."""
    p_values = [p for p, _ in value_pairs]
    c_values = [c for _, c in value_pairs]
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p1, p_med, p3 = quartiles(p_values)
    c1, c_med, c3 = quartiles(c_values)
    worse_share = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med

    def beats(c, p):
        return c < p if lower else c > p

    wins = sum(1 for p, c in value_pairs if beats(c, p))
    if worse_share > bound:
        result = "worse"
    elif (len(value_pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(value_pairs)
          and beats(c_med, p_med) and abs(c_med - p_med) > p3 - p1):
        result = "better"
    elif (max((p3 - p1) / p_med, (c3 - c1) / c_med) > bound
          and not all(beats(c, p) for c in c_values for p in p_values)):
        result = "unresolved"
    else:
        result = "unchanged"
    return (p1, p_med, p3), (c1, c_med, c3), -worse_share, wins, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="directory of the parent's record files")
    parser.add_argument("change", help="directory of the change's record files")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    parent, change = load(args.parent), load(args.change)
    lengths = {r["seconds"] for r in parent + change if r["trace"] == 0}
    if len(lengths) > 1:
        print(f"warning: runs of different lengths are mixed: {sorted(lengths)} s")

    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':14} {'metric':12} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'gain':>7} {'wins':>7}  verdict")
    for name in workloads:
        matched = pairs([r for r in parent if r["workload"] == name and r["trace"] == 0],
                        [r for r in change if r["workload"] == name and r["trace"] == 0])
        if not matched:
            print(f"{name:14} no paired untraced runs")
            continue
        first = sum(1 for p, c in matched if p["started_at"] < c["started_at"])
        for metric in spec["end_to_end"]:
            key = metric["name"]
            values = [(p["metrics"][key]["value"], c["metrics"][key]["value"]) for p, c in matched]
            p_q, c_q, gain, wins, result = verdict(metric, values)
            print(f"{name:14} {key:12} {_fmt(p_q):>30} {_fmt(c_q):>30} "
                  f"{gain:+7.1%} {wins:3d}/{len(values):<3d}  {result}")
        note = ("" if len(matched) >= MIN_PAIRS
                else f"; fewer than {MIN_PAIRS} pairs, no gain can be claimed")
        print(f"{'':14} {len(matched)} pairs, parent ran first in {first}{note}")

    traced = [(name, pairs([r for r in parent if r["workload"] == name and r["trace"] == 1],
                           [r for r in change if r["workload"] == name and r["trace"] == 1]))
              for name in workloads]
    if any(matched for _, matched in traced):
        print(f"\n{'workload':14} {'per-layer metric':44} {'parent median':>14} "
              f"{'change median':>14}")
    for name, matched in traced:
        for metric in spec["per_layer"] if matched else ():
            key = metric["name"]
            p_med = statistics.median(p["metrics"][key]["value"] for p, _ in matched)
            c_med = statistics.median(c["metrics"][key]["value"] for _, c in matched)
            mark = "" if p_med == c_med else "  *"
            print(f"{name:14} {key:44} {p_med:14.6g} {c_med:14.6g}{mark}")
    return 0


def _fmt(q):
    q1, med, q3 = q
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


if __name__ == "__main__":
    sys.exit(main())
