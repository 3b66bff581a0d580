#!/usr/bin/env python3
"""Compares the traced outputs of two commits, layer by layer.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR [--workload NAME]

Each directory holds the <workload>.json files a traced run writes
(.bench_build/trace/ by default: run `perfbench/run.py ... --trace 1` on each
commit and copy the directory aside). For every workload present in both,
the report prints each layer's self time and share of the timed loop on both
sides with the delta, the layer's other timings, and every count.

Counts (steps, decisions, hits, bytes) are deterministic for a seed, so a
change that only makes the host faster must leave them identical; any count
that differs is flagged, and the exit status is 1 when one is. A performance
claim uses this report to show in which layer its saving appears, next to
the end-to-end metrics layers.json predicts that layer moves.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TIME_UNITS = {"s", "ms", "us", "ns"}


def load(directory, workload):
    path = os.path.join(directory, workload + ".json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def pct(base, head):
    if base == 0:
        return "" if head == 0 else "new"
    return "%+.1f%%" % (100.0 * (head - base) / base)


def predictions(layers, layer, workload):
    info = layers.get(layer, {})
    if workload in info.get("idle_on", []):
        return "predicted idle"
    moved = []
    for move in info.get("moves", []):
        if workload in move["workloads"]:
            moved.extend(m for m in move["end_to_end"] if m not in moved)
    return "moves " + ", ".join(moved) if moved else ""


def compare(workload, base, head, layers):
    print("== %s (seed %s vs %s, %s vs %s steps)" % (
        workload, base["seed"], head["seed"], base["steps"], head["steps"]))
    bm, hm = base["metrics"], head["metrics"]
    print("  %-9s %12s %12s %10s %8s %8s  %s" % (
        "layer", "base self_s", "head self_s", "delta", "base %", "head %",
        "prediction"))
    for layer in layers:
        key = layer + ".self_s"
        if key not in bm or key not in hm:
            continue
        b, h = bm[key]["value"], hm[key]["value"]
        bs = bm[layer + ".share"]["value"] * 100.0
        hs = hm[layer + ".share"]["value"] * 100.0
        print("  %-9s %12.6f %12.6f %10s %7.2f%% %7.2f%%  %s" % (
            layer, b, h, pct(b, h), bs, hs, predictions(layers, layer, workload)))

    print("  timings:")
    for name in sorted(set(bm) & set(hm)):
        unit = bm[name]["unit"]
        if unit not in TIME_UNITS or name.endswith(".self_s"):
            continue
        b, h = bm[name]["value"], hm[name]["value"]
        if b == 0 and h == 0:
            continue
        print("    %-28s %14.6g %14.6g %s %s" % (name, b, h, unit, pct(b, h)))

    flagged = []
    counts_b = {n: m["value"] for n, m in bm.items() if m["unit"] not in TIME_UNITS
                and not n.endswith(".share")}
    counts_b.update(base.get("counts", {}))
    counts_h = {n: m["value"] for n, m in hm.items() if m["unit"] not in TIME_UNITS
                and not n.endswith(".share")}
    counts_h.update(head.get("counts", {}))
    print("  counts:")
    for name in sorted(set(counts_b) | set(counts_h)):
        b, h = counts_b.get(name), counts_h.get(name)
        flag = "" if b == h else "  <-- DIFFERS"
        if flag:
            flagged.append(name)
        print("    %-28s %14s %14s%s" % (name, b, h, flag))
    return flagged


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as f:
        layers = json.load(f)["layers"]
    workloads = args.workload or sorted(
        name[:-len(".json")] for name in os.listdir(args.base)
        if name.endswith(".json"))

    flagged = {}
    compared = 0
    for workload in workloads:
        base, head = load(args.base, workload), load(args.head, workload)
        if base is None or head is None:
            print("== %s: no trace on %s side" % (
                workload, "base" if base is None else "head"))
            continue
        compared += 1
        differing = compare(workload, base, head, layers)
        if differing:
            flagged[workload] = differing
    for workload, names in flagged.items():
        print("FLAG %s: %d count(s) differ: %s" % (
            workload, len(names), ", ".join(names)))
    if compared == 0:
        return 2
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
