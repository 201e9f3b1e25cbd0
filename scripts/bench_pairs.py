#!/usr/bin/env python3
"""Alternating parent/change runs of the repository's benchmark.

    bench_pairs.py <parent-tree> <change-tree> [--seeds 1,2,3,4,5,6,7,8,9,10]
                   [--seconds N] [--workloads a,b] [--claim workload:metric]...
                   [--json out.json]

Both trees are checkouts of this repository (`git clone` / `git archive`
copies; the change tree may be the working directory). The command, the
workloads, the end-to-end metrics and their regression bounds are read from
the change tree's BENCHMARK.json. For every seed and workload the command
runs once in each tree, with `--trace 0`, and which side goes first
alternates from one seed to the next, so a drift of the host lands on both
sides. `--seconds` defaults to BENCHMARK.json's `run_seconds`. The first run
in a tree also builds it; that happens before anything is timed.

Per workload and end-to-end metric it prints each side's median and
quartiles, the pairs the change won (ties count for neither side) and a
verdict by the rule of the choosing-metrics guide, section 8:

  improved    the change won >= 9/10 of the pairs and its median is better
              than the parent's by more than the parent's quartile distance
  regressed   the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  neither, and the parent's quartile distance is wider than the
              bound (unless every change run beats every parent run)
  within      neither, and the spread is inside the bound

A `--claim workload:metric` line is printed as `CLAIM met` / `CLAIM NOT met`
(met = improved). The exit status is 1 if any run failed a check, any
metric regressed or any claim is not met.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def run_once(tree, command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{tree}: {' '.join(argv)} printed nothing (exit {proc.returncode})")
    doc = json.loads(lines[-1])
    doc["exit"] = proc.returncode
    return doc


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def num(v):
    """A metric value in 10 columns, whatever its magnitude."""
    return f"{v:10.1f}" if abs(v) >= 1000 else f"{v:10.4f}"


def verdict(parent, change, lower_is_better, bound):
    """(verdict, pairs won, parent median, change median, parent q1, q3)."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    gain = sign * (pm - cm)  # > 0: the change is better
    if wins * 10 >= 9 * len(parent) and gain > iqr:
        v = "improved"
    elif -gain > bound * abs(pm):
        v = "regressed"
    elif iqr > bound * abs(pm) and not all(
            sign * c < sign * p for c in change for p in parent):
        v = "unresolved"
    else:
        v = "within"
    return v, wins, pm, cm, q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workloads")
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    ap.add_argument("--json", type=pathlib.Path, help="also write every run's metrics here")
    args = ap.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    command = spec["command"]
    seconds = args.seconds or spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        wanted = args.workloads.split(",")
        unknown = sorted(set(wanted) - set(workloads))
        if unknown:
            sys.exit(f"unknown workload(s) {unknown}; BENCHMARK.json has {workloads}")
        workloads = wanted
    metrics = spec["end_to_end"]
    claims = [tuple(c.split(":", 1)) for c in args.claim]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    # Build both sides before anything is timed.
    for side, tree in trees.items():
        print(f"building {side} ({tree}) ...", file=sys.stderr)
        subprocess.run(command + ["--help"], cwd=tree,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                doc = run_once(trees[side], command, w, seed, seconds)
                doc["seed"] = seed
                runs[w][side].append(doc)
                wall = doc["metrics"].get("wall_s", {}).get("value")
                print(f"seed {seed} {w} {side}: wall_s {wall} "
                      f"failed {doc['failed']}/{doc['attempted']}", file=sys.stderr)

    bad = False
    print(f"{len(seeds)} pairs per workload, seeds {seeds}, --seconds {seconds}, --trace 0")
    for w in workloads:
        failed = {s: sum(d["failed"] for d in runs[w][s]) for s in trees}
        attempted = {s: sum(d["attempted"] for d in runs[w][s]) for s in trees}
        print(f"\n{w}: failed parent {failed['parent']}/{attempted['parent']}, "
              f"change {failed['change']}/{attempted['change']}")
        if failed["change"] or any(d["exit"] or not d["correct"] for d in runs[w]["change"]):
            bad = True
        print(f"  {'metric':16} {'parent med [q1, q3]':>34} {'change med [q1, q3]':>34} "
              f"{'delta':>8} {'wins':>6}  verdict")
        for m in metrics:
            name = m["name"]
            parent = [d["metrics"][name]["value"] for d in runs[w]["parent"]]
            change = [d["metrics"][name]["value"] for d in runs[w]["change"]]
            v, wins, pm, cm, q1, q3 = verdict(
                parent, change, m["better"] == "lower", m["bound"])
            cq1, cq3 = quartiles(change)
            delta = (cm - pm) / pm * 100 if pm else 0.0
            line = (f"  {name:16} {num(pm)} [{num(q1)},{num(q3)}] "
                    f"{num(cm)} [{num(cq1)},{num(cq3)}] {delta:+7.1f}% "
                    f"{wins:>3}/{len(parent):<2}  {v}")
            if (w, name) in claims:
                line += "  CLAIM met" if v == "improved" else "  CLAIM NOT met"
                bad |= v != "improved"
            bad |= v == "regressed"
            print(line)
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
