#!/usr/bin/env python3
"""The one "compare against baseline" gate of the bench CI jobs.

    bench_gate.py <kind> <baseline.json> <fresh.json>
    bench_gate.py

CI machines differ from the machine that wrote the checked-in baseline, so
an absolute ns/op is meaningless across them. Every bench therefore records
a machine-independent ratio -- two things measured (or counted) in the same
run on the same host -- and the gate fails when the fresh ratio drops under
0.75 of the baseline's for any key both files have.

With no arguments: the trajectory table -- every checked-in
crates/bench/BENCH_<kind>.json with its fast_mode / host_parallelism / commit
stamps ("-" where the file predates the stamp) and its gated ratios.
"""
import json
import pathlib
import sys

FLOOR = 0.75


def scaling(doc):
    # How much of the static imbalance the dynamic schedule removes at P=16.
    at16 = {(r["stage"], r["schedule"]): r["imbalance"] for r in doc["rows"] if r["ranks"] == 16}
    stages = ["contig/traversal", "scaffold/gap-closing"]
    return {s: at16[(s, "static")] / at16[(s, "dynamic")] for s in stages}


# kind: (file -> {key: ratio}, what the ratio is,
#        whether a fast-mode fresh run may cover only part of the baseline's keys)
KINDS = {
    "kernels": (
        lambda d: {k["name"]: k["speedup"] for k in d["kernels"]},
        "speedup of the optimized kernel over the in-tree reference",
        False,
    ),
    "scaling": (scaling, "static / dynamic imbalance at P=16", False),
    "partition": (
        lambda d: {f"P={g['ranks']}": g["reduction"] for g in d["gates"]},
        "traversal off-node reduction, minimizer vs uniform (message counts)",
        True,
    ),
    "metagenome": (
        lambda d: {g["name"]: g["improvement"] for g in d["gates"]},
        "genome-fraction improvement, round 1 -> final (k-mer counts)",
        True,
    ),
    "serve": (
        lambda d: {f"rate {p['rate_per_s']}/s": p["cache_hit_ratio"] for p in d["points"]},
        "cache-hit ratio (dispositions, not seconds)",
        False,
    ),
}


def load(path):
    with open(path) as f:
        return json.load(f)


def gate(kind, baseline, fresh):
    extract, what, subset_ok = KINDS[kind]
    base, cur = extract(load(baseline)), extract(load(fresh))
    print(f"{kind}: {what}")
    failed = [] if subset_ok else [f"{key}: missing from fresh run" for key in base.keys() - cur.keys()]
    shared = [key for key in base if key in cur]
    if not shared:
        failed.append("no key shared with the baseline")
    for key in shared:
        ratio = cur[key] / base[key]
        ok = ratio >= FLOOR
        print(f"{'ok' if ok else 'FAIL'} {key}: {cur[key]:.3f} vs baseline {base[key]:.3f} ({ratio:.2f} of baseline)")
        if not ok:
            failed.append(key)
    if failed:
        raise SystemExit(f"{kind} regression >25%: " + ", ".join(failed))


def trajectory():
    bench = pathlib.Path(__file__).resolve().parent.parent / "crates" / "bench"
    print(f"{'file':<24} {'fast_mode':<10} {'host_par':<9} {'commit':<10} gated ratios")
    for kind, (extract, _, _) in KINDS.items():
        path = bench / f"BENCH_{kind}.json"
        doc = load(path)
        ratios = ", ".join(f"{key} {value:.3f}" for key, value in extract(doc).items())
        fast, par, commit = (str(doc.get(k, "-")) for k in ("fast_mode", "host_parallelism", "commit"))
        print(f"{path.name:<24} {fast:<10} {par:<9} {commit[:9]:<10} {ratios}")


if __name__ == "__main__":
    if len(sys.argv) == 1:
        trajectory()
    elif len(sys.argv) == 4 and sys.argv[1] in KINDS:
        gate(*sys.argv[1:])
    else:
        raise SystemExit(__doc__)
