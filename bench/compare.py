"""Compare benchmark runs of a parent commit and a change.

    python3 bench/compare.py run --parent ../parent --change . \\
        --workload suite --out .bench_runs/cmp
    python3 bench/compare.py report .bench_runs/cmp

``run`` makes ``PAIRS`` alternating pairs: pair i uses seed ``SEED0 + i``
on both checkouts and BENCHMARK.json's ``run_seconds``, and the parent
goes first on even pairs, the change on odd ones.  Each side runs its own
``bench/run.py`` and writes its run record under ``OUT/parent`` or
``OUT/change``.

``report`` prints one row per workload and metric: each side's median and
quartiles, the change's share of pairs won, and a verdict:

* ``gain``: the change wins at least 9/10 of the pairs and the medians
  differ, in its favour, by more than the parent's interquartile range,
  with no more failed jobs than the parent;
* ``regression``: otherwise, the change's median is worse than the
  parent's by more than the metric's bound;
* ``unresolved``: otherwise, the spread (interquartile range over median)
  of either side exceeds the bound, unless every change run beats every
  parent run;
* ``same`` otherwise.

It also reports, per workload, whether the two sides printed
byte-identical reports for the jobs they share (same seed, same input).
The inputs do not depend on the program, so for each seed one side's job
list must be the start of the other's (a faster side runs more rounds);
if it is not, every metric of the workload is ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SIDES = ("parent", "change")
PAIRS = 10
SEED0 = 1000


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, better: str, bound: float,
            more_failures: bool = False) -> tuple[str, float]:
    """Verdict for one metric from paired runs (same seeds, same order)."""
    sign = 1 if better == "lower" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    share = wins / len(parent)
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if share >= 0.9 and sign * (pm - cm) > p3 - p1 and not more_failures:
        return "gain", share
    if sign * (cm - pm) > bound * abs(pm):
        return "regression", share
    if spread > bound and not all_better:
        return "unresolved", share
    return "same", share


def load(directory: Path) -> dict[tuple[str, int, int], dict]:
    records = {}
    for path in sorted(directory.glob("*.json")):
        data = json.loads(path.read_text())
        data["path"] = path
        records[(data["workload"], data["trace"], data["seed"])] = data
    return records


def jobs(record: dict) -> list[tuple[str, str]]:
    """(input key, report digest) of every job of a run, in run order."""
    with open(record["path"].parent / record["jobs_file"]) as fh:
        return [(j["key"], j["digest"]) for j in map(json.loads, fh)]


def identical_reports(parent: dict, change: dict) -> tuple[bool, int, int, int]:
    """(same inputs, shared jobs, jobs of the longer side, differing reports).

    Same inputs means the shorter job list is the start of the longer.
    """
    a, b = sorted((jobs(parent), jobs(change)), key=len)
    same = [key for key, _ in a] == [key for key, _ in b[:len(a)]]
    differ = sum(x != y for (_, x), (_, y) in zip(a, b)) if same else 0
    return same, len(a), len(b), differ


def report(out: Path, spec: dict) -> int:
    sides = {side: load(out / side) for side in SIDES}
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    groups = defaultdict(list)
    for key in sorted(set(sides["parent"]) & set(sides["change"])):
        groups[key[:2]].append(key)
    if not groups:
        print("no paired runs found", file=sys.stderr)
        return 1
    print(f"{'workload':10s} {'metric':34s} {'parent median [q1, q3]':32s} "
          f"{'change median [q1, q3]':32s} {'delta':>8s} {'won':>5s}  verdict")
    for (workload, trace), keys in groups.items():
        parent = [sides["parent"][k] for k in keys]
        change = [sides["change"][k] for k in keys]
        failed = [sum(r["failed"] for r in rs) for rs in (parent, change)]
        same_inputs = True
        shared = total = differ = 0
        for p, c in zip(parent, change):
            same, s, t, d = identical_reports(p, c)
            same_inputs &= same
            shared += s
            total += t
            differ += d
        for name in parent[0]["metrics"]:
            meta = bounds[name]
            pv = [r["metrics"][name]["value"] for r in parent]
            cv = [r["metrics"][name]["value"] for r in change]
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            delta = (cm - pm) / pm if pm else 0.0
            if "bound" not in meta:
                label, share = "-", float("nan")
            elif not same_inputs:
                label, share = "unresolved", float("nan")
            else:
                label, share = verdict(pv, cv, meta["better"], meta["bound"],
                                       failed[1] > failed[0])
            print(f"{workload:10s} {name:34s} "
                  f"{f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':32s} "
                  f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':32s} "
                  f"{delta:+8.1%} {share:5.0%}  {label}")
        inputs = ("same inputs" if same_inputs else
                  "INPUTS DIFFER between the sides, so no verdict holds")
        print(f"{workload:10s} runs {len(keys)} pairs; failed jobs parent "
              f"{failed[0]}, change {failed[1]}; {inputs}; {shared} of "
              f"{total} jobs shared, reports differ on {differ} of them")
    return 0


def run(args, spec: dict) -> int:
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side in SIDES:
        (args.out / side).mkdir(parents=True, exist_ok=True)
    for i in range(PAIRS):
        seed = SEED0 + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            record = (args.out / side / f"{args.workload}-seed{seed}-"
                      f"trace{args.trace}.json").resolve()
            cmd = [sys.executable, "bench/run.py", "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace), "--record", str(record)]
            done = subprocess.run(cmd, cwd=checkouts[side], text=True,
                                  capture_output=True)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return done.returncode
            print(f"pair {i} {side}: {done.stdout.splitlines()[-1][:100]}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run alternating parent/change pairs")
    p.add_argument("--parent", type=Path, required=True, help="parent checkout")
    p.add_argument("--change", type=Path, required=True, help="change checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    p = sub.add_parser("report", help="compare the recorded runs")
    p.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return run(args, spec) if args.command == "run" else report(args.out, spec)


if __name__ == "__main__":
    sys.exit(main())
