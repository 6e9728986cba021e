"""Run one benchmark workload against the tauforge sources of this checkout.

    python3 bench/run.py --workload suite --seed 1 --seconds 15 --trace 0

One process, one client, closed loop: jobs go one at a time through
``tauforge.cli.main(argv)`` in this process, with no threads and
``TAUFORGE_THREADS`` unset.  The warm-up inputs, which no timed round
repeats, are made first; set-up then clears the program's caches and
runs them cold.  It is repeated and the median of its scaled job time is
reported as ``setup_s``.  Timed rounds follow until ``--seconds`` have
passed (and at least enough jobs for the tail percentile), or until the
corpus has no fresh inputs left.  Every job's exit code and verdict are
checked against the expectation stored with it.

Times are reported at reference speed.  A virtual machine shared with
other tenants can run at half speed or less for tens of seconds at a
time, so a fixed pure-Python probe (``probe``) is timed between jobs at
least every ``PROBE_EVERY`` seconds and each job's wall time is scaled by
``REFERENCE_SECONDS`` over the mean of the probes taken just before and
just after it, raised to ``PROBE_EXPONENT``.  Raw wall times are kept in
the run records.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics, each a mean per traced round, plus the ratio of
traced to untraced round time.  The last stdout line is one JSON object;
a run record, the job records (``.jobs.jsonl``) and, when traced, the
spans (``.spans.jsonl``) are written under ``.bench_runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from array import array
from fractions import Fraction
from pathlib import Path

import gate
from tracing import TRACED, Recorder

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Set-ups per run; the median is setup_s.  A construct set-up lasts ~0.3 s,
# so it takes more of them to steady the median.
SETUP_REPEATS = {"suite": 3, "lax": 3, "construct": 9}
MIN_ROUNDS = 3
PROBE_EVERY = 0.1
# Best-of-three time of the probe on an idle 2-core x86-64 VM, CPython 3.11.7.
REFERENCE_SECONDS = 0.0024
# Under load from other tenants the jobs slow less than the probe does: over
# 40 runs on a 2-core VM, round wall time went as probe time to the power
# 0.5-0.75.  Of the exponents tried (1, 0.85, 0.7, 0.6), 0.85 gave the
# smallest worst-case run-to-run spread of batch_s and job_p50_s across the
# workloads.  At reference speed the scale is 1 whatever the exponent.
PROBE_EXPONENT = 0.85
_PROBE_POLY = {(i, j, i * j % 3): Fraction(i - 2 * j + 1, j + 1)
               for i in range(6) for j in range(5)}


def probe() -> float:
    """Best of three timings of a fixed sparse Fraction polynomial square.

    It does what the program spends its time on (dict lookups, tuple
    exponents, Fraction products) but calls none of its code, so a change
    to the program cannot move it.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        out: dict = {}
        for ea, ca in _PROBE_POLY.items():
            for eb, cb in _PROBE_POLY.items():
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                out[e] = out.get(e, 0) + ca * cb
        best = min(best, time.perf_counter() - start)
    return best


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="run record path (default .bench_runs/...)")
    return parser.parse_args(argv)


def load_program():
    """Import tauforge from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tauforge" / "__init__.py").is_file():
        raise SystemExit(f"bench: no tauforge sources under {src}")
    sys.path.insert(0, str(src))
    import tauforge.cli
    if Path(tauforge.__file__).resolve().parent != src / "tauforge":
        raise SystemExit(f"bench: imported tauforge from {tauforge.__file__}")
    return tauforge


def environment(threads: str | None) -> dict:
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "commit": commit(),
            "TAUFORGE_THREADS": threads}


def commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name.startswith("tauforge."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def call(main, argv) -> tuple[int | None, str, float, str]:
    """Run one CLI job in-process: exit code (None if it raised), stdout,
    seconds, and the traceback if any."""
    out, err = io.StringIO(), io.StringIO()
    crash = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        crash = traceback.format_exc()
    return code, out.getvalue(), time.perf_counter() - start, crash


class Runner:
    """Runs job lists through the CLI, probes speed, checks every verdict.

    Each job's record goes to the jobs file as soon as its round ends;
    only the scaled latencies stay in memory, so what the benchmark keeps
    does not grow with the number of jobs a faster program gets through.
    """

    def __init__(self, tauforge, workdir: Path, jobs_file):
        self.cli = tauforge.cli
        self.workdir = workdir
        self.jobs_file = jobs_file
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, jobs, tag: str, recorder=None) -> dict:
        """Run jobs in order; returns the round's times."""
        directory = self.workdir / tag
        argvs = [job.materialize(directory / f"{i:03d}")
                 for i, job in enumerate(jobs)]
        results = []
        probes = [(0, probe())]  # (jobs finished before the probe, seconds)
        if recorder is not None:
            recorder.install()
        try:
            last = time.perf_counter()
            for i, argv in enumerate(argvs):
                if recorder is not None:
                    recorder.job = f"{tag}-{i}"
                results.append(call(self.cli.main, argv))
                if time.perf_counter() - last >= PROBE_EVERY or i == len(argvs) - 1:
                    probes.append((i + 1, probe()))
                    last = time.perf_counter()
        finally:
            if recorder is not None:
                recorder.uninstall()
        shutil.rmtree(directory, ignore_errors=True)
        summary = {"tag": tag, "traced": recorder is not None, "jobs": len(jobs),
                   "wall_s": 0.0, "batch_s": 0.0, "accept_s": 0.0, "reject_s": 0.0,
                   "probe_s": statistics.median(p for _, p in probes),
                   "latencies": array("d")}
        orders = {"checked": 0, "prefilter_rejected": 0, "exact": 0}
        for i, (job, (code, out, seconds, crash)) in enumerate(zip(jobs, results)):
            before = next(p for done, p in reversed(probes) if done <= i)
            after = next(p for done, p in probes if done > i)
            scaled = seconds * speed_scale((before + after) / 2)
            reason = gate.check(job, code, out)
            record = {"id": f"{tag}-{i}", "label": job.label, "key": job.key,
                      "accept": job.accept, "exit": code,
                      "expect_exit": job.expect_exit, "seconds": seconds,
                      "scaled": scaled, "digest": gate.digest(out),
                      "error": reason}
            if crash:
                record["traceback"] = crash
            if reason is not None:
                self.failures.append(f"{record['id']} {job.label}: {reason}")
            elif job.argv[0] == "lax":
                for key, value in gate.orders_by_method(out).items():
                    orders[key] += value
            self.jobs_file.write(json.dumps(record) + "\n")
            summary["wall_s"] += seconds
            summary["batch_s"] += scaled
            summary["accept_s" if job.accept else "reject_s"] += scaled
            summary["latencies"].append(scaled)
        self.attempted += len(jobs)
        summary["orders"] = orders
        return summary


def speed_scale(probe_s: float) -> float:
    """Factor from wall seconds to seconds at reference speed."""
    return (REFERENCE_SECONDS / probe_s) ** PROBE_EXPONENT


def percentile(values, q: float) -> float:
    """Nearest-rank percentile q (0-100) of values."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100 * len(ordered)) - 1, 0)]


def tail_samples(q: float) -> int:
    """Sample count that leaves at least ten values beyond percentile q."""
    return math.ceil(10 / (1 - q / 100) - 1e-9)


def end_to_end(rounds, setup, q, peak_rss_mb) -> dict[str, float]:
    latencies = [x for r in rounds for x in r["latencies"]]
    return {"batch_s": statistics.median(r["batch_s"] for r in rounds),
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": percentile(latencies, q),
            "accept_batch_s": statistics.median(r["accept_s"] for r in rounds),
            "reject_batch_s": statistics.median(r["reject_s"] for r in rounds),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb}


def peak_rss() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def per_layer(names, totals, traced, plain) -> dict[str, float]:
    """Per-layer values, each a mean per traced round; times scaled."""
    n = len(traced)
    scale = speed_scale(statistics.median(r["probe_s"] for r in traced))
    orders = {key: sum(r["orders"][key] for r in traced)
              for key in ("checked", "prefilter_rejected", "exact")}
    divexact = totals.get("mpoly.divexact", {})
    computed = totals.get("zseries.mul@hirota.bilinear_residue", {})
    residues = totals.get("hirota.bilinear_residue", {}).get("calls", 0)
    special = {
        "hirota.residue_use_ratio":
            residues / computed["orders_out"] if computed.get("orders_out") else 0.0,
        "ratfun.cancel.attempts": divexact.get("calls", 0) / n,
        "ratfun.cancel.hits": divexact.get("hits", 0) / n,
        "trace.overhead_ratio": statistics.median(r["batch_s"] for r in traced)
        / statistics.median(r["batch_s"] for r in plain),
        **{f"psdo.orders.{k}": v / n for k, v in orders.items()},
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
            continue
        span, _, stat = name.rpartition(".")
        if span not in TRACED:
            raise KeyError(f"per-layer metric {name} names no traced function")
        value = totals.get(span, {}).get(stat, 0) / n
        out[name] = value * scale if stat.endswith("_s") else value
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"bench: unknown workload {args.workload!r}")
    threads = os.environ.pop("TAUFORGE_THREADS", None)
    tauforge = load_program()
    import workloads

    env = environment(threads)
    record_path = args.record or (
        ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record_path.parent.mkdir(parents=True, exist_ok=True)
    jobs_path = record_path.with_suffix(".jobs.jsonl")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    q = workloads.TAIL_PERCENTILE[args.workload]
    recorder = Recorder() if args.trace else None
    seen: set[str] = set()
    warm = workloads.warmup_round(args.workload, args.seed, seen)
    rss = None
    with open(jobs_path, "w") as jobs_file:
        runner = Runner(tauforge, workdir, jobs_file)
        try:
            setup = []
            for rep in range(SETUP_REPEATS[args.workload]):
                # set-up: the warm-up jobs run cold; their inputs exist already
                clear_caches()
                setup.append(runner.run(warm, f"warmup{rep}")["batch_s"])

            rounds: list[dict] = []
            spent = False
            deadline = time.perf_counter() + args.seconds
            while True:
                index = len(rounds)
                jobs = workloads.timed_round(args.workload, args.seed, index, seen)
                if jobs is None:
                    # a program fast enough to use up the corpus ends early
                    spent = True
                    break
                traced = bool(args.trace and index % 2)
                rounds.append(runner.run(jobs, f"r{index}",
                                         recorder if traced else None))
                plain = [r for r in rounds if not r["traced"]]
                if len(plain) == MIN_ROUNDS and rss is None:
                    # a fixed amount of work, however fast the program is
                    rss = peak_rss()
                if args.trace:
                    enough = len(rounds) - len(plain) >= 2
                else:
                    enough = sum(r["jobs"] for r in plain) >= tail_samples(q)
                if (enough and len(plain) >= MIN_ROUNDS
                        and time.perf_counter() >= deadline):
                    break
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                workdir.parent.rmdir()

    plain = [r for r in rounds if not r["traced"]]
    if len(plain) < MIN_ROUNDS or (args.trace and len(rounds) == len(plain)):
        raise SystemExit(f"bench: the {args.workload} corpus filled only "
                         f"{len(rounds)} rounds")
    if args.trace:
        names = spec["per_layer"]
        values = per_layer([m["name"] for m in names], recorder.totals(),
                           [r for r in rounds if r["traced"]], plain)
    else:
        names = spec["end_to_end"]
        values = end_to_end(plain, setup, q, rss)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}
    attempted = runner.attempted
    failed = len(runner.failures)
    timed_jobs = sum(r["jobs"] for r in plain)
    raw_batch = statistics.median(r["wall_s"] for r in plain)
    speed = statistics.median(r["probe_s"] for r in rounds)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "reference_s": REFERENCE_SECONDS,
              "probe_exponent": PROBE_EXPONENT, "tail_percentile": q,
              "tail_samples": timed_jobs, "setup_s": setup,
              "corpus_spent": spent,
              "rounds": [{k: v for k, v in r.items() if k != "latencies"}
                         for r in rounds],
              "metrics": metrics, "attempted": attempted, "failed": failed,
              "jobs_file": jobs_path.name}
    record_path.write_text(json.dumps(record, indent=1))
    if recorder is not None:
        recorder.dump(record_path.with_suffix(".spans.jsonl"))
        if recorder.missing:
            print("absent from this checkout, read as 0: "
                  + ", ".join(recorder.missing))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    print(f"python {env['python']}  nproc {env['nproc']}  commit {env['commit']}"
          f"  TAUFORGE_THREADS {threads if threads is not None else 'unset'}"
          " (unset for the run)")
    print(f"rounds {len(rounds)}  timed jobs {timed_jobs}  job_tail_s is "
          f"p{q:g} of {timed_jobs} jobs"
          + ("  (corpus used up before --seconds)" if spent else ""))
    print(f"probe median {speed * 1e3:.3f} ms against {REFERENCE_SECONDS * 1e3:g} ms;"
          f" raw median round wall time {raw_batch:.6g} s")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_ratio':40s} {failed / attempted:.6g} "
          f"({failed} of {attempted} jobs)")
    for line in runner.failures:
        print(f"FAILED {line}")
    print(f"record {record_path}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
