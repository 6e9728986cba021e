"""Tests of the benchmark harness: ``python3 -m pytest bench/tests -q``."""

import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import compare  # noqa: E402
import gate  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tauforge import cli  # noqa: E402
from tauforge.mpoly import MPoly  # noqa: E402
from tauforge.ratfun import RatFun  # noqa: E402


@lru_cache(maxsize=None)
def inputs(workload: str, seed: int, rounds: int = 2):
    seen: set[str] = set()
    warm = workloads.warmup_round(workload, seed, seen)
    timed = [workloads.timed_round(workload, seed, r, seen) for r in range(rounds)]
    return warm, timed


def materialized(jobs, directory: Path) -> list:
    """argv (paths relative to directory) and file bytes of each job."""
    out = []
    for i, job in enumerate(jobs):
        argv = job.materialize(directory / str(i))
        files = sorted((p.name, p.read_bytes()) for p in (directory / str(i)).iterdir())
        out.append(([a.replace(str(directory), "") for a in argv], files,
                    job.expect_exit, job.expect_verdict))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    warm, timed = inputs(workload, 5)
    seen: set[str] = set()
    again = [workloads.warmup_round(workload, 5, seen)]
    again += [workloads.timed_round(workload, 5, r, seen) for r in range(2)]
    for i, (a, b) in enumerate(zip([warm, *timed], again)):
        assert materialized(a, tmp_path / f"a{i}") == materialized(b, tmp_path / f"b{i}")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_other_inputs(workload):
    keys = {j.key for r in inputs(workload, 5)[1] for j in r}
    other = {j.key for r in inputs(workload, 6)[1] for j in r}
    assert keys != other


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_warmup_and_timed_inputs_are_disjoint(workload):
    warm, timed = inputs(workload, 5)
    assert not {j.key for j in warm} & {j.key for r in timed for j in r}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_timed_list_has_no_duplicates(workload):
    keys = [j.key for r in inputs(workload, 5)[1] for j in r]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_keep_their_recipe_and_reject_share(workload):
    rounds = inputs(workload, 5)[1]
    labels = [sorted(j.label.split(" w")[0] for j in r) for r in rounds]
    assert labels[0] == labels[1]
    for r in rounds:
        rejected = [j for j in r if not j.accept]
        assert rejected and all(j.expect_exit == 1 for j in rejected)


def _wdeg_and_terms(poly_json) -> tuple[int, int]:
    terms = poly_json["terms"]
    wdeg = max((sum(i * e for i, e in enumerate(t["exp"], start=1)) for t in terms),
               default=0)
    return wdeg, len(terms)


@pytest.mark.parametrize("workload", ["suite", "lax"])
def test_corpus_entries_have_their_signature(workload):
    recipe, _ = workloads.RECIPES[workload]
    by_sig = workloads.corpus(workload)
    assert set(by_sig) == {sig for sig, _, _ in recipe}
    for sig, lines in by_sig.items():
        k, n = sig[:2]
        assert len(set(lines)) == len(lines) == 64
        for e in map(json.loads, lines):
            m = e["tau"]["charge"]
            assert (*_wdeg_and_terms(e["tau"]["poly"]),) == sig[2:4]
            assert len(e["rho"]) == len(e["sigma"]) == n
            assert tuple(sorted(_wdeg_and_terms(r["poly"]) for r in e["rho"])) == sig[4]
            assert tuple(sorted(_wdeg_and_terms(s["poly"]) for s in e["sigma"])) == sig[5]
            assert all(r["charge"] == m + 1 for r in e["rho"])
            assert all(s["charge"] == m - k - 1 for s in e["sigma"])


@pytest.mark.parametrize("workload", ["suite", "lax"])
def test_corpus_runs_out_without_repeating(workload):
    recipe, _ = workloads.RECIPES[workload]
    widest = max(genuine + rejected for _, genuine, rejected in recipe)
    rounds = (64 - 1) // widest
    seen: set[str] = set()
    workloads.warmup_round(workload, 9, seen)
    for r in range(rounds):
        assert workloads.timed_round(workload, 9, r, seen)
    assert workloads.timed_round(workload, 9, rounds, seen) is None


def test_filtration_level_matches_the_program():
    from tauforge.grassmann import reduce_point, stable_subspace
    import random
    rng = random.Random(3)
    for _ in range(200):
        tail, vectors = workloads.random_vectors(rng, 4, 6)
        point = reduce_point(vectors, tail)
        m, weight = workloads.pivot_weight(tail, vectors)
        assert m == point.charge
        for k in (1, 2, 3):
            assert workloads.filtration_level(tail, vectors, k) == \
                stable_subspace(point, k)[1]


def test_chain_matrix_violations_are_as_built():
    import random
    rng = random.Random(4)
    for slot in workloads.MATRIX_RECIPE:
        k, M, N, v, _, _ = slot
        rows, violations = workloads.chain_matrix(rng, k, M, N, v)
        assert len(rows) == M and all(len(r) == N for r in rows)
        assert len(violations) == v


def test_matrix_weight_is_the_weight_of_the_built_tau():
    from tauforge.grassmann import generate_from_matrix
    import random
    rng = random.Random(6)
    for k, M, N, v, n, weights in workloads.MATRIX_RECIPE:
        if weights is None:
            continue
        rows, _ = workloads.chain_matrix(rng, k, M, N, v)
        _, tau, _ = generate_from_matrix(rows, k, n)
        assert workloads.matrix_weight(rows) == tau.poly.wdeg()


def run_job(job, tmp_path):
    code, out, _, crash = bench_run.call(cli.main, job.materialize(tmp_path))
    assert not crash
    return code, out


def test_gate_accepts_expected_verdicts(tmp_path):
    warm, _ = inputs("construct", 5)
    for i, job in enumerate(warm):
        code, out = run_job(job, tmp_path / str(i))
        assert gate.check(job, code, out) is None, job.label


def test_gate_flags_injected_wrong_verdict(tmp_path):
    job = next(j for j in inputs("suite", 5)[0] if j.expect_verdict[0][1])
    code, out = run_job(job, tmp_path)
    assert gate.check(job, code, out) is None
    report = json.loads(out)
    report["checks"][1]["pass"] = False
    assert "verdict" in gate.check(job, code, json.dumps(report))
    assert "exit 1" in gate.check(job, 1, out)
    assert gate.check(job, None, "") == "raised an exception"
    assert "unreadable" in gate.check(job, code, "{}")


def test_recorder_self_times_add_up_and_originals_return(tmp_path):
    job = next(j for j in inputs("construct", 5)[0] if j.argv[0] == "tau-from-matrix")
    argv = job.materialize(tmp_path)
    originals = (MPoly.__mul__, MPoly.__rmul__, cli.main)
    recorder = tracing.Recorder()
    recorder.install()
    try:
        recorder.job = "j"
        bench_run.call(cli.main, argv)
    finally:
        recorder.uninstall()
    assert (MPoly.__mul__, MPoly.__rmul__, cli.main) == originals
    totals = recorder.totals()
    assert totals["cli.main"]["calls"] == 1
    assert totals["grassmann.generate_from_matrix"]["calls"] == 1
    assert totals["mpoly.mul"]["calls"] > 0
    main_span = next(s for s in recorder.spans if s[0] == "cli.main")
    self_sum = sum(row["self_s"] for name, row in totals.items() if "@" not in name)
    assert self_sum == pytest.approx(main_span[2] - main_span[1], rel=1e-9)
    assert all(s[4] == "j" for s in recorder.spans)


def test_recorder_sees_calls_through_rebound_names():
    x = MPoly.variable(1, 1)
    recorder = tracing.Recorder()
    recorder.install()
    try:
        RatFun(x * x, x)          # ratfun's own divexact binding: one hit
        RatFun(x + 1, x)          # no cancellation
    finally:
        recorder.uninstall()
    totals = recorder.totals()
    assert totals["mpoly.divexact"]["calls"] == 2
    assert totals["mpoly.divexact"]["hits"] == 1
    assert totals["mpoly.mul"]["calls"] >= 1


def test_recorder_skips_targets_this_checkout_lacks(monkeypatch):
    from tauforge.zseries import ZSeries
    monkeypatch.delattr(ZSeries, "__mul__")
    monkeypatch.setitem(tracing.TRACED, "ratfun.mul",
                        ("tauforge.retired", "RatFun.__mul__", None))
    x = MPoly.variable(1, 1)
    recorder = tracing.Recorder()
    recorder.install()
    try:
        x * x
    finally:
        recorder.uninstall()
    assert sorted(recorder.missing) == ["ratfun.mul", "zseries.mul"]
    assert "__mul__" not in vars(ZSeries)
    totals = recorder.totals()
    assert totals["mpoly.mul"]["calls"] == 1
    traced = [{"probe_s": bench_run.REFERENCE_SECONDS, "batch_s": 1.0,
               "orders": {"checked": 0, "prefilter_rejected": 0, "exact": 0}}]
    values = bench_run.per_layer(["zseries.mul.calls", "ratfun.mul.self_s",
                                  "mpoly.mul.calls"], totals, traced, traced)
    assert values == {"zseries.mul.calls": 0, "ratfun.mul.self_s": 0,
                      "mpoly.mul.calls": 1}


def _record(directory: Path, side: str, seed: int, keys: list[str]) -> None:
    folder = directory / side
    folder.mkdir(parents=True, exist_ok=True)
    stem = f"suite-seed{seed}-trace0"
    (folder / f"{stem}.jobs.jsonl").write_text(
        "".join(json.dumps({"key": k, "digest": "d" + k}) + "\n" for k in keys))
    metrics = {"batch_s": {"value": 1.0 + seed / 100, "unit": "s"}}
    (folder / f"{stem}.json").write_text(json.dumps(
        {"workload": "suite", "trace": 0, "seed": seed, "failed": 0,
         "metrics": metrics, "jobs_file": f"{stem}.jobs.jsonl"}))


def test_compare_checks_that_both_sides_ran_the_same_inputs(tmp_path, capsys):
    spec = {"end_to_end": [{"name": "batch_s", "better": "lower", "bound": 0.2}],
            "per_layer": []}
    for seed in range(4):
        _record(tmp_path / "same", "parent", seed, ["a", "b"])
        _record(tmp_path / "same", "change", seed, ["a", "b", "c"])
        _record(tmp_path / "other", "parent", seed, ["a", "b"])
        _record(tmp_path / "other", "change", seed, ["a", "x", "c"])
    compare.report(tmp_path / "same", spec)
    out = capsys.readouterr().out
    assert "same inputs; 8 of 12 jobs shared, reports differ on 0" in out
    assert "unresolved" not in out
    compare.report(tmp_path / "other", spec)
    out = capsys.readouterr().out
    assert "INPUTS DIFFER" in out
    assert out.splitlines()[1].endswith("unresolved")


def test_tail_percentile_leaves_ten_jobs_beyond():
    for q in workloads.TAIL_PERCENTILE.values():
        n = bench_run.tail_samples(q)
        values = list(range(n))
        beyond = [v for v in values if v > bench_run.percentile(values, q)]
        assert len(beyond) >= 10


def test_compare_verdicts():
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    assert compare.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1)[0] == "gain"
    faster_but_failing = compare.verdict(parent, [v * 0.8 for v in parent], "lower",
                                         0.1, more_failures=True)
    assert faster_but_failing[0] == "same"
    assert compare.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1)[0] == "regression"
    assert compare.verdict(parent, list(parent), "lower", 0.1)[0] == "same"
    noisy = [1.0, 2.0, 0.5, 1.5, 0.7, 1.2, 0.6, 1.8, 0.9, 1.1]
    assert compare.verdict(parent, noisy, "lower", 0.1)[0] == "unresolved"
