"""Seeded job lists for the benchmark workloads.

Every job is one ``tauforge`` CLI invocation on JSON files that this
module writes, together with the verdict it must produce.  Expected
verdicts never come from running the command under test:

* ``suite`` and ``lax`` feed the companion data of a point, which the
  theory says passes every check, or the same data with one pair
  dropped, which fails exactly the constrained identity (the missing
  term rho(t) sigma(t') and, on the Lax side, the order -1 coefficient
  q r of the missing q d^-1 r are nonzero);
* ``construct`` builds chain matrices whose chain violations are known by
  construction, and points whose filtration level this module computes
  with its own exact elimination.

No input is computed by the program under test.  The suite and lax
companion triples come from the committed corpus (``corpus/*.jsonl``,
written once by ``make_corpus.py``); the construct inputs are drawn by
this module alone.  So the parent and a change get the same bytes for the
same seed.

Jobs come in rounds.  A round has a fixed composition (the recipe of its
workload), so rounds from different seeds cost about the same; the seed
only picks which triples, points and matrices fill each slot.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

WORKLOADS = ("suite", "lax", "construct")

# Nearest-rank percentile used for job_tail_s: the highest of 50, 75, 90,
# 99 that leaves at least ten jobs beyond it in a run of the minimum three
# rounds (75 suite jobs, 78 lax jobs; construct runs thousands of jobs).
# A run keeps going until it has that many samples.
TAIL_PERCENTILE = {"suite": 75.0, "lax": 75.0, "construct": 99.0}


@dataclass(frozen=True)
class Job:
    """One CLI call: argv with ``@name`` placeholders for the input files."""

    label: str
    argv: tuple[str, ...]
    files: tuple[tuple[str, str], ...]
    expect_exit: int
    expect_verdict: object
    accept: bool

    @property
    def key(self) -> str:
        """Content hash of the inputs; equal keys mean a duplicate job."""
        blob = json.dumps([self.argv, self.files], separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def materialize(self, directory: Path) -> list[str]:
        """Write the input files and return argv with real paths."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, text in self.files:
            path = directory / name
            path.write_text(text)
            paths["@" + name] = str(path)
        return [paths.get(a, a) for a in self.argv]


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _rng(kind: str, workload: str, seed: int, index=0) -> random.Random:
    return random.Random(f"tauforge-bench/{kind}/{workload}/{seed}/{index}")


# -- points of the Grassmannian --------------------------------------------

def random_vectors(rng: random.Random, max_extras: int, span: int
                   ) -> tuple[int, list[dict[int, Fraction]]]:
    """Tail level and extra Laurent vectors of a random point."""
    tail = rng.randint(-3, 1)
    vectors = []
    for _ in range(rng.randint(1, max_extras)):
        lo = -tail - rng.randint(1, span)
        width = -tail - lo
        support = rng.sample(range(lo, -tail), min(rng.randint(1, 3), width))
        vec = {e: Fraction(rng.randint(-3, 3)) for e in support}
        vec[lo] = Fraction(rng.choice([1, 2, -1, 3]))
        vectors.append(vec)
    return tail, vectors


def _echelon(vectors, tail: int) -> list[dict[int, Fraction]]:
    """Reduced rows of span(vectors) modulo H_tail, pivot = lowest exponent."""
    rows: list[dict[int, Fraction]] = []
    for raw in vectors:
        vec = {e: Fraction(c) for e, c in raw.items() if c and e < -tail}
        while vec:
            p = min(vec)
            hit = next((r for r in rows if min(r) == p), None)
            if hit is None:
                rows.append(vec)
                break
            f = vec[p] / hit[p]
            for e, c in hit.items():
                v = vec.get(e, 0) - f * c
                if v:
                    vec[e] = v
                else:
                    vec.pop(e, None)
    return rows


def filtration_level(tail: int, vectors, k: int) -> int:
    """Codimension n of the largest subspace U with s**k U inside W.

    s**k keeps H_tail inside itself, so n is the rank of the images
    s**k w of the extra vectors modulo W.
    """
    basis = sorted(_echelon(vectors, tail), key=min)
    residuals = []
    for w in basis:
        rem = {e + k: c for e, c in w.items() if e + k < -tail}
        for row in basis:  # ascending pivots: each step only adds higher exponents
            p = min(row)
            if rem.get(p):
                f = rem[p] / row[p]
                for e, c in row.items():
                    v = rem.get(e, 0) - f * c
                    if v:
                        rem[e] = v
                    else:
                        rem.pop(e, None)
        residuals.append(rem)
    return len(_echelon(residuals, tail))


def pivot_weight(tail: int, vectors) -> tuple[int, int]:
    """(charge, weight of tau) read off the pivots, without expanding tau.

    The pivot Maya state is the top-weight term of the wedge, so its
    partition weight sum_s (-p_s - m + s - 1) is the weighted degree of tau.
    """
    pivots = sorted(min(row) for row in _echelon(vectors, tail))
    m = tail + len(pivots)
    return m, sum(-p - m + s for s, p in enumerate(pivots))


# -- suite and lax: companion triples from the corpus -----------------------

# Slot signature: (k, n, wdeg tau, terms of tau, (wdeg, terms) of the rho
# and of the sigma companions).  Within one signature the cost of a job
# varies by a few percent; across signatures by 100x, so fixing the
# signatures of a round is what keeps rounds from different seeds alike.
# Entries: (signature, genuine jobs, rejected jobs).  The counts put the
# middle job and the job at the tail percentile (p75) inside a run of
# near-equal jobs: the 4-5 cheap rejected (suite) or genuine (lax) jobs of
# one signature for the median, 3 jobs of one or two equal-cost signatures
# for p75.  So job_p50_s and job_tail_s do not jump across a gap between
# signatures from run to run.  The corpus holds 64 triples of every
# signature; the points behind them are drawn with the *_POINTS bounds.
SUITE_RECIPE = (
    ((1, 1, 3, 5, ((4, 6),), ((0, 1),)), 1, 1),
    ((1, 1, 3, 6, ((4, 9),), ((0, 1),)), 1, 1),
    ((1, 2, 3, 5, ((1, 1), (3, 6)), ((1, 2), (3, 4))), 1, 1),
    ((1, 2, 4, 6, ((2, 2), (3, 5)), ((2, 3), (3, 4))), 1, 1),
    ((1, 2, 4, 9, ((1, 1), (4, 11)), ((2, 4), (5, 15))), 0, 1),
    ((2, 1, 3, 6, ((3, 5),), ((0, 1),)), 1, 1),
    ((2, 1, 3, 7, ((0, 1),), ((3, 5),)), 1, 1),
    ((2, 1, 4, 8, ((5, 13),), ((0, 1),)), 0, 1),
    ((2, 1, 4, 9, ((1, 1),), ((4, 11),)), 1, 4),
    ((2, 1, 4, 9, ((5, 15),), ((0, 1),)), 3, 0),
    ((2, 2, 4, 7, ((2, 4), (3, 3)), ((2, 3), (3, 4))), 2, 1),
)
SUITE_POINTS = {"max_extras": 3, "span": 5, "max_weight": 4}

LAX_RECIPE = (
    ((1, 1, 1, 2, ((0, 1),), ((0, 1),)), 1, 1),
    ((1, 1, 2, 3, ((2, 3),), ((0, 1),)), 1, 1),
    ((1, 1, 2, 3, ((2, 4),), ((0, 1),)), 1, 1),
    ((1, 1, 2, 4, ((0, 1),), ((2, 4),)), 1, 1),
    ((1, 1, 2, 4, ((2, 4),), ((0, 1),)), 4, 2),
    ((2, 0, 1, 2, (), ()), 1, 0),
    ((2, 1, 2, 3, ((1, 1),), ((0, 1),)), 1, 1),
    ((2, 1, 2, 3, ((1, 2),), ((0, 1),)), 2, 1),
    ((2, 1, 2, 4, ((0, 1),), ((1, 2),)), 3, 0),
    ((2, 1, 2, 4, ((1, 2),), ((0, 1),)), 1, 0),
    ((3, 0, 1, 2, (), ()), 2, 0),
)
LAX_POINTS = {"max_extras": 2, "span": 4, "max_weight": 3}
LAX_ORDER = 5


RECIPES = {"suite": (SUITE_RECIPE, SUITE_POINTS), "lax": (LAX_RECIPE, LAX_POINTS)}
CORPUS = Path(__file__).resolve().parent / "corpus"


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


@lru_cache(maxsize=None)
def corpus(workload: str) -> dict[tuple, tuple[str, ...]]:
    """Lines of the committed corpus, one companion triple each, by signature.

    Kept as text and parsed when a job is made, so the corpus adds little
    to the process's resident set.
    """
    out: dict[tuple, list[str]] = {}
    with open(CORPUS / f"{workload}.jsonl") as fh:
        for line in fh:
            out.setdefault(_tuples(json.loads(line)["sig"]), []).append(line)
    return {sig: tuple(lines) for sig, lines in out.items()}


def suite_verdict(n: int, accept: bool) -> list:
    """Check ids and pass flags of ``verify`` on n companion pairs."""
    ids = (["KP", "constrained-k"]
           + [f"rho_{j}" for j in range(1, n + 1)]
           + [f"sigma_{j}" for j in range(1, n + 1)]
           + ["fermionic-KP", "fermionic-constrained-k"]
           + [f"fermionic-rho_{j}" for j in range(1, n + 1)]
           + [f"fermionic-sigma_{j}" for j in range(1, n + 1)])
    return [[i, accept or not i.endswith("constrained-k")] for i in ids]


def lax_verdict(n: int, k: int, accept: bool) -> list:
    """Report ids and pass flags of ``lax`` on n companion pairs."""
    out = [[f"constraint-k{k}", accept], [f"lax-flow-t{k}", True]]
    for j in range(1, n + 1):
        out += [[f"q_{j}-flow-t{k}", True], [f"r_{j}-flow-t{k}", True]]
    return out


def _companion_job(workload: str, sig: tuple, line: str, accept: bool) -> Job:
    k = sig[0]
    entry = json.loads(line)
    rhos, sigmas = entry["rho"], entry["sigma"]
    if not accept:
        # always the last pair, so the cost of a slot does not hang on a choice
        rhos, sigmas = rhos[:-1], sigmas[:-1]
    n = len(rhos)
    files = [("tau.json", _dump(entry["tau"]))]
    argv = [workload if workload == "lax" else "verify", "--tau", "@tau.json"]
    for j, (r, s) in enumerate(zip(rhos, sigmas), start=1):
        files += [(f"rho{j}.json", _dump(r)), (f"sigma{j}.json", _dump(s))]
        argv += ["--rho", f"@rho{j}.json", "--sigma", f"@sigma{j}.json"]
    argv += ["--k", str(k)]
    if workload == "lax":
        argv += ["--order", str(LAX_ORDER)]
        verdict = lax_verdict(n, k, accept)
    else:
        verdict = suite_verdict(n, accept)
    label = "k{} n{} w{} t{} rho{} sigma{}".format(
        *sig[:4], *(",".join(f"{w}:{t}" for w, t in part) for part in sig[4:]))
    if not accept:
        label += " drop"
    return Job(label, tuple(argv), tuple(files), 0 if accept else 1,
               verdict, accept)


def _corpus_order(workload: str, seed: int, sig: tuple) -> list[str]:
    """The seed's permutation of one signature's triples."""
    triples = corpus(workload)[sig]
    return _rng("order", workload, seed, sig).sample(triples, len(triples))


def _companion_round(workload: str, seed: int, index: int | None,
                     seen: set[str]) -> list[Job] | None:
    """Round ``index`` of the timed list, or the warm-up when index is None.

    Position 0 of each signature's permutation is the warm-up's genuine
    job; timed round r takes the next ``genuine + rejected`` positions
    after those of rounds 0..r-1.  A triple is used once per run.  None
    when the corpus has no triples left for the round.
    """
    recipe, _ = RECIPES[workload]
    jobs = []
    for sig, genuine, rejected in recipe:
        order = _corpus_order(workload, seed, sig)
        if index is None:
            slots = [(order[0], True)]
        else:
            first = 1 + index * (genuine + rejected)
            if first + genuine + rejected > len(order):
                return None
            picked = order[first:first + genuine + rejected]
            slots = [(e, i < genuine) for i, e in enumerate(picked)]
        for line, accept in slots:
            job = _companion_job(workload, sig, line, accept)
            if job.key in seen:
                raise RuntimeError(f"{workload}: corpus repeats {job.label}")
            seen.add(job.key)
            jobs.append(job)
    return jobs


# -- construct: chain matrices and filtration data of larger points ---------

# A round holds every slot three times, copy c in 0..2.  The cost of a job
# grows about twofold per unit of tau weight, so each accepted slot fixes
# the weight of every copy, as the suite and lax signatures do.  Then a
# round costs the same whatever the seed, and the heaviest jobs, two 7x4
# matrices of weight 12 (3.5% of a round, each about three times the cost
# of any other job), hold job_tail_s (p99) inside one block of jobs.
# (k, rows M, cols N, chain violations v, allowed n, tau weight of each
# copy); n < v is rejected before tau is built, so its weight is free.
MATRIX_RECIPE = (
    (1, 5, 2, 1, 1, (2, 4, 6)), (1, 6, 3, 1, 1, (3, 6, 9)),
    (1, 6, 3, 2, 1, None), (1, 7, 3, 2, 2, (5, 7, 9)),
    (2, 6, 3, 0, 0, (1, 3, 6)), (2, 7, 3, 1, 1, (4, 7, 9)),
    (2, 7, 3, 1, 0, None), (2, 7, 4, 2, 2, (8, 12, 12)),
    (3, 7, 3, 1, 1, (4, 7, 10)), (3, 8, 4, 2, 1, None),
)
# (action, k) for ``grass``, with the tau weight of the point of each copy.
GRASS_RECIPE = tuple((action, k) for action in ("min-n", "companions", "dtk")
                     for k in (1, 2, 3))
GRASS_WEIGHTS = (1, 3, 6)
CONSTRUCT_POINTS = {"max_extras": 4, "span": 6}
COPIES = 3


def chain_matrix(rng: random.Random, k: int, M: int, N: int, v: int
                 ) -> tuple[list[list[int]], list[int]]:
    """M x N matrix made of chains A, RA, R^2A, ..., with v cut short.

    R moves row i + k to row i.  Every column has its own top (last
    nonzero row), so the columns are independent.  A chain that is cut
    short ends in a column whose shift is nonzero and whose top is no
    column's top, so it neither chains nor duplicates: that column is a
    violation.  Returns the columns' entries by row and the violating
    column numbers (1-based).
    """
    for _ in range(10000):
        used: set[int] = set()
        banned: set[int] = set()
        columns: list[list[int]] = []
        violations: list[int] = []
        cuts = v
        while len(columns) < N:
            free = [t for t in range(M) if t not in used and t not in banned]
            if not free:
                break
            top = rng.choice(free)
            full = top // k + 1
            length = min(full, N - len(columns))
            if cuts and full > 1 and rng.random() < 0.5:
                length = rng.randint(1, min(full - 1, N - len(columns)))
            if any(top - j * k in used | banned for j in range(length)):
                break
            cut = length < full
            if cut and (cuts == 0 or top - length * k in used):
                break
            head = [rng.randint(-3, 3) for _ in range(top)] + \
                [rng.choice([1, -1, 2, 3])] + [0] * (M - top - 1)
            for j in range(length):
                columns.append([head[i + j * k] if i + j * k < M else 0
                                for i in range(M)])
                used.add(top - j * k)
            if cut:
                cuts -= 1
                banned.add(top - length * k)
                violations.append(len(columns))
        if len(columns) == N and cuts == 0:
            return [list(row) for row in zip(*columns)], violations
    raise RuntimeError(f"no chain matrix for k={k} M={M} N={N} v={v}")


def matrix_weight(rows: list[list[int]]) -> int:
    """Weight of the tau that ``tau-from-matrix`` builds from rows.

    Row l of column j is the coefficient of s**(N-l) in the j-th vector of
    a point with tail level -N.
    """
    N = len(rows[0])
    vectors = [{N - l: row[j] for l, row in enumerate(rows, start=1) if row[j]}
               for j in range(N)]
    return pivot_weight(-N, vectors)[1]


def _matrix_job(rng: random.Random, slot: tuple, copy: int) -> Job:
    k, M, N, v, n, weights = slot
    weight = weights[copy % COPIES] if weights else None
    while True:
        rows, violations = chain_matrix(rng, k, M, N, v)
        if weight is None or matrix_weight(rows) == weight:
            break
    payload = {"rows": M, "cols": N,
               "entries": [[str(x) for x in row] for row in rows]}
    accept = v <= n
    verdict = {"rows": M, "cols": N, "k": k, "violations": violations}
    label = f"matrix k{k} {M}x{N} v{v} n{n}"
    if weight is not None:
        label += f" w{weight}"
    return Job(label,
               ("tau-from-matrix", "--matrix", "@matrix.json",
                "--k", str(k), "--n", str(n)),
               (("matrix.json", _dump(payload)),), 0 if accept else 1,
               verdict, accept)


def _grass_job(rng: random.Random, slot: tuple, copy: int) -> Job:
    action, k = slot
    while True:
        tail, vectors = random_vectors(rng, CONSTRUCT_POINTS["max_extras"],
                                       CONSTRUCT_POINTS["span"])
        m, weight = pivot_weight(tail, vectors)
        if weight == GRASS_WEIGHTS[copy % COPIES]:
            break
    n = filtration_level(tail, vectors, k)
    rows = []
    for vec in vectors:
        lo, hi = min(vec), max(vec)
        rows.append({"minExp": lo, "coefs": [str(vec.get(e, 0))
                                             for e in range(lo, hi + 1)]})
    if action == "min-n":
        verdict = {"n": n, "charge": m}
    elif action == "companions":
        verdict = {"tau": m, "rho": [m + 1] * n, "sigma": [m - k - 1] * n}
    else:
        # every complement factor's s**k image leaves the point, so each
        # of the n summands is a nonzero wedge at the point's charge
        verdict = [m] * n
    return Job(f"grass {action} k{k} w{weight}",
               ("grass", action, "--grpoint", "@point.json", "--k", str(k)),
               (("point.json", _dump({"tail": tail, "basis": rows})),),
               0, verdict, True)


def _construct_round(rng: random.Random, seen: set[str], copies: int) -> list[Job]:
    jobs = []
    for copy in range(copies):
        for make, recipe in ((_matrix_job, MATRIX_RECIPE),
                             (_grass_job, GRASS_RECIPE)):
            for slot in recipe:
                for _ in range(1000):
                    job = make(rng, slot, copy)
                    if job.key not in seen:
                        break
                else:
                    raise RuntimeError(f"construct: no fresh input for {slot}")
                seen.add(job.key)
                jobs.append(job)
    return jobs


# -- rounds ---------------------------------------------------------------------

def timed_round(workload: str, seed: int, index: int, seen: set[str]
                ) -> list[Job] | None:
    """Round ``index`` of the timed job list, or None when the corpus is spent.

    Adds the keys it uses to ``seen``, so the timed list has no duplicate
    and shares no job with the warm-up.  Construct rounds never run out.
    """
    rng = _rng("timed", workload, seed, index)
    if workload == "construct":
        jobs = _construct_round(rng, seen, COPIES)
    else:
        jobs = _companion_round(workload, seed, index, seen)
        if jobs is None:
            return None
    rng.shuffle(jobs)
    return jobs


def warmup_round(workload: str, seed: int, seen: set[str]) -> list[Job]:
    """Warm-up jobs that no timed round of the same seed repeats.

    One genuine job per signature for suite and lax, two rounds' worth of
    slots, from a stream of their own, for the cheap construct jobs.
    """
    if workload == "construct":
        return _construct_round(_rng("warmup", workload, seed), seen,
                                2 * COPIES)
    return _companion_round(workload, seed, None, seen)
