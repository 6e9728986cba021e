"""Regenerate the fixed suite and lax input corpus under ``bench/corpus/``.

    python3 bench/make_corpus.py

The benchmark never runs this: it reads the committed corpus, so the
parent and a change get byte-identical inputs for the same seed, however
the change computes companions, normalises or serialises polynomials.
This script is how the corpus was made.  It draws seeded points of the
Grassmannian, computes each point's tau with its companion pairs with the
``tauforge`` of this checkout, and keeps ``PER_SIGNATURE`` distinct triples
for every signature that a workload's recipe names.  Expected verdicts
are not stored; they follow from the signature and whether a pair is
dropped (``workloads.suite_verdict``, ``workloads.lax_verdict``).
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from tauforge.grassmann import companions, reduce_point  # noqa: E402

import workloads  # noqa: E402

PER_SIGNATURE = 64
ATTEMPTS = 400_000


def signature(k: int, tau, rhos, sigmas) -> tuple:
    def shape(polys):
        return tuple(sorted((c.poly.wdeg(), len(c.poly.terms)) for c in polys))
    return (k, len(rhos), tau.poly.wdeg(), len(tau.poly.terms),
            shape(rhos), shape(sigmas))


def make(workload: str) -> list[dict]:
    recipe, params = workloads.RECIPES[workload]
    wanted = {sig: [] for sig, _, _ in recipe}
    ks = sorted({sig[0] for sig in wanted})
    seen: set[str] = set()
    rng = random.Random(f"tauforge-bench/corpus/{workload}")
    for _ in range(ATTEMPTS):
        if all(len(v) >= PER_SIGNATURE for v in wanted.values()):
            break
        tail, vectors = workloads.random_vectors(rng, params["max_extras"],
                                                 params["span"])
        _, weight = workloads.pivot_weight(tail, vectors)
        if not 1 <= weight <= params["max_weight"]:
            continue
        point = reduce_point(vectors, tail)
        for k in ks:
            triple = companions(point, k)
            sig = signature(k, *triple)
            if sig not in wanted or len(wanted[sig]) >= PER_SIGNATURE:
                continue
            tau, rhos, sigmas = triple
            entry = {"sig": sig, "tau": tau.to_json(),
                     "rho": [r.to_json() for r in rhos],
                     "sigma": [s.to_json() for s in sigmas]}
            text = json.dumps(entry, sort_keys=True)
            if text not in seen:
                seen.add(text)
                wanted[sig].append(entry)
    short = {sig: len(v) for sig, v in wanted.items() if len(v) < PER_SIGNATURE}
    if short:
        raise SystemExit(f"{workload}: too few triples for {short}")
    return [entry for sig, _, _ in recipe for entry in wanted[sig]]


def main() -> int:
    (BENCH / "corpus").mkdir(exist_ok=True)
    for workload in ("suite", "lax"):
        entries = make(workload)
        path = BENCH / "corpus" / f"{workload}.jsonl"
        path.write_text("".join(json.dumps(e, sort_keys=True, separators=(",", ":"))
                                + "\n" for e in entries))
        print(f"{path}: {len(entries)} triples")
    return 0


if __name__ == "__main__":
    sys.exit(main())
