"""Correctness gate: exit code and verdict projection of each job.

The projection keeps what a verdict means and drops how it was reached:
check ids with their pass flags, counts and charges.  Witness rendering
and the ``method`` labels of the Lax report are left out, so a change
that proves the same facts another way still passes; the sha256 digest
of the full report is recorded beside it, which is how byte-identical
reports are shown without gating on them.
"""

from __future__ import annotations

import hashlib
import json


def project(argv, stdout: str):
    """Verdict projection of a report printed by ``tauforge <argv>``."""
    data = json.loads(stdout)
    command = argv[0]
    if command == "verify":
        return [[c["id"], c["pass"]] for c in data["checks"]]
    if command == "lax":
        reports = [data["constraint"], *data["flows"]]
        return [[r["id"], r["pass"]] for r in reports]
    if command == "tau-from-matrix":
        return data["report"]
    if command == "grass":
        action = argv[1]
        if action == "min-n":
            return {"n": data["n"], "charge": data["charge"]}
        if action == "companions":
            return {"tau": data["tau"]["charge"],
                    "rho": [r["charge"] for r in data["rho"]],
                    "sigma": [s["charge"] for s in data["sigma"]]}
        return [p["charge"] for p in data["parts"]]
    raise ValueError(f"no projection for command {command!r}")


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def check(job, exit_code: int | None, stdout: str) -> str | None:
    """None when the job produced its expected verdict, else the reason."""
    if exit_code is None:
        return "raised an exception"
    if exit_code != job.expect_exit:
        return f"exit {exit_code}, expected {job.expect_exit}"
    try:
        got = project(job.argv, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable report ({exc.__class__.__name__}: {exc})"
    if got != job.expect_verdict:
        return f"verdict {got}, expected {job.expect_verdict}"
    return None


def orders_by_method(stdout: str) -> dict[str, int]:
    """Order checks in a ``lax`` report, split by how each was decided."""
    data = json.loads(stdout)
    out = {"checked": 0, "prefilter_rejected": 0, "exact": 0}
    for report in [data["constraint"], *data["flows"]]:
        for order in report["orders"]:
            out["checked"] += 1
            if order["method"] == "evaluation":
                out["prefilter_rejected"] += 1
            else:
                out["exact"] += 1
    return out
