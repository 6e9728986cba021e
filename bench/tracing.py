"""Per-layer spans recorded from outside the program.

The recorder wraps public functions of the ``tauforge`` layers and
rebinds each wrapper under every name that held the original in a
loaded ``tauforge.*`` module (``miwa_shift`` in ``hirota`` and ``psdo``,
``divexact`` in ``ratfun``, ``MPoly.__rmul__`` beside ``__mul__``, ...),
so calls made inside the program are seen as well as calls from the
CLI.  ``uninstall`` puts every original back.  A target that this
checkout no longer has (a module retired, a method folded into another)
is skipped and listed in ``missing``; its metrics read 0.

Coarse functions get one span per call: name, start, end, parent span
and job id, kept in memory and written out by ``dump``.  The hot
arithmetic functions (``FINE``) are called up to millions of times per
job, so they are kept as one rollup per enclosing coarse span and name
(calls, total time, self time, sizes), which bounds memory by the number
of coarse spans.  Self time is a call's duration minus the time covered
by its child calls; calls nest and run on one thread, so the covered
time is the sum of the children's durations.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _pairs(self, other, result):
    if hasattr(other, "terms"):
        return {"term_pairs": len(self.terms) * len(other.terms)}
    return {"term_pairs": len(self.terms)}


# span name -> (module, qualified attribute, sizes(args..., result) or None)
TRACED = {
    "cli.main": ("tauforge.cli", "main", None),
    "hirota.bilinear_residue": ("tauforge.hirota", "bilinear_residue", None),
    "zseries.mul": ("tauforge.zseries", "ZSeries.__mul__",
                    lambda a, b, r: {"orders_out": len(r.coeffs)}),
    "psdo.compose": ("tauforge.psdo", "PsiDO.__mul__", None),
    "psdo.inverse": ("tauforge.psdo", "PsiDO.inverse", None),
    "psdo.pow": ("tauforge.psdo", "PsiDO.__pow__", None),
    "psdo.dress_from_tau": ("tauforge.psdo", "dress_from_tau", None),
    "psdo.verify_constraint": ("tauforge.psdo", "verify_constraint", None),
    "psdo.verify_flows": ("tauforge.psdo", "verify_flows", None),
    "ratfun.mul": ("tauforge.ratfun", "RatFun.__mul__", None),
    "ratfun.add": ("tauforge.ratfun", "RatFun.__add__", None),
    "ratfun.differentiate": ("tauforge.ratfun", "RatFun.differentiate", None),
    "mpoly.divexact": ("tauforge.mpoly", "divexact",
                       lambda p, d, r: {"hits": int(r is not None)}),
    "mpoly.mul": ("tauforge.mpoly", "MPoly.__mul__", _pairs),
    "mpoly.add": ("tauforge.mpoly", "MPoly.__add__", None),
    "grassmann.stable_subspace": ("tauforge.grassmann", "stable_subspace", None),
    "grassmann.companions": ("tauforge.grassmann", "companions", None),
    "grassmann.dtk_decomposition": ("tauforge.grassmann", "dtk_decomposition",
                                    None),
    "grassmann.generate_from_matrix": ("tauforge.grassmann",
                                       "generate_from_matrix", None),
    "fock.wedge_vector": ("tauforge.fock", "wedge_vector", None),
    "fock.poly_to_fock": ("tauforge.fock", "poly_to_fock", None),
    "fock.fermionic_pairing": ("tauforge.fock", "fermionic_pairing",
                               lambda u, v, *rest: {
                                   "state_pairs": len(u.terms) * len(v.terms)}),
    "schur.schur_expand": ("tauforge.schur", "schur_expand", None),
    "schur.miwa_shift": ("tauforge.schur", "miwa_shift", None),
    "schur.xi_kernel": ("tauforge.schur", "xi_kernel", None),
}

FINE = {"mpoly.mul", "mpoly.add", "mpoly.divexact", "ratfun.mul", "ratfun.add",
        "ratfun.differentiate", "zseries.mul", "psdo.compose"}


class Recorder:
    """Spans and rollups of the traced calls, tagged with the current job."""

    def __init__(self):
        # span: [name, start, end, parent span or -1, job, self_s, sizes]
        self.spans: list[list] = []
        # (enclosing coarse span or -1, name) -> [calls, total_s, self_s, sizes]
        self.rollups: dict[tuple[int, str], list] = {}
        self.job: str | None = None
        self._frames: list[list] = []  # [start, child_s, coarse span in effect]
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def install(self) -> None:
        """Wrap every ``TRACED`` target that this checkout has."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        owners = {}
        self.missing = []
        for name, (module, attr, _) in TRACED.items():
            *path, leaf = attr.split(".")
            try:
                owner = importlib.import_module(module)
                for part in path:
                    owner = getattr(owner, part)
                vars(owner)[leaf]
            except (ImportError, AttributeError, KeyError, TypeError):
                self.missing.append(name)
                continue
            owners[name] = (owner, leaf, bool(path))
        modules = [m for key, m in list(sys.modules.items())
                   if key == "tauforge" or key.startswith("tauforge.")]
        for name, (owner, leaf, is_method) in owners.items():
            original = vars(owner)[leaf]
            wrapper = self._wrap(name, original, TRACED[name][2])
            for target in [owner] if is_method else modules:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, key, original))
                        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def _wrap(self, name, fn, sizes):
        fine = name in FINE
        frames, spans, rollups = self._frames, self.spans, self.rollups
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = frames[-1] if frames else None
            owner = parent[2] if parent else -1
            start = clock()
            if fine:
                frame = [start, 0.0, owner]
            else:
                frame = [start, 0.0, len(spans)]
                spans.append([name, start, None, owner, self.job, 0.0, None])
            frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                if fine:
                    stats = rollups.get((owner, name))
                    if stats is None:
                        stats = rollups[(owner, name)] = [0, 0.0, 0.0, {}]
                    stats[0] += 1
                    stats[1] += duration
                    stats[2] += duration - frame[1]
                else:
                    span = spans[frame[2]]
                    span[2] = end
                    span[5] = duration - frame[1]
            if sizes is not None:
                try:
                    extra = sizes(*args, result)
                except (AttributeError, TypeError):  # the shapes have changed
                    extra = {}
                if fine:
                    for k, v in extra.items():
                        stats[3][k] = stats[3].get(k, 0) + v
                else:
                    spans[frame[2]][6] = extra
            return result

        return wrapper

    def totals(self) -> dict[str, dict[str, float]]:
        """Per name: calls, self_s, total_s (outermost calls only), sizes.

        A rollup also counts under ``name@parent`` (the enclosing coarse
        span's name), which is how ratios confined to one caller are read.
        """
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})

        def add(row, calls, self_s, total_s, sizes):
            row["calls"] += calls
            row["self_s"] += self_s
            row["total_s"] += total_s
            for k, v in (sizes or {}).items():
                row[k] = row.get(k, 0) + v

        for name, start, end, parent, _job, self_s, sizes in self.spans:
            outer = not self._has_ancestor(parent, name)
            add(out[name], 1, self_s, end - start if outer else 0.0, sizes)
        for (span, name), (calls, total, self_s, sizes) in self.rollups.items():
            add(out[name], calls, self_s, total, sizes)
            if span >= 0:
                add(out[f"{name}@{self.spans[span][0]}"], calls, self_s, total,
                    sizes)
        return out

    def _has_ancestor(self, index: int, name: str) -> bool:
        while index >= 0:
            span = self.spans[index]
            if span[0] == name:
                return True
            index = span[3]
        return False

    def dump(self, path: Path) -> None:
        """Write spans, then rollups, as JSON lines."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, job, self_s, sizes) in \
                    enumerate(self.spans):
                fh.write(json.dumps({"span": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "job": job,
                                     "self_s": self_s, **(sizes or {})}) + "\n")
            for (span, name), (calls, total, self_s, sizes) in \
                    self.rollups.items():
                fh.write(json.dumps({"rollup": name, "parent": span,
                                     "calls": calls, "total_s": total,
                                     "self_s": self_s, **sizes}) + "\n")
