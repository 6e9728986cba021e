import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest

import tauforge
import tauforge.cli as cli
import tauforge.grassmann as grassmann
import tauforge.psdo as psdo
from tauforge.cli import main
from tauforge.fock import FockVector
from tauforge.grassmann import GrPoint, companions, reduce_point
from tauforge.hirota import verify_suite
from tauforge.mpoly import MPoly, dot
from tauforge.zseries import ZSeries
from tauforge.schur import ChargedPoly, Partition, schur_of_partition
from tauforge.psdo import TruncationError, verify_lax

from conftest import refute


@pytest.fixture
def golden_files(tmp_path, golden_point):
    tau, rhos, sigmas = companions(golden_point, 1)
    paths = {}
    for name, payload in [
        ("tau", tau.to_json()),
        ("rho", rhos[0].to_json()),
        ("sigma", sigmas[0].to_json()),
        ("point", golden_point.to_json()),
        ("matrix", {"rows": 3, "cols": 1, "entries": [["0"], ["0"], ["1"]]}),
        ("unit", {"rows": 3, "cols": 1, "entries": [["1"], ["0"], ["0"]]}),
        ("rankdef", {"rows": 3, "cols": 2,
                     "entries": [["0", "0"], ["0", "0"], ["1", "1"]]}),
        ("vector", [{"state": {"charge": 0, "partition": []}, "coef": "1"}]),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTauFromMatrix:
    def test_top_column(self, capsys, golden_files):
        code, out, _ = run(capsys, ["tau-from-matrix", "--matrix",
                                    golden_files["matrix"], "--k", "1", "--n", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["violations"] == [1]
        terms = {tuple(t["exp"]): t["coef"]
                 for t in payload["tau"]["poly"]["terms"]}
        assert terms == {(2, 0): "1/2", (0, 1): "1"}

    def test_unit_column(self, capsys, golden_files):
        code, out, _ = run(capsys, ["tau-from-matrix", "--matrix",
                                    golden_files["unit"], "--k", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["violations"] == []
        assert payload["tau"]["poly"]["terms"] == [{"exp": [0, 0], "coef": "1"}]

    def test_rank_deficiency_exits_one(self, capsys, golden_files):
        code, out, _ = run(capsys, ["tau-from-matrix", "--matrix",
                                    golden_files["rankdef"], "--k", "1", "--n", "2"])
        assert code == 1
        assert "rank" in json.loads(out)["error"]

    def test_violation_budget_exits_one(self, capsys, golden_files):
        code, out, _ = run(capsys, ["tau-from-matrix", "--matrix",
                                    golden_files["matrix"], "--k", "1", "--n", "0"])
        assert code == 1
        assert json.loads(out)["report"]["violations"] == [1]

    def test_duplicate_shift_exits_one(self, capsys, tmp_path):
        # columns (e_2, e_3): R A_2 = e_2 = A_1
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"rows": 3, "cols": 2,
                                    "entries": [["0", "0"], ["1", "0"], ["0", "1"]]}))
        code, out, _ = run(capsys, ["tau-from-matrix", "--matrix", str(path),
                                    "--k", "1", "--n", "2"])
        assert code == 1
        assert "duplicates" in json.loads(out)["error"]

    @pytest.mark.parametrize("rows,cols,entries", [
        (2, 3, [["1", "0", "0"], ["0", "1", "0"]]),
        (0, 0, []),
    ])
    def test_malformed_shape_exits_two(self, capsys, tmp_path, rows, cols, entries):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"rows": rows, "cols": cols, "entries": entries}))
        code, out, err = run(capsys, ["tau-from-matrix", "--matrix", str(path),
                                      "--k", "1"])
        assert (code, out) == (2, "")
        assert err == (f"input error: {path}: need rows > cols > 0, "
                       f"got {rows} x {cols}\n")


class TestVerify:
    def test_passing_suite(self, capsys, golden_files):
        code, out, _ = run(capsys, ["verify", "--tau", golden_files["tau"],
                                    "--rho", golden_files["rho"],
                                    "--sigma", golden_files["sigma"], "--k", "1"])
        assert code == 0
        payload = json.loads(out)
        assert all(c["pass"] for c in payload["checks"])

    def test_failing_suite_with_witness(self, capsys, golden_files):
        code, out, _ = run(capsys, ["verify", "--tau", golden_files["tau"],
                                    "--k", "1"])
        assert code == 1
        failing = [c for c in json.loads(out)["checks"] if not c["pass"]]
        assert failing and "witness" in failing[0]

    def test_malformed_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run(capsys, ["verify", "--tau", str(bad), "--k", "1"])
        assert code == 2
        assert "input error" in err

    def test_square_monomial_reports_kp_witness(self, capsys, tmp_path):
        square = tmp_path / "square.json"
        square.write_text(json.dumps(
            {"charge": 0, "poly": {"vars": 1,
                                   "terms": [{"exp": [2], "coef": "1"}]}}))
        code, out, _ = run(capsys, ["verify", "--tau", str(square), "--k", "1"])
        assert code == 1
        checks = {c["id"]: c for c in json.loads(out)["checks"]}
        assert not checks["KP"]["pass"]
        assert checks["KP"]["witness"]["terms"]

    def test_window_fault_is_internal_error(self, capsys, tmp_path, short_window):
        square = tmp_path / "square.json"
        square.write_text(json.dumps(
            {"charge": 0, "poly": {"vars": 1,
                                   "terms": [{"exp": [2], "coef": "1"}]}}))
        code, out, err = run(capsys, ["verify", "--tau", str(square), "--k", "1"])
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: ExactnessError")
        assert "input error" not in err and "Traceback" not in err

    @pytest.mark.parametrize("tau", ["golden", "S21"])
    def test_window_fault_on_kp_tau(self, capsys, tmp_path, golden_files, tau,
                                    short_window):
        # every identity of a KP tau passes, so only the window guard on the
        # wave factors' reads can fault
        path = golden_files["tau"]
        if tau == "S21":
            path = tmp_path / "s21.json"
            s21 = ChargedPoly(schur_of_partition(Partition((2, 1)), 3), 0)
            path.write_text(json.dumps(s21.to_json()))
        code, out, err = run(capsys, ["verify", "--tau", str(path), "--k", "2"])
        assert (code, out) == (3, "")
        assert err.startswith("internal error: ExactnessError")

    @pytest.mark.parametrize("pair,doubled", [(True, False), (False, True)])
    def test_products_in_the_doubled_space(self, capsys, golden_files, monkeypatch,
                                           pair, doubled):
        # a passing job decides every identity on D-variable factors; only a
        # failure expands its witness over 2D variables (D = 4 here: tau,
        # rho and sigma have weights 2, 2 and 0)
        argv = ["verify", "--tau", golden_files["tau"], "--k", "1"]
        if pair:
            argv += ["--rho", golden_files["rho"], "--sigma", golden_files["sigma"]]
        seen = set()

        def spy(product):
            def mul(a, b):
                if isinstance(b, type(a)):
                    seen.add(a.vars)
                return product(a, b)
            return mul

        def spy_dot(vars, pairs):
            seen.add(vars)
            return dot(vars, pairs)

        for cls in (MPoly, ZSeries):
            monkeypatch.setattr(cls, "__mul__", spy(cls.__mul__))
        # each module that imports the kernel calls it by its own name
        for name, module in list(sys.modules.items()):
            if name.startswith("tauforge.") and getattr(module, "dot", None) is dot:
                monkeypatch.setattr(module, "dot", spy_dot)
        code, _, _ = run(capsys, argv)
        assert code == (0 if pair else 1)
        assert (8 in seen) == doubled

    def test_zero_tau_rejected(self, capsys, tmp_path):
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"charge": 0, "poly": {"vars": 3, "terms": []}}))
        code, out, err = run(capsys, ["verify", "--tau", str(zero), "--k", "1"])
        assert (code, out, err) == (2, "", "input error: tau must be nonzero\n")

    def test_byte_identical_reruns(self, capsys, golden_files):
        argv = ["verify", "--tau", golden_files["tau"],
                "--rho", golden_files["rho"],
                "--sigma", golden_files["sigma"], "--k", "1"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestRationalInput:
    """A rational that is not a "p/q" string with nonzero q, or an integer
    that is not a JSON int in range, is an input error."""

    @pytest.mark.parametrize("command,flag,payload", [
        ("verify", "--tau", {"charge": 0, "poly": {"vars": 1, "terms": [
            {"exp": [1], "coef": "1/0"}]}}),
        ("verify", "--tau", {"charge": 0, "poly": {"vars": 1, "terms": [
            {"exp": [1], "coef": 2}]}}),
        ("tau-from-matrix", "--matrix",
         {"rows": 3, "cols": 1, "entries": [["1/0"], ["0"], ["1"]]}),
        ("tau-from-matrix", "--matrix",
         {"rows": 3, "cols": 1, "entries": [[1.5], ["0"], ["1"]]}),
        ("grass min-n", "--grpoint",
         {"tail": -1, "basis": [{"minExp": -2, "coefs": ["1/0"]}]}),
        ("verify", "--tau", {"charge": 0, "poly": {"vars": 1, "terms": [
            {"exp": [0], "coef": "1"}, {"exp": [-1], "coef": "1"}]}}),
        ("lax", "--tau", {"charge": 0, "poly": {"vars": 1, "terms": [
            {"exp": [0], "coef": "1"}, {"exp": [-1], "coef": "1"}]}}),
        ("verify", "--tau", {"charge": 0, "poly": {"vars": 1, "terms": [
            {"exp": [1.7], "coef": "1"}]}}),
        ("verify", "--tau", {"charge": 0, "poly": {"vars": 1, "terms": [
            {"exp": [True], "coef": "1"}]}}),
        ("grass min-n", "--grpoint",
         {"tail": -1.5, "basis": [{"minExp": -2, "coefs": ["1"]}]}),
        ("grass min-n", "--grpoint",
         {"tail": -1, "basis": [{"minExp": -2.7, "coefs": ["1"]}]}),
        ("grass min-n", "--grpoint", None),
        ("grass companions", "--grpoint", [{"tail": -1}]),
        ("verify", "--tau", {"charge": 0, "poly": {"vars": 10**12, "terms": []}}),
        ("lax", "--tau", {"charge": 0, "poly": {"vars": cli.MAX_VARS + 1, "terms": [
            {"exp": [1] + [0] * cli.MAX_VARS, "coef": "1"}]}}),
        # a string or an object of coefficients was read key by key
        ("grass min-n", "--grpoint", {"tail": 0, "basis": [{"minExp": -3, "coefs": "121"}]}),
        ("grass min-n", "--grpoint",
         {"tail": 0, "basis": [{"minExp": -3, "coefs": {"1": 0, "2": 0}}]}),
    ])
    def test_exit_two_without_traceback(self, capsys, tmp_path, command, flag,
                                         payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, [*command.split(), flag, str(path), "--k", "1"])
        assert code == 2
        assert out == ""
        assert err.startswith("input error:")
        assert "Traceback" not in err

    def test_exponent_coefficient_exits_at_once(self, tmp_path):
        # Fraction("1e100000000") alone would build a 10**8-digit integer;
        # a child process keeps a hang from stalling the suite
        tau = tmp_path / "tau.json"
        tau.write_text(json.dumps({"charge": 0, "poly": {"vars": 1, "terms": [
            {"exp": [1], "coef": "1e100000000"}]}}))
        src = str(Path(tauforge.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", "tauforge.cli", "verify",
                               "--tau", str(tau), "--k", "1"],
                              capture_output=True, text=True, env=env, timeout=20)
        assert done.returncode == 2
        assert done.stderr.startswith("input error:") and "1e100000000" in done.stderr


class TestExponentRange:
    """An exponent outside 0..2**15 - 1, the range of a packed exponent
    field below its guard bit, is an input error."""

    @pytest.mark.parametrize("exponent", [2**15, 10**30, -1])
    @pytest.mark.parametrize("argv", [["verify", "--k", "1"], ["lax", "--k", "1"],
                                      ["dress"]])
    def test_exit_two_without_traceback(self, capsys, tmp_path, argv, exponent):
        path = tmp_path / "tau.json"
        path.write_text(json.dumps({"charge": 0, "poly": {"vars": 1, "terms": [
            {"exp": [exponent], "coef": "1"}]}}))
        code, out, err = run(capsys, [*argv, "--tau", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: {path}: bad polynomial payload")
        assert "Traceback" not in err


def _term(exp, coef="1"):
    return {"exp": exp, "coef": coef}


class TestPolynomialReader:
    """Each malformed polynomial payload gets the one message it always got:
    every item is parsed first, then the variable count is checked, then
    each term's exponent length and range, in file order."""

    BAD = "input error: {path}: bad polynomial payload ({reason})\n"

    @pytest.mark.parametrize("vars,terms,reason", [
        (1, [_term([True])], "expected a JSON integer, got True"),
        (1, [_term([1.5])], "expected a JSON integer, got 1.5"),
        (1, [_term(["1"])], "expected a JSON integer, got '1'"),
        (1, [_term([-1])], "expected an integer >= 0, got -1"),
        (1, [_term([2**15])], "exponent (32768,) has an entry outside 0..32767"),
        (2, [_term([1])], "exponent (1,) has length 1, expected 2"),
        (-1, [_term([1])], "variable count must be nonnegative, got -1"),
        (-1, [], "variable count must be nonnegative, got -1"),
        (1, [_term([1], "1/0")], "zero denominator in '1/0'"),
        (1, [_term([1], "1.5")], "rational must be a \"p/q\" string, got '1.5'"),
        (1, [_term([1], 2)], "rational must be a \"p/q\" string, got 2"),
        # a bad coefficient of a later item comes before an earlier range error
        (1, [_term([2**15]), _term([1], "x")], "rational must be a \"p/q\" string, got 'x'"),
        (1, [_term([2**15]), _term([1, 2])],
         "exponent (32768,) has an entry outside 0..32767"),
        (1, [_term([1, 2]), _term([2**15])], "exponent (1, 2) has length 2, expected 1"),
        (1, [_term([2**15, 0])], "exponent (32768, 0) has length 2, expected 1"),
        (2, [_term([0, True])], "expected a JSON integer, got True"),
        (1, [_term("12")], "an exponent must be a JSON list"),
        (1, [_term(3)], "an exponent must be a JSON list"),
        # each item's exponent is read before its coefficient, in file order
        (1, [_term([1], "x"), _term([-1])], "rational must be a \"p/q\" string, got 'x'"),
        (1, [_term([1]), _term([-1], "x")], "expected an integer >= 0, got -1"),
        # a string or a dict iterates: read as a list, "" is the constant term
        (0, [_term("")], "an exponent must be a JSON list"),
        (1, [_term({"a": 1})], "an exponent must be a JSON list"),
    ])
    def test_bad_payload_message(self, capsys, tmp_path, vars, terms, reason):
        path = tmp_path / "tau.json"
        path.write_text(json.dumps({"charge": 0, "poly": {"vars": vars, "terms": terms}}))
        code, out, err = run(capsys, ["verify", "--tau", str(path), "--k", "1"])
        assert (code, out) == (2, "")
        assert err == self.BAD.format(path=path, reason=reason)

    def test_vast_variable_count_meets_the_limit(self, capsys, tmp_path):
        # no exponent is packed, so 10**30 fields are never laid out
        path = tmp_path / "tau.json"
        path.write_text(json.dumps({"charge": 0, "poly": {"vars": 10**30, "terms": []}}))
        code, out, err = run(capsys, ["verify", "--tau", str(path), "--k", "1"])
        assert (code, out) == (2, "")
        assert err == (f"input error: {path}: {10**30} variables is above the "
                       f"limit {cli.MAX_VARS}\n")

    def test_duplicates_cancelling_to_zero(self, capsys, tmp_path):
        path = tmp_path / "tau.json"
        path.write_text(json.dumps({"charge": 0, "poly": {"vars": 1, "terms": [
            _term([1], "1/2"), _term([1], "-1/2")]}}))
        code, out, err = run(capsys, ["verify", "--tau", str(path), "--k", "1"])
        assert (code, out, err) == (2, "", "input error: tau must be nonzero\n")


class TestDeepNesting:
    """JSON nested past the decoder's recursion limit is an input error."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--tau", "deep", "--k", "1"],
        ["lax", "--tau", "deep", "--k", "1"],
        ["grass", "min-n", "--grpoint", "deep", "--k", "1"],
        ["tau-from-matrix", "--matrix", "deep", "--k", "1"],
        ["fock-apply", "--op", "Q", "--index", "1", "--vector", "deep"],
    ])
    def test_exit_two_without_traceback(self, capsys, tmp_path, golden_files, argv):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        files = {**golden_files, "deep": str(deep)}
        code, out, err = run(capsys, [files.get(a, a) for a in argv])
        assert (code, out) == (2, "")
        assert err.startswith("input error:") and "recursion" in err
        assert "Traceback" not in err


def monomial_file(path, weight: int) -> str:
    """t_1**weight at charge 0, written to path."""
    path.write_text(json.dumps({"charge": 0, "poly": {"vars": 1, "terms": [
        {"exp": [weight], "coef": "1"}]}}))
    return str(path)


class TestWeightBudget:
    """A --tau, --rho or --sigma file of weighted degree above MAX_WEIGHT is
    an input error that names the file, before any work."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--tau", "heavy", "--k", "1"],
        ["verify", "--tau", "tau", "--rho", "heavy", "--sigma", "sigma", "--k", "1"],
        ["lax", "--tau", "tau", "--rho", "rho", "--sigma", "heavy", "--k", "1"],
        ["lax", "--tau", "heavy", "--k", "1"],
        ["dress", "--tau", "heavy"],
    ])
    def test_above_the_limit(self, capsys, tmp_path, golden_files, argv):
        heavy = monomial_file(tmp_path / "heavy.json", cli.MAX_WEIGHT + 1)
        files = {**golden_files, "heavy": heavy}
        code, out, err = run(capsys, [files.get(a, a) for a in argv])
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: {heavy}: weighted degree "
                              f"{cli.MAX_WEIGHT + 1} is above the limit")

    @pytest.mark.parametrize("argv,expect", [
        (["verify", "--tau", "limit", "--k", "1"], 1),
        (["lax", "--tau", "limit", "--k", "1"], 1),
        (["dress", "--tau", "limit"], 0),
    ])
    def test_at_the_limit(self, capsys, tmp_path, argv, expect):
        # t_1**n is not a KP tau for n >= 2, so the checks run and fail
        files = {"limit": monomial_file(tmp_path / "limit.json", cli.MAX_WEIGHT)}
        code, _, err = run(capsys, [files.get(a, a) for a in argv])
        assert (code, err) == (expect, "")


class TestDepthBudget:
    """lax and dress refuse, before any work, a dressing deeper than MAX_DEPTH;
    the message names the flags that set the depth."""

    def test_largest_flags_exit_at_once(self, golden_files):
        # the largest --k with --order 64 asks for depth lax_depth(16, 64)
        # = 80.  A child process keeps a hang from stalling the suite
        src = str(Path(tauforge.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        k, order = cli.MAX_K, 64
        done = subprocess.run([sys.executable, "-m", "tauforge.cli", "lax",
                               "--tau", golden_files["tau"], "--k", str(k),
                               "--order", str(order)],
                              capture_output=True, text=True, env=env, timeout=20)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (f"input error: --k {k} and --order {order}: dressing "
                               f"depth {psdo.lax_depth(k, order)} is above the limit "
                               f"{cli.MAX_DEPTH}\n")

    # one past the limit along --order, along --k (MAX_K, the --order that
    # takes it over) and for dress
    @pytest.mark.parametrize("argv,depth", [
        (["lax", "--k", "1", "--order", str(cli.MAX_DEPTH)],
         psdo.lax_depth(1, cli.MAX_DEPTH)),
        (["lax", "--k", str(cli.MAX_K), "--order", str(cli.MAX_DEPTH - cli.MAX_K + 1)],
         psdo.lax_depth(cli.MAX_K, cli.MAX_DEPTH - cli.MAX_K + 1)),
        (["dress", "--order", str(cli.MAX_DEPTH)], cli.MAX_DEPTH + 1),
    ])
    def test_above_the_limit(self, capsys, tmp_path, argv, depth):
        # the tau file is never read
        assert depth == cli.MAX_DEPTH + 1
        code, out, err = run(capsys, [*argv, "--tau", str(tmp_path / "absent.json")])
        assert (code, out) == (2, "")
        flags = " and ".join(f"{f} {v}" for f, v in zip(argv[1::2], argv[2::2]))
        assert err == (f"input error: {flags}: dressing depth {depth} is above "
                       f"the limit {cli.MAX_DEPTH}\n")

    @pytest.mark.parametrize("argv", [
        ["lax", "--k", "1", "--order", str(cli.MAX_DEPTH - 1)],
        ["lax", "--k", str(cli.MAX_K), "--order", str(cli.MAX_DEPTH - cli.MAX_K)],
        ["dress", "--order", str(cli.MAX_DEPTH - 1)],
    ])
    def test_at_the_limit(self, capsys, tmp_path, argv):
        # a one-term tau: at depth 20 the term budget admits no more terms
        order = int(argv[-1])
        depth = order + 1 if argv[0] == "dress" else psdo.lax_depth(int(argv[2]), order)
        assert depth == cli.MAX_DEPTH
        tau = monomial_file(tmp_path / "t1.json", 1)
        code, _, err = run(capsys, [*argv, "--tau", tau])
        assert code in (0, 1) and err == ""


# argv: the file for the seconds, then the CLI arguments
CHILD = """
import sys, time
from tauforge.cli import main
start = time.perf_counter()
try:
    code = main(sys.argv[2:])
finally:
    with open(sys.argv[1], "w") as out:
        out.write(repr(time.perf_counter() - start))
sys.exit(code)
"""


def child_run(argv) -> tuple[subprocess.CompletedProcess, float]:
    """Run the CLI in a child process, capped at 2 GiB and 20 s, so that a
    missing budget fails the test without stalling the suite; with the
    seconds from entering cli.main to its return, as the child timed them,
    so that interpreter start-up on a loaded machine does not count."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(tauforge.__file__).parents[1])}
    with tempfile.TemporaryDirectory() as tmp:
        clock = Path(tmp) / "seconds"
        done = subprocess.run([sys.executable, "-c", CHILD, str(clock), *argv],
                              capture_output=True, text=True, env=env, timeout=20,
                              preexec_fn=cap)
        return done, float(clock.read_text())


class TestPointBudget:
    """A --grpoint whose tau has weighted degree above MAX_WEIGHT is an input
    error, read off the raw rows before any elimination where they show it,
    else off the pivots before any other work."""

    @pytest.mark.parametrize("point,weight", [
        # unbounded, companions took 7 s on the first, and the second ran
        # out of memory
        ({"tail": 0, "basis": [{"minExp": -20, "coefs": ["1", "1"]}]}, 19),
        ({"tail": -1000000, "basis": [{"minExp": -1000002, "coefs": ["1", "1"]}]},
         2000001),
    ])
    def test_above_the_limit_exits_at_once(self, tmp_path, point, weight):
        path = tmp_path / "point.json"
        path.write_text(json.dumps(point))
        done, seconds = child_run(["grass", "companions", "--grpoint", str(path),
                                   "--k", "1"])
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (f"input error: {path}: the point's tau has weighted "
                               f"degree at least {weight}, above the limit "
                               f"{cli.MAX_WEIGHT}\n")
        assert seconds < 1

    def test_weight_read_off_the_pivots(self, capsys, tmp_path):
        # the lowest exponent -10 allows weight 8 with two pivots; the pivots
        # -10 and -9 give the partition (8, 8)
        path = tmp_path / "point.json"
        path.write_text(json.dumps({"tail": 0, "basis": [
            {"minExp": -10, "coefs": ["1"]}, {"minExp": -9, "coefs": ["1"]}]}))
        code, out, err = run(capsys, ["grass", "min-n", "--grpoint", str(path),
                                      "--k", "1"])
        assert (code, out) == (2, "")
        assert err == (f"input error: {path}: the point's tau has weighted degree "
                       f"16, above the limit {cli.MAX_WEIGHT}\n")

    @pytest.mark.parametrize("rows,width", [
        # unbounded, in process: 0.3 s; in a child process, on integer
        # rows: 0.6 and 0.4 s (see cli.MAX_POINT_CHARS)
        (400, None),  # rows of ones, a valid weight-0 point
        (64, 4096),  # random coefficients
        (8, 20000),
    ])
    def test_large_file_exits_at_once(self, tmp_path, rows, width):
        rng = random.Random(rows)
        if width is None:
            basis = [{"minExp": -i, "coefs": ["1"] * i} for i in range(1, rows + 1)]
        else:
            basis = [{"minExp": -width - i,
                      "coefs": [str(rng.randint(-99, 99)) for _ in range(width)]}
                     for i in range(rows)]
        path = tmp_path / "point.json"
        path.write_text(json.dumps({"tail": 0, "basis": basis}))
        done, seconds = child_run(["grass", "min-n", "--grpoint", str(path),
                                   "--k", "1"])
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith(f"input error: {path}: {rows} rows of ")
        assert seconds < 1

    @pytest.mark.parametrize("point", [
        {"tail": 0, "basis": [{"minExp": -cli.MAX_WEIGHT - 1, "coefs": ["1", "2"]}]},
        {"tail": -1000000, "basis": [{"minExp": 999999, "coefs": ["1"]}]},
    ])
    @pytest.mark.parametrize("action", ["min-n", "companions", "dtk"])
    def test_at_the_limit(self, capsys, tmp_path, point, action):
        path = tmp_path / "point.json"
        path.write_text(json.dumps(point))
        code, _, err = run(capsys, ["grass", action, "--grpoint", str(path), "--k", "1"])
        assert (code, err) == (0, "")


class TestMatrixBudget:
    """A --matrix above MAX_MATRIX_ROWS x MAX_MATRIX_COLS, or with more than
    MAX_MATRIX_CHARS characters of entries, is an input error before any
    elimination or determinant."""

    @pytest.mark.parametrize("rows,cols,digits", [
        (12, 4, 1),  # unbounded 1.9 s (see cli.MAX_MATRIX_ROWS)
        (12, 5, 1),  # 10 s
        (20, 3, 1),  # past 45 s
        (8, 7, 1),  # 0.007 s: a shape limit, not a time limit
        (8, 4, 1000),  # 1,000-digit rationals: 1.7 s, then exit 2 on printing
    ])
    def test_above_the_limit_exits_at_once(self, tmp_path, rows, cols, digits):
        rng = random.Random(rows * cols)
        if digits == 1:
            entries = [[str(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)]
        else:
            entries = [[f"{rng.randint(1, 10**digits)}/{rng.randint(1, 10**digits)}"
                        for _ in range(cols)] for _ in range(rows)]
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"rows": rows, "cols": cols, "entries": entries}))
        done, seconds = child_run(["tau-from-matrix", "--matrix", str(path),
                                   "--k", "1", "--n", str(cols)])
        assert (done.returncode, done.stdout) == (2, "")
        shape = f"a {rows} x {cols} matrix" if digits == 1 else "entry characters"
        assert done.stderr.startswith(f"input error: {path}: ")
        assert shape in done.stderr and "above the limit" in done.stderr
        assert seconds < 5

    def test_at_the_limit(self, capsys, tmp_path):
        # in process, one-digit entries and 42-character rationals (2,016
        # characters in all), each under a second
        rng = random.Random(86)
        rows, cols = cli.MAX_MATRIX_ROWS, cli.MAX_MATRIX_COLS
        small = [[str(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)]
        wide = [[f"{rng.randint(10**20, 10**21 - 1)}/{rng.randint(10**19, 10**20 - 1)}"
                 for _ in range(cols)] for _ in range(rows)]
        chars = sum(len(v) for row in wide for v in row)
        assert cli.MAX_MATRIX_CHARS - rows * cols < chars <= cli.MAX_MATRIX_CHARS
        for entries in (small, wide):
            path = tmp_path / "matrix.json"
            path.write_text(json.dumps({"rows": rows, "cols": cols, "entries": entries}))
            start = time.perf_counter()
            code, out, err = run(capsys, ["tau-from-matrix", "--matrix", str(path),
                                          "--k", "1", "--n", str(cols)])
            seconds = time.perf_counter() - start
            assert (code, err) == (0, "")
            assert json.loads(out)["report"]["cols"] == cols
            assert seconds < 1

    @pytest.mark.parametrize("entries", [["0", "0", "1"], [["0"], ["0"], {"1": 0}]])
    def test_rows_must_be_lists(self, capsys, tmp_path, entries):
        # a string row was read character by character
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"rows": 3, "cols": 1, "entries": entries}))
        code, out, err = run(capsys, ["tau-from-matrix", "--matrix", str(path),
                                      "--k", "1"])
        assert (code, out) == (2, "")
        assert err == f"input error: {path}: entry grid does not match rows x cols\n"


class TestTermBudget:
    """The --tau of lax and dress has terms^2 x depth^3 at most MAX_LAX_WORK,
    the depth being that of the dressing, checked before any work; verify
    has no such limit."""

    @pytest.mark.parametrize("argv", [["dress", "--order", "5"],
                                      ["lax", "--k", "1", "--order", "5"]])
    def test_dense_tau_exits_at_once(self, tmp_path, argv):
        # S_(8) in 8 variables: 22 terms at the weight limit; unbounded,
        # dress and lax each took 2.0 s, start-up included
        path = tmp_path / "s8.json"
        s8 = ChargedPoly(schur_of_partition(Partition((8,)), 8), 0)
        path.write_text(json.dumps(s8.to_json()))
        done, seconds = child_run([*argv, "--tau", str(path)])
        depth = 6 if argv[0] == "dress" else psdo.lax_depth(1, 5)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (f"input error: {path}: 22 terms at dressing depth "
                               f"{depth} is above the limit terms^2 x depth^3 <= "
                               f"{cli.MAX_LAX_WORK}\n")
        assert seconds < 1

    @pytest.mark.parametrize("terms,argv", [
        (6, ["--k", "3", "--order", "5"]),  # depth 8: 0.73 s unbounded
        (4, ["--k", "8", "--order", "3"]),  # depth 12: 1.4 s unbounded
    ])
    def test_corners_exit_at_once(self, tmp_path, terms, argv):
        # the first terms of S_(8): each flag and the file are within their
        # own limits
        s8 = ChargedPoly(schur_of_partition(Partition((8,)), 8), 0).to_json()
        s8["poly"]["terms"] = s8["poly"]["terms"][:terms]
        path = tmp_path / "s8.json"
        path.write_text(json.dumps(s8))
        done, seconds = child_run(["lax", *argv, "--tau", str(path)])
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith(f"input error: {path}: {terms} terms at "
                                      "dressing depth ")
        assert seconds < 1

    @pytest.mark.parametrize("argv,expect", [
        (["dress"], 0), (["lax", "--k", "1"], 1), (["verify", "--k", "1"], 1)])
    def test_at_and_past_the_limit(self, capsys, tmp_path, argv, expect):
        # t_1^w, w = 0..n-1, a non-KP tau of n terms; at the default --order
        # 5 dress dresses to depth 6 and lax --k 1 to lax_depth(1, 5) = 6
        depth = 6 if argv[0] == "dress" else psdo.lax_depth(1, 5)
        most = math.isqrt(cli.MAX_LAX_WORK // depth**3)
        for n in (most, most + 1):
            poly = sum((MPoly.variable(1, 1) ** w for w in range(1, n)), MPoly.const(1, 1))
            path = tmp_path / f"tau{n}.json"
            path.write_text(json.dumps(ChargedPoly(poly, 0).to_json()))
            code, _, err = run(capsys, [*argv, "--tau", str(path)])
            if n > most and argv[0] != "verify":
                assert (code, err) == (2, f"input error: {path}: {n} terms at dressing "
                                          f"depth {depth} is above the limit terms^2 "
                                          f"x depth^3 <= {cli.MAX_LAX_WORK}\n")
            else:
                assert (code, err) == (expect, "")


K_COMMANDS = [
    ["tau-from-matrix", "--matrix", "matrix"],
    ["verify", "--tau", "tau", "--rho", "rho", "--sigma", "sigma"],
    ["lax", "--tau", "tau", "--rho", "rho", "--sigma", "sigma"],
    ["grass", "min-n", "--grpoint", "point"],
]


class TestFlagRange:
    """--k outside 1..MAX_K or --n below 0 is an input error on every command."""

    @pytest.mark.parametrize("k", ["0", "-1"])
    @pytest.mark.parametrize("argv", K_COMMANDS)
    def test_nonpositive_k(self, capsys, golden_files, argv, k):
        argv = [golden_files.get(a, a) for a in argv]
        code, out, err = run(capsys, [*argv, f"--k={k}"])
        assert (code, out) == (2, "")
        assert err == f"input error: --k must be at least 1, got {k}\n"

    @pytest.mark.parametrize("argv", K_COMMANDS)
    def test_k_above_limit(self, capsys, golden_files, argv):
        argv = [golden_files.get(a, a) for a in argv]
        k = cli.MAX_K + 1
        code, out, err = run(capsys, [*argv, f"--k={k}"])
        assert (code, out) == (2, "")
        assert err == f"input error: --k must be at most {cli.MAX_K}, got {k}\n"

    def test_k_at_limit(self, capsys, golden_files):
        code, out, _ = run(capsys, ["grass", "min-n", "--grpoint",
                                    golden_files["point"], f"--k={cli.MAX_K}"])
        assert code == 0 and json.loads(out)["n"] == 0

    def test_negative_n(self, capsys, golden_files):
        code, out, err = run(capsys, ["tau-from-matrix", "--matrix",
                                      golden_files["matrix"], "--k", "1",
                                      "--n=-1"])
        assert (code, out) == (2, "")
        assert err == "input error: --n must be at least 0, got -1\n"


def library_error(call) -> str:
    """The stderr the CLI owes a ValueError that call raises."""
    with pytest.raises(ValueError) as exc:
        call()
    return f"input error: {exc.value}\n"


class TestLibraryErrors:
    """A ValueError from the library exits 2 with the library's message,
    unchanged."""

    @pytest.mark.parametrize("case", ["verify-unequal-pairs", "lax-unequal-pairs"])
    def test_exit_two_with_library_message(self, capsys, golden_point, golden_files,
                                           case):
        tau, rhos, _ = companions(golden_point, 1)
        f = golden_files
        argv, call = {
            "verify-unequal-pairs": (
                ["verify", "--tau", f["tau"], "--rho", f["rho"], "--k", "1"],
                lambda: verify_suite(tau, rhos, [], 1)),
            "lax-unequal-pairs": (
                ["lax", "--tau", f["tau"], "--rho", f["rho"], "--k", "1"],
                lambda: verify_lax(tau, rhos, [], 1, 5)),
        }[case]
        expected = library_error(call)
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", expected)


def fake_on_call(monkeypatch, name, nth, fake):
    """grassmann.<name> with its nth call answered by fake."""
    real, calls = getattr(grassmann, name), []

    def broken(*args):
        calls.append(1)
        return (fake if len(calls) == nth else real)(*args)

    monkeypatch.setattr(grassmann, name, broken)


def zero_on_call(monkeypatch, name, nth):
    """grassmann.<name> with its nth call returning the zero vector."""
    fake_on_call(monkeypatch, name, nth, lambda *args: FockVector())


class TestPivotFaults:
    """A broken echelon invariant of the Grassmannian layer is an internal
    fault (grassmann.PivotError), which no reduced point reaches: exit 3
    with "internal error:", never "input error:".  Each case breaks one
    library call on the golden point (tail -1, one factor s^-2, k = 1)."""

    @pytest.mark.parametrize("action,break_call,message", [
        # the kernel point gains a pivot the point lacks: s^-5, key 5 over
        # H_-1 (the file's point is reduced through cli's own import)
        ("min-n", lambda mp: fake_on_call(
            mp, "reduce_rows", 1,
            lambda rows, tail: GrPoint(tail, (MPoly.from_powers({5: 1}, 1),))),
         "pivot bookkeeping failed in the stable split"),
        # the wedge of the factors, whose pivot minor dtk reads
        ("dtk", lambda mp: zero_on_call(mp, "wedge_columns", 1),
         "echelon wedge lost its pivot coordinate"),
        # rho_1 = (s w_1) wedge tau, the second wedge companions forms
        ("companions", lambda mp: zero_on_call(mp, "wedge_columns", 2),
         "companion 1 vanished"),
        # sigma_1, the third wedge of rows, after the pivot minor's and rho_1's
        ("companions", lambda mp: zero_on_call(mp, "_wedge", 3),
         "companion 1 vanished"),
    ], ids=["split", "pivot-minor", "rho", "sigma"])
    def test_exit_three(self, capsys, monkeypatch, golden_files, action, break_call,
                        message):
        break_call(monkeypatch)
        code, out, err = run(capsys, ["grass", action, "--grpoint", golden_files["point"],
                                      "--k", "1"])
        assert (code, out, err) == (3, "", f"internal error: PivotError: {message}\n")


class TestGrass:
    def test_min_n(self, capsys, golden_files):
        code, out, _ = run(capsys, ["grass", "min-n", "--grpoint",
                                    golden_files["point"], "--k", "1"])
        assert code == 0
        assert json.loads(out)["n"] == 1

    def test_companions(self, capsys, golden_files):
        code, out, _ = run(capsys, ["grass", "companions", "--grpoint",
                                    golden_files["point"], "--k", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["sigma"][0]["charge"] == -2

    def test_dtk(self, capsys, golden_files):
        code, out, _ = run(capsys, ["grass", "dtk", "--grpoint",
                                    golden_files["point"], "--k", "1"])
        assert code == 0
        parts = json.loads(out)["parts"]
        assert len(parts) == 1
        assert parts[0]["poly"]["terms"] == [{"exp": [1], "coef": "1"}]


def ratio_text(rng, c: Fraction) -> str:
    """c as a "p" or "p/q" string, at random not in lowest terms."""
    m = rng.randint(1, 3)
    if c.denominator == 1 and rng.random() < 0.5:
        return str(c.numerator)
    return f"{c.numerator * m}/{c.denominator * m}"


class TestOnePointForm:
    """Oracle for the integer rows: the CLI reads a point file on integer
    pairs into the point reduce_point builds from Fractions, prints it
    back to the same point, and the generator gives byte-identical
    reports on a matrix of ints and on one of equal Fractions."""

    @staticmethod
    def seeded_points(rng):
        """(tail, lowest exponent, rational vectors) with entries below, at
        and above the tail, a zero vector among them now and then."""
        for _ in range(60):
            tail = rng.randint(-3, 2)
            lo = -tail - rng.randint(1, 5)
            vectors = [{e: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                        for e in range(lo, -tail + 2) if rng.random() < 0.6}
                       for _ in range(rng.randint(1, 4))]
            yield tail, lo, vectors

    def test_reader_matches_reduce_point(self, capsys, tmp_path):
        rng = random.Random(71)
        path = tmp_path / "point.json"
        for tail, lo, vectors in self.seeded_points(rng):
            top = max((e for v in vectors for e in v), default=lo)
            basis = [{"minExp": lo, "coefs": [ratio_text(rng, v.get(e, Fraction(0)))
                                              for e in range(lo, top + 1)]}
                     for v in vectors]
            path.write_text(json.dumps({"tail": tail, "basis": basis}))
            point = reduce_point(vectors, tail)
            assert cli._load_grpoint(str(path)) == point
            # printed and read again, through the command that reads it
            path.write_text(json.dumps(point.to_json()))
            assert cli._load_grpoint(str(path)) == point
            k = rng.randint(1, 3)
            sub, n = grassmann.stable_subspace(point, k)
            code, out, err = run(capsys, ["grass", "min-n", "--grpoint", str(path),
                                          "--k", str(k)])
            assert (code, err) == (0, "")
            assert json.loads(out) == {"n": n, "stable": sub.to_json(),
                                       "charge": point.charge}

    def test_int_and_fraction_matrices_agree(self):
        rng = random.Random(73)
        for _ in range(40):
            M = rng.randint(2, cli.MAX_MATRIX_ROWS)
            N = rng.randint(1, min(M - 1, cli.MAX_MATRIX_COLS))
            k, n = rng.randint(1, 2), rng.randint(0, N)
            ints = [[rng.choice([0, 0, 1, -1, 2, -3]) for _ in range(N)] for _ in range(M)]
            fractions = [[Fraction(c) for c in row] for row in ints]
            reports = []
            for entries in (ints, fractions):
                try:
                    point, tau, report = grassmann.generate_from_matrix(entries, k, n)
                except grassmann.GrassmannError as exc:
                    reports.append(str(exc))
                else:
                    reports.append(json.dumps([point.to_json(), tau.to_json(),
                                               report.to_json()]))
            assert reports[0] == reports[1]


class TestVariableCount:
    """No flag sets the variable count: each command prints its polynomials
    in the least count its inputs need."""

    def test_companions_in_the_least_count(self, capsys, golden_files):
        code, out, _ = run(capsys, ["grass", "companions", "--grpoint",
                                    golden_files["point"], "--k", "1"])
        payload = json.loads(out)
        triple = [payload["tau"], *payload["rho"], *payload["sigma"]]
        # tau = S_2 and rho_1 = -S_(1,1) need t_2; one count serves the triple
        assert code == 0 and [cp["poly"]["vars"] for cp in triple] == [2, 2, 2]

    @pytest.mark.parametrize("k,vars", [(1, 8), (6, 12)])
    def test_verify_witness_in_twice_the_suite_count(self, capsys, tmp_path, k, vars):
        # t_1^2 + t_2 fails KP; its witness lives in 2 D variables,
        # D = max(2 top, k, 1) with top = 2 its weighted degree
        path = tmp_path / "tau.json"
        tau = MPoly.variable(2, 1) ** 2 + MPoly.variable(2, 2)
        path.write_text(json.dumps(ChargedPoly(tau, 0).to_json()))
        code, out, _ = run(capsys, ["verify", "--tau", str(path), "--k", str(k)])
        checks = {c["id"]: c for c in json.loads(out)["checks"]}
        assert code == 1 and checks["KP"]["witness"]["vars"] == vars


class TestDressAndLax:
    def test_dress_shape(self, capsys, golden_files):
        code, out, _ = run(capsys, ["dress", "--tau", golden_files["tau"],
                                    "--order", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["P"]["coefs"]["-1"]["den"]["terms"]
        assert "-2" not in payload["P"]["coefs"]

    def test_dress_prints_only_exact_coefficients(self, capsys, tmp_path):
        # tau = S_2 + 3 t_1: L at --order T is exact down to -T only
        tau = tmp_path / "tau.json"
        tau.write_text(json.dumps({"charge": 0, "poly": {"vars": 2, "terms": [
            {"exp": [2, 0], "coef": "1/2"}, {"exp": [0, 1], "coef": "1"},
            {"exp": [1, 0], "coef": "3"}]}}))
        payloads = {}
        for order in (3, 6):
            code, out, _ = run(capsys, ["dress", "--tau", str(tau),
                                        "--order", str(order)])
            assert code == 0
            payloads[order] = json.loads(out)
        assert payloads[3]["L"]["truncation"] == -3
        assert min(int(o) for o in payloads[3]["L"]["coefs"]) == -3
        for op in ("P", "L"):
            short, deep = payloads[3][op]["coefs"], payloads[6][op]["coefs"]
            assert short
            for o, coef in short.items():
                assert deep[o] == coef, (op, o)

    def test_lax_pass(self, capsys, golden_files):
        code, out, _ = run(capsys, ["lax", "--tau", golden_files["tau"],
                                    "--rho", golden_files["rho"],
                                    "--sigma", golden_files["sigma"],
                                    "--k", "1", "--order", "4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["constraint"]["pass"] is True
        assert all(f["pass"] for f in payload["flows"])
        for report in [payload["constraint"], *payload["flows"]]:
            for check in report["orders"]:
                assert check["method"] == "cross-multiplication"

    def test_lax_fail_without_pairs(self, capsys, golden_files):
        code, out, _ = run(capsys, ["lax", "--tau", golden_files["tau"],
                                    "--k", "1", "--order", "3"])
        assert code == 1
        failing = [c for c in json.loads(out)["constraint"]["orders"]
                   if not c["pass"]]
        assert failing and all(c["method"] == "cross-multiplication"
                               and "witness" in c for c in failing)

    @pytest.mark.parametrize("flag", ["--trials", "--seed", "--config"])
    def test_retired_sampling_flags_rejected(self, capsys, golden_files, flag):
        with pytest.raises(SystemExit) as exc:
            main(["lax", "--tau", golden_files["tau"], "--k", "1", flag, "5"])
        assert exc.value.code == 2

    def test_order_above_limit(self, capsys, golden_files):
        # --order has no bound of its own: the dressing depth refuses it,
        # 65 + 1 for dress and lax_depth(1, 65) = 66 for lax
        for argv, flags in [(["dress"], "--order 65"),
                            (["lax", "--k", "1"], "--k 1 and --order 65")]:
            code, out, err = run(capsys, [*argv, "--tau", golden_files["tau"],
                                          "--order", "65"])
            assert (code, out, err) == (2, "", f"input error: {flags}: dressing depth "
                                               f"66 is above the limit {cli.MAX_DEPTH}\n")

    def test_truncation_fault_is_internal_error(self, capsys, golden_files,
                                                monkeypatch):
        def truncated(*args, **kwargs):
            raise TruncationError("differential part is not fully known")

        monkeypatch.setattr(cli, "verify_lax", truncated)
        code, _, err = run(capsys, ["lax", "--tau", golden_files["tau"],
                                    "--k", "1", "--order", "3"])
        assert code == 3
        assert err.startswith("internal error: TruncationError")
        assert "Traceback" not in err

    def test_constraint_variable_fault_is_internal_error(self, capsys, golden_files,
                                                         monkeypatch):
        # a constrained-k defect whose numerator uses t_D of the bilinear
        # D, above the Lax D = 2 of the golden tau: a fault of the
        # arithmetic, not of the input
        real = psdo.bilinear_defects

        def widened(operands, family, k):
            D, echelon, defects = real(operands, family, k)
            assert D > 2
            top = MPoly.variable(D, D)
            return D, echelon, [defects[0], {l: x * top for l, x in defects[1].items()},
                                *defects[2:]]

        monkeypatch.setattr(psdo, "bilinear_defects", widened)
        code, out, err = run(capsys, ["lax", "--tau", golden_files["tau"],
                                      "--k", "1", "--order", "3"])
        assert (code, out) == (3, "")
        assert err.startswith("internal error: ArithmeticError")
        assert "Traceback" not in err

    @staticmethod
    def golden_jobs(tmp_path, golden_point, k):
        """The lax argv of the golden companions at k, with their pair,
        without it, and with t_1 added to sigma_1."""
        tau, rhos, sigmas = companions(golden_point, k)
        bent = [ChargedPoly(sigmas[0].poly + MPoly.variable(2, 1), sigmas[0].charge)]
        tail = ["--k", str(k), "--order", "4"]
        return (["lax", *write_job(tmp_path, "paired", tau, rhos, sigmas), *tail],
                ["lax", *write_job(tmp_path, "unpaired", tau, [], []), *tail],
                ["lax", *write_job(tmp_path, "bent", tau, rhos, bent), *tail])

    @pytest.mark.parametrize("k", [1, 2])
    def test_one_dressing_per_job(self, capsys, tmp_path, golden_point,
                                  monkeypatch, k):
        # a job whose identities all hold is not dressed, nor is the golden
        # tau without its pair: it is a KP tau that fails constrained-k
        # alone, so its constraint is read off that defect.  sigma_1 + t_1
        # fails the sigma_1 identity, so its r_1 flow needs (L^k)_+ and the
        # job is dressed once.  (2 sigma_1 would not do: the identity is
        # linear in sigma_1.)
        calls = []
        dressing = psdo._dressing
        monkeypatch.setattr(psdo, "_dressing",
                            lambda *args: calls.append(args) or dressing(*args))
        counts = []
        for argv, code in zip(self.golden_jobs(tmp_path, golden_point, k), (0, 1, 1)):
            calls.clear()
            assert run(capsys, argv)[0] == code
            counts.append(len(calls))
        assert counts == [0, 0, 1]

    @pytest.mark.parametrize("k,forced", [(1, 3), (2, 7)])
    def test_compositions_per_job(self, capsys, tmp_path, golden_point,
                                  monkeypatch, k, forced):
        # a passing job composes nothing, nor does the golden tau without
        # its pair: its constraint's terms sum_l (X_l/tau) d^-1 (e_l/tau)
        # are summed per order, with no composition.  With every identity
        # forced false, the paired job is dressed: L^k = P d^k P^-1 is two
        # compositions, P B* = 1 is checked by one product and, for k >= 2,
        # the commutator decides the flow: L and [(L^k)_+, L], four more
        paired, bare, _ = self.golden_jobs(tmp_path, golden_point, k)
        calls = []
        compose = psdo.PsiDO.__mul__
        monkeypatch.setattr(psdo.PsiDO, "__mul__",
                            lambda a, b: calls.append(1) or compose(a, b))
        counts = []
        for argv in (paired, bare):
            calls.clear()
            run(capsys, argv)
            counts.append(len(calls))
        monkeypatch.setattr(psdo, "bilinear_defects", refute)
        calls.clear()
        run(capsys, paired)
        assert (*counts, len(calls)) == (0, 0, forced)

    def test_seeded_determinism(self, capsys, golden_files):
        argv = ["lax", "--tau", golden_files["tau"],
                "--rho", golden_files["rho"], "--sigma", golden_files["sigma"],
                "--k", "1", "--order", "3"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


def digest_cases(golden_point):
    """(id, tau, rhos, sigmas, k, order) of the lax and dress reports pinned
    below.

    The golden companions with and without their pairs, 3 t1 t2 at k = 2
    (KP fails and the commutator decides) and two taus that are no KP
    taus, whose P^-1 needs Newton steps, at the default --order 5; then
    the corners of lax_depth: --order 3, where the flow reads bind the
    depth, and --order 8 at k = 1; then two KP taus that fail only
    constrained-k, whose constraint witnesses are read off its defect;
    then one of them times -2/3, with its pair and with a rho that fails.
    """
    t1, t2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
    s2 = schur_of_partition(Partition((2,)), 2)
    golden = {k: companions(golden_point, k) for k in (1, 2, 3)}
    cases = []
    for k, (tau, rhos, sigmas) in golden.items():
        cases.append((f"golden-k{k}", tau, rhos, sigmas, k, 5))
        if rhos:  # the golden point has no pair at k = 3
            cases.append((f"golden-k{k}-unpaired", tau, [], [], k, 5))
    cases += [(name, ChargedPoly(poly, 0), [], [], k, 5) for name, poly, k in
              [("3t1t2-k2", t1 * t2 * 3, 2), ("t1^3-k2", t1 * t1 * t1, 2),
               ("S2^2-k1", s2 * s2, 1)]]
    cases += [(f"golden-k{k}-o{order}", *golden[k], k, order)
              for k, order in ((2, 3), (3, 3), (1, 8))]
    cases.append(("3t1t2-k2-o3", ChargedPoly(t1 * t2 * 3, 0), [], [], 2, 3))
    # a KP tau whose rho_j and sigma_j hold and whose constrained-k fails:
    # a weight-3 point without its one pair at k = 3, and with rho_1 + rho_2
    # in place of rho_1 at k = 1 (n = 2)
    seeded = reduce_point([{-4: Fraction(1), -3: Fraction(-3, 2)}, {-2: Fraction(1)}], 0)
    tau, rhos, sigmas = companions(seeded, 3)
    cases.append(("seeded-k3-unpaired", tau, rhos[:-1], sigmas[:-1], 3, 5))
    tau, rhos, sigmas = companions(seeded, 1)
    summed = ChargedPoly(rhos[0].poly + rhos[1].poly, rhos[0].charge)
    cases.append(("seeded-k1-rho-sum", tau, [summed, *rhos[1:]], sigmas, 1, 5))
    # the seeded tau times -2/3, a content that is negative and no integer,
    # with its pair at k = 3: KP and the pair's identities hold and
    # constrained-k fails, so lax reads witnesses that depend on the scale
    # off the defect; dress prints P and L, which do not
    tau, rhos, sigmas = companions(seeded, 3)
    scaled = ChargedPoly(tau.poly * Fraction(-2, 3), tau.charge)
    cases.append(("scaled-k3", scaled, rhos, sigmas, 3, 5))
    # and with rho_1 + t1 in place of rho_1, so rho_1's identity fails and
    # lax dresses the scaled tau: its q_1 = rho_1 / tau and the witnesses
    # built from it depend on the scale
    rho = rhos[0].poly
    bumped = ChargedPoly(rho + MPoly.variable(rho.vars, 1), rhos[0].charge)
    cases.append(("scaled-k3-rho-bumped", scaled, [bumped], sigmas, 3, 5))
    return cases


def verify_digest_cases(golden_point):
    """(id, tau, rhos, sigmas, k) of the verify reports pinned below: the
    golden companions at k = 1, 2 and 3, each also without its last pair,
    t_1^2 at k = 1 (no KP tau) and 3 t_1 t_2 at k = 2."""
    t1, t2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
    cases = []
    for k in (1, 2, 3):
        tau, rhos, sigmas = companions(golden_point, k)
        cases.append((f"golden-k{k}", tau, rhos, sigmas, k))
        if rhos:  # the golden point has no pair at k = 3
            cases.append((f"golden-k{k}-unpaired", tau, rhos[:-1], sigmas[:-1], k))
    cases.append(("t1^2-k1", ChargedPoly(t1 * t1, 0), [], [], 1))
    cases.append(("3t1t2-k2", ChargedPoly(t1 * t2 * 3, 0), [], [], 2))
    return cases


def construct_digest_jobs(tmp_path) -> dict[str, list[str]]:
    """{id: argv} of the construct reports pinned below: a rational chain
    matrix accepted with one violation and rejected with none allowed, a
    rank-3 matrix at k = 2, a rational 7 x 4 chain matrix of weight 12 at
    k = 2 (35 wedge states over one denominator above 1), the filtration
    data of a weight-6 rational point at k = 1 and 2, the companions of a
    weight-7 rational point at k = 1 (n = 2), and psi+, psi-, alpha and Q
    on a rational vector over three charges."""
    payloads = {
        "matrix": {"rows": 5, "cols": 2,
                   "entries": [["1/2", "-3"], ["-3", "2/3"], ["2/3", "0"],
                               ["0", "5"], ["5", "0"]]},
        "matrix3": {"rows": 6, "cols": 3,
                    "entries": [["1", "0", "0"], ["-1/3", "7/2", "0"],
                                ["7/2", "0", "1"], ["0", "4/9", "0"],
                                ["4/9", "0", "-2"], ["0", "-2", "0"]]},
        "matrix7x4": {"rows": 7, "cols": 4,
                      "entries": [["4/5", "7/3", "7/3", "-5/2"],
                                  ["-2/3", "4/5", "1/2", "-2/3"],
                                  ["7/3", "-2/3", "-5/2", "7/3"],
                                  ["4/5", "0", "-2/3", "3/4"],
                                  ["-2/3", "1/2", "7/3", "0"],
                                  ["0", "0", "3/4", "0"],
                                  ["1/2", "0", "0", "0"]]},
        "point": {"tail": 0, "basis": [
            {"minExp": -5, "coefs": ["1", "0", "0", "2/7", "1/8"]},
            {"minExp": -4, "coefs": ["1", "0", "0", "3"]},
            {"minExp": -3, "coefs": ["1", "0", "1/4"]}]},
        "point7": {"tail": -2, "basis": [
            {"minExp": -4, "coefs": ["3/4", "0", "7/3", "0", "0", "0"]},
            {"minExp": -2, "coefs": ["-2/3", "7/3", "4/5"]},
            {"minExp": -3, "coefs": ["3/4", "7/3"]},
            {"minExp": 0, "coefs": ["7/3", "7/3"]}]},
        "vector": [
            {"state": {"charge": 0, "partition": [2, 1]}, "coef": "-3/4"},
            {"state": {"charge": 0, "partition": [3]}, "coef": "5"},
            {"state": {"charge": 1, "partition": []}, "coef": "2/9"},
            {"state": {"charge": -2, "partition": [1, 1, 1]}, "coef": "-1/6"}],
    }
    path = {}
    for name, payload in payloads.items():
        path[name] = tmp_path / f"construct-{name}.json"
        path[name].write_text(json.dumps(payload))
    jobs = {
        "matrix-n1": ["tau-from-matrix", "--matrix", path["matrix"],
                      "--k", "1", "--n", "1"],
        "matrix-n0": ["tau-from-matrix", "--matrix", path["matrix"],
                      "--k", "1", "--n", "0"],
        "matrix3-k2": ["tau-from-matrix", "--matrix", path["matrix3"],
                       "--k", "2", "--n", "3"],
        "matrix7x4-w12": ["tau-from-matrix", "--matrix", path["matrix7x4"],
                          "--k", "2", "--n", "2"],
        "grass-companions-w7": ["grass", "companions", "--grpoint", path["point7"],
                                "--k", "1"],
    }
    for action in ("min-n", "companions", "dtk"):
        for k in (1, 2):
            jobs[f"grass-{action}-k{k}"] = ["grass", action, "--grpoint",
                                            path["point"], "--k", str(k)]
    for op, indices in (("psi+", ("1/2", "-5/2")), ("psi-", ("3/2", "-1/2")),
                        ("alpha", ("0", "2", "-1")), ("Q", ("-2",))):
        for index in indices:
            jobs[f"{op}{index}"] = ["fock-apply", "--op", op, f"--index={index}",
                                    "--vector", path["vector"]]
    return {name: [str(a) for a in argv] for name, argv in jobs.items()}


def write_job(tmp_path, name, tau, rhos, sigmas) -> list[str]:
    """Write the operands of one job; the --tau, --rho and --sigma flags."""
    tau_path = tmp_path / f"{name}-tau.json"
    tau_path.write_text(json.dumps(tau.to_json()))
    argv = ["--tau", str(tau_path)]
    for j, (rho, sigma) in enumerate(zip(rhos, sigmas)):
        for flag, cp in (("rho", rho), ("sigma", sigma)):
            path = tmp_path / f"{name}-{flag}{j}.json"
            path.write_text(json.dumps(cp.to_json()))
            argv += [f"--{flag}", str(path)]
    return argv


class TestGoldenDigests:
    """Exit code and sha256 of lax and dress stdout, computed with the
    P * P^-1 product check and compositions at full depth (the --order 3
    and 8 cases with the dressing at max(T, k + 3) + k + 1), of verify
    stdout, computed with every residue read off the doubled-space triple
    product, and of tau-from-matrix, grass and fock-apply stdout; a
    change of any byte fails.

    Lax and dress coefficients print at the least power of tau.  The
    five pins that rule moved (lax golden-k2-unpaired, t1^3-k2 and
    S2^2-k1, dress t1^3 and S2^2) were checked against the reports they
    replace: the same exit codes and verdicts, and every changed
    coefficient equal to the old one by cross-multiplication.  The lax
    seeded-k3-unpaired and seeded-k1-rho-sum pins and the dress seeded pin
    were computed with L^k = P d^k P^-1 composed for every failing job, so
    they hold the constraint witnesses read off the defect to the
    dressing's bytes.  The lax scaled-k3, lax scaled-k3-rho-bumped and
    dress scaled pins, on the seeded tau times -2/3, pin the sign and
    scale of printed denominators on the defect route and on the lax and
    dress dressing routes; dress scaled prints the bytes of dress seeded,
    since P and L do not depend on tau's scale, while the bumped rho's
    q_1 d^-1 r_1 witnesses do."""

    LAX = {
        "golden-k1":
            (0, "79426bb78354205d8672d9d1fcca3a72dcd9198f6e0acc29755f3fddcd05ffa4"),
        "golden-k1-unpaired":
            (1, "14a9216ec0bae36917b881a3e3b858ad086f5ed15749cfb64423835c61e0a3b0"),
        "golden-k2":
            (0, "bd6f7eb1dd34b8183859e99503f0fb68c3b5960f7fbf8c9fd5c1a9162c2bc096"),
        "golden-k2-unpaired":
            (1, "c11ece18743cb454c0ea293dc7d524419bf1b775affc7f0fd29bcc77f80e65fb"),
        "golden-k3":
            (0, "5e8c4ca993c7ab15e2c1c057914b94bece59f3823ebd86842d5cb5af7dbc49fc"),
        "3t1t2-k2":
            (0, "fe82b7fd55cea6d5cf408fedbaf351909b7c364e7e121c3d6a27625bc5c46803"),
        "t1^3-k2":
            (1, "aea3314c3fac94ecf5be6115fb077a52a9693dcb91957bcf0ae97cce39abc387"),
        "S2^2-k1":
            (1, "d2fcbdd45d7f27bc7dbd71c921912b4e50d1f436e67da45747023f008e83f518"),
        "golden-k2-o3":
            (0, "fc6e1b977727419c15d7cf2611f33c0d6ecb8c44413b86ee85e0aba9b66a539b"),
        "golden-k3-o3":
            (0, "ec6f01175e880bfe43d12b84dcb641ff38fd4ee2d89c221b9113eb05f83690f0"),
        "golden-k1-o8":
            (0, "38932f875eeda6b34f5dc07caac82f88235aee11c34a8e2260e354b3732f05bc"),
        "3t1t2-k2-o3":
            (0, "479f4be893e3f4d421db902fc05e2084cd7d00da8121e745f00860fd36c9faaf"),
        "seeded-k3-unpaired":
            (1, "14019d06f67d6eb302e4f1136d55ded4a51c330d31cefc7a3d183903e55f6986"),
        "seeded-k1-rho-sum":
            (1, "62802b66debc1bbf11e0c7ef829b40c4b6223664f7c554b1c093641d3be2657a"),
        "scaled-k3":
            (1, "f0017f31af568c4678495bd856317859a1e86854b3cb8df139c8c91cc43c9640"),
        "scaled-k3-rho-bumped":
            (1, "53500fbc9f7558869cc384864b84eca865a5211dedf85507eb23c2e0093d09aa"),
    }
    DRESS = {
        "golden":
            (0, "35a31a2afefcb17af9157df5ad181ebc30649e64e096bf4135828e953c9d987e"),
        "3t1t2":
            (0, "baf1321f29a80bd482b4b498b4312512f50f7ea56398f4780592b6acde9e1f04"),
        "t1^3":
            (0, "3edc94e55c1c8890970425865e10befac8d6dd72967ccec6d2fe1ec4f433e20d"),
        "S2^2":
            (0, "1ee4be30631811917cb72328e92f210533ad4605967f3e55f0cbb0149669d43c"),
        "seeded":
            (0, "64b726238c647e18abad44df15bb3e3c7e3b4e56be7bac9a9d93fd86a80fc21d"),
        "scaled":
            (0, "64b726238c647e18abad44df15bb3e3c7e3b4e56be7bac9a9d93fd86a80fc21d"),
    }
    VERIFY = {
        "golden-k1":
            (0, "f544bccf617dfd5f4bf3a3bf21fb2044afa687ce334234334898a1e6e567e0c1"),
        "golden-k1-unpaired":
            (1, "3c3b2065aabac9087cd3cf55a8eec9fe3b5e88199253d83fa1f64e89e5127160"),
        "golden-k2":
            (0, "f544bccf617dfd5f4bf3a3bf21fb2044afa687ce334234334898a1e6e567e0c1"),
        "golden-k2-unpaired":
            (1, "71c481ccb7d16f0cdf5be62636c2197f56a371f88a5747662991604679bbc1fc"),
        "golden-k3":
            (0, "ec0b768b418b04f6095688a96f1744ad5f2a0e556adc712ece076ab5bc57ef17"),
        "t1^2-k1":
            (1, "5e45c0283c353f213d0185d2570348d78c94b927587a3aa594fccb607a45d635"),
        "3t1t2-k2":
            (1, "59e2440442b5838399453889d737d93ac68b8f80121407c61ac81f20a6a6069e"),
    }
    CONSTRUCT = {
        "matrix-n1":
            (0, "6c8c6768082ace84606f4308abc2bffd9580452298b8da64eef369fe47ebb661"),
        "matrix-n0":
            (1, "1000b217437ccdddc0d4b44fa0a292d5050d7a1224b266b98d3f10569fa0e4cb"),
        "matrix3-k2":
            (0, "70a1e45b731bb452a4b275d1888df2081830f5e1713f579f943c977d2d709b33"),
        "grass-min-n-k1":
            (0, "c57f92160706818ab259011e1e1927b456870070ab31469b809e9d0b7d0ebd1f"),
        "grass-min-n-k2":
            (0, "a0e4adf5e9848bc3e9e68f83a9eca6d3c695818c733811beacc740d7a7db3a65"),
        "grass-companions-k1":
            (0, "b974e1107e1c20633e582ad6c8ac314eb8710ab01a8a1b2f02f3d2720775a0f8"),
        "grass-companions-k2":
            (0, "5109be7689808f830938f70e5c7626d3a618535e7ee33bc3b3e52542afe3dca2"),
        "grass-dtk-k1":
            (0, "5e636e1b59049a911acacaa9c4f284efd16d38f4c58187ab4e7c520ec9deb8d2"),
        "grass-dtk-k2":
            (0, "648919df28737014b660deba200613ee7bc93c527d8d80b6ca37b7281eeb3e62"),
        "matrix7x4-w12":
            (0, "4cdb3813fc732448db5b0e45de674c0920927202d1389874aed77cce7cc7baec"),
        "grass-companions-w7":
            (0, "23ee2bcc8e3686ba5ed6d1503365ac6098d678d80358f21b384460cd79bf42e3"),
        "psi+1/2":
            (0, "18d520fb91f084d555fd438429fbceac1223dda9faf1282baae0086769154137"),
        "psi+-5/2":
            (0, "0c2e2052da54437b1044602a4311cedd1698809350f4b59ed9d7102207ebfe2b"),
        "psi-3/2":
            (0, "08efceebf4dff2fee8c71f958d494ad23a1ed482ffc90b5debd6ae30c62689f8"),
        "psi--1/2":
            (0, "9a8939f02253e59652d994b58168d182820eb9d53b8c57d62184aaf7357c07ef"),
        "alpha0":
            (0, "2423d8095acfef1f4bb95e6d25f7659749b0cef6169f7f3447456a636bffa344"),
        "alpha2":
            (0, "2d28ed2db794da4554f2dbd8bfcda6693cf212c527474461ec86e749a085243e"),
        "alpha-1":
            (0, "b6378b32f74e7b3eec98f01948f2e22bff3a424ce6fb31dc33e162f1d76d66b2"),
        "Q-2":
            (0, "d97410647ddaba10e5a18b177abbd270bd1a2207dd199196d48a80c171d33777"),
    }

    @staticmethod
    def outputs(capsys, tmp_path, golden_point):
        """{(command, id): (exit code, sha256 of stdout)}."""
        out = {}
        for name, tau, rhos, sigmas, k, order in digest_cases(golden_point):
            files = write_job(tmp_path, name, tau, rhos, sigmas)
            code, stdout, _ = run(capsys, ["lax", *files, "--k", str(k),
                                           "--order", str(order)])
            out["lax", name] = code, hashlib.sha256(stdout.encode()).hexdigest()
            dress = name.split("-")[0]
            if ("dress", dress) not in out:
                code, stdout, _ = run(capsys, ["dress", *files[:2]])
                out["dress", dress] = code, hashlib.sha256(stdout.encode()).hexdigest()
        for name, tau, rhos, sigmas, k in verify_digest_cases(golden_point):
            files = write_job(tmp_path, f"verify-{name}", tau, rhos, sigmas)
            code, stdout, _ = run(capsys, ["verify", *files, "--k", str(k)])
            out["verify", name] = code, hashlib.sha256(stdout.encode()).hexdigest()
        return out

    def test_reports_are_byte_identical(self, capsys, tmp_path, golden_point):
        want = {("lax", name): pin for name, pin in self.LAX.items()}
        want.update((("dress", name), pin) for name, pin in self.DRESS.items())
        want.update((("verify", name), pin) for name, pin in self.VERIFY.items())
        assert self.outputs(capsys, tmp_path, golden_point) == want

    def test_construct_reports_are_byte_identical(self, capsys, tmp_path):
        # computed with a Fraction per wedge term and per Schur image term
        out = {}
        for name, argv in construct_digest_jobs(tmp_path).items():
            code, stdout, _ = run(capsys, argv)
            out[name] = code, hashlib.sha256(stdout.encode()).hexdigest()
        assert out == self.CONSTRUCT


class TestFockApply:
    def test_wedge(self, capsys, golden_files):
        code, out, _ = run(capsys, ["fock-apply", "--op", "psi+",
                                    "--index=-1/2", "--vector",
                                    golden_files["vector"]])
        assert code == 0
        assert json.loads(out)["result"] == \
            [{"state": {"charge": 1, "partition": []}, "coef": "1"}]

    def test_alpha(self, capsys, golden_files):
        code, out, _ = run(capsys, ["fock-apply", "--op", "alpha",
                                    "--index=-1", "--vector",
                                    golden_files["vector"]])
        assert code == 0
        assert json.loads(out)["result"] == \
            [{"state": {"charge": 0, "partition": [1]}, "coef": "1"}]

    def test_charge_shift(self, capsys, golden_files):
        code, out, _ = run(capsys, ["fock-apply", "--op", "Q", "--index", "2",
                                    "--vector", golden_files["vector"]])
        assert code == 0
        assert json.loads(out)["result"][0]["state"]["charge"] == 2

    @pytest.mark.parametrize("op,index", [
        ("alpha", cli.MAX_INDEX + 1), ("alpha", -cli.MAX_INDEX - 1),
        ("Q", cli.MAX_INDEX + 1), ("psi-", f"-{2 * cli.MAX_INDEX + 1}/2"),
        ("psi+", f"{2 * cli.MAX_INDEX + 1}/2"),
    ])
    def test_index_above_limit(self, capsys, golden_files, op, index):
        code, out, err = run(capsys, ["fock-apply", "--op", op, f"--index={index}",
                                      "--vector", golden_files["vector"]])
        assert (code, out) == (2, "")
        assert err == (f"input error: --index must be at most {cli.MAX_INDEX} "
                       f"in absolute value, got {index}\n")

    @pytest.mark.parametrize("charge", [cli.MAX_INDEX + 1, -cli.MAX_INDEX - 1])
    def test_charge_above_limit(self, capsys, tmp_path, charge):
        path = tmp_path / "vector.json"
        path.write_text(json.dumps(
            [{"state": {"charge": charge, "partition": []}, "coef": "1"}]))
        code, out, err = run(capsys, ["fock-apply", "--op", "psi-",
                                      "--index=1/2", "--vector", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("input error:") and "state charges" in err

    @pytest.mark.parametrize("length,exit_code", [(cli.MAX_INDEX, 0),
                                                  (cli.MAX_INDEX + 1, 2)])
    def test_partition_length_limit(self, capsys, tmp_path, length, exit_code):
        # alpha is quadratic in the number of parts of a state
        path = tmp_path / "vector.json"
        path.write_text(json.dumps(
            [{"state": {"charge": 0, "partition": [1] * length}, "coef": "1"}]))
        code, out, err = run(capsys, ["fock-apply", "--op", "alpha",
                                      "--index", "1", "--vector", str(path)])
        assert code == exit_code
        if exit_code:
            assert out == ""
            assert err == (f"input error: {path}: a state's partition has more "
                           f"than {cli.MAX_INDEX} parts\n")
        else:
            assert json.loads(out)["result"]

    @pytest.mark.parametrize("parts", [[1, 2], [2, 0]])
    def test_state_not_a_partition(self, capsys, tmp_path, parts):
        # checked where a state comes in, not on every state the operators build
        path = tmp_path / "vector.json"
        path.write_text(json.dumps(
            [{"state": {"charge": 0, "partition": parts}, "coef": "1"}]))
        code, out, err = run(capsys, ["fock-apply", "--op", "alpha",
                                      "--index=-1", "--vector", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: {path}: bad vector payload") \
            and "partition parts must be" in err

    @pytest.mark.parametrize("op,index", [
        ("alpha", -cli.MAX_INDEX), ("psi-", f"-{2 * cli.MAX_INDEX - 1}/2"),
    ])
    def test_index_at_limit(self, capsys, golden_files, op, index):
        code, _, _ = run(capsys, ["fock-apply", "--op", op, f"--index={index}",
                                  "--vector", golden_files["vector"]])
        assert code == 0


class TestConfig:
    def test_pretty_mode(self, capsys, golden_files):
        code, out, _ = run(capsys, ["grass", "min-n", "--grpoint",
                                    golden_files["point"], "--k", "1", "--pretty"])
        assert code == 0 and out.startswith("{\n")

    def test_config_file(self, capsys, golden_files):
        # --order alone sets the checked orders; there is no config file
        code, out, _ = run(capsys, ["lax", "--tau", golden_files["tau"],
                                    "--rho", golden_files["rho"],
                                    "--sigma", golden_files["sigma"],
                                    "--k", "1", "--order", "3"])
        assert code == 0
        payload = json.loads(out)
        assert [c["order"] for c in payload["constraint"]["orders"]] == [-1, -2, -3]


def command_argvs(files) -> dict[str, list[str]]:
    """One valid argv per command, each exiting 0 on the golden files."""
    return {
        "tau-from-matrix": ["tau-from-matrix", "--matrix", files["matrix"], "--k", "1",
                            "--n", "1"],
        "verify": ["verify", "--tau", files["tau"], "--rho", files["rho"],
                   "--sigma", files["sigma"], "--k", "1"],
        "grass": ["grass", "min-n", "--grpoint", files["point"], "--k", "1"],
        "dress": ["dress", "--tau", files["tau"], "--order", "3"],
        "lax": ["lax", "--tau", files["tau"], "--rho", files["rho"],
                "--sigma", files["sigma"], "--k", "1", "--order", "3"],
        "fock-apply": ["fock-apply", "--op", "psi+", "--index=-1/2",
                       "--vector", files["vector"]],
    }


class TestParsers:
    """main parses a named command with that command's own parser, built on
    its first use in a process and reused after; the listing parser, every
    command a subparser, serves an argv that names none."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The prog of every ArgumentParser constructed, in order."""
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return progs

    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_one_parser_per_command(self, capsys, golden_files, built, name):
        # the first call builds the command's parser, the second reuses it
        cli._parser.cache_clear()
        for expected in ([f"tauforge {name}"], []):
            built.clear()
            code, out, err = run(capsys, command_argvs(golden_files)[name])
            assert (code, err) == (0, "") and out
            assert built == expected

    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_named_command_never_builds_the_listing_parser(self, capsys, golden_files,
                                                           built, name):
        cli._parser.cache_clear()
        code, _, _ = run(capsys, command_argvs(golden_files)[name])
        assert code == 0
        for rest, code in ([["-h"], 0], [[], 2], [["--bogus"], 2]):
            with pytest.raises(SystemExit) as exc:
                main([name, *rest])
            assert exc.value.code == code
        capsys.readouterr()
        assert built == [f"tauforge {name}"]

    def test_reuse_leaks_nothing_between_calls(self, monkeypatch, golden_files):
        seen = []
        for name in ("verify", "lax"):
            help_line, _, add_args = cli.COMMANDS[name]
            monkeypatch.setitem(cli.COMMANDS, name,
                                (help_line, lambda args: seen.append(vars(args)) or 0,
                                 add_args))
        tau, rho, sigma = (golden_files[key] for key in ("tau", "rho", "sigma"))
        for argv in (["verify", "--tau", tau, "--rho", rho, "--rho", rho, "--k", "1"],
                     ["verify", "--tau", tau, "--k", "1"],
                     ["lax", "--tau", tau, "--sigma", sigma, "--k", "1", "--order", "3"],
                     ["lax", "--tau", tau, "--k", "1"]):
            assert main(argv) == 0
        assert [(args["rho"], args["sigma"]) for args in seen] == \
            [([rho, rho], []), ([], []), ([], [sigma]), ([], [])]
        assert [args.get("order") for args in seen] == [None, None, 3, 5]

    @pytest.mark.parametrize("name", ["verify", "lax"])
    def test_help_follows_columns_when_printed(self, capsys, monkeypatch, name):
        # the cached parser is built once, at whatever width, and wraps its
        # help at the width in force when it prints
        cli._parser(name)
        texts = {}
        for columns in ("80", "120"):
            monkeypatch.setenv("COLUMNS", columns)
            for parse in (main, cli._listing_parser().parse_args):
                with pytest.raises(SystemExit) as exc:
                    parse([name, "-h"])
                assert exc.value.code == 0
                texts.setdefault(columns, []).append(capsys.readouterr().out)
        assert texts["80"][0] == texts["80"][1]
        assert texts["120"][0] == texts["120"][1]
        assert texts["80"][0] != texts["120"][0]

    @pytest.mark.parametrize("argv,code", [(["-h"], 0), ([], 2), (["bogus"], 2)])
    def test_listing_parser_when_no_command_is_named(self, capsys, built, argv, code):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == code
        assert built == ["tauforge", *(f"tauforge {name}" for name in cli.COMMANDS)]
        assert all(name in out + err for name in cli.COMMANDS)

    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    @pytest.mark.parametrize("rest,code", [(["-h"], 0), ([], 2)])
    def test_same_text_as_the_listing_subparser(self, capsys, monkeypatch, name,
                                                 rest, code):
        # help, and the usage error of a missing required argument
        monkeypatch.setenv("COLUMNS", "80")
        texts = []
        for parse in (main, cli._listing_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse([name, *rest])
            assert exc.value.code == code
            texts.append(capsys.readouterr())
        assert texts[0] == texts[1]
        assert (texts[0].out + texts[0].err).startswith(
            f"usage: tauforge {name} [-h] [--pretty]")

    def test_unknown_flag_against_the_command_usage(self, capsys, golden_files):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--tau", golden_files["tau"], "--k", "1", "--bogus"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.startswith("usage: tauforge verify ")
        assert err.endswith("tauforge verify: error: unrecognized arguments: --bogus\n")

    def test_child_process_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        env = {**os.environ, "PYTHONPATH": str(Path(tauforge.__file__).parents[1])}

        def child(*argv):
            return subprocess.run([sys.executable, "-m", "tauforge.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=20)

        with pytest.raises(SystemExit):
            main(["verify", "-h"])
        done = child("verify", "-h")
        assert (done.returncode, done.stdout, done.stderr) == \
            (0, capsys.readouterr().out, "")
        done = child()
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("usage: tauforge [-h] {tau-from-matrix,verify,")
        assert done.stderr.endswith("tauforge: error: the following arguments are "
                                    "required: command\n")


def _json_values(st):
    """Small arbitrary JSON values."""
    scalars = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=4))
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                        max_leaves=6)


def _vector_payloads(st):
    """Arbitrary JSON, and lists shaped like a FockVector payload."""
    ints = st.integers() | st.integers(-70, 70)
    coefs = st.sampled_from(["1", "-1/2", "0", "3/0", "x"]) | st.integers() | st.floats()
    state = st.fixed_dictionaries({"charge": ints | st.text(max_size=2),
                                   "partition": st.lists(ints, max_size=4)})
    item = st.fixed_dictionaries({"state": state | _json_values(st), "coef": coefs})
    return _json_values(st) | st.lists(item | _json_values(st), max_size=3)


def test_fock_vector_fuzz_exit_codes(tmp_path):
    """Any JSON value as a fock-apply --vector ends in exit 0, 1 or 2."""
    hyp = pytest.importorskip("hypothesis")
    vector = tmp_path / "vector.json"
    st = hyp.strategies
    ops = st.sampled_from([("psi+", "-1/2"), ("psi+", "3/2"), ("psi-", "1/2"),
                           ("psi-", "-5/2"), ("alpha", "-3"), ("alpha", "2"),
                           ("Q", "-1")])

    @hyp.settings(max_examples=150, deadline=None, database=None,
                  derandomize=True)
    @hyp.given(_vector_payloads(st), ops)
    def check(payload, op):
        vector.write_text(json.dumps(payload))
        out, err = io.StringIO(), io.StringIO()
        argv = ["fock-apply", "--op", op[0], f"--index={op[1]}", "--vector", str(vector)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)  # an escape is a traceback
        assert code in (0, 1, 2), (payload, err.getvalue())
        assert "Traceback" not in err.getvalue()

    check()


def _mostly(st, good, bad):
    """good nine draws in ten, else bad, so most payloads get past the loader."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 0 else good)


def _loader_payloads(st, loader):
    """Objects shaped like the loader's payload with a stray bad field here
    and there, and arbitrary JSON.  Any integer may stand in a field, the
    tail and the pivots of a point included: the point budget rejects a
    heavy point before any work, and the charge alone costs little.
    """
    junk = (st.none() | st.booleans() | st.floats() | st.text(max_size=2)
            | st.sampled_from(["1/0", "1e5", "x", "1.5"]))
    big = junk | st.integers()
    coef = _mostly(st, st.sampled_from(["1", "-1/2", "0", "3", "-2/3"]), big)
    small = _mostly(st, st.integers(-6, 6), big)
    if loader == "tau":
        term = st.fixed_dictionaries({
            "exp": _mostly(st, st.lists(_mostly(st, st.integers(0, 2), big),
                                        min_size=3, max_size=3),
                           st.lists(big, max_size=4)),
            "coef": coef})
        poly = st.fixed_dictionaries({"vars": _mostly(st, st.just(3), big),
                                      "terms": _mostly(st, st.lists(term, max_size=3), big)})
        shaped = st.fixed_dictionaries({"charge": _mostly(st, st.integers(-6, 6), big),
                                        "poly": _mostly(st, poly, _json_values(st))})
    elif loader == "grpoint":
        row = st.fixed_dictionaries({
            "minExp": small,
            "coefs": _mostly(st, st.lists(coef, min_size=1, max_size=3), junk)})
        shaped = st.fixed_dictionaries({
            "tail": small, "basis": _mostly(st, st.lists(row, max_size=3), junk)})
    else:
        shaped = st.integers(1, 5).flatmap(lambda rows: st.integers(1, 3).flatmap(
            lambda cols: st.fixed_dictionaries({
                "rows": _mostly(st, st.just(rows), big),
                "cols": _mostly(st, st.just(cols), big),
                "entries": _mostly(st, st.lists(st.lists(coef, min_size=cols,
                                                         max_size=cols),
                                                min_size=rows, max_size=rows),
                                   junk)})))
    return _mostly(st, shaped, _json_values(st))


@pytest.mark.parametrize("loader,argv", [
    ("tau", ["verify", "--tau"]),
    ("grpoint", ["grass", "min-n", "--grpoint"]),
    ("grpoint", ["grass", "companions", "--grpoint"]),
    ("grpoint", ["grass", "dtk", "--grpoint"]),
    ("matrix", ["tau-from-matrix", "--matrix"]),
])
def test_loader_fuzz_exit_codes(tmp_path, loader, argv):
    """Any JSON value as a tau, point or matrix file ends in exit 0, 1 or 2:
    never an internal error, never a traceback."""
    hyp = pytest.importorskip("hypothesis")
    path = tmp_path / "input.json"
    st = hyp.strategies

    @hyp.settings(max_examples=60, deadline=None, database=None,
                  derandomize=True)
    @hyp.given(_loader_payloads(st, loader), st.sampled_from(["1", "2"]),
               st.sampled_from(["0", "1", "2"]))
    def check(payload, k, n):
        path.write_text(json.dumps(payload))
        extra = ["--n", n] if loader == "matrix" else []
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, str(path), "--k", k, *extra])  # an escape is a traceback
        assert code in (0, 1, 2), (payload, err.getvalue())
        assert "Traceback" not in err.getvalue()

    check()
