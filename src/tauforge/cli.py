"""Command-line driver with JSON input and output.

Exit codes follow one contract everywhere: 0 means constructed or
verified, 1 means a verification or condition check failed (the report
carries the witness), 2 means malformed input, 3 means an internal
fault (an exactness guard or a self-check of the arithmetic failed; no
input should cause it).  All numbers are exact rational strings;
nothing is ever printed in decimal.

Each command's parser is built once per process, on the first job that
names it, so a batch of jobs in one process pays argparse's set-up once;
the listing parser of every command is built only to print help or the
usage error of an argv that names no command.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

from .mpoly import parse_int, parse_rat
from .schur import ChargedPoly
from .fock import FockVector, alpha, psi_minus, psi_plus, shift_charge
from .grassmann import (GeneratorConditionError, GrassmannError, GrPoint,
                        companions, dtk_decomposition, generate_from_matrix,
                        point_rows, reduce_rows, stable_subspace)
from .hirota import verify_suite
from .psdo import dress_from_tau, lax_depth, verify_lax


# Upper bounds on the variable count of a polynomial file, --k and the
# fock-apply --index, state charges and partition lengths: work grows
# linearly in D (MAX_DEPTH bounds the depth), about 7x per step of 4 in
# --k, quadratically in the index of a current mode and in the number of
# parts of a state, and linearly in the charge of a state that psi-
# contracts inside its filled tail, so no flag, file or vector can ask for
# unbounded work.  On one state 1^n, fock-apply --op alpha --index 1 took
# 0.50 s at n = 2,000 and 6.4 s at n = 8,000 (in a child process, start-up
# included, best of two, on a 2-core x86 machine under CPython 3.11); with
# at most 64 parts per state the work grows linearly in the number of
# states, and 1,000 random 64-part states under --index -64 took 3.5 s.
MAX_VARS = 64
MAX_K = 16
MAX_INDEX = 64
# Upper bound on the dressing depth, the one bound on --order: the depth is
# lax_depth(k, T) = max(T, 4) + k for lax and T + 1 for dress, so --k and
# --order share one limit and cannot multiply; work grows about cubically in
# the depth.
# Only lax's witness path dresses: a tau that fails KP, or a job whose rho_j
# or sigma_j fails.  A job whose bilinear identities all hold does not, nor
# does a KP tau that fails constrained-k alone, whose constraint is read off
# that defect, so for those the limit refuses jobs that would run no
# dressing.  Every corner below takes the witness path, with Newton steps
# and, for k >= 2, the commutator: none of these taus is a KP tau.  Timed
# in a child process, start-up included, best of two, on a 2-core x86
# machine under CPython 3.11, on t_1^2 + t_2: depth 20 (lax --k 16 --order
# 4) 0.15 s, (--k 1 --order 19) 0.12 s; 28 (--k 16 --order 12) 0.26 s; 32
# (--order 16) 0.37 s; 36 (--order 20) 0.53 s; 42 (--k 1 --order 41) 0.63 s;
# 80 (--k 16 --order 64) 16-19 s in two runs.  On t_1^8: depth 20 (--k 16
# --order 4) 0.15 s.  On t_1^8 + t_2^4, at the weight limit: depth 15 (--k
# 11 --order 4) 0.20 s, 16 (--k 12) 0.25 s, 20 (--k 16) 0.56 s, 24 (--k 1
# --order 23) 0.65 s.
MAX_DEPTH = 20
# Upper bound on the weighted degree of a --tau, --rho or --sigma file and
# of the tau of a --grpoint point: the bilinear residues of verify grow
# about 2x per step of weight (verify --k 1 on t_1^8 takes 0.23 s of CPU,
# start-up included; in process, with cold caches, verify_suite takes 0.024,
# 0.045 and 0.099 s on t_1^8, t_1^9 and t_1^10, best of 28, and up to 0.038,
# 0.078 and 0.17 s, on a 2-core x86 machine under CPython 3.11: no wave
# factor of these taus vanishes at an order a residue reads, so every
# order is formed); grass companions took 7 s on a weight-19 point, at
# most 0.3 s on weight-8 points for --k 1..16, with tails of 0, -10^6 and
# -10^300 alike.
MAX_WEIGHT = 8
# Upper bound on terms^2 x depth^3 for the --tau of lax and dress, the depth
# being that of the dressing (see MAX_DEPTH); verify is not bounded by it.
# It admits 5 terms at depth 8, the deepest bench lax job (--k 3 --order 5),
# and 4 at depth 10.  It models the witness path only (a tau that fails KP,
# or a failing rho_j or sigma_j) but is applied to every lax job, those
# that dress nothing included.  The first n printed terms of S_(8) (8
# variables, weight 8) are no KP tau for n < 22, so those corners below
# dress; all 22 terms are a KP tau that fails constrained-1 alone, whose
# constraint lax reads off the defect, dressing nothing.  Timed as above,
# lax at --order 5 (dress --order 3 at depth 4), (n, depth) inside: (4, 10)
# 0.21 s, (5, 8) 0.23 s, (3, 12) 0.23 s, (8, 6) 0.17 s, (15, 4) 0.17 s,
# (2, 15) 0.14 s, (1, 20) 0.17 s; outside, with the limit lifted: (6, 8)
# 0.29 s, (6, 10) 0.95 s, (5, 10) 0.59 s, (4, 12) 0.38 s, (3, 16) 0.69 s,
# (2, 20) 0.24 s (0.52 s on t_1^8 + t_2^4), (3, 20) 2.2 s, (22, 4) 0.15 s,
# and (22, 6) at lax --k 1 0.48 s.  So the limit refuses jobs of under
# 1 s; its model has no --k term, and it stays until one is fitted.
MAX_LAX_WORK = 4**2 * 10**3
# Upper bound on the characters of the coefficients of a --grpoint file,
# counted before any is parsed; a file also has at most MAX_INDEX rows.  The
# elimination grows about cubically in the rows and faster than linearly in
# the digits, so the characters bound its cost only loosely.  In a child
# process on the machine above, cli.main's own time (the file read into
# integer rows, reduced, then refused by MAX_WEIGHT), best of two, on r rows
# of r + 8 random coefficients at the limit: r = 41 of 1 digit 0.03-0.05 s,
# 28 of 2 characters 0.02 s, 20 of 3 digits and 16 of 5 digits 0.01 s, 10 of
# 10 digits and 8 of 16 digits 0.005 s, 1 to 4 rows of 40 to 250 digits
# 0.003 s; with the limit lifted, 64 rows of 72 60-digit ones 17 s, 64 rows
# of 4,096 2-character ones 0.6 s and 8 rows of 20,000 0.4 s.
MAX_POINT_CHARS = 2048
# Upper bounds on the shape of a --matrix and on the characters of its
# entries, counted before any is parsed: tau is the Schur image of the wedge
# of the columns (Sato's formula), whose states fill the cols x (rows - cols)
# box, so the work grows with the box and with the digits.  They admit every
# bench tau-from-matrix job (at most 8 x 4 of small integers).  In a child
# process on the machine above, cli.main's own time, best of two, on random
# entries: inside, 8 x 6 of one digit 0.015 s and at 1,968 characters
# (20-digit over 20-digit rationals) 0.03 s, 8 x 5 and 7 x 6 of such
# rationals 0.05 and 0.01 s; outside, 8 x 7 0.007 s (0.02 s at 2,296
# characters), 9 x 6 0.11 s, 12 x 4 1.9 s, 12 x 5 10 s (one run), 20 x 3
# past 45 s, and 8 x 4 of 1,000-digit rationals 1.7 s before the printing
# of its tau, whose coefficients pass CPython's 4,300-digit limit on int
# strings, exits 2.
MAX_MATRIX_ROWS = 8
MAX_MATRIX_COLS = 6
MAX_MATRIX_CHARS = 2048


class InputError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder's stack allows
        raise InputError(f"{path}: {exc}") from exc


def _load(path: str, kind: str, parse):
    """parse(JSON of path); a payload it rejects is a bad <kind> payload."""
    data = _load_json(path)
    try:
        return parse(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad {kind} payload ({exc})") from exc


def _load_charged_poly(path: str) -> ChargedPoly:
    cp = _load(path, "polynomial", ChargedPoly.from_json)
    if cp.poly.vars > MAX_VARS:
        raise InputError(f"{path}: {cp.poly.vars} variables is above the limit "
                         f"{MAX_VARS}")
    if cp.weight > MAX_WEIGHT:
        raise InputError(f"{path}: weighted degree {cp.weight} is above the "
                         f"limit {MAX_WEIGHT}")
    return cp


def _load_lax_tau(path: str, depth: int) -> ChargedPoly:
    """The --tau of lax or dress, whose dressing goes down to order -depth."""
    tau = _load_charged_poly(path)
    terms = len(tau.poly.num)
    if terms**2 * depth**3 > MAX_LAX_WORK:
        raise InputError(f"{path}: {terms} terms at dressing depth {depth} is above "
                         f"the limit terms^2 x depth^3 <= {MAX_LAX_WORK}")
    return tau


def _load_grpoint(path: str) -> GrPoint:
    def parse(data) -> GrPoint:
        if not isinstance(data, dict):
            raise InputError(f"{path}: a point must be a JSON object")
        basis = data.get("basis", [])
        chars = sum(len(str(c)) for row in basis for c in row["coefs"])
        if len(basis) > MAX_INDEX or chars > MAX_POINT_CHARS:
            raise InputError(f"{path}: {len(basis)} rows of {chars} coefficient "
                             f"characters is above the limit of {MAX_INDEX} rows "
                             f"of {MAX_POINT_CHARS} characters")
        rows, tail = point_rows(data)
        # the top part of the pivot partition, -low - tail - (pivot count),
        # the lowest exponent below the tail being low = -tail - 1 - (top key)
        top = max((max(row.num) for row in rows if row.num), default=-1)
        least = top + 1 - len(rows)
        if least > MAX_WEIGHT:
            raise InputError(f"{path}: the point's tau has weighted degree at "
                             f"least {least}, above the limit {MAX_WEIGHT}")
        return reduce_rows(rows, tail)

    point = _load(path, "point", parse)
    if point.weight > MAX_WEIGHT:
        raise InputError(f"{path}: the point's tau has weighted degree "
                         f"{point.weight}, above the limit {MAX_WEIGHT}")
    return point


def _load_matrix(path: str) -> list[list[Fraction]]:
    def parse(data) -> list[list[Fraction]]:
        rows, cols = parse_int(data["rows"]), parse_int(data["cols"])
        if not rows > cols > 0:
            raise InputError(f"{path}: need rows > cols > 0, got {rows} x {cols}")
        if rows > MAX_MATRIX_ROWS or cols > MAX_MATRIX_COLS:
            raise InputError(f"{path}: a {rows} x {cols} matrix is above the limit "
                             f"of {MAX_MATRIX_ROWS} rows and {MAX_MATRIX_COLS} columns")
        grid = data["entries"]
        if (not isinstance(grid, list) or len(grid) != rows
                or any(not isinstance(r, list) or len(r) != cols for r in grid)):
            raise InputError(f"{path}: entry grid does not match rows x cols")
        chars = sum(len(str(v)) for row in grid for v in row)
        if chars > MAX_MATRIX_CHARS:
            raise InputError(f"{path}: {chars} entry characters is above the limit "
                             f"{MAX_MATRIX_CHARS}")
        return [[parse_rat(v) for v in row] for row in grid]

    return _load(path, "matrix", parse)


def _load_fock(path: str) -> FockVector:
    vec = _load(path, "vector", FockVector.from_json)
    if any(abs(m) > MAX_INDEX for m in vec.charges()):
        raise InputError(f"{path}: state charges must be at most {MAX_INDEX} "
                         "in absolute value")
    if any(len(parts) > MAX_INDEX for _, parts in vec.num):
        raise InputError(f"{path}: a state's partition has more than {MAX_INDEX} "
                         "parts")
    return vec


def _emit(payload, pretty: bool) -> None:
    if pretty:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def cmd_tau_from_matrix(args) -> int:
    entries = _load_matrix(args.matrix)
    try:
        point, tau, report = generate_from_matrix(entries, args.k, args.n)
    except GeneratorConditionError as exc:
        _emit({"error": str(exc), "report": exc.report.to_json()}, args.pretty)
        return 1
    except GrassmannError as exc:
        _emit({"error": str(exc)}, args.pretty)
        return 1
    _emit({"tau": tau.to_json(), "report": report.to_json(),
           "grpoint": point.to_json()}, args.pretty)
    return 0


def cmd_verify(args) -> int:
    tau = _load_charged_poly(args.tau)
    rhos = [_load_charged_poly(p) for p in args.rho]
    sigmas = [_load_charged_poly(p) for p in args.sigma]
    report = verify_suite(tau, rhos, sigmas, args.k)
    _emit(report.to_json(), args.pretty)
    return 0 if report.all_pass else 1


def cmd_grass(args) -> int:
    point = _load_grpoint(args.grpoint)
    if args.action == "min-n":
        sub, n = stable_subspace(point, args.k)
        _emit({"n": n, "stable": sub.to_json(),
               "charge": point.charge}, args.pretty)
    elif args.action == "companions":
        tau, rhos, sigmas = companions(point, args.k)
        _emit({"tau": tau.to_json(),
               "rho": [r.to_json() for r in rhos],
               "sigma": [s.to_json() for s in sigmas]}, args.pretty)
    else:
        parts = dtk_decomposition(point, args.k)
        _emit({"parts": [p.to_json() for p in parts]}, args.pretty)
    return 0


def _check_depth(depth: int, flags: str) -> None:
    if depth > MAX_DEPTH:
        raise InputError(f"{flags}: dressing depth {depth} is above the limit "
                         f"{MAX_DEPTH}")


def cmd_dress(args) -> int:
    depth = args.order + 1
    _check_depth(depth, f"--order {args.order}")
    tau = _load_lax_tau(args.tau, depth)
    pair = dress_from_tau(tau, args.order)
    _emit({"P": pair.P.to_json(), "L": pair.L.to_json()}, args.pretty)
    return 0


def cmd_lax(args) -> int:
    depth = lax_depth(args.k, args.order)
    _check_depth(depth, f"--k {args.k} and --order {args.order}")
    tau = _load_lax_tau(args.tau, depth)
    rhos = [_load_charged_poly(p) for p in args.rho]
    sigmas = [_load_charged_poly(p) for p in args.sigma]
    constraint, *flows = verify_lax(tau, rhos, sigmas, args.k, args.order)
    payload = {"constraint": constraint.to_json(),
               "flows": [f.to_json() for f in flows]}
    _emit(payload, args.pretty)
    ok = constraint.all_pass and all(f.all_pass for f in flows)
    return 0 if ok else 1


def cmd_fock_apply(args) -> int:
    vec = _load_fock(args.vector)
    op = {"psi+": psi_plus, "psi-": psi_minus, "alpha": alpha, "Q": shift_charge}[args.op]
    try:
        index = parse_rat(args.index) if args.op in ("psi+", "psi-") else int(args.index)
        if abs(index) > MAX_INDEX:
            raise InputError(f"--index must be at most {MAX_INDEX} in absolute "
                             f"value, got {args.index}")
        out = op(index, vec)
    except (ValueError, TypeError) as exc:
        raise InputError(str(exc)) from exc
    _emit({"result": out.to_json()}, args.pretty)
    return 0


def _tau_from_matrix_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=0, help="allowed chain violations")


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau", required=True)
    p.add_argument("--rho", action="append", default=[])
    p.add_argument("--sigma", action="append", default=[])
    p.add_argument("--k", type=int, required=True)


def _grass_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("action", choices=["min-n", "companions", "dtk"])
    p.add_argument("--grpoint", required=True)
    p.add_argument("--k", type=int, required=True)


def _dress_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau", required=True)
    p.add_argument("--order", type=int, default=5)


def _lax_args(p: argparse.ArgumentParser) -> None:
    _verify_args(p)
    p.add_argument("--order", type=int, default=5)


def _fock_apply_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--op", required=True, choices=["psi+", "psi-", "alpha", "Q"])
    p.add_argument("--index", required=True)
    p.add_argument("--vector", required=True)


# name -> (help line, command, the function that adds its arguments); the
# one table both the named command's parser and the listing parser read
COMMANDS = {
    "tau-from-matrix": ("build tau from chain-matrix data", cmd_tau_from_matrix,
                        _tau_from_matrix_args),
    "verify": ("run the bilinear identity suite", cmd_verify, _verify_args),
    "grass": ("filtration data of a point", cmd_grass, _grass_args),
    "dress": ("dressing and Lax operators of tau", cmd_dress, _dress_args),
    "lax": ("constraint and flow checks on the Lax side", cmd_lax, _lax_args),
    "fock-apply": ("apply a fermion-side operator", cmd_fock_apply, _fock_apply_args),
}


def _add_arguments(p: argparse.ArgumentParser, add_args) -> argparse.ArgumentParser:
    """--pretty first, then the command's own arguments, in help order."""
    p.add_argument("--pretty", action="store_true", help="indent output")
    add_args(p)
    return p


@lru_cache(maxsize=None)
def _parser(name: str) -> argparse.ArgumentParser:
    """The parser of one named command, built on its first use in a process
    and reused after: parse_args leaves it as it was, and help text reads
    COLUMNS when it is printed."""
    return _add_arguments(argparse.ArgumentParser(prog=f"tauforge {name}"),
                          COMMANDS[name][2])


def _listing_parser() -> argparse.ArgumentParser:
    """The top-level parser with every command as a subparser: it prints the
    help that lists them, and the usage error of an argv that names none."""
    parser = argparse.ArgumentParser(
        prog="tauforge",
        description="construct and verify polynomial tau-functions of the "
                    "vector k-constrained KP hierarchy")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, add_args) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_line), add_args)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a named command parses with its own cached parser; the listing parser
    # is built only for -h, an empty argv or an unknown command
    if argv and argv[0] in COMMANDS:
        args = _parser(argv[0]).parse_args(argv[1:])
        fn = COMMANDS[argv[0]][1]
    else:
        args = _listing_parser().parse_args(argv)
        fn = COMMANDS[args.command][1]
    try:
        if getattr(args, "k", 1) < 1:
            raise InputError(f"--k must be at least 1, got {args.k}")
        if getattr(args, "k", 1) > MAX_K:
            raise InputError(f"--k must be at most {MAX_K}, got {args.k}")
        if getattr(args, "n", 0) < 0:
            raise InputError(f"--n must be at least 0, got {args.n}")
        return fn(args)
    except (InputError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
