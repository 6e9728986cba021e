"""Exact verification of the bilinear residue identities.

Each identity is Sato's bilinear identity (Date, Jimbo, Kashiwara and
Miwa 1983) for a pair (u at charge a, v at charge b):

    Res_z  z**(a-b) * w_u(t, z) * w*_v(t', z)  =  sum_j a_j(t) b_j(t'),

with the wave factors w_u(t, z) = u(t - [z**-1]) exp(xi(t, z)) and
w*_v(t', z) = v(t' + [z**-1]) exp(-xi(t', z)).  The charge difference in
the exponent is exactly the z**(charge) factor of the bosonized fermion
fields, so this single formula reproduces every identity in the family:
weight z**0 for the plain hierarchy test, z**k against the k-shifted
partner, and z**-1 for both eigenfunction identities.  The fermionic
pairing is the normative mirror: the residue equals the Schur image of
sum_i (wedge_i u) (x) (contract_{-i} v), coefficient by coefficient.
Fermionically each identity is one integer dict, ``fock.pairing_defect``
of (u, v) against its pairs, over one common denominator and empty
exactly when the identity holds; it reads each operand's FockVector
image, integer numerators over one denominator, as stored, and no
bosonic result, so the mirror stays an independent oracle.

Each wave factor is built once per operand and side: its z-coefficients
A_m(t) and B_n(t') are polynomials in D variables, one Miwa shift times
the one-sided kernel sum_j S_j(+-t) z**j, each formed on its first read.
The residue is sum_m A_m (x) B_{N-m}, N = -1 - (a - b), a sum of tensors
that is never multiplied out; a term with a zero factor is dropped, and
its other factor is not formed unless another term reads it.  The
right-hand factors B_n and b_j are brought to echelon rows e_k by
``mpoly.Echelon`` (distinct leads k, so linearly independent) and the
left-hand combinations X_k carried along, so that the defect is
sum_k X_k (x) e_k: an identity holds exactly when every X_k is zero, and
a pass forms no product in the doubled space.  A failure's witness is
that sum, expanded once over the doubled space (t in slots 1..D, t' in
slots D+1..2D), in canonical form.
``bilinear_defects`` is that bosonic half and the only place that
assembles a bosonic defect: ``kp_residue`` expands its KP defect, and
``psdo`` reads the Lax verdicts from it and expands no witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .mpoly import Echelon, MPoly, dot, lincomb
from .schur import (ChargedPoly, DomainError, bilinear_window, elementary_schur,
                    embed_t, embed_tprime, miwa_shift, schur_of_partition)
from .fock import (FockVector, MayaState, PairTensor, pairing_defect, poly_to_fock,
                   shift_charge)
from .zseries import ExactnessError


@dataclass(frozen=True)
class Check:
    identity: str
    passed: bool
    witness: MPoly | None = None
    tensor_witness: tuple | None = None

    def to_json(self) -> dict:
        out = {"id": self.identity, "pass": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.tensor_witness is not None:
            left, right, coef = self.tensor_witness
            out["witness"] = {"state1": left.to_json(), "state2": right.to_json(),
                              "coef": str(coef)}
        return out


@dataclass
class BilinearReport:
    checks: list[Check]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"checks": [c.to_json() for c in self.checks]}


class _Wave:
    """A wave factor whose z-coefficients are formed on first read.

    Order m is sum_n a_n S_{m+n}(kernel_sign * t), a_n the Miwa shift's
    nonzero z**-n coefficients: one ``mpoly.dot`` over the n with
    m + n >= 0, kept once formed.  Orders below the shift's lowest order
    lo are zero.  Each order up to hi is exact, and ``claim`` refuses a
    read above it.
    """

    __slots__ = ("vars", "lo", "hi", "_shift", "_sign", "_orders")

    def __init__(self, shift: dict[int, MPoly], vars: int, kernel_sign: int,
                 lo: int, hi: int):
        self.vars, self.lo, self.hi = vars, lo, hi
        self._shift = [(-order, a) for order, a in shift.items()]  # n ascending
        self._sign = kernel_sign
        self._orders: dict[int, MPoly] = {}

    def claim(self, order: int, limit: int) -> None:
        """Refuse a read at order above min(hi, limit)."""
        bound = min(self.hi, limit)
        if order > bound:
            raise ExactnessError(f"order {order} above guaranteed-exact bound {bound}")

    def coeff(self, m: int) -> MPoly:
        """Order m, formed on its first read."""
        c = self._orders.get(m)
        if c is None:
            D = self.vars
            c = self._orders[m] = dot(D, [(a, elementary_schur(m + n, D, self._sign))
                                          for n, a in self._shift if m + n >= 0])
        return c


def _wave(p: MPoly, sign: int, kmax: int, weight: int) -> _Wave:
    """The z-coefficients of p(t + sign [z**-1]) exp(-sign xi(t, z)), lazily.

    A kernel of order kmax proves the factor exact up to z**hi,
    hi = kmax - weight, since the shift reaches down to z**-weight at most;
    orders above hi are not claimed.  The kernel orders it reads go up to
    hi - lo for the shift's lowest order lo (kmax when lo = -weight),
    which must not pass the D variables: a longer kernel is a DomainError
    here, before any order is formed.
    """
    hi = kmax - weight
    shift = miwa_shift(p, sign, weight).coeffs
    lo = min(shift) if shift else 0
    if hi - lo > p.vars:
        raise DomainError(f"kernel order {hi - lo} exceeds variable count {p.vars}")
    return _Wave(shift, p.vars, -sign, lo, hi)


class _Factors(Echelon):
    """The right-hand factors' echelon rows, each factor reduced once."""

    def __init__(self):
        super().__init__()
        self._seen: dict[int, tuple[MPoly, dict[int, Fraction]]] = {}

    def coords(self, p: MPoly) -> dict[int, Fraction]:
        """p as sum_l c_l rows[l], keyed by lead, from ``insert``."""
        seen = self._seen.get(id(p))
        if seen is None:  # holding p keeps its id unique
            seen = self._seen[id(p)] = (p, self.insert(p)[1])
        return seen[1]

    def expand(self, combos: dict[int, MPoly], D: int) -> MPoly:
        """sum_l combos[l](t) rows[l](t') over the doubled space."""
        return dot(2 * D, [(embed_t(x, D), embed_tprime(self.rows[l], D))
                           for l, x in combos.items()])


def _defect(left: _Wave, right: _Wave, wl: int, wr: int, weight: int,
            kmax: int, pairs: Sequence[tuple[MPoly, MPoly]],
            echelon: _Factors) -> dict[int, MPoly]:
    """The nonzero X_k with residue - sum a (x) b = sum_k X_k (x) rows[k].

    The residue is sum_m A_m (x) B_{N-m}, N = -1 - weight, over
    m = -wl..N + wr, the orders the window bilinear_window(wl, wr, weight)
    spans.  Every order the window reads is first claimed against what
    that window proves, A up to kmax - wl and B up to kmax - wr, so a
    window too short for the identity raises ExactnessError, also at an
    order whose term is then skipped.  A term is kept only when both
    factors are nonzero: the one nearer its lowest order, the cheaper to
    form, is formed first and the other only if it is nonzero.  Each b is
    written in the echelon rows, and each X_k is one ``lincomb`` of the a
    by their coordinates on row k.
    """
    N = -1 - weight
    orders = range(-wl, N + wr + 1)
    for m in orders:
        left.claim(m, kmax - wl)
        right.claim(N - m, kmax - wr)
    terms = []
    for m in orders:
        if m - left.lo <= N - m - right.lo:
            a = left.coeff(m)
            b = right.coeff(N - m) if a.num else a
        else:
            b = right.coeff(N - m)
            a = left.coeff(m) if b.num else b
        terms.append((a, b))
    terms += [(-a, b) for a, b in pairs]
    parts: dict[int, list[tuple[MPoly, Fraction]]] = {}
    for a, b in terms:
        if a.num and b.num:
            for k, c in echelon.coords(b).items():
                parts.setdefault(k, []).append((a, c))
    combos = {k: lincomb(left.vars, part) for k, part in parts.items()}
    return {k: x for k, x in combos.items() if x.num}


Identity = tuple[str, int, int, tuple[tuple[int, int], ...]]


def identity_family(tau: ChargedPoly, rhos: Sequence[ChargedPoly],
                    sigmas: Sequence[ChargedPoly],
                    k: int) -> tuple[list[ChargedPoly], list[Identity]]:
    """The identities of filtration level n = len(rhos), listed once.

    Returns the operands [tau, tau at charge m-k, rho_1.., sigma_1..] and,
    in report order, one (label, left, right, pairs) per identity, all
    indices into the operands: the pairing of (left, right) must equal
    the sum of a (x) b over the index pairs (a, b).  Bosonically that is
    residue(left, right) = sum a(t) b(t'); the charges alone give the
    weights z**0 (KP), z**k (constrained-k) and z**-1 (rho_j, sigma_j).
    """
    if tau.poly.is_zero:
        raise ValueError("tau must be nonzero")
    if len(rhos) != len(sigmas):
        raise ValueError("companion lists must have equal length")
    m, n = tau.charge, len(rhos)
    for j, rho in enumerate(rhos, start=1):
        if rho.charge != m + 1:
            raise ValueError(f"rho_{j} has charge {rho.charge}, expected {m + 1}")
    for j, sig in enumerate(sigmas, start=1):
        if sig.charge != m - k - 1:
            raise ValueError(f"sigma_{j} has charge {sig.charge}, expected {m - k - 1}")
    operands = [tau, tau.at_charge(m - k), *rhos, *sigmas]
    rho_at, sigma_at = range(2, 2 + n), range(2 + n, 2 + 2 * n)
    family: list[Identity] = [("KP", 0, 0, ()),
                              ("constrained-k", 0, 1, tuple(zip(rho_at, sigma_at)))]
    family += [(f"rho_{j}", 0, r, ((r, 0),)) for j, r in enumerate(rho_at, start=1)]
    family += [(f"sigma_{j}", s, 1, ((1, s),)) for j, s in enumerate(sigma_at, start=1)]
    return operands, family


def fermionic_bilinear_check(u: FockVector, v: FockVector,
                             pairs: Sequence[tuple[FockVector, FockVector]],
                             label: str = "fermionic") -> Check:
    """Pass iff the canonical pairing of (u, v) equals sum a (x) b over the
    pairs; a failure's witness is the first state pair of the defect by
    (left.sort_key(), right.sort_key()), with its coefficient."""
    defect, den = pairing_defect(u, v, pairs)
    if not defect:
        return Check(label, True)
    key = min(defect)  # (charge, parts, charge, parts) sorts as the sort_keys
    m, lam, n, mu = key
    return Check(label, False, tensor_witness=(MayaState(m, lam), MayaState(n, mu),
                                               Fraction(defect[key], den)))


def tensor_to_poly(tensor: PairTensor, D: int) -> MPoly:
    """Schur image of a pairing tensor in the doubled variable space."""
    return dot(2 * D, [(embed_t(schur_of_partition(left.partition, D), D) * coef,
                        embed_tprime(schur_of_partition(right.partition, D), D))
                       for (left, right), coef in tensor.items()])


def bilinear_defects(operands: Sequence[ChargedPoly], family: Sequence[Identity],
                     k: int) -> tuple[int, _Factors, list[dict[int, MPoly]]]:
    """The bosonic half of verify_suite: each identity's defect, unexpanded.

    operands and family are those of ``identity_family``, or a part of
    its family.  Returns D = max(top, kmax, k, 1), top the highest
    weighted degree of an operand and kmax the kernel order of the widest
    window, weight -1 (every identity has weight >= -1, so every residue
    is exact in D); the echelon form of the right-hand factors; and per
    identity the nonzero X_k of ``_defect``, empty exactly when the
    identity holds.

    Each operand's wave factor is built once per side, with the kernel
    order of the widest window that reads it, and one echelon form serves
    every identity's right-hand factors.
    """
    # operand 1 is tau at another charge: the same polynomial and factors
    source = [0, 0, *range(2, len(operands))]
    weights = [operands[i].weight for i in source]
    top = max(weights)
    D = max(top, bilinear_window(top, top, -1), k, 1)
    polys = [cp.poly.embed(D) for cp in operands]
    windows = []
    reach: dict[tuple[int, int], int] = {}  # (operand, side) -> kernel order
    for _, left, right, _ in family:
        weight = operands[left].charge - operands[right].charge
        kmax = bilinear_window(weights[left], weights[right], weight)
        windows.append((weight, kmax))
        for side in ((source[left], -1), (source[right], +1)):
            reach[side] = max(reach.get(side, kmax), kmax)
    waves = {(i, sign): _wave(polys[i], sign, kmax, weights[i])
             for (i, sign), kmax in reach.items()}
    echelon = _Factors()
    defects = [_defect(waves[source[left], -1], waves[source[right], +1],
                       weights[left], weights[right], weight, kmax,
                       [(polys[a], polys[b]) for a, b in pairs], echelon)
               for (_, left, right, pairs), (weight, kmax) in zip(family, windows)]
    return D, echelon, defects


def _kp_defect(tau: ChargedPoly) -> tuple[int, _Factors, dict[int, MPoly]]:
    """The KP identity of tau alone, as ``bilinear_defects`` reads it:
    (D, echelon, combos), combos empty exactly when tau solves the
    hierarchy."""
    operands, family = identity_family(tau, [], [], 1)
    D, echelon, [combos] = bilinear_defects(operands, family[:1], 1)
    return D, echelon, combos


def kp_residue(tau: ChargedPoly) -> MPoly:
    """The KP defect of tau expanded over the doubled space, the witness
    ``verify_suite`` prints; zero exactly when tau solves the hierarchy."""
    D, echelon, combos = _kp_defect(tau)
    return echelon.expand(combos, D)


def verify_suite(tau: ChargedPoly, rhos: Sequence[ChargedPoly],
                 sigmas: Sequence[ChargedPoly], k: int) -> BilinearReport:
    """The identity family of ``identity_family``, in both representations.

    Passing certifies membership in filtration level n = len(rhos) of the
    k-constrained hierarchy; the bosonic residues and the fermionic
    tensors must agree one by one.  The bosonic defects come from
    ``bilinear_defects``, and a failure's witness is its defect expanded
    over the doubled space of 2D variables.
    """
    operands, family = identity_family(tau, rhos, sigmas, k)
    D, echelon, defects = bilinear_defects(operands, family, k)
    checks = [Check(label, not combos, echelon.expand(combos, D) if combos else None)
              for (label, *_), combos in zip(family, defects)]

    tau_f = poly_to_fock(tau)
    images = [tau_f, shift_charge(-k, tau_f), *map(poly_to_fock, operands[2:])]
    checks += [fermionic_bilinear_check(images[left], images[right],
                                        [(images[a], images[b]) for a, b in pairs],
                                        label=f"fermionic-{label}")
               for label, left, right, pairs in family]
    return BilinearReport(checks)
