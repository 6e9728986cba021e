"""Exact verification of the bilinear residue identities.

The two-point residue of a pair (u at charge a, v at charge b) is

    Res_z  z**(a-b) * u(t - [z**-1]) * v(t' + [z**-1]) * sum_i S_i(t-t') z**i

over the doubled variable space; the charge difference in the exponent
is exactly the z**(charge) factor of the bosonized fermion fields, so
this single formula reproduces every identity in the family: weight z**0
for the plain hierarchy test, z**k against the k-shifted partner, and
z**-1 for both eigenfunction identities.  The fermionic pairing is the
normative mirror: the residue equals the Schur image of
sum_i (wedge_i u) (x) (contract_{-i} v), coefficient by coefficient.

All checks return reports with full polynomial witnesses on failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .mpoly import MPoly
from .schur import (ChargedPoly, DomainError, bilinear_window, embed_t,
                    embed_tprime, miwa_shift, schur_of_partition, xi_kernel)
from .fock import (FockVector, PairTensor, fermionic_pairing, poly_to_fock,
                   shift_charge, tensor_of, tensor_sum)
from .zseries import ZSeries


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

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]


def required_vars(u: ChargedPoly, v: ChargedPoly) -> int:
    """Smallest variable count that keeps the residue of (u, v) exact."""
    wu, wv = u.poly.wdeg(), v.poly.wdeg()
    _, kmax = bilinear_window(wu, wv, u.charge - v.charge)
    return max(wu, wv, kmax, 1)


def bilinear_residue(u: ChargedPoly, v: ChargedPoly, D: int) -> MPoly:
    """The charge-weighted two-point residue as a polynomial in (t, t').

    Only the one coefficient of the triple product that the residue reads
    is formed; the kernel order from ``bilinear_window`` is checked, not
    assumed, by the exactness guard of ``ZSeries.product_coeff``.
    """
    if D < required_vars(u, v):
        raise DomainError(f"need D >= {required_vars(u, v)}, got {D}")
    weight = u.charge - v.charge
    left = miwa_shift(u.poly.embed(D), -1)
    right = miwa_shift(v.poly.embed(D), +1)
    left = ZSeries(2 * D, {o: embed_t(c, D) for o, c in left.coeffs.items()})
    right = ZSeries(2 * D, {o: embed_tprime(c, D) for o, c in right.coeffs.items()})
    _, kmax = bilinear_window(u.poly.wdeg(), v.poly.wdeg(), weight)
    kernel = xi_kernel(D, kmax)
    return ZSeries.product_coeff(left, right, kernel, order=-1 - weight)


def kp_residue(tau: ChargedPoly, D: int) -> MPoly:
    """Zero exactly when tau solves the hierarchy."""
    return bilinear_residue(tau, tau, D)


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
    operands = [tau, ChargedPoly(tau.poly, m - k), *rhos, *sigmas]
    rho_at, sigma_at = range(2, 2 + n), range(2 + n, 2 + 2 * n)
    family: list[Identity] = [("KP", 0, 0, ()),
                              ("constrained-k", 0, 1, tuple(zip(rho_at, sigma_at)))]
    family += [(f"rho_{j}", 0, r, ((r, 0),)) for j, r in enumerate(rho_at, start=1)]
    family += [(f"sigma_{j}", s, 1, ((1, s),)) for j, s in enumerate(sigma_at, start=1)]
    return operands, family


def fermionic_bilinear_check(u: FockVector, v: FockVector, target: PairTensor,
                             label: str = "fermionic") -> Check:
    """Pass iff the canonical pairing of (u, v) equals the target tensor."""
    got = fermionic_pairing(u, v)
    diff = tensor_sum([got, {key: -c for key, c in target.items()}])
    if not diff:
        return Check(label, True)
    key = sorted(diff, key=lambda st: (st[0].sort_key(), st[1].sort_key()))[0]
    return Check(label, False, tensor_witness=(key[0], key[1], diff[key]))


def tensor_to_poly(tensor: PairTensor, D: int) -> MPoly:
    """Schur image of a pairing tensor in the doubled variable space."""
    out = MPoly.zero(2 * D)
    for (left, right), coef in tensor.items():
        lp = schur_of_partition(left.partition, D)
        rp = schur_of_partition(right.partition, D)
        out = out + embed_t(lp, D) * embed_tprime(rp, D) * coef
    return out


def verify_suite(tau: ChargedPoly, rhos: Sequence[ChargedPoly],
                 sigmas: Sequence[ChargedPoly], k: int) -> BilinearReport:
    """The identity family of ``identity_family``, in both representations.

    Passing certifies membership in filtration level n = len(rhos) of the
    k-constrained hierarchy; the bosonic residues and the fermionic
    tensors must agree one by one.  The residues are formed in
    D = max(top, kmax, k, 1) variables, top the highest weighted degree of
    an operand and kmax the kernel order of the widest window, weight -1;
    every identity has weight >= -1, so every residue is exact in D.
    """
    operands, family = identity_family(tau, rhos, sigmas, k)
    top = max(cp.poly.wdeg() for cp in operands)
    _, kmax = bilinear_window(top, top, -1)
    D = max(top, kmax, k, 1)
    checks = []
    for label, left, right, pairs in family:
        diff = bilinear_residue(operands[left], operands[right], D)
        for a, b in pairs:
            diff = diff - embed_t(operands[a].poly, D) * embed_tprime(operands[b].poly, D)
        checks.append(Check(label, diff.is_zero, None if diff.is_zero else diff))

    tau_f = poly_to_fock(tau)
    images = [tau_f, shift_charge(-k, tau_f), *map(poly_to_fock, operands[2:])]
    for label, left, right, pairs in family:
        target = tensor_sum(tensor_of(images[a], images[b]) for a, b in pairs)
        checks.append(fermionic_bilinear_check(images[left], images[right], target,
                                               label=f"fermionic-{label}"))
    return BilinearReport(checks)
