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

from dataclasses import dataclass, field
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
    checks: list[Check] = field(default_factory=list)

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
    left = miwa_shift(embed_t(u.poly, D), -1, block=D)
    right = miwa_shift(embed_tprime(v.poly, D), +1, var_offset=D)
    _, kmax = bilinear_window(u.poly.wdeg(), v.poly.wdeg(), weight)
    kernel = xi_kernel(D, kmax)
    return ZSeries.product_coeff(left, right, kernel, order=-1 - weight)


def _product_tt(left: ChargedPoly, right: ChargedPoly, D: int) -> MPoly:
    return embed_t(left.poly, D) * embed_tprime(right.poly, D)


def kp_residue(tau: ChargedPoly, D: int) -> MPoly:
    """Zero exactly when tau solves the hierarchy."""
    return bilinear_residue(tau, tau, D)


def _charge_guard(tau: ChargedPoly, rhos: Sequence[ChargedPoly],
                  sigmas: Sequence[ChargedPoly], k: int) -> None:
    if len(rhos) != len(sigmas):
        raise ValueError("companion lists must have equal length")
    m = tau.charge
    for j, rho in enumerate(rhos, start=1):
        if rho.charge != m + 1:
            raise ValueError(f"rho_{j} has charge {rho.charge}, expected {m + 1}")
    for j, sig in enumerate(sigmas, start=1):
        if sig.charge != m - k - 1:
            raise ValueError(f"sigma_{j} has charge {sig.charge}, expected {m - k - 1}")


def constrained_residue(tau: ChargedPoly, k: int, rhos: Sequence[ChargedPoly],
                        sigmas: Sequence[ChargedPoly], D: int) -> Check:
    """z**k-weighted residue against sum_j rho_j(t) sigma_j(t')."""
    _charge_guard(tau, rhos, sigmas, k)
    shifted = ChargedPoly(tau.poly, tau.charge - k)
    lhs = bilinear_residue(tau, shifted, D)
    rhs = MPoly.zero(2 * D)
    for rho, sig in zip(rhos, sigmas):
        rhs = rhs + _product_tt(rho, sig, D)
    diff = lhs - rhs
    return Check("constrained-k", diff.is_zero, None if diff.is_zero else diff)


def rho_identity(tau: ChargedPoly, rho: ChargedPoly, D: int, label: str = "rho") -> Check:
    """z**-1-weighted residue of (tau, rho) against rho(t) tau(t')."""
    if rho.charge != tau.charge + 1:
        raise ValueError(f"rho has charge {rho.charge}, expected {tau.charge + 1}")
    diff = bilinear_residue(tau, rho, D) - _product_tt(rho, tau, D)
    return Check(label, diff.is_zero, None if diff.is_zero else diff)


def sigma_identity(tau: ChargedPoly, sigma: ChargedPoly, k: int, D: int,
                   label: str = "sigma") -> Check:
    """z**-1-weighted residue of (sigma, k-shifted tau) against tau(t) sigma(t')."""
    if sigma.charge != tau.charge - k - 1:
        raise ValueError(f"sigma has charge {sigma.charge}, "
                         f"expected {tau.charge - k - 1}")
    shifted = ChargedPoly(tau.poly, tau.charge - k)
    diff = bilinear_residue(sigma, shifted, D) - _product_tt(tau, sigma, D)
    return Check(label, diff.is_zero, None if diff.is_zero else diff)


def eigenfunction_identities(tau: ChargedPoly, rhos: Sequence[ChargedPoly],
                             sigmas: Sequence[ChargedPoly], k: int,
                             D: int) -> list[Check]:
    """Both one-sided identities for every companion, in report order."""
    out = [rho_identity(tau, rho, D, f"rho_{j}")
           for j, rho in enumerate(rhos, start=1)]
    out.extend(sigma_identity(tau, sig, k, D, f"sigma_{j}")
               for j, sig in enumerate(sigmas, start=1))
    return out


def fermionic_bilinear_check(u: FockVector, v: FockVector, target: PairTensor,
                             window: int | None = None,
                             label: str = "fermionic") -> Check:
    """Pass iff the canonical pairing of (u, v) equals the target tensor."""
    got = fermionic_pairing(u, v, window)
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
                 sigmas: Sequence[ChargedPoly], k: int,
                 D: int | None = None) -> BilinearReport:
    """All four identity families, in both representations.

    Passing certifies membership in filtration level n = len(rhos) of the
    k-constrained hierarchy; the bosonic residues and the fermionic
    tensors must agree one by one.
    """
    _charge_guard(tau, rhos, sigmas, k)
    if D is None:
        weights = [cp.poly.wdeg() for cp in [tau, *rhos, *sigmas]]
        top = max(weights, default=0)
        _, kmax = bilinear_window(top, top, -1)
        D = max(top, kmax, k, 1)
    kp = kp_residue(tau, D)
    checks = [Check("KP", kp.is_zero, None if kp.is_zero else kp),
              constrained_residue(tau, k, rhos, sigmas, D),
              *eigenfunction_identities(tau, rhos, sigmas, k, D)]

    tau_f = poly_to_fock(tau)
    tau_shift = shift_charge(-k, tau_f)
    rho_fs = [poly_to_fock(r) for r in rhos]
    sigma_fs = [poly_to_fock(s) for s in sigmas]
    target = tensor_sum([tensor_of(rf, sf) for rf, sf in zip(rho_fs, sigma_fs)])
    checks.append(fermionic_bilinear_check(tau_f, tau_f, {}, label="fermionic-KP"))
    checks.append(fermionic_bilinear_check(tau_f, tau_shift, target,
                                           label="fermionic-constrained-k"))
    checks.extend(fermionic_bilinear_check(tau_f, rf, tensor_of(rf, tau_f),
                                           label=f"fermionic-rho_{j}")
                  for j, rf in enumerate(rho_fs, start=1))
    checks.extend(fermionic_bilinear_check(sf, tau_shift, tensor_of(tau_shift, sf),
                                           label=f"fermionic-sigma_{j}")
                  for j, sf in enumerate(sigma_fs, start=1))
    return BilinearReport(checks)
