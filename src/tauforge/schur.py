"""Elementary Schur polynomials, partition Schur functions, Miwa shifts
and the exponential kernel exp(+-xi(t, z)) of the wave functions that
drive the bilinear residue checks.

Conventions.  S_i(t) is the coefficient of z**i in exp(sum t_j z**j),
with S_i = 0 for i < 0.  Both halves of a wave factor come from one
recursion, the derivative in z of an exponential generating series:
i*S_i(+-t) = +-sum_j j*t_j*S_{i-j}(+-t), which gives the kernel of either
sign, and the Miwa shift
p(t + s[z**-1]) = exp(s * sum_j z**-j d/dt_j / j) p, whose z**-n
coefficient A_n obeys n*A_n = s * sum_j d A_{n-j} / dt_j.  A partition
indexes S_lambda through the determinant det(S_{lambda_i - i + j}),
which needs D at least the hook lambda_1 + len(lambda) - 1.  The doubled
variable space for two-point identities puts t_1..t_D in slots 1..D and
the primed copies t'_1..t'_D in slots D+1..2D of a single polynomial
ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .mpoly import MPoly, PolyError, dlincomb, dot, lincomb, parse_int
from .zseries import ZSeries


class DomainError(ValueError):
    """Variable count too small for the requested object."""


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of positive integers; () is empty."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if any(p <= 0 for p in parts):
            raise ValueError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def trusted(cls, parts: tuple[int, ...]) -> "Partition":
        """The partition of parts already known to be positive integers,
        weakly decreasing, without checking them again."""
        shape = object.__new__(cls)
        object.__setattr__(shape, "parts", parts)
        return shape

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.parts)) + ")"


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of weight exactly n, built once per n: the cached
    tuple is shared, so it is immutable."""
    if n == 0:
        return (Partition(),)
    out: list[Partition] = []

    def rec(remaining: int, maximum: int, prefix: list[int]):
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        for part in range(min(remaining, maximum), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, n, [])
    return tuple(out)


@dataclass(frozen=True)
class ChargedPoly:
    """A polynomial with an integer charge marker."""

    poly: MPoly
    charge: int

    @cached_property
    def weight(self) -> int:
        """The weighted degree of the polynomial, scanned once."""
        return self.poly.wdeg()

    def at_charge(self, charge: int) -> "ChargedPoly":
        """The same polynomial at another charge, its weight carried over
        rather than scanned again."""
        out = ChargedPoly(self.poly, charge)
        out.__dict__["weight"] = self.weight
        return out

    def to_json(self) -> dict:
        return {"charge": self.charge, "poly": self.poly.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "ChargedPoly":
        return cls(MPoly.from_json(data["poly"]), parse_int(data["charge"]))

    def __repr__(self) -> str:
        return f"ChargedPoly({self.poly.format()}, charge={self.charge})"


@lru_cache(maxsize=None)
def elementary_schur(i: int, D: int, sign: int = 1) -> MPoly:
    """S_i(sign * t) in variables t_1..t_D, the coefficient of z**i in
    exp(sign * xi(t, z)).

    S_i only involves t_j for j <= i, so D >= i is required (and enough);
    S_i = 0 for i < 0 and S_0 = 1.
    """
    if D < max(i, 1):
        raise DomainError(f"need D >= {max(i, 1)} to express S_{i}, got {D}")
    if i < 0:
        return MPoly.zero(D)
    if i == 0:
        return MPoly.const(D, 1)
    # i*S_i = sign * sum_{j=1..i} j*t_j*S_{i-j}, from d/dz of the generating series
    return dot(D, [(MPoly.variable(D, j) * Fraction(sign * j, i),
                    elementary_schur(i - j, D, sign)) for j in range(1, i + 1)])


@lru_cache(maxsize=None)
def schur_of_partition(shape: Partition, D: int) -> MPoly:
    """S_lambda = det(S_{lambda_i - i + j}) for i, j = 1..len(lambda); the grid
    reads no S_i above the hook lambda_1 + len(lambda) - 1, so D >= hook."""
    n = len(shape)
    hook = shape.parts[0] + n - 1 if n else 1
    if D < hook:
        raise DomainError(f"need D >= {hook} for {shape}, got {D}")
    if n == 0:
        return MPoly.const(D, 1)
    grid = [[elementary_schur(shape.parts[i] - i + j, D) if shape.parts[i] - i + j >= 0
             else MPoly.zero(D)
             for j in range(n)] for i in range(n)]
    return _det(grid, D)


def _det(grid: list[list[MPoly]], D: int) -> MPoly:
    """Laplace expansion along the first column, skipping zero entries."""
    n = len(grid)
    if n == 1:
        return grid[0][0]
    return dot(D, [(-entry if i % 2 else entry,
                    _det([row[1:] for j, row in enumerate(grid) if j != i], D))
                   for i, entry in enumerate(r[0] for r in grid) if entry.num])


def miwa_shift(p: MPoly, sign: int, weight: int) -> ZSeries:
    """Substitute t_i -> t_i + sign * z**-i / i and expand exactly.

    The shift is exp(sign * sum_j z**-j d/dt_j / j) applied to p, so the
    z**-n coefficient A_n follows the recursion of elementary_schur with
    t_j read as sign * d/dt_j / j: A_0 = p and
    n*A_n = sign * sum_{j=1..min(n,u)} d A_{n-j} / dt_j, one dlincomb (so
    one gcd pass) per order, u the last variable p uses.  weight is
    wdeg(p), which the caller holds (``ChargedPoly.weight``), so p is not
    scanned again.  The result is a Laurent polynomial in z**-1 with
    orders in [-weight, 0]; the z**0 coefficient is p itself.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    D, used = p.vars, p.max_var_used()
    shifted = [p]
    for n in range(1, weight + 1):
        c = Fraction(sign, n)
        shifted.append(dlincomb(D, [(shifted[n - j], j, c)
                                    for j in range(1, min(n, used) + 1)]))
    return ZSeries(D, {-n: a for n, a in enumerate(shifted)}, None)


def xi_series(D: int, order: int, sign: int) -> ZSeries:
    """exp(sign * xi(t, z)) = sum_{j=0..order} S_j(sign * t) z**j in D variables.

    Exact up to z**order; reading beyond that is an ExactnessError.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if order > D:
        raise DomainError(f"kernel order {order} exceeds variable count {D}")
    return ZSeries(D, {j: elementary_schur(j, D, sign) for j in range(max(order, 0) + 1)},
                   order)


def embed_t(p: MPoly, D: int) -> MPoly:
    """Place a D-variable polynomial in the t slots of the doubled space."""
    return p.embed(2 * D, 0)


def embed_tprime(p: MPoly, D: int) -> MPoly:
    """Place a D-variable polynomial in the t' slots of the doubled space."""
    return p.embed(2 * D, D)


def bilinear_window(w_left: int, w_right: int, weight: int) -> int:
    """Sufficiency rule for a residue of z**weight against the kernel.

    Returns the kernel order needed.  The product of the two Miwa shifts
    reaches down to -(w_left + w_right), so the kernel must reach order
    w_left + w_right - 1 - weight to feed the residue, padded below by 0.
    """
    return max(w_left + w_right - 1 - weight, 0)


def _hall_norm(exp: tuple[int, ...]) -> tuple[int, int]:
    """<t^a, t^a> = prod_i a_i! / i^a_i of the monomial t^exp, as
    (numerator, denominator)."""
    num = den = 1
    for i, e in enumerate(exp, start=1):
        if e:
            num *= math.factorial(e)
            den *= i**e
    return num, den


def hall_product(f: MPoly, g: MPoly) -> Fraction:
    """Exact Hall pairing in time coordinates.

    Monomials are orthogonal with <t^a, t^a> = prod_i a_i! / i^a_i, which
    makes the S_lambda an orthonormal family.
    """
    if f.vars != g.vars:
        raise PolyError("variable counts differ")
    total = Fraction(0)
    # terms iterates in num order, so each exponent meets its own key
    for exp, (key, cf) in zip(f.terms, f.num.items()):
        cg = g.num.get(key)
        if cg is not None:
            norm_num, norm_den = _hall_norm(exp)
            total += Fraction(cf * cg * norm_num, norm_den)
    return total / (f.den * g.den)


@lru_cache(maxsize=None)
def _hall_weights(shape: Partition, D: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """The Hall weights <t^a, S_shape> of the monomials t^a of S_shape, as
    (key, integer) pairs over one common denominator."""
    s = schur_of_partition(shape, D)
    norms = [(key, c, *_hall_norm(exp)) for exp, (key, c) in zip(s.terms, s.num.items())]
    common = math.lcm(*(den for *_, den in norms))
    return (tuple((key, c * num * (common // den)) for key, c, num, den in norms),
            s.den * common)


def schur_expand(p: MPoly, weight: int) -> dict[Partition, Fraction]:
    """Write p, of weighted degree weight, as a combination of S_lambda
    (complete: they span).

    Each coefficient is the Hall product <p, S_lambda>, summed on
    integers from the cached weights of S_lambda; the sum of
    c_lambda S_lambda must give p back, so a weight below that of p, or
    a wrong Hall weight, raises ArithmeticError.
    """
    D = max(p.vars, weight, 1)
    lifted = p.embed(D)
    num = lifted.num
    out: dict[Partition, Fraction] = {}
    for w in range(weight + 1):
        for shape in partitions_of(w):
            weights, den = _hall_weights(shape, D)
            c = sum(num[key] * h for key, h in weights if key in num)
            if c:
                out[shape] = Fraction(c, lifted.den * den)
    check = lincomb(D, [(schur_of_partition(shape, D), c) for shape, c in out.items()])
    if check != lifted:
        raise ArithmeticError("Schur expansion failed to reproduce the input")
    return out
