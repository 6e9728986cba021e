"""Laurent objects in a formal variable z with polynomial coefficients.

A ZSeries stores finitely many coefficients (MPoly values) indexed by
integer z-order, together with the upper bound of the order range on
which it is guaranteed exact.  Everything below the stored support is an
exact zero; orders above ``exact_hi`` are unknown (a truncated kernel,
for instance).  Reading a coefficient outside the guaranteed range is an
error, never a silent zero, so residue extraction is provably exact.
"""

from __future__ import annotations

import math

from .mpoly import _LIMIT, MPoly, PolyError, _guard


class ExactnessError(ArithmeticError):
    """Requested a coefficient outside the guaranteed-exact order range.

    This is an internal fault (a window rule did not hold), never a
    property of the input, so it is an ArithmeticError.
    """


class ZSeries:
    __slots__ = ("vars", "coeffs", "exact_hi")

    def __init__(self, vars: int, coeffs: dict[int, MPoly] | None = None,
                 exact_hi: int | None = None):
        clean: dict[int, MPoly] = {}
        for order, poly in (coeffs or {}).items():
            if poly.vars != vars:
                raise PolyError("coefficient variable count mismatch")
            if not poly.is_zero:
                clean[int(order)] = poly
        self.vars = vars
        self.coeffs = clean
        self.exact_hi = exact_hi  # None means exact at every order

    @property
    def min_order(self) -> int | None:
        return min(self.coeffs) if self.coeffs else None

    @property
    def max_order(self) -> int | None:
        return max(self.coeffs) if self.coeffs else None

    def coeff(self, order: int) -> MPoly:
        if self.exact_hi is not None and order > self.exact_hi:
            raise ExactnessError(
                f"order {order} above guaranteed-exact bound {self.exact_hi}")
        poly = self.coeffs.get(order)
        return MPoly.zero(self.vars) if poly is None else poly

    def cut(self, hi: int) -> "ZSeries":
        """The same coefficients, claimed exact up to z**hi at most: a
        bound the series already has below hi stays."""
        return ZSeries(self.vars, self.coeffs, self._min_hi(self.exact_hi, hi))

    def _check(self, other: "ZSeries") -> None:
        if self.vars != other.vars:
            raise PolyError("variable counts differ")

    @staticmethod
    def _min_hi(a: int | None, b: int | None) -> int | None:
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def _numerators(self) -> tuple[int, list[tuple[int, list[tuple[int, int]]]]]:
        """One common denominator and, per order, the (key, numerator)
        pairs of the coefficient over it."""
        den = math.lcm(*(p.den for p in self.coeffs.values()))
        return den, [(o, [(k, c * (den // p.den)) for k, c in p.num.items()])
                     for o, p in self.coeffs.items()]

    def __mul__(self, other: "ZSeries") -> "ZSeries":
        self._check(other)
        # Unknown orders above exact_hi of one factor contaminate products
        # starting at exact_hi + (lowest stored order of the other factor).
        hi: int | None = None
        if self.exact_hi is not None:
            lo = other.min_order
            hi = None if lo is None else self.exact_hi + lo
        if other.exact_hi is not None:
            lo = self.min_order
            h2 = None if lo is None else other.exact_hi + lo
            hi = self._min_hi(hi, h2)
        # each order is summed on integers over the two common denominators
        den_a, left = self._numerators()
        den_b, right = other._numerators()
        sums: dict[int, dict[int, int]] = {}
        for oa, terms_a in left:
            for ob, terms_b in right:
                order = oa + ob
                if hi is not None and order > hi:
                    continue
                bucket = sums.setdefault(order, {})
                get = bucket.get
                for ka, ca in terms_a:
                    for kb, cb in terms_b:
                        key = ka + kb
                        bucket[key] = get(key, 0) + ca * cb
        guard = _guard(self.vars)
        out: dict[int, MPoly] = {}
        for order, bucket in sums.items():
            num = {key: c for key, c in bucket.items() if c}
            if any(map(guard.__and__, num)):
                raise ArithmeticError(f"an exponent of the product reaches {_LIMIT}")
            if num:
                out[order] = MPoly._reduced(self.vars, num, den_a * den_b)
        return ZSeries(self.vars, out, hi)

    def __eq__(self, other) -> bool:
        if isinstance(other, ZSeries):
            return (self.vars == other.vars and self.coeffs == other.coeffs
                    and self.exact_hi == other.exact_hi)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        parts = [f"({poly.format()})*z^{order}"
                 for order, poly in sorted(self.coeffs.items())]
        body = " + ".join(parts) if parts else "0"
        tail = "" if self.exact_hi is None else f"  [exact to z^{self.exact_hi}]"
        return body + tail
