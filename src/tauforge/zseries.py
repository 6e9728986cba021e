"""Laurent objects in a formal variable z with polynomial coefficients.

A ZSeries stores finitely many coefficients (MPoly values) indexed by
integer z-order, together with the upper bound of the order range on
which it is guaranteed exact.  Everything below the stored support is an
exact zero; orders above ``exact_hi`` are unknown (a truncated kernel,
for instance).  Reading a coefficient outside the guaranteed range is an
error, never a silent zero, so residue extraction is provably exact.
A product forms each of its orders with one ``mpoly.dot`` over the
coefficient pairs that reach it.
"""

from __future__ import annotations

from .mpoly import MPoly, PolyError, dot


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

    def coeff(self, order: int) -> MPoly:
        if self.exact_hi is not None and order > self.exact_hi:
            raise ExactnessError(
                f"order {order} above guaranteed-exact bound {self.exact_hi}")
        poly = self.coeffs.get(order)
        return MPoly.zero(self.vars) if poly is None else poly

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
        # each order is one dot over the coefficient pairs that reach it
        pairs: dict[int, list[tuple[MPoly, MPoly]]] = {}
        for oa, a in self.coeffs.items():
            for ob, b in other.coeffs.items():
                order = oa + ob
                if hi is None or order <= hi:
                    pairs.setdefault(order, []).append((a, b))
        out = {order: dot(self.vars, terms) for order, terms in pairs.items()}
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
