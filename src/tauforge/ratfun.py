"""Lax-side coefficients: the ring Q[t][1/tau] and its rendering.

Every coefficient the dressing pipeline produces is a polynomial over a
power of one fixed tau, so an element is stored as (numerator, power of
tau), over the powers of tau's primitive part tau / content(tau).  Every
sum goes through ``TauRing.sum``: the products at each power of tau are
one ``mpoly.dot``, and one more lifts those group sums to the largest
power, so no partial sum is lifted twice.  Multiplication adds powers,
and the zero test is "numerator is zero"; nothing is cancelled during
arithmetic.  Only when an element is rendered for a report (``RatFun``)
is tau cancelled, one factor at a time while it divides the numerator,
so a value prints at the least power of tau it has, whatever the
arithmetic that reached it: equal values print alike.  It prints over
the ring's cached power of its primitive tau, with no content divided out.
"""

from __future__ import annotations

from typing import Iterable

from .mpoly import MPoly, PolyError, divexact, dot


class TauRing:
    """Q[t][1/tau] for one nonzero tau, with its powers and first derivatives cached.

    ``tau`` is the primitive part tau / content(tau), over whose powers
    elements are stored; only ``frac`` reads a numerator against the tau
    given.  Rings over tau and c*tau share it, so their elements mix and
    compare equal by value.
    """

    __slots__ = ("tau", "vars", "one", "_content", "_powers", "_derivs")

    def __init__(self, tau: MPoly):
        if tau.is_zero:
            raise ZeroDivisionError("tau must be nonzero")
        self._content = c = tau.content()
        self.tau = tau if c == 1 else tau / c
        self.vars = tau.vars
        self.one = TauFrac(self, MPoly.const(tau.vars, 1), 0)
        self._powers = [self.one.num, self.tau]
        self._derivs: dict[int, MPoly] = {}

    def power(self, p: int) -> MPoly:
        """tau**p, formed once per ring: primitive with a positive graded-lex
        lead, by Gauss's lemma, graded lex being a monomial order."""
        powers = self._powers
        while len(powers) <= p:
            powers.append(powers[-1] * self.tau)
        return powers[p]

    def deriv(self, i: int) -> MPoly:
        d = self._derivs.get(i)
        if d is None:
            d = self._derivs[i] = self.tau.differentiate(i)
        return d

    def frac(self, num: MPoly, power: int = 0) -> "TauFrac":
        """The element num / tau**power, tau as the ring was given it: num
        is scaled by content(tau)**-power once, onto the primitive tau."""
        if num.vars != self.vars:
            raise PolyError("numerator and tau variable counts differ")
        if power and self._content != 1:
            num = num * self._content**-power
        return TauFrac(self, num, power)

    def const(self, value) -> "TauFrac":
        return TauFrac(self, MPoly.const(self.vars, value), 0)

    def _check(self, f: "TauFrac") -> None:
        if f.ring is not self and f.ring.tau != self.tau:
            raise PolyError("elements of different tau rings")

    def sum(self, terms: Iterable[tuple[int, "TauFrac", "TauFrac"]]) -> "TauFrac":
        """sum c*a*b over (int, TauFrac, TauFrac) terms: the one sum of the ring.

        The products at each power of tau are one ``dot``, and one more
        ``dot`` against the powers of tau lifts the nonzero group sums to
        the largest power, so no partial sum is lifted twice.  A term with
        a zero factor adds nothing, and no term left gives zero.
        """
        groups: dict[int, list[tuple[MPoly, MPoly]]] = {}
        for c, a, b in terms:
            self._check(a)
            self._check(b)
            if c and a.num and b.num:
                groups.setdefault(a.power + b.power, []).append(
                    (a.num if c == 1 else a.num * c, b.num))
        vars = self.vars
        sums = {p: s for p, pairs in groups.items() if (s := dot(vars, pairs))}
        if not sums:
            return TauFrac(self, MPoly.zero(vars), 0)
        top = max(sums)
        if len(sums) == 1:
            return TauFrac(self, sums[top], top)
        return TauFrac(self, dot(vars, ((s, self.power(top - p)) for p, s in sums.items())),
                       top)


class TauFrac:
    """Immutable element num / tau**power of a TauRing.

    Derivatives are cached on the element: composition differentiates
    the same coefficients of one operator again and again.
    """

    __slots__ = ("ring", "num", "power", "_derivs")

    def __init__(self, ring: TauRing, num: MPoly, power: int):
        self.ring = ring
        self.num = num
        self.power = 0 if num.is_zero else power
        self._derivs: dict[int, TauFrac] | None = None

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other: "TauFrac") -> "TauFrac":
        return self.ring.sum(((1, self, self.ring.one), (1, other, self.ring.one)))

    def __neg__(self) -> "TauFrac":
        return TauFrac(self.ring, -self.num, self.power)

    def __sub__(self, other: "TauFrac") -> "TauFrac":
        return self.ring.sum(((1, self, self.ring.one), (-1, other, self.ring.one)))

    def __mul__(self, other) -> "TauFrac":
        if isinstance(other, TauFrac):
            self.ring._check(other)
            return TauFrac(self.ring, self.num * other.num, self.power + other.power)
        return TauFrac(self.ring, self.num * other, self.power)

    __rmul__ = __mul__

    def differentiate(self, i: int) -> "TauFrac":
        """d/dt_i (n / tau^p) = (n_i tau - p n tau_i) / tau^(p+1)."""
        if self._derivs is None:
            self._derivs = {}
        out = self._derivs.get(i)
        if out is None:
            p, ring = self.power, self.ring
            if not p:
                out = TauFrac(ring, self.num.differentiate(i), 0)
            else:
                num = dot(ring.vars, ((self.num.differentiate(i), ring.tau),
                                      (self.num, ring.deriv(i) * -p)))
                out = TauFrac(ring, num, p + 1)
            self._derivs[i] = out
        return out

    def equals(self, other: "TauFrac") -> bool:
        """Cross-multiplied exact equality, also across rings."""
        return not dot(self.num.vars, ((self.num, other.ring.power(other.power)),
                                       (-other.num, self.ring.power(self.power))))

    def __eq__(self, other) -> bool:
        if isinstance(other, TauFrac):
            return self.equals(other)
        return NotImplemented

    __hash__ = None

    def to_json(self) -> dict:
        return RatFun._of(self).to_json()

    def __repr__(self) -> str:
        return repr(RatFun._of(self))


class RatFun:
    """num / tau**power in its one printed form.

    The element is read over the primitive tau of its ring, which is
    cancelled one factor at a time while it divides num; the denominator
    left is the ring's cached power of its primitive tau, 1 at p = 0.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, tau: MPoly, power: int = 1):
        self._cancel(TauRing(tau).frac(num, power))

    @classmethod
    def _of(cls, f: TauFrac) -> "RatFun":
        """The printed form of a ring element, with no new ring built."""
        out = cls.__new__(cls)
        out._cancel(f)
        return out

    def _cancel(self, f: TauFrac) -> None:
        num, power, ring = f.num, f.power, f.ring
        while power and (q := divexact(num, ring.tau)) is not None:
            num, power = q, power - 1
        self.num, self.den = num, ring.power(power)

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    def __repr__(self) -> str:
        if self.den.max_var_used():
            return f"({self.num.format()}) / ({self.den.format()})"
        return self.num.format()
