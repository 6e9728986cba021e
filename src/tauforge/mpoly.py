"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in variables t_1..t_D is stored as integer numerators over
one shared denominator: ``num`` maps packed exponent vectors to nonzero
ints and ``den`` is a positive int with gcd(den, *num.values()) == 1, so
the coefficient of t**exp is num[_pack(exp)]/den.  That form is
canonical: equal polynomials have equal ``num`` and ``den``, and the
zero polynomial is num = {} over den = 1.  Arithmetic is integer
arithmetic plus at most one gcd pass per result; ``terms`` reads the
coefficients back as Fractions, keyed by exponent tuples.  Nothing in
this package ever touches floating point.

Packed exponents (Monagan and Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007).  An exponent
vector is one nonnegative int: the exponent of t_i sits in bits
[16(i-1), 16i), so a monomial product is one integer addition, a shift
moves variables and ``bit_length`` finds the last one used.  The top bit
of each field is a guard bit.  Every exponent is below 2**15, so the sum
of two fields is below 2**16 and never carries into its neighbour; a
product whose key has any guard bit set (``_guard``) would leave that
range, and raises ArithmeticError instead of building the monomial.
The constructor refuses an exponent outside 0..2**15 - 1 with PolyError.
Keys unpack to tuples only at the edges: ``terms``, serialization,
printing (graded-lex order compares tuples) and ``content``.

Three kernels do the arithmetic on packed keys and integer numerators,
each with at most one gcd pass per result: ``dot(vars, pairs)`` sums
products a*b, ``lincomb(vars, pairs)`` sums scaled polynomials c*p and
``divexact(p, d)`` divides exactly.  ``MPoly * MPoly`` is dot's one-pair
case, a residue's wave factor calls it once per z-order it forms, and
the Jacobi-Trudi determinants and witness expansions call it once per
sum.  No other module knows the layout (field width, guard bits,
packing): the Miwa shift is built from ``dlincomb``, lincomb's sum of
partial derivatives, the Hall weights read exponents through ``terms``,
and the Grassmannian writes its rows in one variable (``from_powers``),
whose keys are the exponents.  ``+`` and ``-`` are lincomb's two-pair case and scalar ``*``
(so ``/``) its one-pair case; the residue defects and the Schur
expansion's check call it once per sum, Sato's formula
(``fock.sigma_map``) once per charge and ``Echelon``, the one exact
elimination, once per row multiple.  ``MPoly.from_json`` sums on packed
keys too, reading each "p/q" as an integer pair through the one rational
grammar, which ``parse_rat`` and the Grassmannian's point reader read.

The weighted degree gives variable t_i weight i, so wdeg(t_2) = 2 and
wdeg(t_1**3) = 3.  This is the grading under which the generating-series
kernels used elsewhere are homogeneous.
"""

from __future__ import annotations

import heapq
import math
import re
import struct
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from operator import mul
from typing import Iterable, Iterator

Exponent = tuple[int, ...]

# bits per exponent field; exponents stay below the field's guard bit
_BITS = 16
_FIELD = (1 << _BITS) - 1
_LIMIT = 1 << (_BITS - 1)

# ASCII digits only: Fraction alone would also take "1.5", "1e5", "1_000"
# and non-ASCII digits, and an exponent costs unbounded work
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")

_gcd = math.gcd
_lcm = math.lcm


class PolyError(ValueError):
    """Variable-count mismatch or invalid variable index."""


def _ratio(text: str) -> tuple[int, int]:
    """The integers (p, q), q > 0 and not reduced, of a "p" or "p/q" string.

    Anything else, a JSON number or a zero denominator included, is a
    ValueError, which the CLI reports as an input error.
    """
    match = _RATIONAL.fullmatch(text.strip()) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f'rational must be a "p/q" string, got {text!r}')
    num, _, den = match.group().partition("/")
    if not den:
        return int(num), 1
    den = int(den)
    if not den:
        raise ValueError(f"zero denominator in {text!r}")
    return int(num), den


def parse_rat(text: str) -> Fraction:
    """Parse an exact rational from a "p" or "p/q" string, as ``_ratio``."""
    return Fraction(*_ratio(text))


def parse_int(value, minimum: int | None = None) -> int:
    """Read a JSON integer, at least minimum when one is given.

    A bool, a float or a string is a ValueError, as parse_rat's are.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected a JSON integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"expected an integer >= {minimum}, got {value}")
    return value


def format_rat(value: Fraction) -> str:
    """Serialize an exact rational as "p" or "p/q"."""
    return _format(value.numerator, value.denominator)


def _format(num: int, den: int) -> str:
    """The rational num/den, in lowest terms with den > 0, as "p" or "p/q"."""
    return str(num) if den == 1 else f"{num}/{den}"


@lru_cache(maxsize=None)
def _layout(vars: int) -> struct.Struct:
    return struct.Struct(f"<{vars}H")


@lru_cache(maxsize=None)
def _guard(vars: int) -> int:
    """The guard bits of the fields of t_1..t_vars."""
    return sum(_LIMIT << (_BITS * i) for i in range(vars))


def _pack(exp: Exponent) -> int:
    """One int for an exponent tuple with entries in 0..2**16 - 1."""
    return int.from_bytes(_layout(len(exp)).pack(*exp), "little")


def _check_vars(vars: int) -> None:
    """Refuse a negative variable count with PolyError."""
    if vars < 0:
        raise PolyError(f"variable count must be nonnegative, got {vars}")


def _checked_pack(exp: Exponent, vars: int) -> int:
    """The key of exp, refusing with PolyError an exponent of other than
    vars entries or with an entry outside 0..2**15 - 1."""
    if len(exp) != vars:
        raise PolyError(f"exponent {exp} has length {len(exp)}, expected {vars}")
    if not all(0 <= e < _LIMIT for e in exp):
        raise PolyError(f"exponent {exp} has an entry outside 0..{_LIMIT - 1}")
    return _pack(exp)


def _unpack(key: int, vars: int) -> Exponent:
    """The exponent tuple of a packed key of vars fields."""
    return _layout(vars).unpack(key.to_bytes(2 * vars, "little"))


def _exponent(exp) -> Exponent:
    """The tuple of a JSON exponent list, after one type-and-sign test of
    the list; parse_int words the error of a list that fails it.  Anything
    but a list is a ValueError: a string or a dict would iterate."""
    if type(exp) is not list:
        raise ValueError("an exponent must be a JSON list")
    if all([type(e) is int and e >= 0 for e in exp]):
        return tuple(exp)
    return tuple(parse_int(e, 0) for e in exp)


def _grlex_key(exp: Exponent) -> tuple[int, Exponent]:
    return (sum(exp), exp)


class Terms(Mapping):
    """Read-only exponent -> Fraction view of a polynomial's coefficients.

    A Fraction is built only when an item is read; the length is O(1).
    Iteration follows ``num``, so zip(p.terms, p.num.items()) pairs each
    exponent tuple with its key.
    """

    __slots__ = ("_num", "_den", "_vars")

    def __init__(self, num: dict[int, int], den: int, vars: int):
        self._num = num
        self._den = den
        self._vars = vars

    def _key(self, exp) -> int | None:
        if len(exp) != self._vars or not all(0 <= e < _LIMIT for e in exp):
            return None
        return _pack(exp)

    def __getitem__(self, exp: Exponent) -> Fraction:
        return Fraction(self._num[self._key(exp)], self._den)

    def __contains__(self, exp) -> bool:
        return self._key(exp) in self._num

    def __iter__(self) -> Iterator[Exponent]:
        vars = self._vars
        return (_unpack(k, vars) for k in self._num)

    def __len__(self) -> int:
        return len(self._num)


class MPoly:
    """Immutable sparse polynomial: integer numerators over one denominator."""

    __slots__ = ("vars", "num", "den")

    def __init__(self, vars: int, terms: Mapping[Exponent, Fraction] | None = None):
        """The polynomial with the given rational coefficients; zeros are dropped."""
        _check_vars(vars)
        coefs: dict[int, Fraction] = {}
        for exp, coef in (terms or {}).items():
            key = _checked_pack(exp, vars)
            c = Fraction(coef)
            if c != 0:
                coefs[key] = c
        # over the lcm of the denominators some numerator is prime to each
        # prime power of it, so the form is already canonical
        den = math.lcm(*(c.denominator for c in coefs.values()))
        num = {e: c.numerator * (den // c.denominator) for e, c in coefs.items()}
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _make(cls, vars: int, num: dict[int, int], den: int) -> "MPoly":
        """Internal fast path: num/den must already be canonical."""
        self = object.__new__(cls)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def _reduced(cls, vars: int, num: dict[int, int], den: int) -> "MPoly":
        """Internal: nonzero integer numerators over den > 0, reduced by their gcd."""
        if den != 1:
            g = den
            for c in num.values():
                g = _gcd(g, c)
                if g == 1:
                    break
            if g != 1:
                den //= g
                num = {e: c // g for e, c in num.items()}
        return cls._make(vars, num, den)

    @classmethod
    def zero(cls, vars: int) -> "MPoly":
        return cls._make(vars, {}, 1)

    @classmethod
    def const(cls, vars: int, value) -> "MPoly":
        c = Fraction(value)
        if c == 0:
            return cls.zero(vars)
        return cls._make(vars, {0: c.numerator}, c.denominator)

    @classmethod
    def from_powers(cls, num: dict[int, int], den: int) -> "MPoly":
        """The one-variable polynomial sum n/den x**d over num's (d, n) items,
        d ints >= 0, n nonzero ints and den > 0, reduced by one gcd pass.
        The key of x**d is d, so no field bounds d where no key is added:
        in ``lincomb`` and ``Echelon``."""
        return cls._reduced(1, num, den)

    @classmethod
    def variable(cls, vars: int, i: int) -> "MPoly":
        """The polynomial t_i (1-based index)."""
        if not 1 <= i <= vars:
            raise PolyError(f"variable index {i} out of range 1..{vars}")
        return cls._make(vars, {1 << (_BITS * (i - 1)): 1}, 1)

    # -- predicates ----------------------------------------------------

    @property
    def terms(self) -> Terms:
        """The coefficients as a read-only exponent -> Fraction mapping."""
        return Terms(self.num, self.den, self.vars)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, MPoly):
            return (self.vars == other.vars and self.den == other.den
                    and self.num == other.num)
        return NotImplemented

    __hash__ = None  # mutable-dict payload; equality by content only

    # -- ring operations -----------------------------------------------

    def _check(self, other: "MPoly") -> None:
        if self.vars != other.vars:
            raise PolyError(f"variable counts differ: {self.vars} vs {other.vars}")

    def _combine(self, other, sign: int) -> "MPoly":
        """self + sign * other, lincomb's two-pair case."""
        if not isinstance(other, MPoly):
            other = MPoly.const(self.vars, other)
        self._check(other)
        return lincomb(self.vars, ((self, 1), (other, sign)))

    def __add__(self, other) -> "MPoly":
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._make(self.vars, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other) -> "MPoly":
        return self._combine(other, -1)

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            return dot(self.vars, ((self, other),))
        if not isinstance(other, int):
            other = Fraction(other)
        return lincomb(self.vars, ((self, other),))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "MPoly":
        c = Fraction(scalar)
        if c == 0:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return self * (1 / c)

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise PolyError("negative polynomial power")
        result = MPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus --------------------------------------------------------

    def differentiate(self, i: int) -> "MPoly":
        """Exact partial derivative with respect to t_i (1-based)."""
        return MPoly._reduced(self.vars, _derivative(self, i), self.den)

    # -- structure -------------------------------------------------------

    def wdeg(self) -> int:
        """Weighted degree; variable t_i has weight i.

        The zero polynomial reports 0.
        """
        weights = range(1, self.vars + 1)
        return max((sum(map(mul, exp, weights)) for exp in self.terms), default=0)

    def max_var_used(self) -> int:
        """Largest 1-based variable index with a nonzero exponent (0 if none)."""
        used = 0
        for key in self.num:
            used |= key
        return -(-used.bit_length() // _BITS)

    def content(self) -> Fraction:
        """+-gcd(num)/den: the c with self/c of coprime integer coefficients
        and a positive graded-lex leading one.  Zero maps to 1."""
        if not self.num:
            return Fraction(1)
        g = 0
        for c in self.num.values():
            g = _gcd(g, c)
            if g == 1:
                break
        mag = Fraction(g, self.den)
        lead = _pack(max(self.terms, key=_grlex_key))
        return mag if self.num[lead] > 0 else -mag

    # -- variable plumbing -------------------------------------------------

    def embed(self, new_vars: int, offset: int = 0) -> "MPoly":
        """Reinterpret in a larger variable space, shifting indices by offset."""
        if offset < 0 or self.max_var_used() + offset > new_vars:
            raise PolyError("embedding does not fit in target variable space")
        if not offset:
            return MPoly._make(new_vars, self.num, self.den)
        shift = _BITS * offset
        return MPoly._make(new_vars, {k << shift: c for k, c in self.num.items()},
                           self.den)

    # -- serialization ------------------------------------------------------

    def _sorted(self) -> list[tuple[int, Exponent, int]]:
        """(degree, exponent, numerator) triples in descending graded-lex
        order, each key unpacked once and the triples sorted as they are:
        no two share an exponent, so a numerator never decides the order."""
        vars = self.vars
        terms = [(sum(e), e, c) for k, c in self.num.items()
                 for e in (_unpack(k, vars),)]
        terms.sort(reverse=True)
        return terms

    def to_json(self) -> dict:
        den = self.den  # each coefficient c/den in lowest terms
        terms = [{"exp": list(e), "coef": _format(c // g, den // g)}
                 for _, e, c in self._sorted() for g in (_gcd(c, den),)]
        return {"vars": self.vars, "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "MPoly":
        """The polynomial of a payload, with the constructor's checks and
        messages, summed on packed keys over the lcm of the denominators.

        Every item is parsed before any check, and each exponent is
        checked before it is packed."""
        vars = parse_int(data["vars"])
        items = [(_exponent(item["exp"]), _ratio(item["coef"]))
                 for item in data.get("terms", [])]
        _check_vars(vars)
        keys = [_checked_pack(exp, vars) for exp, _ in items]
        den = _lcm(*(q for _, (_, q) in items))
        out: dict[int, int] = {}
        get = out.get
        for key, (_, (p, q)) in zip(keys, items):
            out[key] = get(key, 0) + p * (den // q)
        # a key keeps the place of its first term, as in the constructor
        return cls._reduced(vars, {k: c for k, c in out.items() if c}, den)

    def format(self) -> str:
        """Render with terms in descending graded-lex order."""
        if not self.num:
            return "0"
        parts = []
        for _, exp, c in self._sorted():
            coef = Fraction(c, self.den)
            factors = [
                f"t{i}" if e == 1 else f"t{i}^{e}"
                for i, e in enumerate(exp, start=1)
                if e
            ]
            body = "*".join(factors)
            if not body:
                parts.append(format_rat(coef))
            elif coef == 1:
                parts.append(body)
            elif coef == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{format_rat(coef)}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"MPoly({self.vars}, {self.format()})"


def dot(vars: int, pairs: Iterable[tuple[MPoly, MPoly]]) -> MPoly:
    """sum a*b over the pairs, all in vars variables: the one product kernel.

    Every product is summed on integers over one common denominator, the
    lcm of the a.den * b.den, dropping a key as soon as it cancels; one
    guard-bit check and one gcd pass finish the sum.  A pair with a zero
    factor adds nothing, and no pair left gives the zero polynomial.
    """
    live = []
    den = 1
    for a, b in pairs:
        if a.vars != vars or b.vars != vars:
            raise PolyError(f"variable counts differ: {a.vars} and {b.vars} vs {vars}")
        if a.num and b.num:
            d = a.den * b.den
            live.append((a.num, b.num, d))
            den = _lcm(den, d)
    if not live:
        return MPoly.zero(vars)
    out: dict[int, int] = {}
    get = out.get
    for na, nb, d in live:
        scale = den // d
        small, large = (na, nb) if len(na) <= len(nb) else (nb, na)
        for ea, ca in small.items():
            if scale != 1:
                ca *= scale
            for eb, cb in large.items():
                exp = ea + eb
                c = get(exp)
                if c is None:
                    out[exp] = ca * cb
                else:
                    c += ca * cb
                    if c:
                        out[exp] = c
                    else:
                        del out[exp]
    if any(map(_guard(vars).__and__, out)):
        raise ArithmeticError(f"an exponent of the product reaches {_LIMIT}")
    return MPoly._reduced(vars, out, den)


def lincomb(vars: int, pairs: Iterable[tuple[MPoly, Rational]]) -> MPoly:
    """sum c*p over the pairs, all p in vars variables and each c an int
    or a Fraction: the one kernel for linear combinations.

    Summed on integers over one common denominator, the lcm of the
    p.den * c.denominator, each cancelled against c.numerator first (so an
    integer c times p needs no division in the closing pass), dropping a
    key as soon as it cancels; one gcd pass finishes the sum.  No keys are
    added, so no guard bit is read.  A zero p or c adds nothing, and no
    pair left gives zero.

    One pair with an integer c (scalar ``p * c``) skips the gcd pass: with
    g = gcd(c, p.den), the result is p.num * (c/g) over p.den/g, and
    gcd(c/g, p.den/g) = 1 while p.den/g divides p.den, which is prime to
    the gcd of p.num, so that form is already canonical.
    """
    live = []
    den = 1
    for p, c in pairs:
        if p.vars != vars:
            raise PolyError(f"variable counts differ: {p.vars} vs {vars}")
        if p.num and c:
            n, d = c.numerator, p.den * c.denominator
            g = _gcd(n, d)
            live.append((p.num, n // g, d // g))
            den = _lcm(den, d // g)
            integral = c.denominator == 1
    if len(live) == 1 and integral:
        num, n, d = live[0]
        return MPoly._make(vars, {e: x * n for e, x in num.items()}, d)
    return _lincomb_sum(vars, live, den)


def dlincomb(vars: int, triples: Iterable[tuple[MPoly, int, Rational]]) -> MPoly:
    """sum c * dp/dt_j over (p, j, c) triples, all p in vars variables:
    lincomb of partial derivatives.

    Each derivative's integer numerators join the sum over p.den as they
    are, not reduced, so the closing gcd pass is the only one.  Such
    numerators are not in canonical form, so lincomb's one-pair path,
    which returns its input's form, is never taken.
    """
    live = []
    den = 1
    for p, j, c in triples:
        if p.vars != vars:
            raise PolyError(f"variable counts differ: {p.vars} vs {vars}")
        num = _derivative(p, j)
        if num and c:
            n, d = c.numerator, p.den * c.denominator
            g = _gcd(n, d)
            live.append((num, n // g, d // g))
            den = _lcm(den, d // g)
    return _lincomb_sum(vars, live, den)


def _derivative(p: MPoly, i: int) -> dict[int, int]:
    """The integer numerators of dp/dt_i over p.den, not reduced."""
    if not 1 <= i <= p.vars:
        raise PolyError(f"variable index {i} out of range 1..{p.vars}")
    shift = _BITS * (i - 1)
    unit = 1 << shift
    out: dict[int, int] = {}
    for key, coef in p.num.items():
        e = (key >> shift) & _FIELD
        if e:
            out[key - unit] = coef * e
    return out


def _lincomb_sum(vars: int, live: list[tuple[dict[int, int], int, int]],
                 den: int) -> MPoly:
    """sum n/d * num over (num, n, d) with every d dividing den, reduced by
    one gcd pass: the summing loop of lincomb and dlincomb."""
    out: dict[int, int] = {}
    get = out.get
    for num, n, d in live:
        f = n * (den // d)
        for e, c in num.items():
            x = get(e)
            if x is None:
                out[e] = c * f
            else:
                x += c * f
                if x:
                    out[e] = x
                else:
                    del out[e]
    return MPoly._reduced(vars, out, den)


class Echelon:
    """Polynomials in echelon form over the rationals, the one exact
    elimination: ``rows`` maps each row's lead, its largest key, to the
    row, so no two rows share a lead and the rows are independent.  Each
    row multiple taken off a polynomial is one ``lincomb``."""

    def __init__(self):
        self.rows: dict[int, MPoly] = {}

    def reduce(self, p: MPoly) -> tuple[MPoly, dict[int, Fraction]]:
        """(rest, multiples): p = rest + sum_l multiples[l] rows[l], and
        rest is zero or leads with a key no row leads with."""
        out: dict[int, Fraction] = {}
        while p.num:
            lead = max(p.num)
            row = self.rows.get(lead)
            if row is None:
                break
            # the lead of p drops below lead, so each row comes up once
            c = out[lead] = Fraction(p.num[lead] * row.den, p.den * row.num[lead])
            p = lincomb(p.vars, ((p, 1), (row, -c)))
        return p, out

    def insert(self, p: MPoly) -> tuple[MPoly, dict[int, Fraction]]:
        """``reduce(p)``, keeping a nonzero rest as a row with multiple 1,
        so that p = sum_l multiples[l] rows[l]."""
        rest, out = self.reduce(p)
        if rest.num:
            lead = max(rest.num)
            self.rows[lead] = rest
            out[lead] = Fraction(1)
        return rest, out

    def reduced(self) -> list[MPoly]:
        """The reduced echelon basis of the rows' span, least lead first:
        each row monic and zero at every other lead, by one ``lincomb``
        with the finished rows of lower leads, which are zero at every
        lead but their own, so the multiples read off the row itself."""
        done: dict[int, MPoly] = {}
        for lead, row in sorted(self.rows.items()):
            top = row.num[lead]
            pairs = [(done[key], Fraction(-c, top)) for key, c in row.num.items()
                     if key in done]
            if pairs or top != row.den:
                row = lincomb(row.vars, [(row, Fraction(row.den, top)), *pairs])
            done[lead] = row
        return list(done.values())


def divexact(p: MPoly, d: MPoly) -> MPoly | None:
    """Exact polynomial quotient p/d, or None when d does not divide p.

    Single-divisor division on packed keys and integer numerators.  Key
    order is a monomial order (lex, t_D most significant; fields never
    carry), so a remainder whose leading monomial is not a multiple of
    d's never reaches zero; the quotient is unique, whatever the order.
    Gauss's lemma keeps coefficients integral: d.num / gcd(d.num) is
    primitive, so when it divides p.num the quotient and each term met on
    the way are integers, and a nonzero integer remainder proves it does
    not.  While d divides p no remainder key exceeds p's exponents, so a
    key reaching a guard bit proves it does not either.
    """
    if d.vars != p.vars:
        raise PolyError("variable counts differ in division")
    if not d.num:
        raise ZeroDivisionError("division by zero polynomial")
    vars = p.vars
    if not p.num:
        return MPoly.zero(vars)
    guard = _guard(vars)
    # the least monomial of p is that of d times that of the quotient
    if ((min(p.num) | guard) - min(d.num)) & guard != guard:
        return None
    g = _gcd(*d.num.values())
    lead = max(d.num)
    lead_coef = d.num[lead] // g
    rest = [(k, c // g) for k, c in d.num.items() if k != lead]
    rem = dict(p.num)
    get = rem.get
    heap = [-k for k in rem]
    heapq.heapify(heap)
    quotient: dict[int, int] = {}
    while heap:
        r = -heapq.heappop(heap)
        c = rem.pop(r, None)
        if c is None:
            continue  # stale entry
        q = (r | guard) - lead
        if q & guard != guard:
            return None
        q ^= guard
        q_coef, left = divmod(c, lead_coef)
        if left:
            return None
        quotient[q] = q_coef * d.den
        for k, coef in rest:
            key = q + k
            c = get(key)
            prod = q_coef * coef
            if c is None:
                if key & guard:
                    return None
                rem[key] = -prod
                heapq.heappush(heap, -key)
            elif c == prod:
                del rem[key]
            else:
                rem[key] = c - prod
    return MPoly._reduced(vars, quotient, g * p.den)
