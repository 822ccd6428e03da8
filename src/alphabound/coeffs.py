"""Coefficient sequences for the degree-weighted independence bounds.

Three sequences, all exact:

* ``c_sequence(delta)`` -- backward recursion c_delta = 1/delta and
  i*c_i + c_{i+1} = 1.  Kept as big-integer rationals: the closed forms in
  ``c_explicit`` carry denominators like i*(i+1)*...*delta, which overflow
  64-bit integers well before delta = 20, and floats would mask identity
  violations that the test suite checks exactly.
* ``clipped_sequence(delta, c_delta)`` -- the min-clipped variant
  c_i = min{(1-c_{i+1})/i, 2/(2i+1)}, whose entries satisfy the per-vertex
  cap required by the clique-weighting verifier.
* ``d_sequence(length)`` -- the limiting sequence d_1 = 1 - 1/e,
  d_{i+1} = 1 - i*d_i, kept in exact a + b/e form (:class:`EulerLinear`).
  The recursion multiplies any error by i at every step, so floats lose all
  accuracy around i = 17 while the (a, b) pairs stay exact.

Comparisons that involve 1/e go through a certified interval enclosure of e
built from partial sums of sum(1/k!), whose truncation error is bounded by
2/(K+1)!; the precision adapts until the interval separates the operands.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, total_ordering
from math import factorial, prod
from typing import Optional, Union

RationalLike = Union[int, Fraction]


@lru_cache(maxsize=None)
def e_enclosure(digits: int) -> tuple[Fraction, Fraction]:
    """Certified rational bounds lo < e < hi with hi - lo < 10**-digits."""
    if digits < 1:
        raise ValueError("digits must be at least 1")
    # p/f = sum_{j<=k} 1/j! with f = k!, for the first k with
    # 2/(k+1)! < 10**-digits; p stays an integer, so there is one gcd
    bound = 2 * 10 ** digits
    k, f, p = 1, 1, 2
    while f * (k + 1) <= bound:
        k += 1
        f *= k
        p = p * k + 1
    s = Fraction(p, f)
    # s_k < e < s_k + 2/(k+1)!  (the tail is dominated by a geometric series
    # with ratio 1/(k+2), so it is below 1/(k+1)! * (k+2)/(k+1) <= 2/(k+1)!)
    return s, s + Fraction(2, f * (k + 1))


def _frozen(self, name, value=None):
    """``__setattr__`` and ``__delattr__`` of the immutable classes below."""
    raise AttributeError(f"cannot change field {name!r}")


@total_ordering
class EulerLinear:
    """The exact real number a + b/e for rationals a, b.  Immutable.

    The representation is unique: a + b/e = a' + b'/e with rational entries
    forces (a, b) = (a', b') because e is irrational.  For the same reason a
    value with b != 0 is never zero, so adaptive interval comparison always
    terminates.
    """

    __slots__ = ("a", "b")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, a: RationalLike, b: RationalLike):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __repr__(self):
        return f"EulerLinear(a={self.a!r}, b={self.b!r})"

    def __reduce__(self):
        return EulerLinear, (self.a, self.b)

    # -- arithmetic (ring operations against rationals only) ---------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, EulerLinear):
            return other
        if isinstance(other, (int, Fraction)):
            return EulerLinear(Fraction(other), Fraction(0))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EulerLinear(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EulerLinear(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EulerLinear(o.a - self.a, o.b - self.b)

    def __neg__(self):
        return EulerLinear(-self.a, -self.b)

    def __mul__(self, other):
        # multiplying two of these leaves the a + b/e form (an e^-2 term
        # appears), so only rational scalars are supported
        if isinstance(other, (int, Fraction)):
            return EulerLinear(self.a * other, self.b * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other != 0:
            return EulerLinear(self.a / other, self.b / other)
        return NotImplemented

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    # -- certified comparison ----------------------------------------------

    def interval(self, digits: int = 20) -> tuple[Fraction, Fraction]:
        """Certified rational enclosure: lo <= a + b/e <= hi."""
        if self.b == 0:
            return self.a, self.a
        e_lo, e_hi = e_enclosure(digits)
        inv_lo, inv_hi = 1 / e_hi, 1 / e_lo
        if self.b > 0:
            return self.a + self.b * inv_lo, self.a + self.b * inv_hi
        return self.a + self.b * inv_hi, self.a + self.b * inv_lo

    def sign(self) -> int:
        if self.b == 0:
            return -1 if self.a < 0 else (0 if self.a == 0 else 1)
        digits = 20
        while True:
            lo, hi = self.interval(digits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            digits *= 2     # b != 0 makes the value irrational, never zero

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        # agree with Fraction's hash whenever the value is rational
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    # -- rendering -----------------------------------------------------------

    def decimal(self, digits: int = 12) -> str:
        """Correctly rounded decimal string with ``digits`` places.

        Rational values round ties to even; irrational values have no ties,
        and the enclosure is widened until both endpoints round alike.
        """
        if digits < 1:
            raise ValueError("digits must be at least 1")
        scale = 10 ** digits
        # a rational value's enclosure is (a, a), which settles at once
        prec = 20
        while True:
            lo, hi = self.interval(prec)
            scaled = round(lo * scale)
            if scaled == round(hi * scale):
                break
            prec *= 2
        sign = "-" if scaled < 0 else ""
        scaled = abs(scaled)
        return f"{sign}{scaled // scale}.{scaled % scale:0{digits}d}"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        tail = f"{abs(self.b)}/e"
        if self.a == 0:
            return tail if self.b > 0 else f"-{tail}"
        return f"{self.a} {'+' if self.b > 0 else '-'} {tail}"


def render_decimal(value, digits: int = 12) -> str:
    """Correctly rounded decimal for a Fraction, int, or EulerLinear."""
    if isinstance(value, EulerLinear):
        return value.decimal(digits)
    return EulerLinear(Fraction(value), Fraction(0)).decimal(digits)


class CoeffSequence:
    """1-indexed coefficient vector values[1..delta].  Immutable.

    ``kind`` is "c" (backward recursion), "clipped" (min-clip rule), or
    "d" (limiting sequence, EulerLinear entries).
    """

    __slots__ = ("kind", "delta", "values")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, kind: str, delta: int, values: tuple):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "values", values)

    def _key(self):
        return self.kind, self.delta, self.values

    def __repr__(self):
        return (f"CoeffSequence(kind={self.kind!r}, delta={self.delta!r},"
                f" values={self.values!r})")

    def __reduce__(self):
        return CoeffSequence, self._key()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __getitem__(self, i: int):
        if not 1 <= i <= self.delta:
            raise IndexError(f"coefficient index {i} out of range 1..{self.delta}")
        return self.values[i - 1]

    def __len__(self) -> int:
        return self.delta

    def __iter__(self):
        return iter(self.values)


def _c_values(delta: int) -> tuple[Fraction, ...]:
    """Uncached backward recursion; see c_sequence."""
    out = [Fraction(0)] * delta
    out[delta - 1] = Fraction(1, delta)
    for i in range(delta - 1, 0, -1):           # i*c_i + c_{i+1} = 1
        out[i - 1] = (1 - out[i]) / i
    return tuple(out)


@lru_cache(maxsize=None)
def c_sequence(delta: int) -> CoeffSequence:
    """c_delta = 1/delta and i*c_i + c_{i+1} = 1, exact rationals."""
    if delta < 3:
        raise ValueError("coefficients defined only for delta >= 3")
    return CoeffSequence("c", delta, _c_values(delta))


def c_explicit(i: int, delta: int) -> Fraction:
    """Closed form for the i-th entry of ``c_sequence(delta)``.

    For i in {delta-1, delta} the value is 1/delta.  Below that the entry
    expands into a sum of products of consecutive integers whose tail term
    depends on whether delta - i is even or odd.
    """
    if delta < 3:
        raise ValueError("coefficients defined only for delta >= 3")
    if not 1 <= i <= delta:
        raise ValueError(f"index {i} out of range 1..{delta}")
    if i >= delta - 1:
        return Fraction(1, delta)
    if (delta - i) % 2 == 0:
        terms = (delta - i - 2) // 2
        tail = Fraction(1, prod(range(i, delta + 1)))
    else:
        terms = (delta - i - 3) // 2
        tail = Fraction(delta - 1, prod(range(i, delta + 1)))
    s = Fraction(1, i + 1) + tail
    for j in range(1, terms + 1):
        s += Fraction(i + 2 * j, prod(range(i, i + 2 * j + 2)))
    return s


def clipped_sequence(delta: int, c_delta: Optional[RationalLike] = None) -> CoeffSequence:
    """Backward min-clip rule c_i = min{(1 - c_{i+1})/i, 2/(2i+1)}.

    The tail value is a free parameter in (0, 2/(2*delta+1)], by default
    its upper end; every entry then respects the per-vertex cap 2/(2i+1)
    and the sequence strictly decreases.
    """
    if delta < 3:
        raise ValueError("coefficients defined only for delta >= 3")
    c_delta = Fraction(2, 2 * delta + 1) if c_delta is None else Fraction(c_delta)
    if not 0 < c_delta <= Fraction(2, 2 * delta + 1):
        raise ValueError(
            f"tail value must satisfy 0 < value <= 2/{2 * delta + 1}")
    out = [Fraction(0)] * delta
    out[delta - 1] = c_delta
    for i in range(delta - 1, 0, -1):
        out[i - 1] = min((1 - out[i]) / i, Fraction(2, 2 * i + 1))
    return CoeffSequence("clipped", delta, tuple(out))


def d_sequence(length: int) -> CoeffSequence:
    """d_1 = 1 - 1/e and d_{i+1} = 1 - i*d_i, exact EulerLinear entries."""
    if length < 3:
        raise ValueError("sequence length must be at least 3")
    out = [EulerLinear(Fraction(1), Fraction(-1))]
    for i in range(1, length):
        prev = out[-1]
        out.append(EulerLinear(1 - i * prev.a, -i * prev.b))
    return CoeffSequence("d", length, tuple(out))


def d_closed_form(i: int) -> EulerLinear:
    """Direct formula for the i-th limiting coefficient.

    With S = sum_{j=0}^{i+1} (-1)^j / j!:
    even i gives 1/(i+1) + (i-1)!*(1/e - S), odd i the negated bracket.
    """
    if i < 1:
        raise ValueError("index must be at least 1")
    s = Fraction(0)
    f = 1
    for j in range(i + 2):
        if j:
            f *= j
        s += Fraction((-1) ** j, f)
    fac = factorial(i - 1)
    if i % 2 == 0:
        return EulerLinear(Fraction(1, i + 1) - fac * s, Fraction(fac))
    return EulerLinear(Fraction(1, i + 1) + fac * s, Fraction(-fac))
