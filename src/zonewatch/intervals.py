"""Exact interval arithmetic on the non-negative time axis.

Intervals have integer (or +infinity) endpoints that are independently open
or closed.  They are used for transition guards, clock resetting ranges,
clock zones and duration ranges alike.  Time points are exact rationals
(``fractions.Fraction``), never floats: whether a clock value sits on an
integer boundary must be decided exactly.

Empty intervals are unrepresentable; operations whose result may be empty
(``intersect``) return ``None`` instead.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

INF = math.inf

TimePoint = Fraction
Rational = Union[int, Fraction]

_DECIMAL_RE = re.compile(r"^\d+(\.\d+)?$")
_FRACTION_RE = re.compile(r"^\d+/\d+$")


def parse_time(text: str) -> Fraction:
    """Parse a non-negative decimal (or ``a/b``) time point exactly."""
    text = text.strip()
    if _DECIMAL_RE.match(text) or _FRACTION_RE.match(text):
        return Fraction(text)
    raise ValueError(f"not a non-negative decimal time point: {text!r}")


def format_time(t: Rational) -> str:
    """Render a time point as exact decimal text (``1.0``, ``0.5``, ``0.25``)."""
    t = Fraction(t)
    den = t.denominator
    k = 0
    while den % 2 == 0:
        den //= 2
        k += 1
    m = 0
    while den % 5 == 0:
        den //= 5
        m += 1
    if den != 1:
        return f"{t.numerator}/{t.denominator}"
    digits = max(k, m, 1)
    scaled = t * 10**digits
    whole, frac = divmod(int(scaled), 10**digits)
    return f"{whole}.{str(frac).rjust(digits, '0').rstrip('0') or '0'}"


@dataclass(frozen=True, slots=True)
class Bound:
    """One interval endpoint: a non-negative integer or ``INF``, open or closed.

    Infinity is only legal as an open endpoint.
    """

    value: Union[int, float]
    closed: bool

    def __post_init__(self) -> None:
        if self.value is INF:
            if self.closed:
                raise ValueError("infinity must be an open bound")
        elif not isinstance(self.value, int) or self.value < 0:
            raise ValueError(f"bound value must be a non-negative integer: {self.value!r}")


@dataclass(frozen=True, slots=True)
class Interval:
    """A nonempty time interval with open/closed integer endpoints."""

    lower: Bound
    upper: Bound

    def __post_init__(self) -> None:
        if self.lower.value is INF:
            raise ValueError("lower bound cannot be infinite")
        if self.lower.value > self.upper.value:
            raise ValueError(f"empty interval: lower {self.lower} above upper {self.upper}")
        if self.lower.value == self.upper.value and not (self.lower.closed and self.upper.closed):
            raise ValueError("degenerate interval must be a closed point")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def closed(a: int, b: int) -> "Interval":
        return Interval(Bound(a, True), Bound(b, True))

    @staticmethod
    def open(a: int, b: Union[int, float]) -> "Interval":
        return Interval(Bound(a, False), Bound(b, False))

    @staticmethod
    def open_closed(a: int, b: int) -> "Interval":
        return Interval(Bound(a, False), Bound(b, True))

    @staticmethod
    def closed_open(a: int, b: int) -> "Interval":
        return Interval(Bound(a, True), Bound(b, False))

    @staticmethod
    def point(k: int) -> "Interval":
        return Interval(Bound(k, True), Bound(k, True))

    @staticmethod
    def above(k: int) -> "Interval":
        """The unbounded interval ``(k, inf)``."""
        return Interval(Bound(k, False), Bound(INF, False))

    # -- predicates --------------------------------------------------------

    @property
    def is_point(self) -> bool:
        return self.lower.value == self.upper.value

    @property
    def is_bounded(self) -> bool:
        return self.upper.value is not INF

    def __contains__(self, t: Rational) -> bool:
        return contains(self, t)

    def __str__(self) -> str:
        lo = "[" if self.lower.closed else "("
        hi = "]" if self.upper.closed else ")"
        up = "inf" if self.upper.value is INF else str(self.upper.value)
        return f"{lo}{self.lower.value},{up}{hi}"

    def sort_key(self) -> tuple:
        return (self.lower.value, not self.lower.closed, self.upper.value, self.upper.closed)


_INTERVAL_RE = re.compile(r"^([\[(])\s*(\d+)\s*,\s*(\d+|inf)\s*([\])])$")


def parse_interval(text: str) -> Interval:
    """Parse the text form ``[a,b]``, ``(a,b)``, ``[a,b)``, ``(a,b]``, ``(a,inf)``."""
    m = _INTERVAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"not an interval: {text!r}")
    lo_closed = m.group(1) == "["
    hi_closed = m.group(4) == "]"
    lo = int(m.group(2))
    hi: Union[int, float] = INF if m.group(3) == "inf" else int(m.group(3))
    return Interval(Bound(lo, lo_closed), Bound(hi, hi_closed))


# -- operations -------------------------------------------------------------


def contains(a: Interval, t: Rational) -> bool:
    """Exact membership of a time point, respecting openness."""
    if t < a.lower.value or (t == a.lower.value and not a.lower.closed):
        return False
    if a.upper.value is INF:
        return True
    if t > a.upper.value or (t == a.upper.value and not a.upper.closed):
        return False
    return True


def subset(a: Interval, b: Interval) -> bool:
    """True iff every point of ``a`` lies in ``b``."""
    lo_ok = b.lower.value < a.lower.value or (
        b.lower.value == a.lower.value and (b.lower.closed or not a.lower.closed)
    )
    up_ok = b.upper.value > a.upper.value or (
        b.upper.value == a.upper.value and (b.upper.closed or not a.upper.closed)
    )
    return lo_ok and up_ok


def add(a: Interval, b: Interval) -> Interval:
    """Pointwise sum ``{t1 + t2 | t1 in a, t2 in b}``."""
    return interval_of(rng_add(rng(a), rng(b)))


def intersect(a: Interval, b: Interval) -> Optional[Interval]:
    """Intersection, or ``None`` when the intervals are disjoint."""
    r = rng_intersect(rng(a), rng(b))
    return None if r is None else interval_of(r)


def distance(a: Interval, b: Interval) -> Interval:
    """Distance range ``{|t1 - t2| | t1 in a, t2 in b}``."""
    return interval_of(rng_distance(rng(a), rng(b)))


# -- range tuples -------------------------------------------------------------
#
# The duration search and witness realization run on plain tuples
# ``(lo, lo_closed, hi, hi_closed)``: no validation, no hashing of nested
# objects, and endpoints may be rationals, ``-INF`` (lo) or ``INF`` (hi).
# Arithmetic may produce an infinite endpoint that is equal to, but not the
# same object as, ``INF``; compare with ``==``.  An infinite endpoint is
# always open, so the closedness of a sum or difference is simply the
# conjunction of the contributing flags.

Range = tuple


def rng(iv: Interval) -> Range:
    return (iv.lower.value, iv.lower.closed, iv.upper.value, iv.upper.closed)


def interval_of(r: Range) -> Interval:
    """The Interval of a range with integer endpoints (validated)."""
    lo, lo_c, hi, hi_c = r
    return Interval(Bound(lo, lo_c), Bound(INF if hi == INF else hi, hi_c))


def rng_add(a: Range, b: Range) -> Range:
    return (a[0] + b[0], a[1] and b[1], a[2] + b[2], a[3] and b[3])


def rng_intersect(a: Range, b: Range) -> Optional[Range]:
    lo, lo_c = (a[0], a[1]) if a[0] > b[0] else (b[0], b[1]) if b[0] > a[0] else (a[0], a[1] and b[1])
    hi, hi_c = (a[2], a[3]) if a[2] < b[2] else (b[2], b[3]) if b[2] < a[2] else (a[2], a[3] and b[3])
    if lo > hi or (lo == hi and not (lo_c and hi_c)):
        return None
    return (lo, lo_c, hi, hi_c)


def rng_distance(a: Range, b: Range) -> Range:
    """The range ``{|t1 - t2| | t1 in a, t2 in b}`` of two nonempty ranges.

    If the ranges meet, the lower bound is a closed 0; otherwise it is the gap
    between the nearer endpoints, open when either of them is open.  The upper
    bound is the larger of the two far-endpoint differences, open when either
    contributing endpoint is open.
    """
    a_lo, a_lc, a_hi, a_hc = a
    b_lo, b_lc, b_hi, b_hc = b
    if a_hi < b_lo or (a_hi == b_lo and not (a_hc and b_lc)):
        lo, lo_c = b_lo - a_hi, a_hc and b_lc
    elif b_hi < a_lo or (b_hi == a_lo and not (b_hc and a_lc)):
        lo, lo_c = a_lo - b_hi, b_hc and a_lc
    else:
        lo, lo_c = 0, True
    v1, v2 = b_hi - a_lo, a_hi - b_lo
    if v1 > v2:
        return (lo, lo_c, v1, b_hc and a_lc)
    if v2 > v1:
        return (lo, lo_c, v2, a_hc and b_lc)
    return (lo, lo_c, v1, (b_hc and a_lc) or (a_hc and b_lc))


def rng_shift(r: Range, delta: Fraction) -> Range:
    lo = r[0] if r[0] == -INF else r[0] + delta
    hi = r[2] if r[2] == INF else r[2] + delta
    return (lo, r[1], hi, r[3])


def rng_sub_from(total: Fraction, r: Range) -> Range:
    """The range {total - s : s in r}."""
    lo = -INF if r[2] == INF else total - r[2]
    hi = INF if r[0] == -INF else total - r[0]
    return (lo, r[3], hi, r[1])


def rng_pick(r: Range) -> Fraction:
    """A point of a nonempty range: its closed lower end, else an interior point."""
    lo, lo_c, hi, _ = r
    if lo_c:
        return Fraction(lo)
    if hi == INF:
        return Fraction(lo) + 1
    return (Fraction(lo) + Fraction(hi)) / 2
