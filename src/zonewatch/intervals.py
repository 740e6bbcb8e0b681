"""Exact interval arithmetic on the non-negative time axis.

There is one interval type: the range tuple ``(lo, lo_closed, hi,
hi_closed)``, with endpoints that are independently open or closed.  It is
used for transition guards, clock resetting ranges, clock zones and duration
ranges alike.  ``Interval`` is its validated form, for model data and zones:
integer (or open +infinity) endpoints, never empty.  The operations below take
any range, an ``Interval`` included, and return plain range tuples, whose
endpoints may be rational.  Time points are exact rationals
(``fractions.Fraction``), never floats: whether a clock value sits on an
integer boundary must be decided exactly.

Empty ranges are unrepresentable; ``intersect``, whose result may be empty,
returns ``None`` instead.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction
from typing import Optional, Union

INF = math.inf

Rational = Union[int, Fraction]


def parse_time(text: str) -> Fraction:
    """Parse a non-negative decimal (or ``a/b``) time point exactly: digits,
    optionally a dot and more digits, or digits, a slash and digits, with
    surrounding whitespace ignored.  Digits are Unicode decimal digits, as
    ``int`` reads them."""
    text = text.strip()
    num, slash, den = text.partition("/")
    if slash:
        if num.isdecimal() and den.isdecimal():
            try:
                return Fraction(int(num), int(den))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in time point: {text!r}") from None
    else:
        whole, dot, frac = num.partition(".")
        if whole.isdecimal() and (not dot or frac.isdecimal()):
            if not dot:
                return Fraction(int(whole))
            scale = 10 ** len(frac)
            return Fraction(int(whole) * scale + int(frac), scale)
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


class Interval(namedtuple("Interval", "lo lo_closed hi hi_closed")):
    """A range tuple ``(lo, lo_closed, hi, hi_closed)`` checked on
    construction: ``lo`` is a non-negative integer, ``hi`` a non-negative
    integer or an open ``INF``, and a degenerate interval is a closed point.
    """

    __slots__ = ()

    def __new__(cls, lo: int, lo_closed: bool, hi: Union[int, float], hi_closed: bool) -> "Interval":
        if not isinstance(lo, int) or lo < 0:
            raise ValueError(f"lower bound must be a non-negative integer: {lo!r}")
        if hi == INF:
            if hi_closed:
                raise ValueError("infinity must be an open bound")
        elif not isinstance(hi, int) or hi < 0:
            raise ValueError(f"upper bound must be a non-negative integer or INF: {hi!r}")
        if lo > hi:
            raise ValueError(f"empty interval: lower {lo} above upper {hi}")
        if lo == hi and not (lo_closed and hi_closed):
            raise ValueError("degenerate interval must be a closed point")
        return tuple.__new__(cls, (lo, lo_closed, hi, hi_closed))

    @classmethod
    def _make(cls, iterable) -> "Interval":
        # namedtuple's ``_make`` and ``_replace`` would skip the checks above.
        return cls(*iterable)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def closed(a: int, b: int) -> "Interval":
        return Interval(a, True, b, True)

    @staticmethod
    def open(a: int, b: Union[int, float]) -> "Interval":
        return Interval(a, False, b, False)

    @staticmethod
    def point(k: int) -> "Interval":
        return Interval(k, True, k, True)

    @staticmethod
    def above(k: int) -> "Interval":
        """The unbounded interval ``(k, inf)``."""
        return Interval(k, False, INF, False)

    # -- predicates --------------------------------------------------------

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def is_bounded(self) -> bool:
        return self.hi != INF

    def __contains__(self, t: Rational) -> bool:
        return contains(self, t)

    def __str__(self) -> str:
        lo = "[" if self.lo_closed else "("
        hi = "]" if self.hi_closed else ")"
        up = "inf" if self.hi == INF else str(self.hi)
        return f"{lo}{self.lo},{up}{hi}"

    def sort_key(self) -> tuple:
        return (self.lo, not self.lo_closed, self.hi, self.hi_closed)


_INTERVAL_RE = re.compile(r"^([\[(])\s*(\d+)\s*,\s*(\d+|inf)\s*([\])])$")


def parse_interval(text: str) -> Interval:
    """Parse the text form ``[a,b]``, ``(a,b)``, ``[a,b)``, ``(a,b]``, ``(a,inf)``."""
    if not isinstance(text, str):
        raise ValueError(f"not an interval: {text!r}")
    m = _INTERVAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"not an interval: {text!r}")
    lo_closed = m.group(1) == "["
    hi_closed = m.group(4) == "]"
    lo = int(m.group(2))
    hi: Union[int, float] = INF if m.group(3) == "inf" else int(m.group(3))
    return Interval(lo, lo_closed, hi, hi_closed)


# -- operations ---------------------------------------------------------------
#
# The operations take any range ``(lo, lo_closed, hi, hi_closed)``, an
# ``Interval`` or a plain tuple, and those that compute a range return a
# plain tuple: the duration search and witness realization build no
# ``Interval`` per step.  A computed range
# may have rational endpoints, ``-INF`` (lo) or ``INF`` (hi), and may only be
# tested with ``contains``, since ``in`` on a plain tuple tests its elements.
# A computed infinite endpoint equals ``INF`` but need not be the same
# object, so compare with ``==``.  An infinite endpoint is always open, so
# the closedness of a sum or difference is the conjunction of the
# contributing flags.

Range = tuple


def contains(r: Range, t: Rational) -> bool:
    """Exact membership of a time point, respecting openness."""
    lo, lo_c, hi, hi_c = r
    return (lo < t or (lo_c and t == lo)) and (t < hi or (hi_c and t == hi))


def subset(a: Range, b: Range) -> bool:
    """True iff every point of ``a`` lies in ``b``."""
    lo_ok = b[0] < a[0] or (b[0] == a[0] and (b[1] or not a[1]))
    up_ok = b[2] > a[2] or (b[2] == a[2] and (b[3] or not a[3]))
    return lo_ok and up_ok


def add(a: Range, b: Range) -> Range:
    """Pointwise sum ``{t1 + t2 | t1 in a, t2 in b}``."""
    return (a[0] + b[0], a[1] and b[1], a[2] + b[2], a[3] and b[3])


def intersect(a: Range, b: Range) -> Optional[Range]:
    """Intersection, or ``None`` when the ranges are disjoint."""
    lo, lo_c = (a[0], a[1]) if a[0] > b[0] else (b[0], b[1]) if b[0] > a[0] else (a[0], a[1] and b[1])
    hi, hi_c = (a[2], a[3]) if a[2] < b[2] else (b[2], b[3]) if b[2] < a[2] else (a[2], a[3] and b[3])
    if lo > hi or (lo == hi and not (lo_c and hi_c)):
        return None
    return (lo, lo_c, hi, hi_c)


def distance(a: Range, b: Range) -> Range:
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


def shift(r: Range, delta: Fraction) -> Range:
    """The range ``{s + delta : s in r}``."""
    lo = r[0] if r[0] == -INF else r[0] + delta
    hi = r[2] if r[2] == INF else r[2] + delta
    return (lo, r[1], hi, r[3])


def sub_from(total: Fraction, r: Range) -> Range:
    """The range ``{total - s : s in r}``."""
    lo = -INF if r[2] == INF else total - r[2]
    hi = INF if r[0] == -INF else total - r[0]
    return (lo, r[3], hi, r[1])


def pick(r: Range) -> Fraction:
    """A point of a nonempty range: its closed lower end, else an interior point."""
    lo, lo_c, hi, _ = r
    if lo_c:
        return Fraction(lo)
    if hi == INF:
        return Fraction(lo) + 1
    return (Fraction(lo) + Fraction(hi)) / 2
