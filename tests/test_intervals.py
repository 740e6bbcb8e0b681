import re
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonewatch.intervals import (
    INF,
    Interval,
    add,
    contains,
    distance,
    format_time,
    intersect,
    parse_interval,
    parse_time,
    subset,
)

I = parse_interval


# -- strategies ----------------------------------------------------------------

def bounded_intervals(max_value: int = 6) -> st.SearchStrategy:
    def build(lo, hi, lo_closed, hi_closed):
        if lo == hi:
            return Interval.point(lo)
        return Interval(lo, lo_closed, hi, hi_closed)

    return st.tuples(
        st.integers(0, max_value), st.integers(0, max_value), st.booleans(), st.booleans()
    ).map(lambda t: build(min(t[0], t[1]), max(t[0], t[1]), t[2], t[3]))


def any_intervals(max_value: int = 6) -> st.SearchStrategy:
    unbounded = st.integers(0, max_value).map(Interval.above)
    return st.one_of(bounded_intervals(max_value), unbounded)


@st.composite
def interval_with_member(draw, max_value: int = 6):
    iv = draw(any_intervals(max_value))
    den = draw(st.integers(1, 16))
    lo = Fraction(iv.lo)
    hi = lo + 4 if iv.hi == INF else Fraction(iv.hi)
    if iv.is_point:
        return iv, lo
    num = draw(st.integers(0, den))
    t = lo + (hi - lo) * Fraction(num, den)
    if t not in iv:  # an open endpoint was hit; nudge inside
        t = lo + (hi - lo) * Fraction(1, 2)
    return iv, t


def grid_members(iv: Interval, den: int = 16, span: int = 4) -> list[Fraction]:
    lo = Fraction(iv.lo)
    hi = lo + span if iv.hi == INF else Fraction(iv.hi)
    pts = [lo + Fraction(k, den) for k in range(int((hi - lo) * den) + 1)]
    return [p for p in pts if p in iv]


# -- construction and text form -------------------------------------------------

def test_parse_format_round_trip():
    for text in ["[1,3]", "(0,1)", "[0,1)", "(1,3]", "(3,inf)", "[0,0]"]:
        assert str(parse_interval(text)) == text


def test_rejects_degenerate_and_malformed():
    for bad in ["(1,1)", "[2,1]", "(1,1]", "[1,1)", "[1,inf]", "(-1,2]", "id", ""]:
        with pytest.raises(ValueError):
            parse_interval(bad)
    with pytest.raises(ValueError):
        Interval(0, True, INF, True)
    with pytest.raises(ValueError):
        Interval(2, True, 1, True)
    with pytest.raises(ValueError):
        Interval.point(1)._replace(lo=2)


def test_parse_time_exact_decimal():
    assert parse_time("1.5") == Fraction(3, 2)
    assert parse_time("0.25") == Fraction(1, 4)
    assert format_time(Fraction(1)) == "1.0"
    assert format_time(Fraction(1, 2)) == "0.5"
    assert format_time(Fraction(1, 4)) == "0.25"
    with pytest.raises(ValueError):
        parse_time("1e3")
    with pytest.raises(ValueError):
        parse_time("-1")


def test_parse_time_rejects_a_zero_denominator():
    for text in ["1/0", "0/0", " 3/00 "]:
        with pytest.raises(ValueError, match="zero denominator"):
            parse_time(text)


_DECIMAL_RE = re.compile(r"^\d+(\.\d+)?$")
_FRACTION_RE = re.compile(r"^\d+/\d+$")


def _regex_parse_time(text: str) -> Fraction:
    """The regex-based ``parse_time`` that the ``partition`` one replaced,
    kept as its reference."""
    text = text.strip()
    if _DECIMAL_RE.match(text) or _FRACTION_RE.match(text):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in time point: {text!r}") from None
    raise ValueError(f"not a non-negative decimal time point: {text!r}")


def _outcome(parse, text):
    try:
        value = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    return "value", value, type(value)


_TIME_EDGES = [
    "1/0", ".5", "5.", "1e3", "-1", "+1", "\u0663/\u0664", "\u0663.\u0664", "1_000", "1 /2", "1/ 2",
    " 3/4\n", "\t0.50 ", "00.10", "0/0", "1/2/3", "1.5/2", "1.2.3", "", " ", "inf", "nan",
    "0x10", "1 2", "\u00b2", "1\u00b2", "12/00", "1" * 5000, "1." + "1" * 5000,
    "1" * 3000 + "." + "1" * 3000, "1/" + "2" * 5000,
]


def test_parse_time_matches_the_regex_path_on_edge_cases():
    # Digit strings past ``int``'s string-conversion limit, on Pythons that
    # have one, fail in both paths with the same message.
    for text in _TIME_EDGES:
        assert _outcome(parse_time, text) == _outcome(_regex_parse_time, text), text[:20]


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="0123456789./ \t\n-+e_\u0663\u0664\u00b2x", max_size=12))
def test_parse_time_accepts_exactly_what_the_regex_path_accepts(text):
    # Same value or the same error text, for every string of the characters
    # that decide acceptance: ASCII and Arabic-Indic digits, a superscript
    # two (a digit but not a decimal), separators, signs and whitespace.
    assert _outcome(parse_time, text) == _outcome(_regex_parse_time, text)


# -- add -------------------------------------------------------------------------

def test_add_point_shift():
    assert add(I("[1,1]"), I("[0,2]")) == I("[1,3]")
    assert add(I("(0,1)"), I("[1,1]")) == I("(1,2)")


def test_add_open_bounds_sampled():
    a, b = I("(1,3]"), I("(0,2)")
    result = add(a, b)
    assert result == I("(1,5)")
    sums = [t1 + t2 for t1 in grid_members(a, 4) for t2 in grid_members(b, 4)]
    assert all(contains(result, s) for s in sums)
    assert min(sums) - result[0] <= Fraction(1, 2)
    assert result[2] - max(sums) <= Fraction(1, 2)


def test_add_infinite_upper():
    assert add(I("(3,inf)"), I("[1,1]")) == I("(4,inf)")
    assert add(I("[0,2]"), I("(0,inf)")) == I("(0,inf)")


@settings(max_examples=200)
@given(bounded_intervals(), bounded_intervals())
def test_add_commutative(a, b):
    assert add(a, b) == add(b, a)


@settings(max_examples=200)
@given(bounded_intervals(4), bounded_intervals(4), bounded_intervals(4))
def test_add_associative(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))


# -- distance ---------------------------------------------------------------------

def test_distance_from_point():
    assert distance(I("[0,0]"), I("(1,3]")) == I("(1,3]")


def test_distance_examples_against_sampling():
    cases = [
        (I("(1,3]"), I("(1,3]"), I("[0,2)")),
        (I("[1,1]"), I("(1,3]"), I("(0,2]")),
        (I("[0,1]"), I("[0,1]"), I("[0,1]")),
        (I("[1,1]"), I("(1,2)"), I("(0,1)")),
        (I("[0,1]"), I("(1,inf)"), I("(0,inf)")),
    ]
    for a, b, expected in cases:
        result = distance(a, b)
        assert result == expected, f"D({a},{b}) = {result}, expected {expected}"
        diffs = [abs(t1 - t2) for t1 in grid_members(a) for t2 in grid_members(b)]
        assert all(contains(result, d) for d in diffs)
        assert min(diffs) - result[0] <= Fraction(1, 16)
        if result[2] != INF:
            assert result[2] - max(diffs) <= Fraction(1, 16)
        if result[1]:
            assert result[0] in diffs
        if result[3]:
            assert result[2] in diffs


@settings(max_examples=200)
@given(any_intervals(), any_intervals())
def test_distance_symmetric(a, b):
    assert distance(a, b) == distance(b, a)


@settings(max_examples=300)
@given(interval_with_member(), interval_with_member())
def test_membership_soundness(am, bm):
    a, t1 = am
    b, t2 = bm
    assert contains(add(a, b), t1 + t2)
    assert contains(distance(a, b), abs(t1 - t2))


@settings(max_examples=150)
@given(bounded_intervals(4), bounded_intervals(4))
def test_bound_tightness(a, b):
    # A 1/32 grid leaves at most 1/32 slack per open endpoint, so every
    # result bound is approached within 1/16 by sampled witnesses.  The
    # member lists are ascending: the extreme sums and the largest
    # difference pair their ends, and the smallest difference pairs each
    # member of one list with its neighbours in the other.
    pts_a, pts_b = grid_members(a, den=32), grid_members(b, den=32)
    min_sum, max_sum = pts_a[0] + pts_b[0], pts_a[-1] + pts_b[-1]
    max_diff = max(pts_a[-1] - pts_b[0], pts_b[-1] - pts_a[0])
    min_diff = min(
        abs(t - pts_b[j])
        for t in pts_a
        for i in [bisect_left(pts_b, t)]
        for j in (i - 1, i)
        if 0 <= j < len(pts_b)
    )
    s = add(a, b)
    d = distance(a, b)
    assert min_sum - s[0] <= Fraction(1, 16)
    assert s[2] - max_sum <= Fraction(1, 16)
    assert min_diff - d[0] <= Fraction(1, 16)
    assert d[2] - max_diff <= Fraction(1, 16)


# -- contains / subset -------------------------------------------------------------

def test_contains_examples():
    assert contains(I("[1,3]"), 3)
    assert not contains(I("(1,3]"), 1)
    assert contains(I("(3,inf)"), Fraction(7, 2))
    assert not contains(I("(3,inf)"), 3)
    assert contains(I("[0,1)"), 0) and not contains(I("[0,1)"), 1)


def test_subset_examples():
    assert subset(I("(1,3]"), I("[1,3]"))
    assert not subset(I("[0,0]"), I("(0,1)"))
    assert subset(I("[1,1]"), I("[1,1]"))
    assert subset(I("(1,2)"), I("[1,2]"))
    assert not subset(I("[1,3]"), I("(1,3]"))
    assert subset(I("(3,inf)"), I("(2,inf)"))
    assert not subset(I("(2,inf)"), I("(3,inf)"))


@settings(max_examples=200)
@given(interval_with_member(), any_intervals())
def test_subset_agrees_with_membership(am, b):
    a, t = am
    if subset(a, b):
        assert contains(b, t)


# -- intersect ----------------------------------------------------------------------

def test_intersect():
    assert intersect(I("[0,2]"), I("[1,3]")) == I("[1,2]")
    assert intersect(I("[0,1)"), I("[1,2]")) is None
    assert intersect(I("[0,1]"), I("[1,2]")) == I("[1,1]")
    assert intersect(I("(0,2)"), I("(1,inf)")) == I("(1,2)")
