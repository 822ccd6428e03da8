import decimal
import operator
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphabound.coeffs import (CoeffSequence, EulerLinear, c_explicit,
                               c_sequence, clipped_sequence, d_closed_form,
                               d_sequence, e_enclosure, render_decimal)


# hand-computed from the backward recursion c_delta = 1/delta,
# i*c_i + c_{i+1} = 1
KNOWN_C = {
    3: [F(2, 3), F(1, 3), F(1, 3)],
    4: [F(5, 8), F(3, 8), F(1, 4), F(1, 4)],
    5: [F(19, 30), F(11, 30), F(4, 15), F(1, 5), F(1, 5)],
    6: [F(91, 144), F(53, 144), F(19, 72), F(5, 24), F(1, 6), F(1, 6)],
}


@pytest.mark.parametrize("delta", sorted(KNOWN_C))
def test_c_sequence_known_values(delta):
    seq = c_sequence(delta)
    assert list(seq) == KNOWN_C[delta]
    assert seq.kind == "c"
    assert seq.delta == delta
    assert len(seq) == delta


def test_c_sequence_is_one_indexed():
    seq = c_sequence(4)
    assert seq[1] == F(5, 8)
    assert seq[4] == F(1, 4)
    with pytest.raises(IndexError):
        seq[0]
    with pytest.raises(IndexError):
        seq[5]


def test_c_sequence_rejects_small_delta():
    with pytest.raises(ValueError, match="delta >= 3"):
        c_sequence(2)


@pytest.mark.parametrize("delta", range(3, 51))
def test_c_recursion_identities(delta):
    c = c_sequence(delta)
    for i in range(1, delta):
        assert i * c[i] + c[i + 1] == 1
    assert c[delta - 1] == c[delta] == F(1, delta)
    # two-step identity
    for i in range(1, delta - 1):
        assert c[i] == F(1, i + 1) + c[i + 2] / (i * (i + 1))


@pytest.mark.parametrize("delta", range(3, 51))
def test_c_monotone_and_capped(delta):
    c = c_sequence(delta)
    for i in range(1, delta - 1):
        assert c[i] > c[i + 1]
    for i in range(1, delta + 1):
        assert c[i] <= F(1, i)
    # the 2/(2i+1) cap holds up to delta-1; the tail 1/delta just misses it,
    # which is why the plain sequence fails the per-vertex weighting cap on
    # regular graphs
    for i in range(1, delta):
        assert c[i] <= F(2, 2 * i + 1)
    assert c[delta] > F(2, 2 * delta + 1)
    for i in range(1, delta - 2):
        assert c[i] < F(i + 1, i * (i + 2))


@pytest.mark.parametrize("delta", range(3, 31))
def test_c_explicit_matches_recursion(delta):
    c = c_sequence(delta)
    for i in range(1, delta + 1):
        assert c_explicit(i, delta) == c[i], (i, delta)


def test_c_explicit_validation():
    with pytest.raises(ValueError, match="delta >= 3"):
        c_explicit(1, 2)
    with pytest.raises(ValueError, match="out of range"):
        c_explicit(0, 4)
    with pytest.raises(ValueError, match="out of range"):
        c_explicit(5, 4)


def test_clipped_sequence_known_values():
    assert list(clipped_sequence(3, F(2, 7))) == [F(9, 14), F(5, 14), F(2, 7)]
    assert list(clipped_sequence(4, F(2, 9))) == [F(17, 27), F(10, 27), F(7, 27), F(2, 9)]


def test_clipped_tail_validation():
    with pytest.raises(ValueError, match="tail value"):
        clipped_sequence(4, F(0))
    with pytest.raises(ValueError, match="tail value"):
        clipped_sequence(4, F(1, 4))  # above 2/9
    seq = clipped_sequence(4, F(2, 9))
    assert seq.kind == "clipped"


def test_clipped_default_tail_is_the_cap():
    for delta in range(3, 41):
        assert clipped_sequence(delta) == clipped_sequence(delta, F(2, 2 * delta + 1))
    with pytest.raises(ValueError) as info:
        clipped_sequence(4, F(1, 4))
    assert str(info.value) == "tail value must satisfy 0 < value <= 2/9"


@given(st.integers(3, 40), st.integers(1, 1000))
@settings(max_examples=60, deadline=None)
def test_clipped_respects_cap_everywhere(delta, num):
    cap = F(2, 2 * delta + 1)
    tail = cap * num / 1000
    if tail == 0:
        tail = cap
    seq = clipped_sequence(delta, tail)
    for i in range(1, delta + 1):
        assert 0 < seq[i] <= F(2, 2 * i + 1)
    # clipping never breaks the defining inequality i*c_i + c_{i+1} >= ... the
    # min() can only lower entries, so the recursion holds as an inequality
    for i in range(1, delta):
        assert i * seq[i] + seq[i + 1] <= 1


# --- the limiting sequence ------------------------------------------------

def test_d_sequence_known_values():
    d = d_sequence(6)
    assert (d[1].a, d[1].b) == (1, -1)
    assert (d[2].a, d[2].b) == (0, 1)
    assert (d[3].a, d[3].b) == (1, -2)
    assert (d[4].a, d[4].b) == (-2, 6)
    assert d.kind == "d"


def test_d_sequence_recursion():
    d = d_sequence(12)
    for i in range(1, 12):
        nxt = 1 - i * d[i]
        assert (nxt.a, nxt.b) == (d[i + 1].a, d[i + 1].b)


def test_d_closed_form_matches_recursion():
    d = d_sequence(20)
    for i in range(1, 21):
        cf = d_closed_form(i)
        assert (cf.a, cf.b) == (d[i].a, d[i].b), i


def test_d_values_positive_and_decreasing():
    d = d_sequence(15)
    for i in range(1, 16):
        assert d[i].sign() == 1
        assert (1 - d[i]).sign() == 1
    for i in range(1, 15):
        assert d[i] > d[i + 1]


def test_d_decimals():
    d = d_sequence(4)
    assert d[1].decimal(4) == "0.6321"
    assert d[3].decimal(4) == "0.2642"


def test_d_sequence_validation():
    with pytest.raises(ValueError, match="at least 3"):
        d_sequence(2)
    with pytest.raises(ValueError, match="at least 1"):
        d_closed_form(0)


# --- exact a + b/e arithmetic ----------------------------------------------

def test_euler_linear_arithmetic():
    x = EulerLinear(1, -1)
    y = EulerLinear(F(1, 2), 2)
    assert ((x + y).a, (x + y).b) == (F(3, 2), 1)
    assert ((x - y).a, (x - y).b) == (F(1, 2), -3)
    assert ((x * 3).a, (x * 3).b) == (3, -3)
    assert ((x / 2).a, (x / 2).b) == (F(1, 2), -F(1, 2))
    assert ((2 - x).a, (2 - x).b) == (1, 1)
    assert (-x).a == -1


def test_euler_linear_comparisons():
    one_over_e = EulerLinear(0, 1)
    assert one_over_e > F(367, 1000)
    assert one_over_e < F(368, 1000)
    assert EulerLinear(1, -1) > F(632, 1000)
    assert EulerLinear(F(1, 2), 0) == F(1, 2)
    assert abs(EulerLinear(0, -1)) == one_over_e


SMALL_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=12)
EULER_VALUES = st.builds(EulerLinear, SMALL_RATIONALS,
                         st.one_of(st.just(F(0)), SMALL_RATIONALS))
# each operator and the signs of left - right for which it holds
COMPARISONS = {operator.lt: {-1}, operator.le: {-1, 0}, operator.gt: {1},
               operator.ge: {0, 1}, operator.eq: {0}, operator.ne: {-1, 1}}


@given(EULER_VALUES, st.one_of(st.integers(-3, 3), SMALL_RATIONALS, EULER_VALUES))
@settings(max_examples=200, deadline=None)
def test_euler_linear_comparisons_follow_the_sign(x, y):
    s = (x - y).sign()
    for op, holds in COMPARISONS.items():
        assert op(x, y) == (s in holds), (op, x, y)
        assert op(y, x) == (-s in holds), (op, y, x)


@pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
def test_euler_linear_refuses_to_order_a_str(op):
    x = EulerLinear(1, -1)
    with pytest.raises(TypeError):
        op(x, "1")
    with pytest.raises(TypeError):
        op("1", x)
    assert x != "1"


def test_euler_linear_hash_agrees_with_fraction():
    assert hash(EulerLinear(F(3, 7), 0)) == hash(F(3, 7))
    assert EulerLinear(F(3, 7), 0) == F(3, 7)


def test_euler_linear_interval_brackets_float():
    import math
    v = EulerLinear(2, -3)  # 2 - 3/e
    lo, hi = v.interval(30)
    f = 2 - 3 / math.e
    assert float(lo) <= f <= float(hi)
    assert hi - lo < F(1, 10**29)


def test_euler_linear_str():
    assert str(EulerLinear(2, -3)) == "2 - 3/e"
    assert str(EulerLinear(0, 1)) == "1/e"
    assert str(EulerLinear(F(5, 8), 0)) == "5/8"
    assert str(EulerLinear(0, -2)) == "-2/e"
    assert str(EulerLinear(1, F(1, 2))) == "1 + 1/2/e"


def test_render_decimal():
    assert render_decimal(F(5, 8), 4) == "0.6250"
    assert render_decimal(3, 2) == "3.00"
    assert render_decimal(EulerLinear(0, 1), 6) == "0.367879"


def test_e_enclosure_contains_e():
    lo, hi = e_enclosure(30)
    # decimal's exp() is independently implemented
    decimal.getcontext().prec = 50
    e_ref = decimal.Decimal(1).exp()
    assert decimal.Decimal(lo.numerator) / lo.denominator < e_ref
    assert decimal.Decimal(hi.numerator) / hi.denominator > e_ref
    assert hi - lo < F(1, 10**30)
    with pytest.raises(ValueError):
        e_enclosure(0)


def reference_e_enclosure(digits):
    """The enclosure built term by term: the smallest k with
    2/(k+1)! < 10**-digits, then s_k and s_k + 2/(k+1)!."""
    target = F(1, 10 ** digits)
    k = 1
    while F(2, factorial(k + 1)) >= target:
        k += 1
    s = sum((F(1, factorial(j)) for j in range(k + 1)), F(0))
    return s, s + F(2, factorial(k + 1))


def test_e_enclosure_matches_reference():
    for digits in (*range(1, 61), 200, 1000, 3000):
        assert e_enclosure(digits) == reference_e_enclosure(digits), digits


@given(st.fractions(min_value=-5, max_value=5),
       st.fractions(min_value=-5, max_value=5))
@settings(max_examples=80, deadline=None)
def test_euler_linear_sign_consistent_with_float(a, b):
    v = EulerLinear(a, b)
    import math
    approx = float(a) + float(b) / math.e
    if abs(approx) > 1e-9:
        assert v.sign() == (1 if approx > 0 else -1)
    else:
        # only the exact zero has a reliable sign down here
        if a == 0 and b == 0:
            assert v.sign() == 0


def test_coeff_sequence_iteration_order():
    seq = CoeffSequence("c", 4, tuple(KNOWN_C[4]))
    assert [seq[i] for i in range(1, 5)] == list(seq)
