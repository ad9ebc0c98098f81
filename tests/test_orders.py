"""Cyclic order, Gale order, and interval membership."""

from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from positroids import (
    PreconditionError,
    Subset,
    ValidationError,
    cyclic_lt,
    gale_extremum,
    gale_leq,
    in_cyclic_interval,
    pred,
    succ,
)


def naive_key(elements, t, n):
    # independent reimplementation: rotate then sort, no bitmasks
    return sorted((x - t) % n for x in elements)


def naive_leq(a, b, t, n):
    return all(x <= y for x, y in zip(naive_key(a, t, n), naive_key(b, t, n)))


def test_succ_pred_wrap():
    assert succ(8, 8) == 1
    assert pred(1, 8) == 8
    assert succ(3, 8) == 4
    assert pred(3, 8) == 2
    assert all(pred(succ(i, 5), 5) == i for i in range(1, 6))


def test_cyclic_lt_examples():
    # order starting at 6 on 8 elements reads 6 < 7 < 8 < 1 < ... < 5
    assert cyclic_lt(8, 2, 6, 8)
    assert cyclic_lt(6, 5, 6, 8)
    assert not cyclic_lt(5, 6, 6, 8)
    assert not cyclic_lt(2, 8, 6, 8)
    # the start is the minimum
    for x in range(2, 9):
        assert cyclic_lt(6, x if x != 6 else 7, 6, 8)


def test_cyclic_lt_is_strict_total_order():
    n = 7
    for t in range(1, n + 1):
        for a in range(1, n + 1):
            assert not cyclic_lt(a, a, t, n)
            for b in range(1, n + 1):
                if a != b:
                    assert cyclic_lt(a, b, t, n) != cyclic_lt(b, a, t, n)


def test_cyclic_lt_rejects_out_of_range():
    with pytest.raises(ValidationError):
        cyclic_lt(0, 1, 1, 4)
    with pytest.raises(ValidationError):
        cyclic_lt(1, 5, 1, 4)
    with pytest.raises(ValidationError):
        cyclic_lt(1, 2, 9, 4)


def test_gale_leq_examples():
    s = lambda *e: Subset.of(4, e)
    assert gale_leq(s(1, 2), s(1, 3), 1)
    assert gale_leq(s(1, 3), s(2, 4), 1)
    assert gale_leq(s(1, 2), s(2, 4), 1)
    # {1,4} and {2,3} are incomparable at t=1
    assert not gale_leq(s(1, 4), s(2, 3), 1)
    assert not gale_leq(s(2, 3), s(1, 4), 1)
    # shifting the start changes the verdict
    assert gale_leq(s(3, 4), s(1, 3), 3)
    assert not gale_leq(s(1, 3), s(3, 4), 3)


def test_gale_leq_matches_naive_exhaustively():
    for n in range(1, 6):
        for k in range(n + 1):
            subsets = list(combinations(range(1, n + 1), k))
            for t in range(1, n + 1):
                for a in subsets:
                    for b in subsets:
                        expected = naive_leq(a, b, t, n)
                        got = gale_leq(Subset.of(n, a), Subset.of(n, b), t)
                        assert got == expected, (n, k, t, a, b)


@st.composite
def comparable_pairs(draw, max_n=64):
    """Two k-subsets of one ground set and a start, with n on both sides of 16.

    The second is random, or the first with one member exchanged, so that
    comparable pairs turn up at large n too.
    """
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, n))
    order = draw(st.permutations(range(1, n + 1)))
    a = order[:k]
    if 0 < k < n and draw(st.booleans()):
        out, into = draw(st.sampled_from(a)), draw(st.sampled_from(order[k:]))
        b = [into if x == out else x for x in a]
    else:
        b = draw(st.permutations(range(1, n + 1)))[:k]
    return n, a, b, draw(st.integers(1, n))


@given(comparable_pairs())
@settings(max_examples=300, deadline=None)
def test_gale_leq_matches_naive_up_to_64(case):
    n, a, b, t = case
    assert gale_leq(Subset.of(n, a), Subset.of(n, b), t) == naive_leq(a, b, t, n)
    assert gale_leq(Subset.of(n, b), Subset.of(n, a), t) == naive_leq(b, a, t, n)


def test_gale_leq_partial_order_axioms():
    n = 5
    for k in range(n + 1):
        subsets = [Subset.of(n, c) for c in combinations(range(1, n + 1), k)]
        for t in range(1, n + 1):
            for a in subsets:
                assert gale_leq(a, a, t)
                for b in subsets:
                    if gale_leq(a, b, t) and gale_leq(b, a, t):
                        assert a == b
                    for c in subsets:
                        if gale_leq(a, b, t) and gale_leq(b, c, t):
                            assert gale_leq(a, c, t)


def test_gale_leq_requires_equal_sizes():
    with pytest.raises(ValidationError):
        gale_leq(Subset.of(4, [1]), Subset.of(4, [1, 2]), 1)


def test_gale_leq_requires_same_ground_set():
    with pytest.raises(ValidationError):
        gale_leq(Subset.of(4, [1]), Subset.of(5, [1]), 1)


def test_gale_extremum():
    d = Subset.of(6, [2, 3, 5])
    # order starting at 4 reads 4 < 5 < 6 < 1 < 2 < 3
    assert gale_extremum(d, 4, "max") == 3
    assert gale_extremum(d, 4, "min") == 5
    assert gale_extremum(d, 1, "max") == 5
    assert gale_extremum(d, 1, "min") == 2
    assert gale_extremum(Subset.of(3, [2]), 1, "max") == 2


def test_gale_extremum_matches_naive():
    for n in range(1, 7):
        for k in range(1, n + 1):
            for elems in combinations(range(1, n + 1), k):
                for t in range(1, n + 1):
                    ranked = sorted(elems, key=lambda x: (x - t) % n)
                    d = Subset.of(n, elems)
                    assert gale_extremum(d, t, "min") == ranked[0]
                    assert gale_extremum(d, t, "max") == ranked[-1]


def test_gale_extremum_errors():
    with pytest.raises(PreconditionError):
        gale_extremum(Subset.empty(4), 1, "max")
    with pytest.raises(ValidationError):
        gale_extremum(Subset.of(4, [1]), 1, "biggest")
    with pytest.raises(ValidationError):
        gale_extremum(Subset.of(4, [1]), 5, "max")


def test_in_cyclic_interval():
    # (7, 3) on 8 elements holds 8, 1, 2
    assert in_cyclic_interval(8, 7, 3, 8)
    assert in_cyclic_interval(1, 7, 3, 8)
    assert in_cyclic_interval(2, 7, 3, 8)
    assert not in_cyclic_interval(7, 7, 3, 8)
    assert not in_cyclic_interval(3, 7, 3, 8)
    assert not in_cyclic_interval(5, 7, 3, 8)
    # complementary intervals partition everything but the endpoints
    n = 9
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a == b:
                continue
            for x in range(1, n + 1):
                if x in (a, b):
                    continue
                assert in_cyclic_interval(x, a, b, n) != in_cyclic_interval(x, b, a, n)


def test_in_cyclic_interval_rejects_equal_endpoints():
    with pytest.raises(ValidationError):
        in_cyclic_interval(1, 2, 2, 4)


def test_in_cyclic_interval_rejects_out_of_range_operands():
    with pytest.raises(ValidationError):
        in_cyclic_interval(9, 1, 3, 4)
    with pytest.raises(ValidationError):
        in_cyclic_interval(2, 0, 3, 4)
    with pytest.raises(ValidationError):
        in_cyclic_interval(2, 1, 5, 4)
    with pytest.raises(ValidationError):
        in_cyclic_interval(1, 1, 2, 0)
    # a non-integer operand, and an n above the cap, as cyclic_lt rejects them
    for args in ((1.5, 1, 3, 4), (2, 1.0, 3, 4), (2, 1, "3", 4), (1, 2, 3, 70), (1, 2, 3, 4.0)):
        with pytest.raises(ValidationError):
            in_cyclic_interval(*args)
