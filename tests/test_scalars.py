"""Interned Q(i) scalars against an independent model.

A Gaussian rational is modelled as a pair of Fractions (re, im).  Every
operation of Scalar must agree with the model, keep the canonical form,
and return the one interned object of its value, whether it comes from a
memo table or is computed afresh.  The intern table holds only live
scalars, and the memo tables never exceed their cap.
"""

import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamecalc import linalg
from tamecalc.linalg import MEMO_CAP, ZERO, Scalar

numerators = st.one_of(st.integers(-6, 6), st.integers(-10**40, 10**40))
denominators = st.one_of(st.integers(1, 6), st.integers(1, 10**20))
rationals = st.builds(Fraction, numerators, denominators)
models = st.tuples(rationals, st.one_of(st.just(Fraction(0)), rationals))


def scalar(model: tuple[Fraction, Fraction]) -> Scalar:
    return Scalar.from_fractions(*model)


def model_of(s: Scalar) -> tuple[Fraction, Fraction]:
    return Fraction(s.rn, s.dn), Fraction(s.im, s.dn)


def assert_canonical(s: Scalar) -> None:
    assert s.dn > 0
    assert gcd(s.rn, s.im, s.dn) == 1
    assert Scalar(s.rn, s.im, s.dn) is s


@settings(max_examples=300, deadline=None)
@given(models, models)
def test_arithmetic_matches_the_fraction_model(x, y):
    (a, b), (c, d) = x, y
    u, v = scalar(x), scalar(y)
    results = {
        "add": (u + v, (a + c, b + d)),
        "sub": (u - v, (a - c, b - d)),
        "mul": (u * v, (a * c - b * d, a * d + b * c)),
        "neg": (-u, (-a, -b)),
    }
    n = c * c + d * d
    if n:
        results["div"] = (u / v, ((a * c + b * d) / n, (b * c - a * d) / n))
        results["inverse"] = (v.inverse(), (c / n, -d / n))
    else:
        assert v is ZERO
        with pytest.raises(ZeroDivisionError):
            v.inverse()
    for name, (got, want) in results.items():
        assert model_of(got) == want, name
        assert_canonical(got)
        assert got is scalar(want), name
        assert (got is ZERO) == (want == (0, 0)) == got.is_zero() == (not got), name


@settings(max_examples=100, deadline=None)
@given(models, models)
def test_a_memo_hit_is_the_fresh_result(x, y):
    u, v = scalar(x), scalar(y)
    product, total = u * v, u + v
    assert linalg._PRODUCTS[(u, v)] is product
    assert linalg._SUMS[(u, v)] is total
    assert u * v is product and u + v is total      # hits
    linalg._PRODUCTS.pop((u, v))
    linalg._SUMS.pop((u, v))
    assert u * v is product and u + v is total      # computed afresh


@given(models)
def test_copies_and_pickles_return_the_interned_object(x):
    s = scalar(x)
    assert copy.copy(s) is s
    assert copy.deepcopy(s) is s
    assert copy.deepcopy({0: [s]})[0][0] is s
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(s, protocol)) is s


def test_the_intern_table_holds_only_live_scalars():
    before = len(linalg._INTERNED)
    made = [Scalar(k, 1, 7) for k in range(10**5)]
    assert len(linalg._INTERNED) >= 10**5
    del made
    assert len(linalg._INTERNED) == before


def test_a_dead_scalar_leaves_no_stale_entry():
    # a value made again after its scalar died is a new, interned object
    key = (10**50 + 3, 0, 1)
    Scalar(*key)
    assert key not in linalg._INTERNED
    s = Scalar(*key)
    assert linalg._INTERNED[key]() is s
    assert Scalar(*key) is s


def test_the_memo_tables_never_exceed_their_cap():
    seven = Scalar(7, 0, 1)
    for k in range(2 * MEMO_CAP + 10):
        x = Scalar(k, 0, 1)
        assert x * seven is Scalar(7 * k, 0, 1)
        assert x + seven is Scalar(k + 7, 0, 1)
        assert len(linalg._PRODUCTS) <= MEMO_CAP
        assert len(linalg._SUMS) <= MEMO_CAP
