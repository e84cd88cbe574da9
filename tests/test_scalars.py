"""Field arithmetic over Q, prime fields, and small extensions."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import oracle_from_fraction
from weylift import Field, QQ
from weylift.errors import DivisionByZero, NotFiniteField, NotPIntegral

rationals = st.fractions(max_denominator=10**4)


@given(rationals, rationals)
def test_q_add_mul_match_fractions(a, b):
    assert QQ.add(a, b) == a + b
    assert QQ.mul(a, b) == a * b
    assert QQ.sub(a, b) == a - b


@given(rationals)
def test_q_inverse(a):
    if a == 0:
        with pytest.raises(DivisionByZero):
            QQ.inv(a)
    else:
        assert QQ.mul(a, QQ.inv(a)) == 1


def test_prime_field_inverses_exhaustive():
    for p in (2, 3, 5, 7, 11):
        f = Field("Fp", p)
        for a in range(1, p):
            assert f.mul(a, f.inv(a)) == 1


def test_extension_field_inverses_and_frobenius():
    for p, k, mod in ((2, 2, (1, 1, 1)), (2, 3, (1, 1, 0, 1)), (3, 2, (1, 0, 1))):
        f = Field("Fp", p, k, mod)
        for a in f.elements():
            if f.is_zero(a):
                continue
            assert f.mul(a, f.inv(a)) == f.one()
            # Frobenius is invertible and of order dividing k
            b = f.frobenius(a)
            assert f.frobenius(b, inverse=True) == a
            c = a
            for _ in range(k):
                c = f.frobenius(c)
            assert c == a


def test_extension_field_is_a_field():
    f = Field("Fp", 2, 2, (1, 1, 1))
    elems = list(f.elements())
    assert len(elems) == 4
    # multiplicative group of F4 is cyclic of order 3
    for a in elems:
        if f.is_zero(a) or a == f.one():
            continue
        assert f.pow_int(a, 3) == f.one()


def test_from_fraction_reduction():
    f = Field("Fp", 5)
    assert f.from_fraction(Fraction(7, 3)) == (7 * pow(3, 3, 5)) % 5
    with pytest.raises(NotPIntegral):
        f.from_fraction(Fraction(1, 5))


def test_char_and_order():
    assert QQ.char == 0 and QQ.order == 0
    f = Field("Fp", 3, 2, (1, 0, 1))
    assert f.char == 3 and f.order == 9


def test_elements_refuses_rationals():
    with pytest.raises(NotFiniteField):
        list(QQ.elements())


def test_field_json_round_trip():
    for f in (QQ, Field("Fp", 7), Field("Fp", 2, 3, (1, 1, 0, 1))):
        g = Field.from_json(f.to_json())
        assert g == f


def test_format_raw():
    f = Field("Fp", 2, 2, (1, 1, 1))
    one = f.one()
    gen = f.from_coeffs([0, 1])
    assert f.format_raw(one) == "1"
    assert f.format_raw(gen) == "a"
    assert f.format_raw(f.add(one, gen)) == "(a+1)"


_EXTENSIONS = ((2, 2, (1, 1, 1)), (2, 3, (1, 1, 0, 1)), (3, 2, (1, 0, 1)))


@pytest.mark.parametrize(
    "field",
    [Field("Fp", p) for p in (2, 3, 5, 7, 11, 13, 17)]
    + [Field("Fp", p, k, mod) for p, k, mod in _EXTENSIONS],
    ids=repr,
)
def test_from_fraction_matches_fraction_round_trip(field):
    values = [*range(-40, 41), True, False]
    values += [Fraction(a, b) for a in range(-12, 13) for b in range(1, 19)]
    for q in values:
        try:
            want = oracle_from_fraction(field, q)
        except NotPIntegral as exc:
            with pytest.raises(NotPIntegral, match=str(exc)):
                field.from_fraction(q)
            continue
        got = field.from_fraction(q)
        assert got == want and type(got) is type(want)


def test_from_fraction_over_q_keeps_fractions():
    q = Fraction(-7, 3)
    assert QQ.from_fraction(q) is q
    for n in (-2, 0, 5):
        got = QQ.from_fraction(n)
        assert got == oracle_from_fraction(QQ, n) and type(got) is Fraction
    assert QQ.zero() is QQ.zero() and QQ.zero() == Fraction(0)
    assert QQ.one() is QQ.one() and QQ.one() == Fraction(1)
