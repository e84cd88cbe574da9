"""Weyl algebra arithmetic against an independent rewriting oracle."""

import random
from fractions import Fraction

import pytest

from oracles import oracle_binary_power, oracle_mul, oracle_power, random_poly
from weylift import BracketFlavor, Field, Poly, QQ
from weylift.errors import (
    ExpansionBoundExceeded,
    InvalidExponent,
    NotCentral,
    PositiveCharacteristic,
    WeyliftError,
)
from weylift.flavors import HAUG, SKEW, STANDARD
from weylift.poly import structure_element
from weylift.weyl import (
    WeylElt,
    bounded_power,
    center_coordinates,
    from_center_coordinates,
    is_central,
    pth_power,
    weyl_commutator,
)


def gens(field, flavor):
    return [WeylElt.generator(field, flavor, i) for i in range(flavor.main_count)]


def test_reordering_fixtures():
    fl = BracketFlavor(STANDARD, 1)
    x, d = gens(QQ, fl)
    assert str(d * d * x * x) == "x1^2*p1^2 + 4*x1*p1 + 2"
    hfl = BracketFlavor(HAUG, 1)
    xh, dh = gens(QQ, hfl)
    assert str(dh * dh * xh * xh) == "x1^2*p1^2 + 4*x1*p1*h + 2*h^2"


@pytest.mark.parametrize("kind", [STANDARD, HAUG])
def test_reordering_matches_rewriting_oracle(kind):
    # d^b x^c for all small exponents, checked against one-step rewriting.
    fl = BracketFlavor(kind, 1)
    x, d = gens(QQ, fl)
    for b in range(7):
        for c in range(7):
            lhs = bounded_power(d, b) * bounded_power(x, c)
            assert lhs == oracle_mul(bounded_power(d, b), bounded_power(x, c))


@pytest.mark.parametrize(
    "flavor",
    [
        BracketFlavor(STANDARD, 1),
        BracketFlavor(STANDARD, 2),
        BracketFlavor(HAUG, 1),
        BracketFlavor(HAUG, 2),
        BracketFlavor(SKEW, 2),
        BracketFlavor(SKEW, 3),
    ],
    ids=lambda f: f"{f.kind}{f.n}",
)
def test_random_products_match_oracle(flavor):
    rng = random.Random(hash((flavor.kind, flavor.n)) & 0xFFFF)
    for _ in range(25):
        a = random_poly(rng, QQ, flavor, cls=WeylElt)
        b = random_poly(rng, QQ, flavor, cls=WeylElt)
        assert a * b == oracle_mul(a, b)


F9 = Field("Fp", 3, 2, modulus=(1, 0, 1))
FINITE_FIELDS = [Field("Fp", 3), Field("Fp", 5), Field("Fp", 7), F9]


def high_power_elt(rng, field, flavor, top, max_terms=3):
    """Random element whose single exponents reach top, so that contractions
    of every order up to top occur; over F_p with top >= p this includes the
    orders whose weights vanish."""
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        key = [0] * flavor.key_len
        for slot in range(flavor.main_count):
            if rng.random() < 0.6:
                key[slot] = rng.randrange(top + 1)
        if flavor.has_h and rng.random() < 0.3:
            key[flavor.h_slot] = 1
        coeff = field.from_coeffs([rng.randrange(field.p) for _ in range(field.k)])
        terms[tuple(key)] = coeff if not field.is_zero(coeff) else field.one()
    return WeylElt(field, flavor, terms)


@pytest.mark.parametrize("kind", [STANDARD, HAUG, SKEW])
@pytest.mark.parametrize("field", FINITE_FIELDS, ids=repr)
def test_finite_field_products_match_oracle(field, kind):
    p = field.char
    fl = BracketFlavor(kind, 1)
    x, d = gens(field, fl)
    # d^b x^c around p: orders >= p and the Lucas zeros below p drop out.
    for b in range(p - 1, p + 2):
        for c in range(p - 1, p + 2):
            lhs = bounded_power(d, b) * bounded_power(x, c)
            assert lhs == oracle_mul(bounded_power(d, b), bounded_power(x, c))
    rng = random.Random(p * field.k)
    for _ in range(12):
        a = high_power_elt(rng, field, fl, 2 * p)
        b = high_power_elt(rng, field, fl, 2 * p)
        assert a * b == oracle_mul(a, b)
    if p == 3:
        fl2 = BracketFlavor(kind, 2)
        for _ in range(8):
            a = high_power_elt(rng, field, fl2, 2 * p)
            b = high_power_elt(rng, field, fl2, 2 * p)
            assert a * b == oracle_mul(a, b)


@pytest.mark.parametrize("field", FINITE_FIELDS, ids=repr)
def test_finite_field_truncated_haug_matches_oracle(field):
    p = field.char
    hfl = BracketFlavor(HAUG, 1)
    rng = random.Random(100 + p * field.k)
    for _ in range(8):
        a = high_power_elt(rng, field, hfl, 2 * p)
        b = high_power_elt(rng, field, hfl, 2 * p)
        full = oracle_mul(a, b)
        for maxdeg in (p, 2 * p, 3 * p, 5 * p):
            assert a.mul_truncated(b, maxdeg) == full.truncate(maxdeg)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("field", FINITE_FIELDS, ids=repr)
def test_finite_field_skew_matches_oracle(field, n):
    # With n = 2 every main slot is in several contraction pairs; the
    # exponents stay at 5 there to keep the rewriting oracle fast.
    p = field.char
    sfl = BracketFlavor(SKEW, n)
    top = p + 1 if n == 1 else min(p + 1, 5)
    rng = random.Random(300 + 10 * n + p * field.k)
    for _ in range(6):
        a = high_power_elt(rng, field, sfl, top)
        b = high_power_elt(rng, field, sfl, top)
        full = oracle_mul(a, b)
        assert a * b == full
        for maxdeg in (p, 2 * p, 4 * p):
            assert a.mul_truncated(b, maxdeg) == full.truncate(maxdeg)


def test_associativity_random():
    for flavor in (BracketFlavor(STANDARD, 2), BracketFlavor(SKEW, 3)):
        rng = random.Random(5)
        for _ in range(15):
            a = random_poly(rng, QQ, flavor, cls=WeylElt, max_deg=2)
            b = random_poly(rng, QQ, flavor, cls=WeylElt, max_deg=2)
            c = random_poly(rng, QQ, flavor, cls=WeylElt, max_deg=2)
            assert (a * b) * c == a * (b * c)


def test_skew_one_step():
    fl = BracketFlavor(SKEW, 1)
    a, b = gens(QQ, fl)
    hk = WeylElt.h_power(QQ, fl, 1) * WeylElt.k_symbol(QQ, fl, 0, 1)
    assert b * a == a * b - hk
    assert weyl_commutator(a, b) == hk


def test_commutator_fixtures():
    fl = BracketFlavor(STANDARD, 1)
    x, d = gens(QQ, fl)
    assert weyl_commutator(d, x) == WeylElt.one(QQ, fl)
    assert weyl_commutator(d, x) == structure_element(fl, QQ, 1, 0, cls=WeylElt)
    hfl = BracketFlavor(HAUG, 1)
    xh, dh = gens(QQ, hfl)
    assert weyl_commutator(dh, xh) == WeylElt.h_power(QQ, hfl, 1)


def test_commutator_with_central_power():
    # [d, x^p] = p x^(p-1) vanishes mod p, so x^p is central.
    f3 = Field("Fp", 3)
    fl = BracketFlavor(STANDARD, 1)
    x, d = gens(f3, fl)
    cube = bounded_power(x, 3)
    assert weyl_commutator(d, cube).is_zero
    assert is_central(cube)
    assert not is_central(x)
    assert not is_central(bounded_power(x, 2))


def test_is_central_over_q():
    fl = BracketFlavor(STANDARD, 1)
    x, d = gens(QQ, fl)
    assert is_central(WeylElt.one(QQ, fl))
    assert not is_central(bounded_power(x, 5))
    hfl = BracketFlavor(HAUG, 1)
    assert is_central(WeylElt.h_power(QQ, hfl, 1))


def test_pth_power_fixture():
    f2 = Field("Fp", 2)
    fl = BracketFlavor(STANDARD, 1)
    x, d = gens(f2, fl)
    sq = pth_power(x + d)
    assert sq == (x + d) * (x + d)
    assert str(center_coordinates(sq)) == "z1 + w1 + 1"


def test_pth_power_requires_positive_characteristic():
    fl = BracketFlavor(STANDARD, 1)
    x, _ = gens(QQ, fl)
    with pytest.raises(PositiveCharacteristic):
        pth_power(x)


def test_pth_power_matches_oracle():
    fl = BracketFlavor(STANDARD, 1)
    for p in (2, 3):
        field = Field("Fp", p)
        rng = random.Random(p)
        for _ in range(6):
            a = random_poly(rng, field, fl, cls=WeylElt, max_terms=3, max_deg=2)
            assert pth_power(a) == oracle_power(a, p)


@pytest.mark.parametrize("p", [5, 7])
def test_pth_power_matches_oracle_larger_primes(p):
    field = Field("Fp", p)
    rng = random.Random(p)
    for fl, top in ((BracketFlavor(STANDARD, 1), 2), (BracketFlavor(HAUG, 1), 2),
                    (BracketFlavor(STANDARD, 2), 1)):
        for _ in range(6):
            a = high_power_elt(rng, field, fl, top)
            assert pth_power(a) == oracle_power(a, p)


@pytest.mark.parametrize("p", [11, 13, 17])
def test_pth_power_matches_binary_power(p):
    field = Field("Fp", p)
    rng = random.Random(p)
    for fl in (BracketFlavor(STANDARD, 1), BracketFlavor(STANDARD, 2), BracketFlavor(HAUG, 1)):
        for _ in range(4):
            a = random_poly(rng, field, fl, cls=WeylElt, max_terms=3, max_deg=2)
            assert pth_power(a) == oracle_binary_power(a, p)


@pytest.mark.parametrize("e", [-1, -5, 1.0, 2.5, "3", None])
def test_bounded_power_rejects_bad_exponent(e):
    fl = BracketFlavor(STANDARD, 1)
    x, d = gens(QQ, fl)
    with pytest.raises(InvalidExponent):
        bounded_power(x + d, e)


def _assert_reduced(elem):
    field = elem.field
    for c in elem.terms.values():
        if field.char:
            assert type(c) is int and 0 < c < field.char, c
        else:
            assert type(c) is Fraction and c != 0, c


@pytest.mark.parametrize("field", [QQ, Field("Fp", 2), Field("Fp", 3), Field("Fp", 7)],
                         ids=repr)
def test_product_coefficients_are_reduced(field):
    rng = random.Random(500 + field.char)
    for cls in (WeylElt, Poly):
        for fl in (BracketFlavor(STANDARD, 2), BracketFlavor(HAUG, 2), BracketFlavor(SKEW, 2)):
            # Truncated Weyl products need weights the reordering keeps.
            plain = cls is WeylElt and fl.kind == STANDARD
            for _ in range(10):
                a = random_poly(rng, field, fl, cls=cls, max_deg=4)
                b = random_poly(rng, field, fl, cls=cls, max_deg=4)
                _assert_reduced(a * b)
                if not plain:
                    for maxdeg in (2, 4, 8):
                        _assert_reduced(a.mul_truncated(b, maxdeg))


def test_product_drops_sums_that_vanish_mod_p():
    # (x + d)(x + 2d) = x^2 + 3 x d + 2 d^2 + 1: the x d sum is 3, zero in F_3.
    f3 = Field("Fp", 3)
    fl = BracketFlavor(STANDARD, 1)
    x, d = gens(f3, fl)
    prod = (x + d) * (x + d * 2)
    assert prod.num_terms() == 3
    assert next(iter((x * d).terms)) not in prod.terms
    assert prod == x * x + d * d * 2 + WeylElt.one(f3, fl)
    assert prod == oracle_mul(x + d, x + d * 2)
    _assert_reduced(prod)


def test_pth_power_of_linear_is_central():
    # ad of a degree-one element is nilpotent, so its p-th power is central.
    # Higher degree fails in general: (xd)^p is not central.
    fl = BracketFlavor(STANDARD, 1)
    for p in (2, 3, 5):
        field = Field("Fp", p)
        rng = random.Random(p + 10)
        for _ in range(6):
            a = random_poly(rng, field, fl, cls=WeylElt, max_terms=3, max_deg=1)
            assert is_central(pth_power(a))
    f3 = Field("Fp", 3)
    x, d = gens(f3, fl)
    assert not is_central(bounded_power(x * d, 3))


def test_center_coordinates_round_trip():
    f3 = Field("Fp", 3)
    fl = BracketFlavor(STANDARD, 2)
    rng = random.Random(8)
    for _ in range(8):
        a = random_poly(rng, f3, fl, cls=WeylElt, max_terms=2, max_deg=1)
        b = random_poly(rng, f3, fl, cls=WeylElt, max_terms=2, max_deg=1)
        central = pth_power(a) * pth_power(b)
        c = center_coordinates(central)
        assert from_center_coordinates(c, fl, 3) == central


def test_center_coordinates_rejects_noncentral():
    fl = BracketFlavor(STANDARD, 1)
    x, _ = gens(Field("Fp", 3), fl)
    with pytest.raises(NotCentral):
        center_coordinates(x)
    xq, _ = gens(QQ, fl)
    with pytest.raises(PositiveCharacteristic):
        center_coordinates(xq)


def test_truncated_product_guard():
    fl = BracketFlavor(STANDARD, 1)
    x, d = gens(QQ, fl)
    with pytest.raises(WeyliftError, match="reordering-invariant"):
        x.mul_truncated(d, 3)


def test_truncated_product_haug():
    hfl = BracketFlavor(HAUG, 2)
    rng = random.Random(2)
    for _ in range(12):
        a = random_poly(rng, QQ, hfl, cls=WeylElt)
        b = random_poly(rng, QQ, hfl, cls=WeylElt)
        for maxdeg in (1, 2, 3):
            assert a.mul_truncated(b, maxdeg) == (a * b).truncate(maxdeg)


def test_truncated_product_skew():
    sfl = BracketFlavor(SKEW, 2)
    rng = random.Random(4)
    for _ in range(12):
        a = random_poly(rng, QQ, sfl, cls=WeylElt, max_deg=2)
        b = random_poly(rng, QQ, sfl, cls=WeylElt, max_deg=2)
        for maxdeg in (1, 2, 3):
            assert a.mul_truncated(b, maxdeg) == oracle_mul(a, b).truncate(maxdeg)


def test_expansion_bound():
    fl = BracketFlavor(STANDARD, 1)
    x, d = gens(QQ, fl)
    with pytest.raises(ExpansionBoundExceeded):
        bounded_power(x + d, 40, bound=10)
