"""Commutative elements: arithmetic, brackets, jacobians."""

import random
from fractions import Fraction

import pytest
import sympy

from oracles import (
    oracle_commutative_mul,
    poly_to_sympy,
    random_poly,
    sympy_jacobian,
    sympy_poisson,
    sympy_symbols,
)
from weylift import (
    BracketFlavor,
    Field,
    Poly,
    QQ,
    jacobian,
    parse_element,
    poisson_bracket,
)
from weylift.errors import FlavorMismatch
from weylift.flavors import HAUG, SKEW, STANDARD, Grading

FLAVORS = [
    BracketFlavor(STANDARD, 1),
    BracketFlavor(STANDARD, 2),
    BracketFlavor(HAUG, 1),
    BracketFlavor(HAUG, 2),
    BracketFlavor(SKEW, 1),
    BracketFlavor(SKEW, 2),
]


def test_bracket_fixtures():
    fl = BracketFlavor(STANDARD, 2)
    x1 = Poly.generator(QQ, fl, 0)
    p1 = Poly.generator(QQ, fl, 2)
    p2 = Poly.generator(QQ, fl, 3)
    one = Poly.one(QQ, fl)
    assert poisson_bracket(p1, x1) == one
    assert poisson_bracket(x1, p1) == -one
    assert poisson_bracket(p2, x1).is_zero
    assert poisson_bracket(x1, x1).is_zero

    hfl = BracketFlavor(HAUG, 1)
    xh = Poly.generator(QQ, hfl, 0)
    ph = Poly.generator(QQ, hfl, 1)
    assert poisson_bracket(ph, xh) == Poly.h_power(QQ, hfl, 1)

    sfl = BracketFlavor(SKEW, 1)
    a = Poly.generator(QQ, sfl, 0)
    b = Poly.generator(QQ, sfl, 1)
    hk = Poly.h_power(QQ, sfl, 1) * Poly.k_symbol(QQ, sfl, 0, 1)
    assert poisson_bracket(a, b) == hk


@pytest.mark.parametrize("flavor", FLAVORS, ids=lambda f: f"{f.kind}{f.n}")
def test_bracket_properties(flavor):
    rng = random.Random(hash((flavor.kind, flavor.n)) & 0xFFFF)
    zero = Poly.zero(QQ, flavor)
    for _ in range(60):
        f = random_poly(rng, QQ, flavor)
        g = random_poly(rng, QQ, flavor)
        h = random_poly(rng, QQ, flavor)
        assert poisson_bracket(f, g) + poisson_bracket(g, f) == zero
        assert poisson_bracket(f, g * h) == poisson_bracket(f, g) * h + g * poisson_bracket(f, h)
        jac = (
            poisson_bracket(f, poisson_bracket(g, h))
            + poisson_bracket(g, poisson_bracket(h, f))
            + poisson_bracket(h, poisson_bracket(f, g))
        )
        assert jac == zero


@pytest.mark.parametrize("kind", [STANDARD, HAUG])
def test_bracket_against_sympy(kind):
    flavor = BracketFlavor(kind, 2)
    syms = sympy_symbols(flavor)
    rng = random.Random(31)
    for _ in range(20):
        f = random_poly(rng, QQ, flavor)
        g = random_poly(rng, QQ, flavor)
        lib = poly_to_sympy(poisson_bracket(f, g), syms)
        ref = sympy_poisson(f, g, syms)
        assert sympy.expand(lib - ref) == 0


def test_mul_matches_sympy():
    flavor = BracketFlavor(STANDARD, 2)
    syms = sympy_symbols(flavor)
    rng = random.Random(77)
    for _ in range(25):
        f = random_poly(rng, QQ, flavor)
        g = random_poly(rng, QQ, flavor)
        lib = poly_to_sympy(f * g, syms)
        ref = sympy.expand(poly_to_sympy(f, syms) * poly_to_sympy(g, syms))
        assert sympy.expand(lib - ref) == 0


def test_jacobian_matches_sympy():
    flavor = BracketFlavor(STANDARD, 1)
    syms = sympy_symbols(flavor)
    rng = random.Random(13)
    for _ in range(15):
        imgs = [random_poly(rng, QQ, flavor, max_deg=2) for _ in range(2)]
        lib = poly_to_sympy(jacobian(imgs), syms)
        ref = sympy_jacobian(imgs, syms)
        assert sympy.expand(lib - ref) == 0


def test_jacobian_of_shear_is_one():
    flavor = BracketFlavor(STANDARD, 1)
    x = Poly.generator(QQ, flavor, 0)
    p = Poly.generator(QQ, flavor, 1)
    assert jacobian([x + p * p, p]) == Poly.one(QQ, flavor)


def test_truncated_mul_is_truncation_of_mul():
    flavor = BracketFlavor(STANDARD, 2)
    rng = random.Random(3)
    from weylift import Grading

    gr = Grading.default_for(flavor)
    for _ in range(20):
        f = random_poly(rng, QQ, flavor)
        g = random_poly(rng, QQ, flavor)
        for maxdeg in (1, 2, 3):
            assert f.mul_truncated(g, maxdeg, gr) == (f * g).truncate(maxdeg, gr)


def test_flavor_mismatch_rejected():
    a = Poly.generator(QQ, BracketFlavor(STANDARD, 1), 0)
    b = Poly.generator(QQ, BracketFlavor(STANDARD, 2), 0)
    with pytest.raises(FlavorMismatch):
        a + b


def test_finite_field_arithmetic():
    f5 = Field("Fp", 5)
    flavor = BracketFlavor(STANDARD, 1)
    x = Poly.generator(f5, flavor, 0)
    five_x = x + x + x + x + x
    assert five_x.is_zero
    assert (x * x * x * x * x).num_terms() == 1


@pytest.mark.parametrize(
    "field",
    [QQ, Field("Fp", 2), Field("Fp", 3), Field("Fp", 7), Field("Fp", 3, 2, modulus=(1, 0, 1))],
    ids=repr,
)
def test_product_matches_term_pair_oracle(field):
    # Over F_p the kernel sums unreduced ints and reduces once at the end;
    # the oracle reduces every sum as it goes.
    rng = random.Random(700 + field.order)
    for fl in (BracketFlavor(STANDARD, 2), BracketFlavor(HAUG, 2), BracketFlavor(SKEW, 2)):
        gr = Grading.default_for(fl)
        for _ in range(10):
            a = random_poly(rng, field, fl, max_terms=6, max_deg=4)
            b = random_poly(rng, field, fl, max_terms=6, max_deg=4)
            assert a * b == oracle_commutative_mul(a, b)
            for maxdeg in (2, 4, 6):
                assert a.mul_truncated(b, maxdeg, gr) == oracle_commutative_mul(
                    a, b, maxdeg, gr
                )


def test_parse_print_round_trip_random():
    rng = random.Random(99)
    from weylift import element_to_text

    for flavor in FLAVORS:
        for _ in range(10):
            f = random_poly(rng, QQ, flavor)
            text = element_to_text(f, "P")
            back = parse_element(text, QQ, flavor, "P")
            assert back == f
