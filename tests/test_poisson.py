"""Commutative elements: arithmetic and brackets."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from oracles import (
    oracle_commutative_mul,
    oracle_poisson_bracket,
    poly_to_sympy,
    random_poly,
    sympy_poisson,
    sympy_symbols,
)
from weylift import (
    BracketFlavor,
    Field,
    Poly,
    QQ,
    parse_element,
    poisson_bracket,
)
from weylift.errors import ExpansionBoundExceeded, FlavorMismatch, WeyliftError
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


F7 = Field("Fp", 7)
F9 = Field("Fp", 3, 2, modulus=(1, 0, 1))


@st.composite
def _bracket_cases(draw):
    """(f, g) on a random flavor and field, with every slot in play: the
    main exponents, h, the k symbols and t."""
    kind = draw(st.sampled_from([STANDARD, HAUG, SKEW]))
    flavor = BracketFlavor(kind, draw(st.sampled_from([1, 2])))
    field = draw(st.sampled_from([QQ, F7, F9]))

    def element():
        terms = []
        for _ in range(draw(st.integers(1, 5))):
            key = [draw(st.integers(0, 3)) for _ in range(flavor.main_count)]
            key += [draw(st.integers(0, 2)) for _ in range(flavor.key_len - len(key))]
            if field.k > 1:
                digits = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2))
                c = field.from_coeffs(digits)
            else:
                c = field.from_fraction(Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))))
            terms.append((tuple(key), c))
        return Poly.from_terms(field, flavor, terms)

    return element(), element()


def _reduced(expr, syms, p):
    """expr with its integer coefficients reduced mod p (p = 0 keeps it)."""
    if not p or expr == 0:
        return expr
    return sympy.Poly(expr, *syms).trunc(p).as_expr()


@settings(max_examples=100, deadline=None)
@given(_bracket_cases())
def test_bracket_matches_the_derivative_oracle_and_sympy(case):
    f, g = case
    got = poisson_bracket(f, g)
    assert got == oracle_poisson_bracket(f, g)
    if f.field.k == 1:
        # Over F_p the raw values are ints, and the bracket commutes with
        # reduction mod p.
        syms = sympy_symbols(f.flavor)
        ref = sympy_poisson(f, g, syms)
        assert _reduced(poly_to_sympy(got, syms) - ref, syms, f.field.char) == 0


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


def test_truncated_mul_is_truncation_of_mul():
    flavor = BracketFlavor(STANDARD, 2)
    rng = random.Random(3)
    for _ in range(20):
        f = random_poly(rng, QQ, flavor)
        g = random_poly(rng, QQ, flavor)
        for maxdeg in (1, 2, 3):
            assert f.mul_truncated(g, maxdeg) == (f * g).truncate(maxdeg)


def test_flavor_weights():
    # Slots: main generators, h, the k symbols, t.
    assert BracketFlavor(STANDARD, 1).weights == (1, 1, 0)
    assert BracketFlavor(HAUG, 1).weights == (1, 1, 2, 0)
    assert BracketFlavor(SKEW, 1).weights == (1, 1, 0, 2, 0)
    hfl = BracketFlavor(HAUG, 1)
    elem = parse_element("x1^2*p1*h + p1^2 + h^2", QQ, hfl, "P")
    assert (elem.degree(), elem.height()) == (5, 2)
    assert str(elem.homogeneous_part(4)) == "h^2"
    # perfbench/workloads.py passes Grading.default_for(flavor) to truncate.
    assert elem.truncate(4, Grading.default_for(hfl)) == elem.truncate(4)


def test_flavor_key_length_is_bounded(monkeypatch):
    import weylift.elements

    # A small bound reaches the guard of EXPANSION_BOUND without building
    # a huge flavor: skew n = 10 has 20 + 1 + 190 + 1 = 212 key slots.
    monkeypatch.setattr(weylift.elements, "EXPANSION_BOUND", 211)
    with pytest.raises(ExpansionBoundExceeded, match="212 key slots"):
        BracketFlavor(SKEW, 10)
    with pytest.raises(ExpansionBoundExceeded, match="213 key slots"):
        BracketFlavor(STANDARD, 105, aux=True)
    assert BracketFlavor(STANDARD, 104, aux=True).key_len == 211
    monkeypatch.setattr(weylift.elements, "EXPANSION_BOUND", 212)
    assert BracketFlavor(SKEW, 10).key_len == 212


def test_flavor_mismatch_rejected():
    a = Poly.generator(QQ, BracketFlavor(STANDARD, 1), 0)
    b = Poly.generator(QQ, BracketFlavor(STANDARD, 2), 0)
    with pytest.raises(FlavorMismatch):
        a + b


def test_flavor_mismatch_shows_the_names():
    # The center flavor differs from its flavor by its names alone.
    named = BracketFlavor(STANDARD, 1).center_flavor()
    a, b = (Poly.generator(QQ, fl, 0) for fl in (named, BracketFlavor(STANDARD, 1)))
    want = r"^BracketFlavor\(standard, n=1, names=z/w\) vs BracketFlavor\(standard, n=1\)$"
    with pytest.raises(FlavorMismatch, match=want):
        a + b
    with pytest.raises(WeyliftError, match=r"on a paired flavor, got \('z', 'w'\)$"):
        BracketFlavor(SKEW, 1, names=("z", "w"))


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
        for _ in range(10):
            a = random_poly(rng, field, fl, max_terms=6, max_deg=4)
            b = random_poly(rng, field, fl, max_terms=6, max_deg=4)
            assert a * b == oracle_commutative_mul(a, b)
            for maxdeg in (2, 4, 6):
                assert a.mul_truncated(b, maxdeg) == oracle_commutative_mul(a, b, maxdeg)


def test_parse_print_round_trip_random():
    rng = random.Random(99)
    from weylift import element_to_text

    for flavor in FLAVORS:
        for _ in range(10):
            f = random_poly(rng, QQ, flavor)
            text = element_to_text(f, "P")
            back = parse_element(text, QQ, flavor, "P")
            assert back == f
        for field in (QQ, F7, F9):
            f = random_poly(rng, field, flavor, max_terms=40, max_deg=6)
            assert parse_element(element_to_text(f, "P"), field, flavor, "P") == f


def test_parse_reads_a_generator_power_as_one_monomial(monkeypatch):
    # x1^e used to take e products; a power of one generator (h and k
    # included) is now one monomial and takes none.
    import weylift.poly

    products = []
    ordered_mul = weylift.poly.ordered_mul

    def counted(a, b, pairs, maxdeg):
        products.append(maxdeg)
        return ordered_mul(a, b, pairs, maxdeg)

    monkeypatch.setattr(weylift.poly, "ordered_mul", counted)
    hfl = BracketFlavor(HAUG, 1)
    assert parse_element("x1^40", QQ, hfl, "P") == Poly.generator(QQ, hfl, 0, 40)
    assert parse_element("h^3", QQ, hfl, "P") == Poly.h_power(QQ, hfl, 3)
    assert parse_element("-p1^2 + x1^0", QQ, hfl, "P") == (
        Poly.one(QQ, hfl) - Poly.generator(QQ, hfl, 1, 2)
    )
    sfl = BracketFlavor(SKEW, 1)
    assert parse_element("k1_2^2", QQ, sfl, "P").terms == {sfl.k_key(0, 1, 2): 1}
    assert products == []
