"""Endomorphisms: application, composition, checks, inversion, serialization."""

import math
import random
from fractions import Fraction

import pytest

from oracles import endo_rank, random_poly
from weylift import (
    BracketFlavor,
    Endo,
    Field,
    QQ,
    bracket_violations,
    check_symplecto,
    element_to_text,
    parse_element,
    truncated_inverse,
)
from weylift.errors import (
    ExprSyntaxError,
    NegativeHExponent,
    NotSymplectic,
    SideMismatch,
    UnknownGenerator,
    WrongArity,
)
from weylift.elements import substitute
from weylift.endo import diagonal_conjugate, element_class
from weylift.serialize import endo_from_json, endo_to_json
from weylift.weyl import WeylElt

FL1 = BracketFlavor("standard", 1)
FL2 = BracketFlavor("standard", 2)


def pelt(text, flavor=FL1, field=QQ):
    return parse_element(text, field, flavor, "P")


def shear():
    return Endo("P", FL1, QQ, [pelt("x1 + p1^2"), pelt("p1")])


def test_apply_fixture():
    sh = shear()
    assert str(sh.apply(pelt("x1^2 + p1"))) == "p1^4 + 2*x1*p1^2 + x1^2 + p1"
    assert sh.apply(pelt("p1^3")) == pelt("p1^3")


def test_compose_is_self_after_other():
    a = shear()
    b = Endo("P", FL1, QQ, [pelt("x1"), pelt("p1 + x1^2")])
    c = a.compose(b)
    rng = random.Random(1)
    for _ in range(10):
        f = random_poly(rng, QQ, FL1)
        assert c.apply(f) == a.apply(b.apply(f))


def test_identity_and_linear():
    ident = Endo.identity("P", FL2, QQ)
    f = pelt("x1*p2 + x2^3", FL2)
    assert ident.apply(f) == f
    lin = Endo.linear("P", FL2, QQ, [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    assert lin.apply(pelt("x1", FL2)) == pelt("p1", FL2)
    assert not bracket_violations(lin)


def test_wrong_arity_rejected():
    with pytest.raises(WrongArity):
        Endo("P", FL1, QQ, [pelt("x1")])


def test_check_symplecto():
    check_symplecto(shear())
    assert not bracket_violations(shear())
    doubled = Endo("P", FL1, QQ, [pelt("2*x1"), pelt("p1")])
    assert [(i, j, str(diff)) for i, j, diff in bracket_violations(doubled)] == [(0, 1, "-1")]
    with pytest.raises(NotSymplectic, match="bracket of images 0, 1 differs"):
        check_symplecto(doubled)


def test_check_symplecto_haug():
    hfl = BracketFlavor("haug", 1)
    he = Endo("P", hfl, QQ, [pelt("x1 + p1^2", hfl), pelt("p1", hfl)])
    assert not bracket_violations(he)
    assert [str(i) for i in he.specialize_h().images] == ["p1^2 + x1", "p1"]
    assert he.specialize_h().flavor == FL1


def test_check_weyl_endo():
    x, d = WeylElt.generator(QQ, FL1, 0), WeylElt.generator(QQ, FL1, 1)
    good = Endo("W", FL1, QQ, [x + d * d, d])
    assert not bracket_violations(good)
    bad = Endo("W", FL1, QQ, [x + x, d])
    assert [(i, j, str(diff)) for i, j, diff in bracket_violations(bad)] == [(0, 1, "-1")]
    with pytest.raises(SideMismatch):
        check_symplecto(bad)


def test_bracket_violations_truncated():
    hfl = BracketFlavor("haug", 1)
    x, d = WeylElt.generator(QQ, hfl, 0), WeylElt.generator(QQ, hfl, 1)
    good = Endo("W", hfl, QQ, [x + d * d, d])
    assert not bracket_violations(good, maxdeg=3)
    bad = Endo("W", hfl, QQ, [x + x, d])
    assert [(i, j, str(diff)) for i, j, diff in bracket_violations(bad, maxdeg=2)] == [
        (0, 1, "-h")
    ]
    # [2 x, d] - phi([x, d]) = -h weighs 2.
    assert not bracket_violations(bad, maxdeg=1)


def test_side_mismatch():
    sh = shear()
    x, _ = WeylElt.generator(QQ, FL1, 0), WeylElt.generator(QQ, FL1, 1)
    with pytest.raises(SideMismatch):
        sh.apply(x)


def test_rank_and_hn():
    sh = shear()
    assert endo_rank(sh) == 2
    assert endo_rank(sh) >= 1 and endo_rank(sh) >= 2
    assert not endo_rank(sh) >= 3
    ident = Endo.identity("P", FL1, QQ)
    assert endo_rank(ident) == math.inf
    assert endo_rank(ident) >= 100


def test_truncated_inverse_round_trip():
    sh = shear()
    inv = truncated_inverse(sh, 6)
    assert [str(i) for i in inv.images] == ["-p1^2 + x1", "p1"]
    both = sh.compose(inv)
    assert [str(i) for i in both.images] == ["x1", "p1"]

    twist = Endo("P", FL2, QQ, [
        pelt("x1 + p2^2", FL2),
        pelt("x2 + p1^2", FL2),
        pelt("p1", FL2),
        pelt("p2", FL2),
    ])
    inv2 = truncated_inverse(twist, 8)
    comp = twist.compose(inv2)
    assert endo_rank(comp) > 8


def test_dilation_conjugate():
    sh = shear()
    t = sh.flavor.t_slot
    dil = diagonal_conjugate(sh, t, (2, 2))
    assert str(dil.images[0]) == "p1^2*t^2 + x1"
    assert str(dil.images[1]) == "p1"
    assert str(diagonal_conjugate(sh, t, (0, 0)).images[0]) == "p1^2 + x1"


def test_endo_json_round_trip():
    for endo in (
        shear(),
        Endo("W", FL1, QQ, [
            WeylElt.generator(QQ, FL1, 0) + WeylElt.generator(QQ, FL1, 1),
            WeylElt.generator(QQ, FL1, 1),
        ]),
    ):
        doc = endo_to_json(endo)
        back = endo_from_json(doc)
        assert back.side == endo.side
        assert back.flavor == endo.flavor
        assert back.images == endo.images


def test_endo_json_finite_field():
    f5 = Field("Fp", 5)
    fl = BracketFlavor("standard", 1)
    e = Endo("P", fl, f5, [parse_element("x1 + 3*p1^2", f5, fl, "P"),
                           parse_element("p1", f5, fl, "P")])
    back = endo_from_json(endo_to_json(e))
    assert back.field == f5
    assert back.images == e.images


def test_parse_errors():
    with pytest.raises(UnknownGenerator):
        pelt("x1 + q2")
    with pytest.raises(ExprSyntaxError):
        pelt("x1 + ")
    with pytest.raises(ExprSyntaxError):
        pelt("x1 ** 2")


def test_print_parse_round_trip_weyl_side():
    rng = random.Random(21)
    for flavor in (FL1, BracketFlavor("haug", 2), BracketFlavor("skew", 1)):
        for _ in range(10):
            f = random_poly(rng, QQ, flavor, cls=WeylElt)
            text = element_to_text(f, "W")
            assert parse_element(text, QQ, flavor, "W", cls=WeylElt) == f
            # Without cls the side picks the class.
            assert type(parse_element(text, QQ, flavor, "W")) is WeylElt


HAUG1 = BracketFlavor("haug", 1)


def test_negative_h_power_needs_a_monomial_h_image():
    x, p = (element_class("P").generator(QQ, HAUG1, i) for i in range(2))
    h = element_class("P").h_power(QQ, HAUG1, 1)
    bent = Endo.from_slots("P", HAUG1, QQ, [x, p, h + x * p])
    with pytest.raises(NegativeHExponent):
        bent.apply(x * element_class("P").h_power(QQ, HAUG1, -1))


@pytest.mark.parametrize("side", ["P", "W"])
def test_negative_h_power_under_a_scaled_h(side):
    cls = element_class(side)
    x, p = (cls.generator(QQ, HAUG1, i) for i in range(2))
    two_h = cls.h_power(QQ, HAUG1, 1).scale(Fraction(2))
    scaled = Endo.from_slots(side, HAUG1, QQ, [x, p, two_h])
    h_inv = cls.h_power(QQ, HAUG1, -1)
    assert scaled.apply(h_inv) == h_inv.scale(Fraction(1, 2))
    assert scaled.apply(p * h_inv) == p * h_inv.scale(Fraction(1, 2))


def test_specialize_h_rejects_a_negative_h_power():
    x = element_class("P").generator(QQ, HAUG1, 0)
    with pytest.raises(NegativeHExponent):
        (x + element_class("P").h_power(QQ, HAUG1, -1)).specialize_h()


SLOT_FLAVORS = (
    FL1,
    BracketFlavor("haug", 2),
    BracketFlavor("skew", 1),
    BracketFlavor("haug", 1, aux=True),
    BracketFlavor("skew", 1, aux=True),
)


@pytest.mark.parametrize("side", ["P", "W"])
@pytest.mark.parametrize("flavor", SLOT_FLAVORS, ids=repr)
def test_slots_follow_the_key_layout(flavor, side):
    ident = Endo.identity(side, flavor, QQ)
    assert len(ident.slots) == flavor.t_slot
    for s, img in enumerate(ident.slots):
        key = [0] * flavor.key_len
        key[s] = 1
        assert img.terms == {tuple(key): QQ.one()}
    rng = random.Random(flavor.key_len)
    cls = element_class(side)
    images = [
        gen + random_poly(rng, QQ, flavor, cls=cls, max_terms=2, max_deg=2)
        for gen in ident.images
    ]
    e = Endo(side, flavor, QQ, images)
    assert e.images == e.slots[: flavor.main_count]
    assert e.h_image == (ident.slots[flavor.h_slot] if flavor.has_h else None)
    assert e.k_images == (ident.slots[flavor.k_start :] if flavor.has_k else None)
    assert Endo.from_slots(e.side, e.flavor, e.field, e.slots) == e


@pytest.mark.parametrize("side", ["P", "W"])
def test_compose_and_map_coefficients_keep_k_images(side):
    flavor = BracketFlavor("skew", 1)
    cls = element_class(side)

    def scaled_k(c):
        return [cls.k_symbol(QQ, flavor, i, j).scale(Fraction(c)) for i, j in flavor.k_pairs]

    xi1, xi2 = (cls.generator(QQ, flavor, i) for i in range(2))
    h = cls.h_power(QQ, flavor, 1)
    a = Endo.from_slots(side, flavor, QQ, [xi1, xi2, h, *scaled_k(2)])
    b = Endo.from_slots(side, flavor, QQ, [xi1 + xi2 * xi2, xi2, h, *scaled_k(3)])
    assert a.compose(b).k_images == scaled_k(6)
    assert b.compose(a).images == [xi1 + xi2 * xi2, xi2]
    assert a.map_coefficients(lambda c: 5 * c).k_images == scaled_k(10)
    f7 = Field("Fp", 7)
    red = b.map_coefficients(f7.from_fraction, f7)
    assert red.k_images == [img.map_coefficients(f7.from_fraction, f7) for img in scaled_k(3)]


F4 = Field("Fp", 2, 2, (1, 1, 1))
SUBSTITUTE_FLAVORS = (FL1, HAUG1, BracketFlavor("skew", 1))
SUBSTITUTE_FIELDS = (QQ, Field("Fp", 7), F4)


def _random_raw(rng, field):
    """A nonzero raw value; over F_4 one of a and a + 1."""
    if field.k > 1:
        return field.from_coeffs([rng.randrange(field.p), 1])
    return field.from_fraction(Fraction(rng.randrange(1, 5), rng.randrange(1, 4)))


def _substitute_cases():
    for side in ("P", "W"):
        for flavor in SUBSTITUTE_FLAVORS:
            for field in SUBSTITUTE_FIELDS:
                for maxdeg in (None, 4):
                    # The standard flavor's Weyl product has no graded truncation.
                    if not (side == "W" and flavor.kind == "standard" and maxdeg):
                        yield side, flavor, field, maxdeg


@pytest.mark.parametrize(
    "side, flavor, field, maxdeg",
    list(_substitute_cases()),
    ids=lambda v: v if isinstance(v, str) else repr(v),
)
def test_substitute_matches_naive_powers(side, flavor, field, maxdeg):
    """elements.substitute against sum c * prefix * prod images[s] ** e, built
    with **, * and + only: no shared power cache, no truncation inside."""
    cls = element_class(side)
    rng = random.Random(f"{side}{flavor!r}{field!r}{maxdeg}")
    if maxdeg is None:
        mul = cls.__mul__
    else:
        def mul(a, b):
            return a.mul_truncated(b, maxdeg)
    t_key = [0] * flavor.key_len
    t_key[flavor.t_slot] = 1
    t = cls(field, flavor, {tuple(t_key): field.one()})
    prefixes = [None, t, t * t]
    if flavor.has_h:
        prefixes.append(cls.h_power(field, flavor, -1))
    compared = 0
    for _ in range(6):
        images = [
            random_poly(rng, field, flavor, cls=cls, max_terms=3, max_deg=2).map_coefficients(
                lambda c: field.mul(c, _random_raw(rng, field))
            )
            for _ in range(flavor.t_slot)
        ]
        base = random_poly(rng, field, flavor, cls=cls)
        parts = []
        for prefix in prefixes:
            # A part with no factors needs a prefix.
            count = rng.randrange(1 if prefix is None else 0, 3)
            factors = [(rng.randrange(len(images)), rng.randrange(1, 4)) for _ in range(count)]
            parts.append((prefix, factors, _random_raw(rng, field)))
        expected = base
        for prefix, factors, c in parts:
            term = cls.constant(field, flavor, c) if prefix is None else prefix.scale(c)
            for s, e in factors:
                term = term * images[s] ** e
            expected = expected + term
        got = substitute(images, parts, mul, base)
        if maxdeg is not None:
            # Powers are cut at maxdeg before a prefix of weight w < 0 meets
            # them, so the two agree up to maxdeg + w.
            limit = maxdeg + min(0, *(p.height() for p in prefixes if p is not None))
            got, expected = got.truncate(limit), expected.truncate(limit)
        assert got == expected
        compared += not expected.is_zero
    assert compared


def test_laurent_text_parses_back():
    x = element_class("P").generator(QQ, HAUG1, 0)
    h_inv = element_class("P").h_power(QQ, HAUG1, -1)
    t_key = [0] * HAUG1.key_len
    t_key[HAUG1.t_slot] = -2
    laurent = x * h_inv + element_class("P")(QQ, HAUG1, {tuple(t_key): QQ.one()})
    parsed = parse_element("x1*h^-1 + t^-2", QQ, HAUG1, "P")
    assert parsed == laurent
    assert parse_element(str(parsed), QQ, HAUG1, "P") == parsed
    with pytest.raises(ExprSyntaxError, match="negative exponents are only allowed on h or t"):
        parse_element("x1^-1", QQ, HAUG1, "P")


def test_truncated_inverse_inverts_a_skew_k_image():
    flavor = BracketFlavor("skew", 1)

    def elt(text):
        return parse_element(text, QQ, flavor, "P")

    texts = ("xi1 + xi2^2", "xi2", "h", "2*k1_2")
    endo = Endo.from_slots("P", flavor, QQ, [elt(t) for t in texts])
    inv = truncated_inverse(endo, 4)
    assert [str(s) for s in inv.slots] == ["-xi2^2 + xi1", "xi2", "h", "1/2*k1_2"]
    assert endo.compose(inv, maxdeg=4) == Endo.identity("P", flavor, QQ)


@pytest.mark.parametrize(
    "field, side, texts",
    [
        (F4, "W", ["x1 + a*d1", "d1"]),
        (F4, "W", ["d1^2 + a*x1", "(a+1)*d1"]),
        (Field("Fp", 2, 3, (1, 1, 0, 1)), "P", ["x1 + a^2*p1^2", "p1"]),
    ],
    ids=["F4-a", "F4-a+1", "F8-a^2"],
)
def test_extension_field_coefficients_round_trip(field, side, texts):
    cls = element_class(side)
    endo = Endo(side, FL1, field, [parse_element(t, field, FL1, side, cls) for t in texts])
    doc = endo_to_json(endo)
    assert doc["images"] == [element_to_text(img, side) for img in endo.images]
    assert any("a" in text for text in doc["images"])
    assert endo_from_json(doc) == endo


def test_truncated_apply_keeps_terms_under_a_negative_h_power():
    x, p = (element_class("P").generator(QQ, HAUG1, i) for i in range(2))
    e = Endo("P", HAUG1, QQ, [x + p * p, p])
    elem = parse_element("x1^3*h^-1", QQ, HAUG1, "P")
    want = "p1^6*h^-1 + 3*x1*p1^4*h^-1 + 3*x1^2*p1^2*h^-1 + x1^3*h^-1"
    assert str(e.apply(elem, maxdeg=4)) == want
    assert e.apply(elem, maxdeg=4) == e.apply(elem).truncate(4)


@pytest.mark.parametrize("side", ["P", "W"])
def test_truncated_apply_matches_exact_then_truncate(side):
    """apply(elem, maxdeg) against apply(elem).truncate(maxdeg) on haug
    elements carrying h^-1 and h^-2 prefixes."""
    cls = element_class(side)
    rng = random.Random(f"apply-{side}")
    gens = [cls.generator(QQ, HAUG1, i) for i in range(2)]
    compared = 0
    for _ in range(12):
        images = [g + random_poly(rng, QQ, HAUG1, cls=cls, max_terms=2) for g in gens]
        e = Endo(side, HAUG1, QQ, images)
        for power in (-1, -2):
            elem = random_poly(rng, QQ, HAUG1, cls=cls) * cls.h_power(QQ, HAUG1, power)
            for maxdeg in (2, 4):
                want = e.apply(elem).truncate(maxdeg)
                assert e.apply(elem, maxdeg) == want
                compared += not want.is_zero
    assert compared
