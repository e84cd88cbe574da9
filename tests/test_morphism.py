"""Endomorphisms: application, composition, checks, inversion, serialization."""

import math
import random

import pytest

from oracles import random_poly
from weylift import (
    BracketFlavor,
    Endo,
    Field,
    QQ,
    bracket_violations,
    check_symplecto,
    dilation_conjugate,
    element_to_text,
    endo_rank,
    jacobian_is_unit,
    parse_element,
    truncated_inverse,
)
from weylift.errors import (
    ExprSyntaxError,
    NonUnitJacobian,
    NotSymplectic,
    SideMismatch,
    UnknownGenerator,
    WrongArity,
)
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


def test_jacobian_is_unit():
    assert jacobian_is_unit(shear())
    squared = Endo("P", FL1, QQ, [pelt("x1^2"), pelt("p1")], allow_free_term=True)
    with pytest.raises(NonUnitJacobian):
        jacobian_is_unit(squared)


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
    dil = dilation_conjugate(sh, 2)
    assert str(dil.images[0]) == "p1^2*t^2 + x1"
    assert str(dil.images[1]) == "p1"
    assert str(dilation_conjugate(sh, 0).images[0]) == "p1^2 + x1"


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
