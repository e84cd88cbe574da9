"""Curve conjugation, pole scanning, and the lifting pipeline."""

import random
from fractions import Fraction

import pytest

from weylift import (
    BracketFlavor,
    Endo,
    Poly,
    QQ,
    bracket_violations,
    endo_rank,
    parse_element,
)
from weylift.endo import diagonal_conjugate, dilation_conjugate
from weylift.errors import (
    DimensionMismatch,
    InsufficientK,
    StabilizationFailure,
    WeyliftError,
)
from weylift.singlift import (
    DiagonalCurve,
    conjugate_by_curve,
    extend_to_aux,
    hn_scan,
    lift,
    lifted_commutation_check,
    pole_order,
    position_reduction,
    twist_conjugate,
    twist_psi_lambda,
)
from weylift.tame import ElementaryGen, TameWord, evaluate
from weylift.weyl import WeylElt, weyl_commutator

FL1 = BracketFlavor("standard", 1)
AUX1 = BracketFlavor("standard", 1, aux=True)


def pelt(text, flavor=FL1):
    return parse_element(text, QQ, flavor, "P")


def shear():
    return Endo("P", FL1, QQ, [pelt("x1 + p1^2"), pelt("p1")])


def test_curve_order():
    assert DiagonalCurve((1, 1)).order() == 1
    assert DiagonalCurve((3, 1)).order() == 3
    assert DiagonalCurve((5, 2)).order() == 2


def test_curve_requires_positive_weights():
    with pytest.raises(Exception):
        DiagonalCurve((0, 1))


def test_conjugate_by_curve():
    sh = shear()
    flat = conjugate_by_curve(sh, DiagonalCurve((2, 1)))
    assert [str(i) for i in flat.images] == ["p1^2 + x1", "p1"]
    assert pole_order(flat) == 0

    poled = conjugate_by_curve(sh, DiagonalCurve((3, 1)))
    assert str(poled.images[0]) == "p1^2*t^-1 + x1"
    assert pole_order(poled) == 1

    lin = Endo("P", FL1, QQ, [pelt("x1 + p1"), pelt("p1")])
    same = conjugate_by_curve(lin, DiagonalCurve((4, 4)))
    assert same.images == lin.images


def test_conjugate_dimension_guard():
    with pytest.raises(DimensionMismatch):
        conjugate_by_curve(shear(), DiagonalCurve((1, 1, 1)))


def test_pole_order_of_identity():
    ident = Endo.identity("P", FL1, QQ)
    for weights in ((1, 1), (3, 1), (5, 2)):
        assert pole_order(conjugate_by_curve(ident, DiagonalCurve(weights))) == 0


def test_hn_scan_shear():
    sh = shear()
    v3 = hn_scan(sh, 3)
    assert v3.kind == "pole" and not v3.consistent
    assert v3.curve.weights == (3, 1)
    v2 = hn_scan(sh, 2)
    assert v2.kind == "pole"
    assert v2.curve.weights == (5, 2)
    v1 = hn_scan(sh, 1)
    assert v1.kind == "consistent" and v1.consistent


def test_hn_scan_matches_rank():
    # rank r deviation passes every scan with N < r and fails at N = r
    quartic = Endo("P", FL1, QQ, [pelt("x1 + p1^4"), pelt("p1")])
    assert endo_rank(quartic) == 4
    for n in (1, 2, 3):
        assert hn_scan(quartic, n).consistent
    assert not hn_scan(quartic, 4).consistent


def test_hn_scan_witness_satisfies_inequality():
    sh = shear()
    for n in (2, 3):
        verdict = hn_scan(sh, n)
        m1, m2 = verdict.curve.weights[0], min(verdict.curve.weights[1:] or (verdict.curve.weights[0],))
        assert (n + 1) * m2 >= m1 >= n * m2


def test_hn_scan_identity():
    ident = Endo.identity("P", FL1, QQ)
    assert hn_scan(ident, 7).consistent


def test_hn_scan_random_curves():
    sh = shear()
    verdict = hn_scan(sh, 3, sample_curves=10, seed=5)
    assert verdict.kind == "pole"


def test_extend_to_aux():
    ext = extend_to_aux(shear())
    assert ext.flavor == AUX1
    assert [str(i) for i in ext.images] == ["p1^2 + x1", "u", "p1", "v"]
    assert not bracket_violations(ext)


def test_special_position_needs_reduction():
    # every monomial of the deviation contains the image's own generator,
    # so plain curves see no pole; the (u, v) shift exposes one
    sp = Endo("P", AUX1, QQ, [
        pelt("x1 + x1*p1^2", AUX1), pelt("u", AUX1), pelt("p1", AUX1), pelt("v", AUX1),
    ])
    assert hn_scan(sp, 2).consistent
    v3 = hn_scan(sp, 3)
    assert v3.kind == "pole"
    assert v3.curve.weights == (7, 2, 2, 2)
    assert v3.reduction == (0, 1, 1)

    direct = conjugate_by_curve(sp, DiagonalCurve((7, 2, 2, 2)))
    assert pole_order(direct) == 0
    reduced = position_reduction(sp, 0, Fraction(1), Fraction(1))
    assert str(reduced.images[0]) == "x1*p1^2 + u*p1^2 + p1^2*v + x1"
    assert pole_order(conjugate_by_curve(reduced, DiagonalCurve((7, 2, 2, 2)))) == 1


def test_lift_shear_certificate():
    lifted, cert = lift(shear(), 4, primes=(2, 3, 5))
    assert cert["pass"]
    assert cert["representation"] == "exact"
    assert cert["stabilization"] == "pass"
    assert cert["canonicity"] == "pass"
    assert cert["commutation"] == "pass"
    assert cert["primes"]["2"]["status"] == "exact"
    assert cert["primes"]["3"]["status"] == "fixture_match"
    assert cert["primes"]["5"]["status"] == "exact"
    assert all(v.get("reduction_consistency") == "pass" for v in cert["primes"].values())
    assert [str(i) for i in lifted.images] == ["p1^2 + x1", "p1"]


def test_lift_images_satisfy_weyl_relations():
    lifted, cert = lift(shear(), 4)
    assert cert["commutation_violations"] == 0
    report = lifted_commutation_check(list(lifted.images), FL1)
    assert report["ok"]
    x_img, d_img = lifted.images
    assert weyl_commutator(d_img, x_img) == WeylElt.one(QQ, FL1)


def test_lift_composite_word():
    comp = shear().compose(Endo("P", FL1, QQ, [pelt("x1"), pelt("p1 + x1^2")]))
    lifted, cert = lift(comp, 5, primes=(2, 3, 5, 7))
    assert cert["pass"]
    assert cert["word_length"] == 6
    statuses = {k: v["status"] for k, v in cert["primes"].items()}
    assert statuses == {"2": "exact", "3": "fixture_match", "5": "exact", "7": "exact"}


def test_lift_skips_non_integral_primes():
    third = Endo("P", FL1, QQ, [pelt("x1 + 1/3*p1^2"), pelt("p1")])
    _, cert = lift(third, 4, primes=(2, 3))
    assert cert["primes"]["2"]["status"] == "exact"
    assert cert["primes"]["3"]["status"] == "inapplicable_not_p_integral"
    assert cert["pass"]


def test_lift_low_order_stabilization_trivial():
    _, cert = lift(shear(), 2)
    assert cert["stabilization"] == "trivial"
    assert cert["pass"]


def test_stabilization_failure_names_image_and_height(monkeypatch):
    import weylift.singlift

    # A prefix without the stage-2 corrector leaves p1^2 out of image 0.
    monkeypatch.setattr(
        weylift.singlift,
        "stage_prefix",
        lambda word, report, n: TameWord(word.kind, word.n, ()),
    )
    with pytest.raises(StabilizationFailure, match="image 0 first differs at height 2"):
        lift(shear(), 4)


def test_canonicity_failure_names_image_and_height(monkeypatch):
    import weylift.singlift

    _, cert = lift(shear(), 4)
    assert "canonicity_witness" not in cert
    real = weylift.singlift.approximate

    def skewed(sigma, n, tie_break="lex"):
        word, report = real(sigma, n, tie_break)
        if tie_break == "alt":
            # x1 -> x1 + p1^2 acting first adds p1^2 to image 0.
            extra = ElementaryGen("xshift", (0, {2: 1}))
            word = TameWord(word.kind, word.n, [*word.gens, extra])
        return word, report

    monkeypatch.setattr(weylift.singlift, "approximate", skewed)
    _, cert = lift(shear(), 4)
    assert cert["canonicity"] == "fail"
    assert cert["canonicity_witness"] == {"image": 0, "height": 2}
    assert not cert["pass"]


def test_lifted_commutation_check_reports_violations():
    x, d = WeylElt.generator(QQ, FL1, 0), WeylElt.generator(QQ, FL1, 1)
    bad = lifted_commutation_check([x + x, d], FL1)
    assert not bad["ok"]
    assert bad["violations"]
    i, j, diff = bad["violations"][0]
    assert (i, j) == (0, 1)


def test_twist_psi_lambda():
    hafl = BracketFlavor("haug", 1, aux=True)
    psi = twist_psi_lambda(0, 1, hafl, QQ)
    assert [str(i) for i in psi.images] == ["x1", "x1*h + u", "p1 - v*h", "v"]
    assert not bracket_violations(psi)
    psi3 = twist_psi_lambda(0, 3, hafl, QQ)
    assert str(psi3.images[1]) == "x1*h^3 + u"
    assert not bracket_violations(psi3)


def test_twist_psi_lambda_guards():
    hafl = BracketFlavor("haug", 1, aux=True)
    with pytest.raises(Exception):
        twist_psi_lambda(0, 0, hafl, QQ)
    with pytest.raises(Exception):
        twist_psi_lambda(0, 1, FL1, QQ)


def test_twist_conjugate():
    hafl = BracketFlavor("haug", 1, aux=True)
    psi = twist_psi_lambda(0, 1, hafl, QQ)
    ext = Endo("P", hafl, QQ, [
        pelt("x1 + p1^2*h^3", hafl), pelt("u", hafl), pelt("p1", hafl), pelt("v", hafl),
    ])
    out = twist_conjugate(ext, psi, order=4)
    assert str(out.images[0]) == "p1^2*h^3 + x1"
    assert str(out.images[1]) == "p1^2*h^4 + x1*h + u"


def test_twist_conjugate_insufficient_k():
    hafl = BracketFlavor("haug", 1, aux=True)
    dev = Endo("P", hafl, QQ, [
        pelt("x1 + p1^2*h", hafl), pelt("u", hafl), pelt("p1", hafl), pelt("v", hafl),
    ])
    laurent = diagonal_conjugate(dev, hafl.h_slot, (2, 0, 0, 0, 0))
    assert str(laurent.images[0]) == "p1^2*h^-1 + x1"
    psi = twist_psi_lambda(0, 1, hafl, QQ)
    with pytest.raises(InsufficientK):
        twist_conjugate(laurent, psi, phi_inv=Endo.identity("P", hafl, QQ))


def test_h_weight_conjugate():
    hfl = BracketFlavor("haug", 1)
    e = Endo("P", hfl, QQ, [pelt("x1 + p1^2*h", hfl), pelt("p1", hfl)])
    up = diagonal_conjugate(e, hfl.h_slot, (-3, 0, 0))
    assert str(up.images[0]) == "p1^2*h^4 + x1"
    with pytest.raises(DimensionMismatch):
        diagonal_conjugate(e, hfl.h_slot, (1, 0))


def _rescaling(flavor, slot, weights, sign=1):
    """g_s -> tau^(sign w_s) g_s for the symbol tau in `slot`; h by its
    own weight (weights[g]) and k_ab by w_a + w_b, written out apart from
    diagonal_conjugate."""

    def scaled(key, w):
        key = list(key)
        key[slot] += sign * w
        return Poly(QQ, flavor, {tuple(key): QQ.one()})

    g = flavor.main_count
    images = [scaled(flavor.gen_key(s), weights[s]) for s in range(g)]
    h_image = scaled(flavor.h_key(), weights[g]) if flavor.has_h else None
    k_images = [
        scaled(flavor.k_key(a, b), weights[a] + weights[b]) for a, b in flavor.k_pairs
    ] or None
    return Endo("P", flavor, QQ, images, h_image, k_images)


def _random_endo(rng, flavor):
    """Each main and k image is its symbol plus three random monomials."""

    def noisy(base):
        terms = {base: QQ.one()}
        for _ in range(3):
            key = [0] * flavor.key_len
            for _ in range(rng.randrange(1, 4)):
                key[rng.randrange(flavor.main_count)] += 1
            if flavor.has_h:
                key[flavor.h_slot] = rng.randrange(2)
            if flavor.has_k:
                key[rng.randrange(flavor.k_start, flavor.t_slot)] += rng.randrange(2)
            terms[tuple(key)] = QQ.from_int(rng.choice((-2, -1, 1, 2)))
        return Poly(QQ, flavor, terms)

    images = [noisy(flavor.gen_key(s)) for s in range(flavor.main_count)]
    k_images = [noisy(flavor.k_key(a, b)) for a, b in flavor.k_pairs] or None
    return Endo("P", flavor, QQ, images, None, k_images)


def _conjugated(phi, slot, weights):
    """D o phi o D^-1 by Endo.compose, D the rescaling by `weights`."""
    fwd = _rescaling(phi.flavor, slot, weights)
    back = _rescaling(phi.flavor, slot, weights, sign=-1)
    return fwd.compose(phi.compose(back))


@pytest.mark.parametrize(
    "flavor",
    [
        BracketFlavor("standard", 1, aux=True),
        BracketFlavor("haug", 1),
        BracketFlavor("haug", 1, aux=True),
        BracketFlavor("skew", 1),
        BracketFlavor("skew", 2),
    ],
    ids=repr,
)
def test_diagonal_conjugations_match_composition(flavor):
    rng = random.Random(f"{flavor!r}")
    g, no_h = flavor.main_count, (0,) * flavor.has_h
    for _ in range(4):
        phi = _random_endo(rng, flavor)
        m = tuple(rng.randrange(1, 5) for _ in range(g))
        got = conjugate_by_curve(phi, DiagonalCurve(m))
        assert got == _conjugated(phi, flavor.t_slot, m + no_h)
        e = rng.randrange(1, 3)
        # The flavor's weights: 1 per main generator, h 2 on haug, 0 on skew.
        weights = (e,) * g + (2 * e if flavor.kind == "haug" else 0,) * flavor.has_h
        assert dilation_conjugate(phi, e) == _conjugated(phi, flavor.t_slot, weights)
        if flavor.has_h:
            exps = tuple(rng.randrange(-2, 3) for _ in range(g))
            got = diagonal_conjugate(phi, flavor.h_slot, (*exps, 0))
            assert got == _conjugated(phi, flavor.h_slot, exps + (0,))


def test_h_weight_conjugate_weighs_k_by_its_pair():
    skew = BracketFlavor("skew", 1)
    phi = Endo("P", skew, QQ, [
        parse_element("xi1 + k1_2*xi2", QQ, skew, "P"),
        parse_element("xi2", QQ, skew, "P"),
    ])
    out = diagonal_conjugate(phi, skew.h_slot, (2, 0, 0))
    assert [str(img) for img in out.all_images()] == ["xi1 + xi2*k1_2", "xi2", "h", "k1_2"]
    assert out == _conjugated(phi, skew.h_slot, (2, 0, 0))


def test_diagonal_conjugate_guards():
    hfl = BracketFlavor("haug", 1)
    e = Endo.identity("P", hfl, QQ)
    with pytest.raises(DimensionMismatch):
        diagonal_conjugate(e, hfl.t_slot, (1, 1))
    with pytest.raises(WeyliftError):
        diagonal_conjugate(e, hfl.h_slot, (1, 1, 1))
    assert diagonal_conjugate(e, hfl.t_slot, (1, 1, 2)) == e
