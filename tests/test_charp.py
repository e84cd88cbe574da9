"""Fixed-prime center morphism: reduction, restriction, twist, bracket."""

import random
from fractions import Fraction

import pytest

from oracles import oracle_center_along_word, oracle_power
from weylift import (
    BracketFlavor,
    Endo,
    Field,
    Poly,
    QQ,
    bracket_violations,
    parse_element,
)
from weylift.charp import (
    center_bracket,
    frobenius_twist,
    phi_p,
    phi_p_along_word,
    reduce_endo_mod_p,
    restrict_to_center,
)
from weylift.errors import NotPIntegral, PositiveCharacteristic
from weylift.tame import (
    ElementaryGen,
    TameWord,
    evaluate,
    random_symplectic_matrix,
    random_tame,
)
from weylift.weyl import WeylElt, center_coordinates, pth_power

FL1 = BracketFlavor("standard", 1)
FL2 = BracketFlavor("standard", 2)
CF1 = FL1.center_flavor()


def wgens(field, flavor=FL1):
    return [WeylElt.generator(field, flavor, i) for i in range(flavor.main_count)]


def test_reduce_endo_mod_p():
    x, d = wgens(QQ)
    three = Endo("W", FL1, QQ, [x + d.scale(QQ.from_int(3)), d])
    red = reduce_endo_mod_p(three, Field("Fp", 3))
    assert [str(i) for i in red.images] == ["x1", "p1"]

    half = Endo("W", FL1, QQ, [x + (d * d).scale(QQ.from_fraction(Fraction(1, 2))), d])
    with pytest.raises(NotPIntegral):
        reduce_endo_mod_p(half, Field("Fp", 2))

    sq = Endo("W", FL1, QQ, [x + d * d, d])
    red5 = reduce_endo_mod_p(sq, Field("Fp", 5))
    assert red5.field == Field("Fp", 5)
    assert [str(i) for i in red5.images] == ["p1^2 + x1", "p1"]


def test_restrict_to_center_fixtures():
    f2 = Field("Fp", 2)
    x, d = wgens(f2)
    ce = restrict_to_center(Endo("W", FL1, f2, [x + d, d]))
    assert [str(i) for i in ce.images] == ["z1 + w1 + 1", "w1"]

    f3 = Field("Fp", 3)
    x3, d3 = wgens(f3)
    ce3 = restrict_to_center(Endo("W", FL1, f3, [x3 + d3 * d3, d3]))
    assert [str(i) for i in ce3.images] == ["w1^2 + z1 + 2", "w1"]

    ident = restrict_to_center(Endo.identity("W", FL1, f2))
    assert [str(i) for i in ident.images] == ["z1", "w1"]


def test_restriction_matches_brute_force_powers():
    # the center images are exactly the p-th powers read in z, w
    for p in (2, 3):
        field = Field("Fp", p)
        x, d = wgens(field)
        img = x + d * d
        endo = Endo("W", FL1, field, [img, d])
        ce = restrict_to_center(endo)
        assert ce.images[0] == center_coordinates(oracle_power(img, p))
        assert pth_power(img) == oracle_power(img, p)


def test_frobenius_twist():
    f2 = Field("Fp", 2)
    x, d = wgens(f2)
    ce = restrict_to_center(Endo("W", FL1, f2, [x + d, d]))
    assert frobenius_twist(ce).images == ce.images

    f4 = Field("Fp", 2, 2, modulus=(1, 1, 1))
    alpha = f4.from_coeffs((0, 1))
    one = f4.one()
    flv = ce.flavor
    scaled = Endo(
        "P", flv, f4,
        [parse_element("z1", f4, flv, "P").scale(f4.add(alpha, one)),
         parse_element("w1", f4, flv, "P")],
    )
    twisted = frobenius_twist(scaled)
    lead = next(iter(twisted.images[0].terms.values()))
    assert lead == alpha


def test_phi_p_fixtures():
    x, d = wgens(QQ)
    add_d = Endo("W", FL1, QQ, [x + d, d])
    assert [str(i) for i in phi_p(add_d, Field("Fp", 2)).images] == ["z1 + w1 + 1", "w1"]
    assert [str(i) for i in phi_p(add_d, Field("Fp", 3)).images] == ["z1 + w1", "w1"]
    add_d2 = Endo("W", FL1, QQ, [x + d * d, d])
    assert [str(i) for i in phi_p(add_d2, Field("Fp", 5)).images] == ["w1^2 + z1", "w1"]


def test_phi_p_is_homomorphic():
    rng = random.Random(14)
    for p in (2, 3, 5):
        field = Field("Fp", p)
        for _ in range(8):
            w1 = random_tame(1, 3, 2, seed=rng.randrange(10**6))
            w2 = random_tame(1, 3, 2, seed=rng.randrange(10**6))
            a = evaluate(w1, "W", FL1, QQ)
            b = evaluate(w2, "W", FL1, QQ)
            lhs = phi_p(a.compose(b), field)
            rhs = phi_p(a, field).compose(phi_p(b, field))
            assert lhs.images == rhs.images


def _center_word(rng, n, p):
    """sp, shift, sp, shift.  The first sp letter has a row i with
    a_(i,i) a_(i,i+n) = 1 (odd at p = 2), and the first shift reaches
    degrees p - 1 and 2p - 1, whose Jacobson terms are a constant and a
    multiple of the conjugate coordinate."""
    g = 2 * n
    i = rng.randrange(n)
    transvection = [[int(r == s or (r, s) == (i, n + i)) for s in range(g)] for r in range(g)]
    big = {rng.randrange(1, 2 * p): rng.choice([-2, -1, 2, 3]), p - 1: 1, 2 * p - 1: -1}
    small = {e: rng.choice([-2, -1, 1, 2]) for e in rng.sample([1, 2, 3], 2)}
    shifts = [rng.choice(["xshift", "pshift"]) for _ in range(2)]
    return TameWord("symplectic", n, [
        ElementaryGen("sp", transvection),
        ElementaryGen(shifts[0], (rng.randrange(n), big)),
        ElementaryGen("sp", random_symplectic_matrix(n, rng)),
        ElementaryGen(shifts[1], (rng.randrange(n), small)),
    ])


def test_phi_p_along_word_matches_letter_by_letter_oracle():
    rng = random.Random(15)
    for n, flavor in ((1, FL1), (2, FL2)):
        for p in (2, 3, 5, 7, 11, 13):
            field = Field("Fp", p)
            for _ in range(3):
                word = _center_word(rng, n, p)
                want = oracle_center_along_word(word, flavor, field)
                assert phi_p_along_word(word, flavor, field) == want, (n, p, word.gens)
    # The README's (x + d^2)^3 = x^3 + d^6 - 1 over F_3, and an odd p = 2 row.
    word = TameWord("symplectic", 1, [ElementaryGen("xshift", (0, {2: 1}))])
    images = phi_p_along_word(word, FL1, Field("Fp", 3)).images
    assert [str(img) for img in images] == ["w1^2 + z1 + 2", "w1"]
    word = TameWord("symplectic", 1, [ElementaryGen("sp", [[1, 1], [0, 1]])])
    images = phi_p_along_word(word, FL1, Field("Fp", 2)).images
    assert [str(img) for img in images] == ["z1 + w1 + 1", "w1"]


def test_phi_p_of_a_haug_lift_specializes_h():
    # phi_p sets h = 1 first, so the haug and standard lifts of a word agree.
    haug = BracketFlavor("haug", 1)
    for seed in range(1, 6):
        word = random_tame(1, 3, 3, seed)
        for p in (3, 5, 7):
            field = Field("Fp", p)
            got = phi_p(evaluate(word, "W", haug, QQ), field)
            assert got == phi_p_along_word(word, FL1, field), (seed, p)
            assert got == phi_p(evaluate(word, "W", FL1, QQ), field), (seed, p)


def test_phi_p_images_are_symplectic():
    for p in (2, 3, 5):
        field = Field("Fp", p)
        for seed in (1, 2, 3):
            word = random_tame(1, 3, 2, seed=seed)
            endo = evaluate(word, "W", FL1, QQ)
            ce = phi_p(endo, field)
            assert not bracket_violations(ce)


def test_phi_p_coordinate_identity_at_large_p():
    # an x-shift of degree at most p-2 maps to the same coordinate formula
    cases = [(5, 3), (7, 5)]
    for p, maxdeg in cases:
        field = Field("Fp", p)
        for deg in range(2, maxdeg + 1):
            word = TameWord("symplectic", 1, [ElementaryGen("xshift", (0, {deg: 1}))])
            wend = evaluate(word, "W", FL1, QQ)
            ce = phi_p(wend, field)
            pend = evaluate(word, "P", ce.flavor, field)
            assert [str(i) for i in ce.images] == [str(i) for i in pend.images]


def test_center_bracket_is_standard():
    for p in (2, 3, 5):
        field = Field("Fp", p)
        for n in (1, 2):
            flavor = BracketFlavor("standard", n)
            zs = [parse_element(f"z{i+1}", field, flavor.center_flavor(), "P") for i in range(n)]
            ws = [parse_element(f"w{i+1}", field, flavor.center_flavor(), "P") for i in range(n)]
            for i in range(n):
                for j in range(n):
                    expect = "1" if i == j else "0"
                    assert str(center_bracket(ws[i], zs[j])) == expect
                    assert center_bracket(zs[i], zs[j]).is_zero
                    assert center_bracket(ws[i], ws[j]).is_zero


def test_center_bracket_fixture_p2():
    f2 = Field("Fp", 2)
    z = parse_element("z1", f2, CF1, "P")
    w = parse_element("w1", f2, CF1, "P")
    assert center_bracket(w * w, z).is_zero
    assert str(center_bracket(w, z)) == "1"


def test_center_bracket_properties():
    rng = random.Random(6)
    from oracles import random_poly

    for p in (2, 3):
        field = Field("Fp", p)
        zero = Poly.zero(field, FL1)
        for _ in range(6):
            a = random_poly(rng, field, FL1, max_terms=3, max_deg=2)
            b = random_poly(rng, field, FL1, max_terms=3, max_deg=2)
            c = random_poly(rng, field, FL1, max_terms=3, max_deg=2)
            assert center_bracket(a, b) + center_bracket(b, a) == zero
            assert center_bracket(a, b * c) == center_bracket(a, b) * c + b * center_bracket(a, c)
            jac = (
                center_bracket(a, center_bracket(b, c))
                + center_bracket(b, center_bracket(c, a))
                + center_bracket(c, center_bracket(a, b))
            )
            assert jac == zero


def test_center_bracket_lift_independence():
    f3 = Field("Fp", 3)
    a = parse_element("z1*w1 + 2*z1", f3, CF1, "P")
    b = parse_element("w1^2 + z1", f3, CF1, "P")
    base = center_bracket(a, b)
    ka = next(iter(a.terms))
    kb = next(iter(b.terms))
    shifted = center_bracket(a, b, shifts=({ka: 1}, {kb: 2}))
    assert shifted == base


def test_center_bracket_rejects_char_zero():
    z = parse_element("z1", QQ, CF1, "P")
    with pytest.raises(PositiveCharacteristic):
        center_bracket(z, z)
