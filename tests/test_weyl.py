"""Weyl algebra arithmetic against an independent rewriting oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    is_q_raw,
    oracle_binary_power,
    oracle_commutator,
    oracle_is_central,
    oracle_mul,
    oracle_power,
    random_poly,
)
from weylift import BracketFlavor, Field, Poly, QQ, element_to_text, parse_element
from weylift.elements import leibniz_bracket
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
    p = field.char
    sfl = BracketFlavor(SKEW, n)
    top = p + 1
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


@st.composite
def _weyl_pairs(draw, ns=(1, 2), linear_right=False):
    """(a, b) on W over standard, haug and skew, Q, F_7 and F_9, both with
    h and k factors where the flavor has them; b has main degree at most
    1 when linear_right."""
    kind = draw(st.sampled_from([STANDARD, HAUG, SKEW]))
    flavor = BracketFlavor(kind, draw(st.sampled_from(ns)))
    field = draw(st.sampled_from([QQ, Field("Fp", 7), F9]))
    g = flavor.main_count
    central = [flavor.h_slot] * flavor.has_h + list(range(flavor.k_start, flavor.t_slot))
    # Skew n = 3 has 15 pairs sharing its six slots: lower exponents keep
    # the number of contraction leaves small.
    top = 3 if g < 6 else 2

    def coeff():
        if field.k > 1:
            return field.from_coeffs(draw(st.lists(st.integers(0, 2), min_size=2, max_size=2)))
        return field.from_fraction(Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))))

    def element(main_key):
        terms = []
        for _ in range(draw(st.integers(1, 4))):
            key = main_key() + [0] * (flavor.key_len - g)
            for slot in central:
                key[slot] = draw(st.integers(0, 2))
            terms.append((tuple(key), coeff()))
        return WeylElt.from_terms(field, flavor, terms)

    def any_key():
        return [draw(st.integers(0, top)) for _ in range(g)]

    def linear_key():
        key = [0] * g
        slot = draw(st.integers(-1, g - 1))
        if slot >= 0:
            key[slot] = 1
        return key

    return element(any_key), element(linear_key if linear_right else any_key)


@settings(max_examples=120, deadline=None)
@given(_weyl_pairs(linear_right=True))
def test_commutator_with_a_linear_element_matches_the_oracle(case):
    # ad(l) for l of main degree <= 1 is the Leibniz bracket of the
    # contraction pairs: the pass pth_power takes, against both rewritten
    # products.
    f, ell = case
    want = oracle_mul(f, ell) - oracle_mul(ell, f)
    assert leibniz_bracket(f, ell, f.flavor.contractions) == want


@settings(max_examples=200, deadline=None)
@given(_weyl_pairs(ns=(1, 2, 3)), st.one_of(st.none(), st.integers(0, 10)))
def test_commutator_matches_both_products(case, maxdeg):
    # weyl_commutator builds only the contracted terms of a b and of b a;
    # the oracle builds both products whole and subtracts.  Truncation
    # (the bracket of endo.bracket_violations) is for haug and skew.
    a, b = case
    if a.flavor.kind == STANDARD and maxdeg is not None:
        with pytest.raises(WeyliftError):
            weyl_commutator(a, b, maxdeg)
        maxdeg = None
    assert weyl_commutator(a, b, maxdeg) == oracle_commutator(a, b, maxdeg)


def _parse_w(text, field, flavor):
    return parse_element(text, field, flavor, "W", WeylElt)


@pytest.mark.parametrize("field", [QQ, Field("Fp", 7), F9], ids=repr)
def test_parser_reads_canonical_and_reordered_text(field, monkeypatch):
    rng = random.Random(f"parse {field!r}")
    flavors = [BracketFlavor(kind, n) for kind in (STANDARD, HAUG, SKEW) for n in (1, 2, 3)]
    # Canonical text reads back as the element it prints, and without a
    # single product: each of its terms is one run of factors in order.
    import weylift.weyl

    products = []
    ordered_mul = weylift.weyl.ordered_mul

    def counted(*args):
        products.append(args)
        return ordered_mul(*args)

    monkeypatch.setattr(weylift.weyl, "ordered_mul", counted)
    for flavor in flavors:
        for _ in range(6):
            e = random_poly(rng, field, flavor, cls=WeylElt, max_terms=6, max_deg=5)
            assert _parse_w(element_to_text(e, "W"), field, flavor) == e
    assert products == []
    monkeypatch.undo()
    # Text not in normal order is multiplied out, as the rewriting oracle
    # multiplies its letters.
    fl = BracketFlavor(STANDARD, 1)
    x, d = gens(field, fl)
    assert _parse_w("d1*x1", field, fl) == oracle_mul(d, x) == x * d + WeylElt.one(field, fl)
    sfl = BracketFlavor(SKEW, 1)
    xi1, xi2 = gens(field, sfl)
    hk = WeylElt(field, sfl, {sfl.h_key(1): field.one()}) * WeylElt.k_symbol(field, sfl, 0, 1)
    assert _parse_w("xi2*xi1", field, sfl) == oracle_mul(xi2, xi1) == xi1 * xi2 - hk
    # Random words, letters and central factors in any order, with
    # coefficients and powers between them (n <= 2 for the oracle's sake).
    for flavor in (fl for fl in flavors if fl.n < 3):
        names = flavor.gen_names("W") + ["h"] * flavor.has_h
        names += [f"k{i + 1}_{j + 1}" for i, j in flavor.k_pairs]
        for _ in range(8):
            factors, want = [], WeylElt.one(field, flavor)
            for _ in range(rng.randrange(1, 6)):
                name = rng.choice(names)
                e = rng.randrange(1, 3)
                c = rng.randrange(1, 3)  # nonzero in every field here
                factors += [str(c), name if e == 1 else f"{name}^{e}"]
                atom = _parse_w(name, field, flavor)
                want = oracle_mul(want, atom.scale(field.from_int(c)))
                for _ in range(e - 1):
                    want = oracle_mul(want, atom)
            assert _parse_w("*".join(factors), field, flavor) == want


def test_is_central_over_q():
    fl = BracketFlavor(STANDARD, 1)
    x, d = gens(QQ, fl)
    assert is_central(WeylElt.one(QQ, fl))
    assert not is_central(bounded_power(x, 5))
    hfl = BracketFlavor(HAUG, 1)
    assert is_central(WeylElt.h_power(QQ, hfl, 1))


_F9 = Field("Fp", 3, 2, (1, 0, 1))


def _centrality_cases(field, flavor, rng):
    """Random elements, p-th powers, elements in p-th power coordinates and
    near misses one term away from them."""
    p = field.char
    cases = []
    for _ in range(12):
        a = random_poly(rng, field, flavor, cls=WeylElt, max_terms=4, max_deg=3)
        cases.append(a)
        if p:
            lin = random_poly(rng, field, flavor, cls=WeylElt, max_terms=3, max_deg=1)
            cases += [pth_power(lin), bounded_power(a, p)]
        # Main exponents scaled by p (by 0 over Q): central by construction.
        c = WeylElt(field, flavor)
        c.terms = {
            tuple(e * p for e in key[: flavor.main_count]) + key[flavor.main_count :]: v
            for key, v in a.terms.items()
        }
        cases += [c, c + a.truncate(1), c + WeylElt.generator(field, flavor, 0)]
    return cases


@pytest.mark.parametrize("kind", [STANDARD, HAUG])
@pytest.mark.parametrize(
    "field", [QQ, Field("Fp", 2), Field("Fp", 3), Field("Fp", 7), _F9], ids=repr
)
def test_is_central_matches_commutator_oracle(kind, field):
    rng = random.Random(f"{kind}{field!r}")
    seen = set()
    for n in (1, 2):
        flavor = BracketFlavor(kind, n)
        for a in _centrality_cases(field, flavor, rng):
            want = oracle_is_central(a)
            assert is_central(a) == want
            seen.add(want)
    assert seen == {True, False}


def test_is_central_near_misses_over_f3():
    f3 = Field("Fp", 3)
    fl = BracketFlavor(STANDARD, 1)
    x, d = gens(f3, fl)
    # (x d)^3 = x^3 d^3 + x d over F_3: one term short of central.
    cube = bounded_power(x * d, 3)
    assert not is_central(cube) and not oracle_is_central(cube)
    assert is_central(cube - x * d) and oracle_is_central(cube - x * d)
    assert is_central(pth_power(x + d)) and oracle_is_central(pth_power(x + d))


def test_is_central_refuses_skew():
    fl = BracketFlavor(SKEW, 2)
    g = gens(QQ, fl)

    def k(i, j):
        return WeylElt(QQ, fl, {fl.k_key(i, j): Fraction(1)})

    # The commutators of distinct terms cancel on skew flavors, so the
    # exponents alone cannot decide: this commutes with g0, g1 and g2.
    a = k(1, 2) * g[0] - k(0, 2) * g[1] + k(0, 1) * g[2]
    assert all(weyl_commutator(a, gi).is_zero for gi in g[:3])
    with pytest.raises(WeyliftError, match="paired flavors"):
        is_central(a)
    with pytest.raises(WeyliftError, match="paired flavors"):
        is_central(WeylElt.one(QQ, fl))


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


def in_class_elt(rng, field, flavor, top):
    """Random l + F: l of main degree 1, F on main slots no two of which
    contract, so F commutes with itself and pth_power takes its closed
    form.  F holds g_s^(p-1) and l a partner of g_s, which makes
    D^(p-1)(F) nonzero unless other terms cancel it; the other exponents
    go up to top."""
    g, p = flavor.main_count, field.char
    order = rng.sample(range(g), g)
    slots = {order[0]}
    for s in order[1:]:
        if rng.random() < 0.7 and not any(
            {j, i} <= slots | {s} for j, i, _, _ in flavor.contractions
        ):
            slots.add(s)
    partner = next(j + i - order[0] for j, i, _, _ in flavor.contractions
                   if order[0] in (j, i))

    def coeff():
        c = field.from_coeffs([rng.randrange(field.p) for _ in range(field.k)])
        return field.one() if field.is_zero(c) else c

    def term(key):
        if flavor.has_h and rng.random() < 0.3:
            key[flavor.h_slot] = 1
        return tuple(key), coeff()

    linear = [[0] * flavor.key_len for _ in range(rng.randrange(1, 4))]
    linear[0][partner] = 1
    for key in linear[1:]:
        key[rng.randrange(g)] = 1
    rest = [[0] * flavor.key_len for _ in range(rng.randrange(1, 3))]
    for key in rest:
        for s in slots:
            key[s] = rng.randrange(top + 1)
    rest[0][order[0]] = p - 1
    return WeylElt.from_terms(field, flavor, map(term, linear + rest))


def _no_fallback(a, e):
    raise AssertionError("the closed form fell back to bounded_power")


def _powers_of_terms(a, power):
    out = WeylElt.zero(a.field, a.flavor)
    for key, c in a.terms.items():
        out = out + power(WeylElt(a.field, a.flavor, {key: c}), a.field.char)
    return out


def test_pth_power_jacobson_fixture(monkeypatch):
    # (x + d^2)^3 = x^3 + d^6 + ad(x)^2(d^2), and ad(x)^2(d^2) = 2 over F_3.
    f3 = Field("Fp", 3)
    fl = BracketFlavor(STANDARD, 1)
    x, d = gens(f3, fl)
    a = x + d * d
    want = bounded_power(x, 3) + bounded_power(d, 6) + 2 * WeylElt.one(f3, fl)
    assert oracle_power(a, 3) == want
    monkeypatch.setattr("weylift.weyl.bounded_power", _no_fallback)
    assert pth_power(a) == want


@pytest.mark.parametrize("kind", [STANDARD, HAUG, SKEW])
@pytest.mark.parametrize(
    "field, oracle",
    [(Field("Fp", 3), oracle_power), (Field("Fp", 5), oracle_power),
     (Field("Fp", 7), oracle_power), (F9, oracle_power),
     (Field("Fp", 11), oracle_binary_power), (Field("Fp", 13), oracle_binary_power)],
    ids=lambda v: repr(v) if isinstance(v, Field) else "",
)
def test_pth_power_closed_form_matches_oracle(monkeypatch, field, oracle, kind):
    # The closed form alone (the fallback is cut off) against the oracle,
    # on elements where D^(p-1)(F) is nonzero as well as on ones where it
    # vanishes.
    p = field.char
    rng = random.Random(700 + p * field.k)
    cases = [(BracketFlavor(kind, 1), 3), (BracketFlavor(kind, 2), 2)]
    if oracle is oracle_binary_power:
        cases = cases[:1]
    elements = [
        in_class_elt(rng, field, fl, top) for fl, top in cases for _ in range(3)
    ]
    want = [oracle(a, p) for a in elements]
    jacobson_terms = sum(w != _powers_of_terms(a, oracle) for a, w in zip(elements, want))
    assert jacobson_terms > 0
    monkeypatch.setattr("weylift.weyl.bounded_power", _no_fallback)
    for a, w in zip(elements, want):
        assert pth_power(a) == w, a


def test_pth_power_outside_the_closed_form_matches_oracle():
    # x d + ... has a contracting pair inside F, and p = 2 keeps the
    # commutator term of Jacobson's formula: both go to bounded_power.
    fl = BracketFlavor(STANDARD, 1)
    for p in (2, 3, 5):
        field = Field("Fp", p)
        x, d = gens(field, fl)
        for a in (x * d + x, x * d + d * d + x, bounded_power(x, 2) * d + d):
            assert pth_power(a) == oracle_power(a, p)
    hfl = BracketFlavor(HAUG, 2)
    x1, x2, d1, d2 = gens(F9, hfl)
    a = x1 * d1 * d2 + x2 + d1
    assert pth_power(a) == oracle_power(a, 3)


def test_pth_power_closed_form_is_bounded(monkeypatch):
    import weylift.elements

    f3 = Field("Fp", 3)
    fl = BracketFlavor(STANDARD, 2)
    x1, x2, d1, d2 = gens(f3, fl)
    a = x1 + x2 + d1 + d2
    monkeypatch.setattr(weylift.elements, "EXPANSION_BOUND", 3)
    monkeypatch.setattr("weylift.weyl.bounded_power", _no_fallback)
    with pytest.raises(ExpansionBoundExceeded):
        pth_power(a)


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
            assert is_q_raw(c) and c != 0, c


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


def test_expansion_bound(monkeypatch):
    import weylift.elements

    fl = BracketFlavor(STANDARD, 1)
    x, d = gens(QQ, fl)
    monkeypatch.setattr(weylift.elements, "EXPANSION_BOUND", 10)
    with pytest.raises(ExpansionBoundExceeded):
        bounded_power(x + d, 40)
    # (x + d)^5 has 12 normal-ordered terms; x^e has one term for every e.
    with pytest.raises(ExpansionBoundExceeded, match="hit 12 terms"):
        bounded_power(x + d, 5)
    assert bounded_power(x, 10) == WeylElt(QQ, fl, {fl.gen_key(0, 10): QQ.one()})
    with pytest.raises(ExpansionBoundExceeded, match="exponent 11 "):
        bounded_power(x, 11)
