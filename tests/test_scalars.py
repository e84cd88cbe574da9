"""Field arithmetic over Q, prime fields, and small extensions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    is_q_raw,
    oracle_commutative_mul,
    oracle_from_fraction,
    oracle_mul,
    oracle_poisson_bracket,
    random_poly,
    scaled_image,
)
from weylift import BracketFlavor, Endo, Field, Poly, QQ
from weylift.approx import WaringTerm, hamiltonian_shift_endo, undo_shift
from weylift.elements import leibniz_bracket, ordered_mul, substitute
from weylift.endo import element_class
from weylift.errors import DivisionByZero, NotFiniteField, NotPIntegral
from weylift.flavors import HAUG, SKEW, STANDARD

rationals = st.fractions(max_denominator=10**4)
FL1, FL2 = BracketFlavor(STANDARD, 1), BracketFlavor(STANDARD, 2)


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
    # An integral value is an int, whatever it comes in as.
    for n in (-2, 0, 5, Fraction(-2), Fraction(0), Fraction(10, 2)):
        got = QQ.from_fraction(n)
        assert got == oracle_from_fraction(QQ, n) and type(got) is int
    consts = (QQ.zero(), QQ.one(), QQ.from_int(-3))
    assert consts == (0, 1, -3) and [type(v) for v in consts] == [int] * 3


def test_q_division_stays_exact():
    # int / int would be a float: inv, div and pow_int go through Fraction.
    got = [QQ.inv(3), QQ.div(1, 3), QQ.pow_int(2, -1), QQ.from_fraction(Fraction(6, 3))]
    assert got == [Fraction(1, 3), Fraction(1, 3), Fraction(1, 2), 2]
    assert [type(v) for v in got] == [Fraction, Fraction, Fraction, int]
    assert all(is_q_raw(v) for v in got)
    assert type(QQ.div(6, 3)) is int and type(QQ.inv(Fraction(1, 4))) is int
    assert type(QQ.pow_int(Fraction(1, 2), 0)) is int


@given(rationals, rationals)
def test_q_results_are_raw_values(a, b):
    a, b = QQ.from_fraction(a), QQ.from_fraction(b)
    results = [QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.neg(a), QQ.pow_int(a, 3)]
    if b != 0:
        results += [QQ.div(a, b), QQ.inv(b), QQ.pow_int(b, -2)]
    assert all(is_q_raw(v) for v in results), results


@st.composite
def _q_elements(draw):
    """(a, b, ell) on one side and flavor over Q, with integral and
    fractional coefficients; ell has main degree at most 1."""
    side = draw(st.sampled_from("PW"))
    flavor = BracketFlavor(draw(st.sampled_from([STANDARD, HAUG, SKEW])), draw(st.sampled_from([1, 2])))
    cls, g = element_class(side), flavor.main_count
    central = [flavor.h_slot] * flavor.has_h + list(range(flavor.k_start, flavor.t_slot))

    def element(main_key):
        terms = []
        for _ in range(draw(st.integers(1, 4))):
            key = main_key() + [0] * (flavor.key_len - g)
            for slot in central:
                key[slot] = draw(st.integers(0, 1))
            c = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 1, 2, 3])))
            terms.append((tuple(key), QQ.from_fraction(c)))
        return cls.from_terms(QQ, flavor, terms)

    def any_key():
        return [draw(st.integers(0, 2)) for _ in range(g)]

    def linear_key():
        key = [0] * g
        slot = draw(st.integers(-1, g - 1))
        if slot >= 0:
            key[slot] = 1
        return key

    return element(any_key), element(any_key), element(linear_key)


def _assert_q_values(got, want):
    assert got == want
    assert all(is_q_raw(c) for c in got.terms.values()), got.terms


@settings(max_examples=150, deadline=None)
@given(_q_elements(), st.one_of(st.none(), st.integers(0, 6)))
def test_q_kernels_keep_raw_values(case, maxdeg):
    # Products, brackets and substitutions over Q hold ints and Fractions
    # with denominator above 1 only, and equal the oracles' values.
    a, b, ell = case
    flavor = a.flavor
    weyl = type(a) is not Poly
    if weyl and flavor.kind == STANDARD:
        maxdeg = None  # the standard Weyl product has no graded truncation
    pairs = flavor.contractions if weyl else ()

    def oracle_product(x, y):
        exact = oracle_mul(x, y) if weyl else oracle_commutative_mul(x, y)
        return exact if maxdeg is None else exact.truncate(maxdeg)

    _assert_q_values(ordered_mul(a, b, pairs, maxdeg), oracle_product(a, b))
    if weyl:
        want = oracle_mul(a, ell) - oracle_mul(ell, a)
        _assert_q_values(leibniz_bracket(a, ell, flavor.contractions), want)
    else:
        _assert_q_values(leibniz_bracket(a, b, flavor.contractions), oracle_poisson_bracket(a, b))
    c = QQ.from_fraction(Fraction(-3, 2))
    parts = [(None, [(0, 2), (1, 1)], c), (None, [(1, 1)], 2)]
    got = substitute([a, b], parts, lambda x, y: ordered_mul(x, y, pairs, maxdeg))
    _assert_q_values(got, oracle_product(oracle_product(a, a), b).scale(c) + b.scale(2))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([FL1, FL2]),
    st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    st.fractions(max_denominator=4),
    st.integers(2, 4),
    st.integers(2, 6),
    st.randoms(use_true_random=False),
)
def test_undo_shift_keeps_raw_values(flavor, covector, lam, d, maxdeg, rng):
    # undo_shift against the substitution of the shift into every monomial,
    # on a residual without constant terms, truncated as approximate keeps it.
    # The scaled images hold int numerators; over their denominators they
    # are the oracle's Q raw values.
    g = flavor.main_count
    covector = covector[:g] if any(covector[:g]) else [1] * g
    images = []
    for i in range(g):
        extra = random_poly(rng, QQ, flavor, max_deg=3).scale(Fraction(1, rng.randint(1, 3)))
        extra = (extra - extra.homogeneous_part(0)).truncate(maxdeg)
        images.append(Poly.generator(QQ, flavor, i) + extra)
    term = WaringTerm(lam or Fraction(1, 2), covector, d, flavor)
    got = undo_shift([scaled_image(img) for img in images], term, maxdeg)
    undo = hamiltonian_shift_endo(-term.potential)
    for (num, den), want in zip(got, undo.compose(Endo("P", flavor, QQ, images), maxdeg).images):
        assert all(type(c) is int for c in num.terms.values()), num.terms
        _assert_q_values(num.scale(QQ.inv(den)), want)
