"""Tame approximation: Hamiltonians, Waring terms, correctors, the full loop."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from weylift import (
    BracketFlavor,
    Endo,
    Field,
    Poly,
    QQ,
    check_symplecto,
    endo_rank,
    parse_element,
    poisson_bracket,
)
from weylift.approx import (
    WaringTerm,
    approximate,
    corrector,
    deviation_hamiltonian,
    hamiltonian_shift_endo,
    is_symplectic,
    omega_matrix_raw,
    stage_prefix,
    symplectic_completion,
    transpose,
    undo_shift,
    waring_decompose,
)
from weylift.errors import (
    DeviationNotHamiltonian,
    NotSymplectic,
    PositiveCharacteristic,
    SideMismatch,
    WeyliftError,
    ZeroCovector,
)
from weylift.linalg import mat_mul
from weylift.tame import evaluate, gen_endo, random_tame

FL1 = BracketFlavor("standard", 1)
FL2 = BracketFlavor("standard", 2)


def pelt(text, flavor=FL1):
    return parse_element(text, QQ, flavor, "P")


def reconstitute(terms, flavor):
    total = Poly.zero(QQ, flavor)
    for t in terms:
        lin = Poly.zero(QQ, flavor)
        for i, c in enumerate(t.covector):
            if c:
                lin = lin + Poly.generator(QQ, flavor, i).scale(QQ.from_fraction(Fraction(c)))
        acc = Poly.one(QQ, flavor)
        for _ in range(t.degree):
            acc = acc * lin
        total = total + acc.scale(QQ.from_fraction(Fraction(t.lam)))
    return total


def random_homogeneous(rng, flavor, degree):
    g = flavor.main_count
    total = Poly.zero(QQ, flavor)
    for _ in range(4):
        key = [0] * len(flavor.unit_key())
        for _ in range(degree):
            key[rng.randrange(g)] += 1
        coeff = QQ.from_fraction(Fraction(rng.randint(-4, 4)))
        total = total + Poly.from_terms(QQ, flavor, [(tuple(key), coeff)])
    return total


def test_deviation_hamiltonian_fixture():
    devs = [pelt("p1^2"), pelt("0")]
    assert str(deviation_hamiltonian(devs, 2)) == "1/3*p1^3"


def test_hamiltonian_generates_its_shift():
    h = pelt("1/3*p1^3")
    endo = hamiltonian_shift_endo(h)
    assert [str(i) for i in endo.images] == ["p1^2 + x1", "p1"]
    # the deviation is the Hamiltonian field {h, -}
    x, p = pelt("x1"), pelt("p1")
    assert endo.images[0] - x == poisson_bracket(h, x)
    assert (endo.images[1] - p).is_zero


def test_deviation_not_hamiltonian():
    with pytest.raises(DeviationNotHamiltonian):
        deviation_hamiltonian([pelt("x1^2"), pelt("0")], 2)


def test_hamiltonian_round_trip_random():
    rng = random.Random(17)
    for degree in (2, 3, 4):
        for _ in range(6):
            h = random_homogeneous(rng, FL2, degree + 1)
            devs = [
                poisson_bracket(h, Poly.generator(QQ, FL2, i))
                for i in range(FL2.main_count)
            ]
            if all(d.is_zero for d in devs):
                continue
            back = deviation_hamiltonian(devs, degree)
            assert back == h


def test_waring_pure_power_is_single_term():
    terms = waring_decompose(pelt("1/3*p1^3"))
    assert len(terms) == 1
    assert terms[0].lam == Fraction(1, 3)
    assert terms[0].covector == (0, 1)
    assert terms[0].degree == 3


def test_waring_reconstitutes():
    rng = random.Random(23)
    for degree in (2, 3, 4):
        for _ in range(8):
            h = random_homogeneous(rng, FL2, degree)
            if h.is_zero:
                continue
            for tie_break in ("lex", "alt"):
                terms = waring_decompose(h, tie_break)
                assert reconstitute(terms, FL2) == h


@st.composite
def _forms_in_used_generators(draw):
    """(form, u, d): a degree-d form in u of the g = 4 generators."""
    d = draw(st.integers(3, 5))
    used = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
    monos = draw(st.lists(
        st.lists(st.sampled_from(used), min_size=d, max_size=d), min_size=1, max_size=6,
    ))
    monos.append((used * d)[:d])
    h = Poly.zero(QQ, FL2)
    for mono in monos:
        key = [0] * len(FL2.unit_key())
        for i in mono:
            key[i] += 1
        num = draw(st.integers(-6, 6).filter(bool))
        den = draw(st.integers(1, 5))
        h = h + Poly.from_terms(QQ, FL2, [(tuple(key), QQ.from_fraction(Fraction(num, den)))])
    u = sum(any(k[i] for k in h.terms) for i in range(FL2.main_count))
    return h, u, d


@settings(max_examples=40, deadline=None)
@given(_forms_in_used_generators())
def test_waring_basis_split_reexpands_within_its_bound(case):
    h, u, d = case
    if h.is_zero:
        return
    splits = {}
    for tie_break in ("lex", "alt"):
        terms = waring_decompose(h, tie_break)
        assert reconstitute(terms, FL2) == h
        assert len(terms) <= comb(u + d - 1, d)
        assert all(t.degree == d for t in terms)
        splits[tie_break] = terms
    if u == 1:
        assert len(splits["lex"]) == 1 and splits["lex"] == splits["alt"]


def test_waring_rejects_constant_and_mixed_degree():
    for text in ("3", "x1^3 + p1^2"):
        with pytest.raises(WeyliftError):
            waring_decompose(pelt(text))


def test_waring_tie_breaks_differ():
    h = pelt("x1^2*p2 + x2^3", FL2)
    lex = waring_decompose(h, "lex")
    alt = waring_decompose(h, "alt")
    assert reconstitute(lex, FL2) == h
    assert reconstitute(alt, FL2) == h
    assert [t.covector for t in lex] != [t.covector for t in alt]


def test_symplectic_completion_is_symplectic():
    rng = random.Random(9)
    for _ in range(10):
        cov = tuple(rng.randint(-3, 3) for _ in range(4))
        if not any(cov):
            continue
        a = symplectic_completion(QQ, cov, FL2)
        assert is_symplectic(QQ, transpose(a), omega_matrix_raw(QQ, FL2))


def test_symplectic_completion_rejects_zero():
    with pytest.raises(ZeroCovector):
        symplectic_completion(QQ, (0, 0), FL1)


def test_corrector_equals_hamiltonian_flow():
    term = WaringTerm(Fraction(2, 5), (1, 2, 0, 3), 3)
    gens = corrector(term, FL2, check=False)
    assert [g.kind for g in gens] == ["sp", "xshift", "sp"]
    acc = gen_endo(gens[2], "P", FL2, QQ)
    acc = gen_endo(gens[1], "P", FL2, QQ).compose(acc)
    acc = gen_endo(gens[0], "P", FL2, QQ).compose(acc)
    assert acc == hamiltonian_shift_endo(term.potential(QQ, FL2))


@pytest.mark.parametrize("flavor, covector", ((FL1, (1, 2)), (FL2, (1, 2, 0, 3))))
def test_corrector_check_rejects_a_wrong_word(monkeypatch, flavor, covector):
    import weylift.approx

    term = WaringTerm(Fraction(2, 5), covector, 3)
    corrector(term, flavor)
    real = weylift.approx.symplectic_completion
    omega = omega_matrix_raw(QQ, flavor)

    def other(field, cov, fl):
        # Symplectic still, but it no longer carries the covector onto p1.
        out = mat_mul(field, real(field, cov, fl), omega)
        assert is_symplectic(field, transpose(out), omega)
        return out

    monkeypatch.setattr(weylift.approx, "symplectic_completion", other)
    with pytest.raises(WeyliftError, match="failed its exactness check"):
        corrector(term, flavor)


def test_corrector_rejects_low_degree():
    with pytest.raises(WeyliftError):
        corrector(WaringTerm(Fraction(1), (0, 1), 1), FL1)


def test_approximate_recovers_shear_exactly():
    sh = Endo("P", FL1, QQ, [pelt("x1 + p1^2"), pelt("p1")])
    word, report = approximate(sh, 5)
    assert report["residual_height"] is None
    assert report["stages"] == {2: 1, 3: 0, 4: 0}
    assert evaluate(word, "P", FL1, QQ) == sh


def test_approximate_handles_linear_part():
    rot = Endo("P", FL1, QQ, [pelt("p1 + x1^2"), pelt("-x1")])
    check_symplecto(rot)
    word, report = approximate(rot, 4)
    assert word.gens[0].kind == "sp"
    got = evaluate(word, "P", FL1, QQ, maxdeg=3)
    for a, b in zip(got.images, rot.images):
        assert a == b.truncate(3)


def test_approximate_random_words():
    for seed in (3, 4, 5):
        word = random_tame(2, 4, 2, seed=seed)
        target = evaluate(word, "P", FL2, QQ)
        for tie_break in ("lex", "alt"):
            approx_word, report = approximate(target, 4, tie_break=tie_break)
            got = evaluate(approx_word, "P", FL2, QQ, maxdeg=3)
            for a, b in zip(got.images, target.images):
                assert a == b.truncate(3)
            if report["residual_height"] is not None:
                assert report["residual_height"] >= 4


def test_heavy_word_fits_the_basis_bound():
    # Stage 2 splits a cubic, stage 3 a quartic, in g = 4 generators:
    # at most C(6, 3) + C(7, 4) = 55 correctors of 3 letters, plus the
    # linear letter.
    target = evaluate(random_tame(2, 4, 2, seed=5), "P", FL2, QQ)
    for tie_break in ("lex", "alt"):
        word, report = approximate(target, 4, tie_break=tie_break)
        assert report["stages"][2] <= comb(6, 3) and report["stages"][3] <= comb(7, 4)
        assert len(word) <= 166
        got = evaluate(word, "P", FL2, QQ, maxdeg=3)
        for a, b in zip(got.images, target.images):
            assert a == b.truncate(3)


def test_approximate_raises_rank_of_residual():
    # each stage pushes the leftover deviation one degree higher
    cubic = Endo("P", FL1, QQ, [pelt("x1 + p1^3"), pelt("p1")])
    word, _ = approximate(cubic, 6)
    got = evaluate(word, "P", FL1, QQ)
    resid = got.compose(Endo("P", FL1, QQ, [pelt("x1 - p1^3"), pelt("p1")]))
    assert endo_rank(resid) >= 3


def test_approximate_input_guards():
    from weylift.weyl import WeylElt

    x, d = WeylElt.generator(QQ, FL1, 0), WeylElt.generator(QQ, FL1, 1)
    wend = Endo("W", FL1, QQ, [x + d * d, d])
    with pytest.raises(SideMismatch):
        approximate(wend, 3)
    f5 = Field("Fp", 5)
    fend = Endo("P", FL1, f5, [
        parse_element("x1 + p1^2", f5, FL1, "P"),
        parse_element("p1", f5, FL1, "P"),
    ])
    with pytest.raises(PositiveCharacteristic):
        approximate(fend, 3)
    bad = Endo("P", FL1, QQ, [pelt("2*x1"), pelt("p1")])
    with pytest.raises(NotSymplectic):
        approximate(bad, 3)
    hfl = BracketFlavor("haug", 1)
    hend = Endo.identity("P", hfl, QQ)
    with pytest.raises(WeyliftError):
        approximate(hend, 3)


def test_shift_by_minus_potential_undoes_the_shift():
    rng = random.Random(41)
    for flavor, top in ((FL1, 4), (FL2, 3)):
        ident = Endo.identity("P", flavor, QQ)
        for _ in range(6):
            covector = [0] * flavor.main_count
            while not any(covector):
                covector = [rng.randint(-2, 2) for _ in covector]
            lam = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))
            term = WaringTerm(lam, covector, rng.randint(2, top))
            h = term.potential(QQ, flavor)
            there, back = hamiltonian_shift_endo(h), hamiltonian_shift_endo(-h)
            assert there != ident
            assert back.compose(there) == ident, term
            assert there.compose(back) == ident, term


def test_undo_shift_matches_compose():
    # Oracle: substitute the shift by minus the potential into every
    # monomial.  With deg L^(d-1) = d - 1, the series term m survives the
    # truncation when m (d - 1) <= maxdeg, so d = 3 reaches m = 3 at
    # maxdeg 6 and 7, and d = 4 reaches m = 2 at maxdeg 6 and 7.
    rng = random.Random(23)
    for flavor in (FL1, FL2):
        for d in (3, 4, 5):
            for maxdeg in range(3, 8):
                for _ in range(2):
                    images = [
                        Poly.generator(QQ, flavor, i)
                        + sum(
                            (random_homogeneous(rng, flavor, k)
                             for k in range(2, maxdeg + 1)),
                            Poly.zero(QQ, flavor),
                        )
                        for i in range(flavor.main_count)
                    ]
                    residual = Endo("P", flavor, QQ, images)
                    covector = [0] * flavor.main_count
                    while not any(covector):
                        covector = [rng.randint(-2, 2) for _ in covector]
                    lam = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))
                    term = WaringTerm(lam, covector, d)
                    undo = hamiltonian_shift_endo(-term.potential(QQ, flavor))
                    want = undo.compose(residual, maxdeg)
                    assert undo_shift(residual, term, maxdeg) == want, (
                        term, maxdeg, residual,
                    )


def test_stage_prefix_is_the_lower_order_word():
    from test_acceptance import _corpus

    # (endo, orders): each order's word, cut one order lower, is the
    # word of that order.
    cases = [(sigma, (3, 4, 5, 6)) for _, _, _, sigma in _corpus()]
    for n, length, maxdeg, seeds in ((1, 4, 3, range(40)), (2, 3, 2, range(38))):
        flavor = BracketFlavor("standard", n)
        cases += [
            (evaluate(random_tame(n, length, maxdeg, seed), "P", flavor, QQ), (3, 4))
            for seed in seeds
        ]
    checked = cut = 0
    for sigma, orders in cases:
        lower = approximate(sigma, orders[0])[0]
        for order in orders[1:]:
            word, report = approximate(sigma, order)
            prefix = stage_prefix(word, report, order - 1)
            assert prefix == lower, (sigma, order)
            checked += 1
            cut += len(prefix) < len(word)
            lower = word
    assert checked == 228
    assert cut > 50
