"""Tame approximation: Hamiltonians, Waring terms, correctors, the full loop."""

import itertools
import math
import random
from fractions import Fraction
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    endo_rank,
    is_q_raw,
    oracle_is_symplectic,
    oracle_symplectic_completion,
    oracle_waring_decompose,
    random_unimodular_matrix,
    scaled_image,
)
from weylift import (
    BracketFlavor,
    Endo,
    Field,
    Poly,
    QQ,
    check_symplecto,
    parse_element,
    poisson_bracket,
)
from weylift.approx import (
    WaringTerm,
    approximate,
    approximate_both,
    corrector,
    deviation_hamiltonian,
    hamiltonian_shift_endo,
    stage_prefix,
    symplectic_completion,
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
from weylift.linalg import is_symplectic, mat_mul, transpose
from weylift.tame import (
    SP,
    XSHIFT,
    ElementaryGen,
    evaluate,
    gen_endo,
    random_symplectic_matrix,
    random_tame,
)

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


def random_homogeneous(rng, flavor, degree, dens=(1,)):
    g = flavor.main_count
    total = Poly.zero(QQ, flavor)
    for _ in range(4):
        key = [0] * len(flavor.unit_key())
        for _ in range(degree):
            key[rng.randrange(g)] += 1
        coeff = QQ.from_fraction(Fraction(rng.randint(-4, 4), rng.choice(dens)))
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


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([FL1, FL2]),
    st.integers(1, 5),
    st.lists(
        st.tuples(st.integers(0, 10**6), st.fractions(max_denominator=36).filter(bool)),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from(["lex", "alt"]),
)
def test_waring_matches_the_fraction_solve(flavor, degree, draws, tie_break):
    # The common-denominator solve gives the terms of the one-Fraction-per-
    # entry solve: the same lam, covectors and order, on both tie breaks.
    g = flavor.main_count
    terms = []
    for seed, coeff in draws:
        key = [0] * len(flavor.unit_key())
        for _ in range(degree):
            key[seed % g] += 1
            seed //= g
        terms.append((tuple(key), QQ.from_fraction(coeff)))
    h = Poly.from_terms(QQ, flavor, terms)
    if h.is_zero:
        return
    got = waring_decompose(h, tie_break)
    assert got == oracle_waring_decompose(h, tie_break)
    assert all(type(t.lam) is Fraction for t in got)


def test_symplectic_completion_is_symplectic():
    rng = random.Random(9)
    for _ in range(10):
        cov = tuple(rng.randint(-3, 3) for _ in range(4))
        if not any(cov):
            continue
        a = symplectic_completion(cov)
        assert is_symplectic(transpose(a))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_is_symplectic_matches_dense_oracle(n):
    flavor = BracketFlavor("standard", n)
    rng = random.Random(n)
    verdicts = []
    for _ in range(8):
        sp = random_symplectic_matrix(n, rng)
        bumped = [list(row) for row in sp]
        bumped[rng.randrange(2 * n)][rng.randrange(2 * n)] += rng.choice([-1, 1])
        for a in (sp, random_unimodular_matrix(2 * n, rng), bumped):
            verdicts.append(is_symplectic(a))
            assert verdicts[-1] == oracle_is_symplectic(a, flavor)
        assert verdicts[-3]
    # On n = 1 a unimodular matrix is in SL_2 = Sp_2, so only bumps fail.
    assert verdicts.count(False) >= 8


def test_symplectic_completion_rejects_zero():
    with pytest.raises(ZeroCovector):
        symplectic_completion((0, 0))


@pytest.mark.parametrize("flavor", [FL1, FL2], ids=["n1", "n2"])
def test_symplectic_completion_matches_field_dispatch_oracle(flavor):
    count = 0
    for cov in itertools.product(range(-3, 4), repeat=flavor.main_count):
        if not any(cov):
            continue
        got = symplectic_completion(cov)
        want = oracle_symplectic_completion(QQ, cov, flavor)
        assert got == want, cov
        assert all(is_q_raw(v) for row in got for v in row), cov
        count += 1
    assert count == 7**flavor.main_count - 1


def test_corrector_equals_hamiltonian_flow():
    term = WaringTerm(Fraction(2, 5), (1, 2, 0, 3), 3)
    gens = corrector(term, FL2)
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
    g = flavor.main_count
    omega = [[Fraction(flavor.omega(i, j)) for j in range(g)] for i in range(g)]

    def other(cov):
        # Symplectic still, but it no longer carries the covector onto p1.
        out = mat_mul(real(cov), omega)
        assert is_symplectic(transpose(out))
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
    assert report["stages"] == {2: 1}
    assert report["letters"] == {2: 1} and len(word) == 1
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


def test_approximate_refuses_t_dependent_images():
    # (t x1, t^-1 p1) preserves the bracket, but its t^0 linear part is zero;
    # the walk reads only t-free images.
    for images in (("t*x1", "t^-1*p1"), ("x1 + t*p1^2", "p1")):
        sigma = Endo("P", FL1, QQ, [pelt(text) for text in images])
        check_symplecto(sigma)
        with pytest.raises(WeyliftError, match="t-free"):
            approximate(sigma, 4)


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
    # maxdeg 6 and 7, and d = 4 reaches m = 2 at maxdeg 6 and 7.  The
    # residual's coefficients have denominators, so its scaled form
    # (N_j, D_j), R_j = N_j / D_j, has D_j above 1.
    rng = random.Random(23)
    scaled_dens = 0
    for flavor in (FL1, FL2):
        for d in (3, 4, 5):
            for maxdeg in range(3, 8):
                for _ in range(2):
                    images = [
                        Poly.generator(QQ, flavor, i)
                        + sum(
                            (random_homogeneous(rng, flavor, k, (1, 2, 3, 4, 6))
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
                    got = undo_shift([scaled_image(img) for img in images], term, maxdeg)
                    assert len(got) == len(want.images)
                    for (num, den), img in zip(got, want.images):
                        values = list(num.terms.values())
                        assert all(type(c) is int for c in values), num
                        assert type(den) is int and den >= 1
                        assert math.gcd(den, *values) == 1, (num, den)
                        assert num == img.scale(den), (term, maxdeg, residual)
                        scaled_dens += den > 1
    assert scaled_dens > 50


def test_undo_shift_builds_only_the_factors_it_uses(monkeypatch):
    # sigma = [xshift(p^2), pshift(x^2/2)]: two correctors, whose images
    # have vanishing derivatives along v after a step or two.  Building
    # every Taylor factor up to maxdeg would cost one product per degree.
    sigma = Endo("P", FL1, QQ, [pelt("p1^2 + x1"), pelt("1/2*p1^4 + x1*p1^2 + 1/2*x1^2 + p1")])
    products = []
    mul_truncated = Poly.mul_truncated

    def counted(self, other, maxdeg):
        products.append(maxdeg)
        return mul_truncated(self, other, maxdeg)

    monkeypatch.setattr(Poly, "mul_truncated", counted)
    low = approximate(sigma, 8)
    at_low = len(products)
    assert approximate(sigma, 3000)[0] == low[0]
    assert len(products) - at_low == at_low <= 6


def test_walk_stops_at_an_identity_residual(monkeypatch):
    # Same sigma: stage 2 has the only work, and the residual is the
    # identity after it.  The later stages get no entry, and the
    # residual is not read again.
    sigma = Endo("P", FL1, QQ, [pelt("p1^2 + x1"), pelt("1/2*p1^4 + x1*p1^2 + 1/2*x1^2 + p1")])
    calls = []
    homogeneous_part = Poly.homogeneous_part

    def counted(self, d):
        calls.append(d)
        return homogeneous_part(self, d)

    monkeypatch.setattr(Poly, "homogeneous_part", counted)
    word, report = approximate(sigma, 20000)
    assert len(calls) <= 10
    assert report["residual_height"] is None
    assert report["stages"] == {2: 2}
    assert word == approximate(sigma, 8)[0]


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


def test_fuse_merges_across_letters_that_vanish():
    from weylift.approx import _fuse

    a = ElementaryGen(SP, [[1, 1], [0, 1]])
    ident = ((1, 0), (0, 1))

    def shift(poly):
        return ElementaryGen(XSHIFT, (0, poly))

    block = []
    _fuse(block, [a.inverse(), shift({2: Fraction(1, 2)}), a], ident)
    # A A^-1 between the shifts is the identity and goes; the shifts add.
    _fuse(block, [a.inverse(), shift({2: 1, 3: 1}), a], ident)
    want = [a.inverse(), shift({2: Fraction(3, 2), 3: 1}), a]
    assert [ElementaryGen(kind, data) for kind, data in block] == want
    # The summed shift vanishes, so A^-1 meets A and the block empties.
    _fuse(block, [a.inverse(), shift({2: Fraction(-3, 2), 3: -1}), a], ident)
    assert block == []


def _unfused(block, gens, ident):
    # Every corrector's three letters, as they come.
    block.extend((gen.kind, gen.data) for gen in gens)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(2, 3), st.integers(1, 10**4), st.integers(3, 5))
def test_fused_word_evaluates_as_the_unfused_word(n, length, seed, order):
    import weylift.approx

    flavor, haug = BracketFlavor("standard", n), BracketFlavor("haug", n)
    sigma = evaluate(random_tame(n, length, 2, seed), "P", flavor, QQ)
    word, report = approximate(sigma, order)
    with patch.object(weylift.approx, "_fuse", _unfused):
        plain, plain_report = approximate(sigma, order)
    assert report["stages"] == plain_report["stages"]
    linear = len(plain) - 3 * sum(report["stages"].values())
    assert len(word) == linear + sum(report["letters"].values()) <= len(plain)
    ident = [[int(i == j) for j in range(2 * n)] for i in range(2 * n)]
    assert all(list(map(list, g.data)) != ident for g in word.gens[linear:] if g.kind == SP)
    for side, fl, maxdeg in (("P", flavor, order - 1), ("W", haug, order)):
        got = evaluate(word, side, fl, QQ, maxdeg=maxdeg)
        assert got == evaluate(plain, side, fl, QQ, maxdeg=maxdeg), (side, seed)
    # The exact images grow as the product of the shift degrees.
    if sum(g.kind != SP for g in plain.gens) <= 4:
        assert evaluate(word, "P", flavor, QQ) == evaluate(plain, "P", flavor, QQ)


def test_approximate_both_is_the_lex_and_the_alt_walk():
    # The alt result forks off the lex walk at the first stage whose alt
    # split differs; it must equal a walk of its own, word and report.
    forked = 0
    for n, maxdeg, seeds in ((1, 3, range(1, 41)), (2, 2, range(1, 31))):
        flavor = BracketFlavor("standard", n)
        for seed in seeds:
            sigma = evaluate(random_tame(n, 3, maxdeg, seed), "P", flavor, QQ)
            for order in (4, 5, 6):
                (word, report), alt = approximate_both(sigma, order)
                assert alt == approximate(sigma, order, tie_break="alt"), (n, seed, order)
                assert report["tie_break"] == "lex"
                forked += alt[0] != word
    assert forked > 100
