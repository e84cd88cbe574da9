"""Curve conjugation, pole scanning, and the lifting pipeline."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import endo_rank, oracle_has_pole, oracle_hn_scan

from weylift import (
    BracketFlavor,
    Endo,
    Poly,
    QQ,
    bracket_violations,
    check_symplecto,
    parse_element,
)
from weylift.cli import run_command
from weylift.endo import diagonal_conjugate, element_class
from weylift.errors import (
    DimensionMismatch,
    ExpansionBoundExceeded,
    NotSymplectic,
    SideMismatch,
    StabilizationFailure,
    WeyliftError,
)
from weylift.serialize import dump_json, endo_to_json
from weylift.singlift import (
    DiagonalCurve,
    _box_spans,
    _corner_lines,
    _has_pole,
    _minimal_supports,
    _open_sizes,
    _pole_forms,
    _row_spans,
    conjugate_by_curve,
    extend_to_aux,
    hn_scan,
    lift,
    lifted_commutation_check,
    pole_order,
    position_reduction,
)
from weylift.tame import PSHIFT, XSHIFT, ElementaryGen, TameWord, evaluate, random_tame
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


def test_position_reduction_on_skew_is_undone_by_its_opposite():
    # On skew flavors the change recomputes the k images from the bracket.
    skew = BracketFlavor("skew", 1, aux=True)
    endo = Endo("P", skew, QQ, [pelt(t, skew) for t in ("xi1 + xi1*xi2^2", "xi2", "u", "v")])
    ident = Endo.identity("P", skew, QQ)
    for pos in (0, 1):
        moved = position_reduction(endo, pos, 2, 3)
        assert moved != endo
        assert position_reduction(moved, pos, -2, -3) == endo
        assert position_reduction(ident, pos, 2, 3) == ident


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


LAURENT_FLAVORS = [
    BracketFlavor("standard", 1), BracketFlavor("standard", 2),
    BracketFlavor("haug", 1), BracketFlavor("skew", 1), BracketFlavor("skew", 2),
]


def _laurent_endo(rng, flavor, side):
    """Every slot image is its own symbol plus up to three random
    monomials: main degree 0..3, h exponent in -1..1, k exponents 0..1 and
    t exponent in -1..1 (mostly 0 and 1)."""
    cls = element_class(side)
    symbols = [
        *(flavor.gen_key(s) for s in range(flavor.main_count)),
        *([flavor.h_key()] if flavor.has_h else []),
        *(flavor.k_key(a, b) for a, b in flavor.k_pairs),
    ]

    def image(symbol):
        terms = {symbol: QQ.one()}
        for _ in range(rng.randrange(4)):
            key = [0] * flavor.key_len
            for _ in range(rng.choice((0, 1, 2, 2, 3, 3))):
                key[rng.randrange(flavor.main_count)] += 1
            if flavor.has_h:
                key[flavor.h_slot] = rng.randrange(-1, 2)
            if flavor.has_k:
                key[rng.randrange(flavor.k_start, flavor.t_slot)] += rng.randrange(2)
            key[flavor.t_slot] = rng.choice((-1, 0, 0, 1, 1, 1))
            terms[tuple(key)] = QQ.from_int(rng.choice((-2, -1, 1, 2)))
        return cls(QQ, flavor, terms)

    return Endo.from_slots(side, flavor, QQ, [image(key) for key in symbols])


def test_pole_test_on_minimal_supports_matches_the_conjugate():
    # Oracle: build the conjugate and read its pole order.  The inputs
    # cover paired, h-augmented and skew flavors (k weighs w_a + w_b), both
    # sides, aux-extended endos, their position reductions, and Laurent
    # inputs: random t and h exponents, and conjugates of conjugates.
    rng = random.Random(31)
    seen = {True: 0, False: 0}
    for flavor in LAURENT_FLAVORS:
        for side in ("P", "W"):
            for _ in range(6):
                endo = _laurent_endo(rng, flavor, side)
                endos = [endo, conjugate_by_curve(endo, DiagonalCurve(
                    [rng.randrange(1, 4) for _ in range(flavor.main_count)]
                ))]
                if flavor.has_h:
                    shift = [rng.randrange(-2, 3) for _ in range(flavor.main_count)]
                    endos.append(diagonal_conjugate(endo, flavor.h_slot, (*shift, 0)))
                if flavor.paired:
                    ext = extend_to_aux(endo)
                    endos.append(ext)
                    if side == "P" and flavor.kind == "standard":
                        endos.append(position_reduction(ext, 0, 1, 2))
                for phi in endos:
                    forms = _pole_forms(phi.flavor, _minimal_supports(phi))
                    for _ in range(8):
                        weights = [rng.randrange(1, 6) for _ in range(phi.flavor.main_count)]
                        want = pole_order(conjugate_by_curve(phi, DiagonalCurve(weights))) > 0
                        assert _has_pole(forms, weights) == want, (phi, weights)
                        seen[want] += 1
    assert min(seen.values()) > 100, seen


def test_hn_scan_refuses_a_bad_order_or_sample_count():
    ident = Endo.identity("P", FL1, QQ)
    with pytest.raises(WeyliftError, match="order of at least 1"):
        hn_scan(ident, 0, 5, 1)
    with pytest.raises(WeyliftError, match="sample count"):
        hn_scan(ident, 2, -1, 1)


def _shift(rng, n, deg):
    side = rng.choice((XSHIFT, PSHIFT))
    return ElementaryGen(side, (rng.randrange(n), {deg: Fraction(rng.choice((-2, -1, 1, 2)))}))


def _scan_input(kind, seed, order):
    """An endo for the scan differential test, from a seed."""
    rng = random.Random(seed)
    n = rng.randrange(1, 3)
    flavor = BracketFlavor("standard", n)
    if kind == "tame":
        endo = evaluate(random_tame(n, rng.randrange(1, 3), 3, seed), "P", flavor, QQ)
        return extend_to_aux(endo) if rng.randrange(2) else endo
    if kind == "identity":
        kind_flavor = BracketFlavor(rng.choice(("haug", "skew")), n)
        return Endo.identity(rng.choice(("P", "W")), kind_flavor, QQ)
    if kind == "laurent":
        return _laurent_endo(rng, rng.choice(LAURENT_FLAVORS), rng.choice(("P", "W")))
    if kind == "consistent":
        # the scan workload's family of rank above the order
        gens = [_shift(rng, n, rng.randrange(order + 1, order + 3)) for _ in range(rng.randrange(1, 3))]
        return evaluate(TameWord("symplectic", n, gens), "P", flavor, QQ)
    if kind == "witness":
        # the scan workload's family of rank at most the order, on the aux flavor
        word = TameWord("symplectic", n, [_shift(rng, n, rng.randrange(1, order + 1))])
        return extend_to_aux(evaluate(word, "P", flavor, QQ))
    if kind == "k_image":
        # k12 -> k12 + xi3^d t^e: a form d w_3 - w_1 - w_2 + e that no
        # witness row makes negative when d = order + 2 and e = 0, while
        # random curves can
        skew = BracketFlavor("skew", 2)
        slots = list(Endo.identity("P", skew, QQ).slots)
        key = [0] * skew.key_len
        key[2] = rng.randrange(order + 1, order + 4)
        key[skew.t_slot] = rng.choice((-1, 0, 0, 1))
        slots[skew.k_start] = slots[skew.k_start] + Poly(QQ, skew, {tuple(key): QQ.one()})
        return Endo.from_slots("P", skew, QQ, slots)
    # a special position: the deviation of x1 contains x1
    lifted = BracketFlavor("standard", n, aux=True)
    images = [Poly.generator(QQ, lifted, i) for i in range(lifted.main_count)]
    images[0] = images[0] + parse_element(f"x1*p1^{rng.randrange(1, 4)}", QQ, lifted, "P")
    return Endo("P", lifted, QQ, images)


SCAN_KINDS = ["tame", "identity", "laurent", "consistent", "witness", "special", "k_image"]


def test_corner_test_decides_every_small_box_and_row():
    # Brute force: a box (and a witness row, a box with one long side) has
    # a pole at its low corner exactly when some integer weight vector in
    # it has one, tested on every key of the images; and the open sizes
    # are the m at which some corner line is negative.
    rng = random.Random(11)
    endos = [
        _laurent_endo(rng, flavor, side)
        for flavor in LAURENT_FLAVORS for side in ("P", "W") for _ in range(3)
    ]
    endos += [_scan_input(kind, seed, 2) for kind in SCAN_KINDS for seed in range(4)]
    seen = {True: 0, False: 0}
    for endo in endos:
        flavor = endo.flavor
        g = flavor.main_count
        every_key = [list(img.terms) for img in endo.slots]
        forms = _pole_forms(flavor, _minimal_supports(endo))
        for n in (1, 2):
            for spans in [_box_spans(g, n), *(_row_spans(g, n, pos) for pos in range(g))]:
                lines = _corner_lines(forms, spans)
                assert list(_open_sizes(lines, 40)) == [
                    m for m in range(1, 41) if any(a * m + b < 0 for a, b in lines)
                ]
                open_sizes = set(_open_sizes(lines, 3))
                for m in (1, 2, 3):
                    box = product(*(
                        range(ls * m + li, hs * m + hi + 1) for (ls, li), (hs, hi) in spans
                    ))
                    want = any(oracle_has_pole(flavor, every_key, w) for w in box)
                    assert (m in open_sizes) == want, (endo, n, spans, m)
                    seen[want] += 1
    assert min(seen.values()) > 200, seen


@settings(max_examples=150, deadline=None)
@example("k_image", 6, 1, 60, 0)  # only box 3 holds a pole: a random curve finds it
@given(
    st.sampled_from(SCAN_KINDS),
    st.integers(0, 10**6),
    st.integers(1, 5),
    st.integers(0, 60),
    st.integers(0, 10**6),
)
def test_hn_scan_matches_the_curve_by_curve_oracle(kind, endo_seed, order, samples, seed):
    endo = _scan_input(kind, endo_seed, order)
    got = hn_scan(endo, order, samples, seed)
    want = oracle_hn_scan(endo, order, samples, seed)
    assert got.kind == want.kind
    assert (got.curve and got.curve.weights) == (want.curve and want.curve.weights)
    assert got.reduction == want.reduction


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
    # Two correctors of three letters, fused: the two identity sp letters
    # of the first go, so four letters remain.
    assert cert["word_length"] == 4
    statuses = {k: v["status"] for k, v in cert["primes"].items()}
    assert statuses == {"2": "exact", "3": "fixture_match", "5": "exact", "7": "exact"}


def test_lift_skips_non_integral_primes():
    third = Endo("P", FL1, QQ, [pelt("x1 + 1/3*p1^2"), pelt("p1")])
    _, cert = lift(third, 4, primes=(2, 3))
    assert cert["primes"]["2"]["status"] == "exact"
    assert cert["primes"]["3"]["status"] == "inapplicable_not_p_integral"
    assert cert["pass"]


def test_lift_skips_a_prime_in_a_denominator_of_sigma_past_the_word():
    # The order-4 word stops below the p1^7 term, so only sigma has a 3
    # in a denominator.
    sigma = Endo("P", FL1, QQ, [pelt("x1 + p1^2 + 1/3*p1^7"), pelt("p1")])
    _, cert = lift(sigma, 4, primes=(3, 5))
    assert cert["primes"]["3"] == {"status": "inapplicable_not_p_integral"}
    assert cert["primes"]["5"]["reduction_consistency"] == "pass"
    assert cert["primes"]["5"]["status"] == "fixture_match"
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
    real = weylift.singlift.approximate_both

    def skewed(sigma, n):
        lex, (word, report) = real(sigma, n)
        # x1 -> x1 + p1^2 acting first adds p1^2 to image 0.
        extra = ElementaryGen("xshift", (0, {2: 1}))
        return lex, (TameWord(word.kind, word.n, [*word.gens, extra]), report)

    monkeypatch.setattr(weylift.singlift, "approximate_both", skewed)
    _, cert = lift(shear(), 4)
    assert cert["canonicity"] == "fail"
    assert cert["canonicity_witness"] == {"image": 0, "height": 2}
    assert not cert["pass"]


def test_prime_past_the_expansion_bound_is_skipped(monkeypatch):
    import weylift.singlift

    def over(endo, fp):
        raise ExpansionBoundExceeded("past the bound")

    monkeypatch.setattr(weylift.singlift, "phi_p", over)
    _, cert = lift(shear(), 4, primes=(5,))
    assert cert["primes"]["5"] == {
        "reduction_consistency": "pass",
        "status": "skipped_expansion_budget",
    }
    assert cert["pass"]


def test_mixed_word_fails_canonicity_at_order_6(tmp_path):
    # The smallest mixed word of ROADMAP item 1: an x-shift by p1^2, then a
    # p-shift by x1^2/2.  Its lex and alternate lifts part at order 6.
    word = TameWord(
        "symplectic",
        1,
        [ElementaryGen(XSHIFT, (0, {2: 1})), ElementaryGen(PSHIFT, (0, {2: Fraction(1, 2)}))],
    )
    sigma = evaluate(word, "P", FL1, QQ)
    assert [str(img) for img in sigma.images] == [
        "p1^2 + x1",
        "1/2*p1^4 + x1*p1^2 + 1/2*x1^2 + p1",
    ]
    _, cert = lift(sigma, 5, primes=(3, 5))
    assert cert["pass"]
    _, cert = lift(sigma, 6, primes=(3, 5))
    assert cert["canonicity"] == "fail"
    assert cert["canonicity_witness"] == {"image": 0, "height": 5}
    statuses = {k: v["status"] for k, v in cert["primes"].items()}
    assert statuses == {"3": "fixture_match", "5": "exact"}
    assert not cert["pass"]
    path = str(tmp_path / "mixed_word.json")
    dump_json(endo_to_json(sigma), path)
    _, code = run_command(["lift", "--in", path, "--order", "6", "--primes", "3,5"])
    assert code == 2


def test_lift_checks_sigma_before_its_linear_part():
    bent = Endo("P", FL1, QQ, [pelt("x1 + x1^2"), pelt("p1")])
    with pytest.raises(NotSymplectic) as want:
        check_symplecto(bent)
    with pytest.raises(NotSymplectic) as got:
        lift(bent, 4)
    assert str(got.value) == str(want.value)
    with pytest.raises(SideMismatch, match="commutative side"):
        lift(Endo.identity("W", FL1, QQ), 4)
    scaled = Endo("P", FL1, QQ, [pelt("2*x1 + p1^2"), pelt("1/2*p1")])
    check_symplecto(scaled)
    with pytest.raises(WeyliftError, match="identity linear part"):
        lift(scaled, 4)


def test_lift_checks_sigma_once(monkeypatch):
    import weylift.approx

    # The composite's lex and alt words differ, so the alt walk forks.
    comp = shear().compose(Endo("P", FL1, QQ, [pelt("x1"), pelt("p1 + x1^2")]))
    lex, alt = weylift.approx.approximate_both(comp, 5)
    assert alt[0] != lex[0]
    calls = []
    real = weylift.approx.check_symplecto
    monkeypatch.setattr(
        weylift.approx, "check_symplecto", lambda endo: calls.append(endo) or real(endo)
    )
    _, cert = lift(comp, 5, primes=(3, 5))
    assert cert["pass"]
    assert calls == [comp]


def test_reduction_failure_names_image_and_height(monkeypatch):
    import weylift.singlift

    _, cert = lift(shear(), 4, primes=(5,))
    assert "reduction_witness" not in cert["primes"]["5"]
    real = weylift.singlift.evaluate

    def off(word, side, flavor, field, maxdeg=None, start=None):
        out = real(word, side, flavor, field, maxdeg=maxdeg, start=start)
        if side == "P":
            x_img, p_img = out.images
            out = Endo("P", flavor, field, [x_img, p_img + pelt("x1^2")])
        return out

    monkeypatch.setattr(weylift.singlift, "evaluate", off)
    _, cert = lift(shear(), 4, primes=(5,))
    entry = cert["primes"]["5"]
    assert entry["reduction_consistency"] == "fail"
    assert entry["reduction_witness"] == {"image": 1, "height": 2}
    assert not cert["pass"]


def test_prime_mismatch_names_the_image(monkeypatch):
    import weylift.singlift

    _, cert = lift(shear(), 4, primes=(3,))
    assert cert["primes"]["3"] == {"reduction_consistency": "pass", "status": "fixture_match"}
    real = weylift.singlift.phi_p_along_word

    def off(wword, flavor, fp):
        out = real(wword, flavor, fp)
        z_img, w_img = out.images
        images = [z_img, w_img.scale(fp.from_int(2))]
        return Endo("P", out.flavor, fp, images)

    monkeypatch.setattr(weylift.singlift, "phi_p_along_word", off)
    _, cert = lift(shear(), 4, primes=(3,))
    entry = cert["primes"]["3"]
    assert entry["status"] == "mismatch"
    assert entry["mismatch_witness"] == {"image": 1}
    assert not cert["pass"]


def test_commutation_failure_names_the_pair(monkeypatch):
    import weylift.singlift

    _, cert = lift(shear(), 4)
    assert "commutation_witness" not in cert
    monkeypatch.setattr(
        weylift.singlift, "bracket_violations", lambda endo, maxdeg=None: [(0, 1, None)]
    )
    _, cert = lift(shear(), 4)
    assert cert["commutation"] == "fail"
    assert cert["commutation_violations"] == 1
    assert cert["commutation_witness"] == [0, 1]
    assert not cert["pass"]


def test_lifted_commutation_check_reports_violations():
    x, d = WeylElt.generator(QQ, FL1, 0), WeylElt.generator(QQ, FL1, 1)
    bad = lifted_commutation_check([x + x, d], FL1)
    assert not bad["ok"]
    assert bad["violations"]
    i, j, diff = bad["violations"][0]
    assert (i, j) == (0, 1)


def test_h_weight_conjugate():
    hfl = BracketFlavor("haug", 1)
    e = Endo("P", hfl, QQ, [pelt("x1 + p1^2*h", hfl), pelt("p1", hfl)])
    up = diagonal_conjugate(e, hfl.h_slot, (-3, 0, 0))
    assert str(up.images[0]) == "p1^2*h^4 + x1"
    with pytest.raises(DimensionMismatch):
        diagonal_conjugate(e, hfl.h_slot, (1, 0))
    # A positive h weight on x1 leaves a Laurent power of h.
    hafl = BracketFlavor("haug", 1, aux=True)
    dev = Endo("P", hafl, QQ, [
        pelt("x1 + p1^2*h", hafl), pelt("u", hafl), pelt("p1", hafl), pelt("v", hafl),
    ])
    laurent = diagonal_conjugate(dev, hafl.h_slot, (2, 0, 0, 0, 0))
    assert str(laurent.images[0]) == "p1^2*h^-1 + x1"


def _rescaling(flavor, slot, weights, sign=1):
    """g_s -> tau^(sign w_s) g_s for the symbol tau in `slot`; h by its
    own weight (weights[g]) and k_ab by w_a + w_b, written out apart from
    diagonal_conjugate."""

    def scaled(key, w):
        key = list(key)
        key[slot] += sign * w
        return Poly(QQ, flavor, {tuple(key): QQ.one()})

    g = flavor.main_count
    slots = [scaled(flavor.gen_key(s), weights[s]) for s in range(g)]
    if flavor.has_h:
        slots.append(scaled(flavor.h_key(), weights[g]))
    slots.extend(
        scaled(flavor.k_key(a, b), weights[a] + weights[b]) for a, b in flavor.k_pairs
    )
    return Endo.from_slots("P", flavor, QQ, slots)


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

    slots = Endo.identity("P", flavor, QQ).slots
    for s in range(flavor.main_count):
        slots[s] = noisy(flavor.gen_key(s))
    for s, (a, b) in enumerate(flavor.k_pairs, flavor.k_start):
        slots[s] = noisy(flavor.k_key(a, b))
    return Endo.from_slots("P", flavor, QQ, slots)


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
        got = diagonal_conjugate(phi, flavor.t_slot, weights)
        assert got == _conjugated(phi, flavor.t_slot, weights)
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
    assert [str(img) for img in out.slots] == ["xi1 + xi2*k1_2", "xi2", "h", "k1_2"]
    assert out == _conjugated(phi, skew.h_slot, (2, 0, 0))


def test_diagonal_conjugate_guards():
    hfl = BracketFlavor("haug", 1)
    e = Endo.identity("P", hfl, QQ)
    with pytest.raises(DimensionMismatch):
        diagonal_conjugate(e, hfl.t_slot, (1, 1))
    with pytest.raises(WeyliftError):
        diagonal_conjugate(e, hfl.h_slot, (1, 1, 1))
    assert diagonal_conjugate(e, hfl.t_slot, (1, 1, 2)) == e
