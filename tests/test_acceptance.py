"""End-to-end suite: one test per headline property of the pipeline.

Run with -v to get a one-line verdict per block.  The randomized blocks
are deterministic (fixed seeds) and sized to finish within the stated
budgets on a laptop-class machine.
"""

import json
import random
import time
from fractions import Fraction
from functools import lru_cache

from oracles import endo_rank, oracle_mul, oracle_power, random_poly
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
from weylift.charp import center_bracket, phi_p
from weylift.cli import run_command
from weylift.errors import NotPIntegral
from weylift.flavors import HAUG, SKEW, STANDARD
from weylift.grammar import element_to_text
from weylift.serialize import dump_json, endo_to_json
from weylift.singlift import extend_to_aux, hn_scan, lift, lifted_commutation_check
from weylift.tame import ElementaryGen, TameWord, evaluate, random_tame
from weylift.approx import approximate
from weylift.weyl import WeylElt, center_coordinates


def _sp_embed(n, pair, m, lower):
    # one elementary shear inside a single pair, identity elsewhere
    g = 2 * n
    mat = [[Fraction(int(r == s)) for s in range(g)] for r in range(g)]
    if lower:
        mat[n + pair][pair] = Fraction(m)
    else:
        mat[pair][n + pair] = Fraction(m)
    return mat


@lru_cache(maxsize=1)
def _corpus():
    """Fifty deterministic tame words with their commutative evaluations.

    Letters are one-variable shifts, at most four per word, with all
    shifts on a given pair acting on the same side.  Such compositions
    never multiply degrees, every corrector stage decomposes into a
    tie-break independent term set, and all data stays 3- and
    5-integral, which keeps the downstream certificates exact.
    """
    entries = []
    for idx in range(50):
        n = 1 if idx % 2 == 0 else 2
        rng = random.Random(1000 + idx)
        sides = {i: rng.choice(("xshift", "pshift")) for i in range(n)}
        gens = []
        for _ in range(rng.randrange(1, 5)):
            i = rng.randrange(n)
            top = rng.choice((2, 2, 3))
            poly = {top: Fraction(rng.choice((-2, -1, 1, 2)))}
            if top == 3 and rng.random() < 0.4:
                poly[2] = Fraction(rng.choice((-1, 1)))
            gens.append(ElementaryGen(sides[i], (i, poly)))
        if idx % 10 == 9:
            # conjugate by a shear that fixes the shifted side's variable
            gens = gens[:2]
            pair = gens[0].data[0]
            m = rng.choice((-1, 1))
            lower = sides[pair] == "pshift"
            gens = (
                [ElementaryGen("sp", _sp_embed(n, pair, m, lower))]
                + gens
                + [ElementaryGen("sp", _sp_embed(n, pair, -m, lower))]
            )
        word = TameWord("symplectic", n, gens)
        flavor = BracketFlavor(STANDARD, n)
        sigma = evaluate(word, "P", flavor, QQ)
        entries.append((n, word, flavor, sigma))
    return entries


def _shift_word(n, letters):
    gens = [ElementaryGen(k, (i, {d: Fraction(c)})) for k, i, d, c in letters]
    return TameWord("symplectic", n, gens)


def test_01_bracket_laws_and_weyl_normal_form():
    start = time.monotonic()
    rng = random.Random(11)
    flavors = [BracketFlavor(STANDARD, 2), BracketFlavor(HAUG, 1), BracketFlavor(SKEW, 1)]
    for flavor in flavors:
        for _ in range(170):
            a = random_poly(rng, QQ, flavor, max_terms=3, max_deg=4)
            b = random_poly(rng, QQ, flavor, max_terms=3, max_deg=4)
            c = random_poly(rng, QQ, flavor, max_terms=3, max_deg=4)
            ab = poisson_bracket(a, b)
            assert ab == -poisson_bracket(b, a)
            assert poisson_bracket(a, b * c) == ab * c + b * poisson_bracket(a, c)
            jac = (
                poisson_bracket(a, poisson_bracket(b, c))
                + poisson_bracket(b, poisson_bracket(c, a))
                + poisson_bracket(c, poisson_bracket(a, b))
            )
            assert jac.is_zero

    weyl_flavors = [
        BracketFlavor(STANDARD, 1),
        BracketFlavor(STANDARD, 2),
        BracketFlavor(HAUG, 1),
        BracketFlavor(SKEW, 1),
    ]
    for i in range(500):
        flavor = weyl_flavors[i % 4]
        a = random_poly(rng, QQ, flavor, cls=WeylElt, max_terms=2, max_deg=4)
        b = random_poly(rng, QQ, flavor, cls=WeylElt, max_terms=2, max_deg=4)
        # closed-form reordering lands on the same normal form as
        # exhaustive one-step rewriting, so the normal form is unique
        assert a * b == oracle_mul(a, b)
    for i in range(500):
        flavor = weyl_flavors[i % 4]
        a = random_poly(rng, QQ, flavor, cls=WeylElt, max_terms=2, max_deg=3)
        b = random_poly(rng, QQ, flavor, cls=WeylElt, max_terms=2, max_deg=3)
        c = random_poly(rng, QQ, flavor, cls=WeylElt, max_terms=2, max_deg=3)
        assert (a * b) * c == a * (b * c)

    for flavor in (BracketFlavor(STANDARD, 1), BracketFlavor(HAUG, 1), BracketFlavor(SKEW, 1)):
        hi = WeylElt.generator(QQ, flavor, flavor.main_count - 1)
        lo = WeylElt.generator(QQ, flavor, 0)
        for b in range(7):
            for c in range(7):
                left = hi ** b if b else WeylElt.one(QQ, flavor)
                right = lo ** c if c else WeylElt.one(QQ, flavor)
                assert left * right == oracle_mul(left, right)
    assert time.monotonic() - start < 60.0


def test_02_center_bracket_is_standard():
    for p in (2, 3, 5):
        field = Field("Fp", p)
        for n in (1, 2):
            center = BracketFlavor(STANDARD, n).center_flavor()
            for i in range(n):
                wi = Poly.generator(field, center, n + i)
                for j in range(n):
                    zj = Poly.generator(field, center, j)
                    want = Poly.one(field, center) if i == j else Poly.zero(field, center)
                    assert center_bracket(wi, zj) == want
                    assert center_bracket(zj, wi) == -want
                    assert center_bracket(zj, Poly.generator(field, center, j)).is_zero

    rng = random.Random(23)
    pairs = 0
    while pairs < 200:
        p = (2, 3, 5)[pairs % 3]
        n = 1 if pairs % 2 == 0 else 2
        field = Field("Fp", p)
        center = BracketFlavor(STANDARD, n).center_flavor()
        a = random_poly(rng, field, center, max_terms=3, max_deg=3)
        b = random_poly(rng, field, center, max_terms=3, max_deg=3)
        # the p-divisibility guard stays silent on central inputs
        assert center_bracket(a, b) == -center_bracket(b, a)
        pairs += 1

    lifts_checked = 0
    while lifts_checked < 50:
        p = (2, 3)[lifts_checked % 2]
        field = Field("Fp", p)
        center = BracketFlavor(STANDARD, 1).center_flavor()
        a = random_poly(rng, field, center, max_terms=2, max_deg=2)
        b = random_poly(rng, field, center, max_terms=2, max_deg=2)
        if a.is_zero or b.is_zero:
            continue
        ka = next(iter(a.terms))
        kb = next(iter(b.terms))
        plain = center_bracket(a, b)
        shifted = center_bracket(a, b, shifts=({ka: 1 + lifts_checked % 3}, {kb: 2}))
        assert plain == shifted
        lifts_checked += 1


def test_03_fixed_prime_restriction_fixtures():
    fl = BracketFlavor(STANDARD, 1)
    x = WeylElt.generator(QQ, fl, 0)
    d = WeylElt.generator(QQ, fl, 1)
    fixtures = [
        (x + d, 2, ["z1 + w1 + 1", "w1"]),
        (x + d, 3, ["z1 + w1", "w1"]),
        (x + d * d, 3, ["w1^2 + z1 + 2", "w1"]),
        (x + d * d, 5, ["w1^2 + z1", "w1"]),
    ]
    for ximg, p, want in fixtures:
        field = Field("Fp", p)
        endo = Endo(
            "W",
            fl,
            field,
            [ximg.map_coefficients(field.from_fraction, field),
             d.map_coefficients(field.from_fraction, field)],
        )
        got = phi_p(endo)
        assert [str(img) for img in got.images] == want
        # cross-check each image against p-th powers built by plain
        # repeated multiplication
        for img, text in zip(endo.images, want):
            brute = center_coordinates(oracle_power(img, p))
            assert str(brute) == text

    for p in (5, 7):
        field = Field("Fp", p)
        for n in (1, 2):
            fl_n = BracketFlavor(STANDARD, n)
            center = fl_n.center_flavor()
            degrees = range(2, p - 1) if n == 1 else range(2, 4)
            for kind in ("xshift", "pshift"):
                for i in range(n):
                    for deg in degrees:
                        word = _shift_word(n, [(kind, i, deg, 1)])
                        ordered = evaluate(word, "W", fl_n, field)
                        got = phi_p(ordered)
                        want = evaluate(word, "P", center, field)
                        assert [str(a) for a in got.images] == [
                            str(b) for b in want.images
                        ], (p, n, kind, i, deg)


def test_04_fixed_prime_restriction_is_homomorphic():
    start = time.monotonic()
    done = 0
    seed = 0
    while done < 100:
        p = 3 if done % 2 == 0 else 5
        n = 1 if done % 3 else 2
        cap = 9 if n == 1 else 6
        field = Field("Fp", p)
        flavor = BracketFlavor(STANDARD, n)
        try:
            first = random_tame(n, 2, 3, seed=seed)
            second = random_tame(n, 2, 3, seed=seed + 1)
            seed += 2
            a = evaluate(first, "W", flavor, field)
            b = evaluate(second, "W", flavor, field)
        except NotPIntegral:
            seed += 2
            continue
        if max(im.degree() for im in a.images) * max(im.degree() for im in b.images) > cap:
            continue
        lhs = phi_p(a.compose(b))
        rhs = phi_p(a).compose(phi_p(b))
        assert [str(f) for f in lhs.images] == [str(g) for g in rhs.images], seed
        check_symplecto(lhs)
        done += 1
    assert time.monotonic() - start < 600.0


def test_05_tame_approximation_corpus():
    for n, word, flavor, sigma in _corpus():
        approx_word, report = approximate(sigma, 6)
        height = report["residual_height"]
        assert height is None or height >= 6, (word, report)
        # Only the stages that did work are listed, each with its letters.
        assert set(report["stages"]) <= {2, 3, 4, 5} and all(report["stages"].values())
        assert report["letters"].keys() == report["stages"].keys()
        # progress is monotone: the order-4 word already matches below 4,
        # the order-6 word matches below 6
        for order, w in ((4, approximate(sigma, 4)[0]), (6, approx_word)):
            got = evaluate(w, "P", flavor, QQ)
            for a, b in zip(got.images, sigma.images):
                assert (a - b).truncate(order - 1).is_zero, (word, order)


def test_06_pole_scan_separates_rank_classes():
    consistent = 0
    for idx in range(100):
        big = 1 + idx % 3
        rng = random.Random(7000 + idx)
        n = 1 if idx % 2 == 0 else 2
        sides = {i: rng.choice(("xshift", "pshift")) for i in range(n)}
        letters = []
        for _ in range(rng.randrange(1, 3)):
            i = rng.randrange(n)
            deg = rng.randrange(big + 1, big + 3)
            letters.append((sides[i], i, deg, rng.choice((-2, -1, 1, 2))))
        sigma = evaluate(_shift_word(n, letters), "P", BracketFlavor(STANDARD, n), QQ)
        assert endo_rank(sigma) >= big + 1
        verdict = hn_scan(sigma, big, sample_curves=200, seed=idx)
        assert verdict.consistent, (idx, big, verdict.kind)
        consistent += 1
    assert consistent == 100

    witnessed = 0
    for idx in range(100):
        big = 1 + idx % 3
        rng = random.Random(9000 + idx)
        n = 1 if idx % 2 == 0 else 2
        flavor = BracketFlavor(STANDARD, n)
        if big == 1:
            ident = Endo.identity("P", flavor, QQ)
            images = list(ident.images)
            j = rng.randrange(n)
            images[j] = images[j] + ident.images[n + j]
            sigma = Endo("P", flavor, QQ, images)
        else:
            side = rng.choice(("xshift", "pshift"))
            letters = [(side, rng.randrange(n), rng.randrange(2, big + 1), rng.choice((-2, -1, 1, 2)))]
            sigma = evaluate(_shift_word(n, letters), "P", flavor, QQ)
        assert endo_rank(sigma) <= big
        verdict = hn_scan(extend_to_aux(sigma), big, sample_curves=0, seed=idx)
        assert not verdict.consistent, (idx, big)
        weights = verdict.curve.weights
        m1, m2 = max(weights), min(weights)
        assert (big + 1) * m2 >= m1 >= big * m2, (idx, big, weights)
        witnessed += 1
    assert witnessed == 100


def test_07_ordered_lift_certificates():
    for n, word, flavor, sigma in _corpus():
        lifted, cert = lift(sigma, 6, primes=(3, 5))
        assert cert["pass"], (word, cert)
        assert cert["stabilization"] in ("pass", "trivial")
        assert cert["canonicity"] == "pass"
        assert cert["commutation"] == "pass"
        assert cert["representation"] == "exact"
        for p, entry in cert["primes"].items():
            assert entry["status"] in ("exact", "fixture_match"), (p, entry)
            assert entry["reduction_consistency"] == "pass"

        # the word read on the W side also closes the h-augmented relations
        # exactly, and setting h to one lands on the plain lift
        haug = BracketFlavor(HAUG, n)
        approx_word, _ = approximate(sigma, 6)
        ordered_h = evaluate(approx_word, "W", haug, QQ)
        table = lifted_commutation_check(ordered_h.images, haug)
        assert table["ok"], (word, table["violations"])
        specialized = ordered_h.specialize_h()
        assert [str(a) for a in specialized.images] == [str(b) for b in lifted.images]


def test_08_h_specialization_round_trip():
    for n, word, flavor, sigma in _corpus():
        haug = BracketFlavor(HAUG, n)
        with_h = evaluate(word, "W", haug, QQ)
        without_h = evaluate(word, "W", flavor, QQ)
        specialized = with_h.specialize_h()
        assert [str(a) for a in specialized.images] == [
            str(b) for b in without_h.images
        ], word


def test_09_cli_round_trip_and_reproducibility(tmp_path):
    for n, word, flavor, sigma in _corpus():
        for img in sigma.images:
            text = element_to_text(img, "P")
            back = parse_element(text, QQ, flavor, "P")
            assert back == img
            assert element_to_text(back, "P") == text
        ordered = evaluate(word, "W", flavor, QQ)
        for img in ordered.images:
            text = element_to_text(img, "W")
            back = parse_element(text, QQ, flavor, "W", cls=WeylElt)
            assert back == img
            assert element_to_text(back, "W") == text

    args = ["corpus", "--seed", "11", "--count", "50", "--n", "1", "--length", "3", "--maxdeg", "2"]
    first, code1 = run_command(args)
    second, code2 = run_command(args)
    assert code1 == 0 and code2 == 0
    for rep in (first, second):
        rep.pop("timing_ms")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    other, _ = run_command(["corpus", "--seed", "12", "--count", "50", "--n", "1", "--length", "3", "--maxdeg", "2"])
    other.pop("timing_ms")
    assert json.dumps(first, sort_keys=True) != json.dumps(other, sort_keys=True)

    for k, (n, word, flavor, sigma) in enumerate(_corpus()[:5]):
        path = tmp_path / f"endo_{k}.json"
        dump_json(endo_to_json(sigma), str(path))
        report, code = run_command(["check", "--in", str(path)])
        assert code == 0 and report["result"]["symplecto"] is True
        report, code = run_command(["invert", "--in", str(path), "--order", "6"])
        assert code == 0
        for text in report["result"]["endo"]["images"]:
            parse_element(text, QQ, flavor, "P")
