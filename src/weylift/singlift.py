"""Curve conjugation, pole scanning, and the ordered-side lift.

A diagonal curve rescales generator i by t^(m_i); conjugating an
endomorphism and reading off negative t-exponents detects deviations
below a target height.  Members of H_N stay pole-free under every
curve of order at most N, and a deviation at height under N is exposed
by a witness curve concentrating weight at one position, possibly
after a general-position change mixing that position into the
auxiliary pair.

The lift pipeline runs the commutative staged approximation, rereads
the word on the ordered side, and certifies the result: coefficient
stabilization between consecutive approximation orders, agreement
with the fixed-prime center morphism, canonicity under a different
corrector ordering, and the commutation table.
"""

from __future__ import annotations

import random
from itertools import chain
from operator import le as _le, mul as _mul

from .approx import approximate_both, stage_prefix
from .charp import phi_p, phi_p_along_word
from .endo import (
    Endo,
    bracket_violations,
    diagonal_conjugate,
    element_class,
)
from .errors import (
    ExpansionBoundExceeded,
    IndexOutOfRange,
    NotPIntegral,
    SideMismatch,
    StabilizationFailure,
    WeyliftError,
)
from .fields import Field
from .flavors import HAUG, STANDARD, BracketFlavor
from .linalg import identity_matrix
from .poly import Poly, poisson_bracket
from .tame import SP, TameWord, evaluate

STABILIZATION_MARGIN = 2


class DiagonalCurve:
    """Weights m_i >= 1; generator i is rescaled by t^(m_i)."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        weights = tuple(int(m) for m in weights)
        if not weights or any(m < 1 for m in weights):
            raise WeyliftError("curve weights must be positive integers")
        self.weights = weights

    def order(self):
        return max(self.weights) // min(self.weights)

    def __repr__(self):
        return f"DiagonalCurve{self.weights}"

    def __eq__(self, other):
        if not isinstance(other, DiagonalCurve):
            return NotImplemented
        return self.weights == other.weights

    def __hash__(self):
        return hash(self.weights)


def conjugate_by_curve(endo, curve):
    """Exact Laurent conjugate by g_i -> t^(m_i) g_i (endo.diagonal_conjugate):
    a monomial with main exponents l in the image of generator i picks up
    t^(sum m_j l_j + k-weights - m_i)."""
    flavor = endo.flavor
    weights = curve.weights + (0,) * flavor.has_h
    return diagonal_conjugate(endo, flavor.t_slot, weights)


def pole_order(endo):
    """Largest pole at t = 0 across every image; 0 when regular."""
    worst = 0
    for img in endo.slots:
        worst = max(worst, -img.min_t_exponent())
    return worst


def position_reduction(endo, pos, lam, delta):
    """Conjugate by the change g_pos -> g_pos + lam u + delta v.

    Needs the flavor with the auxiliary pair; on skew flavors the k
    images are recomputed from the bracket so the change stays
    bracket-preserving.
    """
    flavor, field = endo.flavor, endo.field
    if not flavor.aux:
        raise WeyliftError("position reduction needs the auxiliary pair")
    if endo.side != "P":
        raise SideMismatch("position reduction acts on the commutative side")
    g = flavor.main_count
    if flavor.paired:
        u_slot, v_slot = flavor.pairs - 1, 2 * flavor.pairs - 1
    else:
        u_slot, v_slot = g - 2, g - 1
    if pos in (u_slot, v_slot) or not 0 <= pos < g:
        raise IndexOutOfRange(f"position {pos} is not a reducible generator")

    def build(sign):
        slots = Endo.identity("P", flavor, field).slots
        extra = slots[u_slot].scale(field.from_int(sign * lam)) + slots[v_slot].scale(
            field.from_int(sign * delta)
        )
        slots[pos] = slots[pos] + extra
        for s, (a, b) in enumerate(flavor.k_pairs, flavor.k_start):
            slots[s] = poisson_bracket(slots[a], slots[b]).shift_h(-1)
        return Endo.from_slots("P", flavor, field, slots)

    fwd, back = build(1), build(-1)
    return fwd.compose(endo).compose(back)


def _witness_row(g, n, pos, m2):
    """Weight lists of the witness row (pos, m2): every weight m2 but the
    one at pos, which runs over n m2 <= m1 < (n+1) m2."""
    for m1 in range(n * m2, (n + 1) * m2):
        weights = [m2] * g
        weights[pos] = m1
        yield weights


def _minimal_supports(endo):
    """Each slot image's componentwise-minimal exponent keys, in slot order.

    Under a curve every slot weighs >= 0 and t weighs 1, so a key that
    dominates another never reaches the smaller t exponent: the minimal
    keys alone decide whether the conjugate has a pole.  A dominating key
    sorts after the key it dominates, so one sorted pass keeps the
    minimal ones.
    """
    supports = []
    for img in endo.slots:
        kept = []
        for key in sorted(img.terms):
            if not any(all(map(_le, low, key)) for low in kept):
                kept.append(key)
        supports.append(kept)
    return supports


def _pole_forms(flavor, supports):
    """The t exponents of the support keys under a curve, as linear forms
    (coefficients, constant) in the main weights, without repeats.

    A key e in the image of slot s moves to t exponent
    sum_j full_j e_j - full_s (endo.diagonal_conjugate), where full holds
    the curve weights, 0 for h, w_a + w_b for each k_ab and 1 for t.
    """
    g, k_start = flavor.main_count, flavor.k_start
    forms = set()
    for s, keys in enumerate(supports):
        for key in keys:
            coeffs = list(key[:g])
            for (a, b), e in zip(flavor.k_pairs, key[k_start:flavor.t_slot]):
                coeffs[a] += e
                coeffs[b] += e
            if s < g:
                coeffs[s] -= 1
            elif s >= k_start:
                a, b = flavor.k_pairs[s - k_start]
                coeffs[a] -= 1
                coeffs[b] -= 1
            forms.add((tuple(coeffs), key[flavor.t_slot]))
    return list(forms)


def _has_pole(forms, weights):
    """pole_order(conjugate_by_curve(endo, DiagonalCurve(weights))) > 0,
    read off the endo's _pole_forms without building the conjugate."""
    return any(sum(map(_mul, coeffs, weights)) < -const for coeffs, const in forms)


def _corner_lines(forms, spans):
    """Each form's least value on a box, as a line a*m + b in the box's size m.

    The box holds the weights with low_i(m) <= w_i <= high_i(m), where
    spans[i] = (low_i, high_i) and each end is a line (slope, intercept).
    A form is least at the corner that puts w_i at its low end when its
    coefficient is positive and at its high end when it is negative.
    """
    lines = []
    for coeffs, const in forms:
        a, b = 0, const
        for c, (low, high) in zip(coeffs, spans):
            slope, intercept = low if c > 0 else high
            a += c * slope
            b += c * intercept
        lines.append((a, b))
    return lines


def _box_spans(g, n):
    """The box m <= w_i <= (n+1)m - 1 of the curves of order at most n whose
    least weight is m."""
    return [((1, 0), (n + 1, -1))] * g


def _row_spans(g, n, pos):
    """The witness row (pos, m) as a box: w_pos from n m to (n+1)m - 1,
    every other weight m."""
    spans = [((1, 0), (1, 0))] * g
    spans[pos] = ((n, 0), (n + 1, -1))
    return spans


def _open_sizes(lines, top):
    """The sizes m in 1..top at which some line a*m + b is negative, in
    increasing order.  Each line is negative on a half-line of m, so they
    make a prefix 1..lo and a suffix hi..top."""
    lo, hi = 0, top + 1
    for a, b in lines:
        if a > 0:
            lo = max(lo, (-b - 1) // a)
        elif a < 0:
            hi = min(hi, b // -a + 1)
        elif b < 0:
            lo = top
    lo = min(lo, top)
    return chain(range(1, lo + 1), range(max(hi, lo + 1), top + 1))


def _first_pole_row(forms, g, n, pos):
    """The first witness curve at pos with a pole, or None.

    The low corner of a row is a curve of the row, so the corner test
    decides the row exactly and the first open row holds the first pole.
    """
    m2 = next(_open_sizes(_corner_lines(forms, _row_spans(g, n, pos)), n + 1), None)
    if m2 is None:
        return None
    return next(w for w in _witness_row(g, n, pos, m2) if _has_pole(forms, w))


class ScanVerdict:
    """Outcome of hn_scan: consistent, or a pole witness."""

    __slots__ = ("kind", "curve", "reduction")

    def __init__(self, kind, curve=None, reduction=None):
        self.kind = kind
        self.curve = curve
        self.reduction = reduction

    @property
    def consistent(self):
        return self.kind == "consistent"

    def __repr__(self):
        if self.consistent:
            return "ScanVerdict(consistent)"
        extra = f", reduction={self.reduction}" if self.reduction else ""
        return f"ScanVerdict(pole, {self.curve}{extra})"


#: (lam, delta) choices tried, in order, for the general-position change.
_REDUCTION_PAIRS = [
    (1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3), (3, 2), (2, 3), (3, 3)
]


def _special_positions(endo):
    """Generators whose own deviation monomials all contain themselves."""
    out = []
    for i, img in enumerate(endo.images):
        dev = img - Poly.generator(endo.field, endo.flavor, i)
        if dev.is_zero:
            continue
        if all(key[i] > 0 for key in dev.terms):
            out.append(i)
    return out


def hn_scan(endo, n, sample_curves=0, seed=0):
    """Look for a pole under curves of order at most n.

    Walks the deterministic witness family (every position, every
    (m_1, m_2) with m_2 <= n+1 and n m_2 <= m_1 < (n+1) m_2, so the
    order stays at most n), retries special positions after a
    general-position change when the flavor has the auxiliary pair,
    then tries sample_curves random curves.  Each endo's minimal keys
    become linear forms in the curve weights (_pole_forms), and boxes
    and rows of curves are decided at their corners first: a witness row
    is walked only when its low corner has a pole, and the random curves
    are drawn only when the box m <= w_i <= (n+1)m - 1 of some least
    weight m in 1..3 has a pole at its low corner.  Verdicts, witness
    curves and the draws made are those of the plain curve-by-curve walk.
    """
    if n < 1:
        raise WeyliftError(f"the pole scan needs an order of at least 1, got {n}")
    if sample_curves < 0:
        raise WeyliftError(f"sample count must be at least 0, got {sample_curves}")
    flavor = endo.flavor
    g = flavor.main_count
    forms = _pole_forms(flavor, _minimal_supports(endo))
    for pos in range(g):
        weights = _first_pole_row(forms, g, n, pos)
        if weights is not None:
            return ScanVerdict("pole", DiagonalCurve(weights))
    if flavor.aux and endo.side == "P":
        for pos in _special_positions(endo):
            reduced = None
            chosen = None
            for lam, delta in _REDUCTION_PAIRS:
                try:
                    cand = position_reduction(endo, pos, lam, delta)
                except WeyliftError:
                    break
                if pos not in _special_positions(cand):
                    reduced = cand
                    chosen = (pos, lam, delta)
                    break
            if reduced is None:
                continue
            reduced_forms = _pole_forms(flavor, _minimal_supports(reduced))
            weights = _first_pole_row(reduced_forms, g, n, pos)
            if weights is not None:
                return ScanVerdict("pole", DiagonalCurve(weights), chosen)
    open_boxes = set(_open_sizes(_corner_lines(forms, _box_spans(g, n)), 3))
    if not open_boxes:
        return ScanVerdict("consistent")
    rng = random.Random(seed)
    for _ in range(sample_curves):
        m_min = rng.randrange(1, 4)
        weights = [rng.randrange(m_min, (n + 1) * m_min) for _ in range(g)]
        weights[rng.randrange(g)] = m_min
        if m_min in open_boxes and _has_pole(forms, weights):
            return ScanVerdict("pole", DiagonalCurve(weights))
    return ScanVerdict("consistent")


def _sigma_mod_p(sigma, word, fp):
    """sigma over F_p when sigma and the word are p-integral, else None."""
    if any(
        v.denominator % fp.p == 0
        for gen in word.gens
        for v in (chain(*gen.data) if gen.kind == SP else gen.data[1].values())
    ):
        return None
    try:
        return sigma.map_coefficients(fp.from_fraction, fp)
    except NotPIntegral:
        return None


def lifted_commutation_check(images, flavor):
    """The commutator table of ordered images (endo.bracket_violations)."""
    endo = Endo("W", flavor, images[0].field, images)
    violations = bracket_violations(endo)
    return {"ok": not violations, "violations": violations}


def lift(sigma, n, primes=()):
    """Ordered-side lift of a commutative symplectomorphism, with receipts.

    Returns (lifted, certificate).  The lifted endo is the exact
    ordered (W-side) evaluation of the approximation word, so
    certificate["representation"] is "exact".  One walk
    (approx.approximate_both) gives the word and its alternate.  The
    steps record stabilization between orders n-1 and n, canonicity under
    the alternate corrector ordering, the commutation table, and each
    prime against the center morphism; each writes its entries and
    returns its verdict, and certificate["pass"] is their conjunction.
    """
    flavor, field = sigma.flavor, sigma.field
    if flavor.kind != STANDARD or flavor.aux:
        raise WeyliftError("lift expects the plain paired flavor")
    if n < 2:
        raise WeyliftError("lift needs a target order of at least 2")
    if sigma.side != "P":
        raise SideMismatch("symplecto check applies to the commutative side")
    # approximate_both checks sigma once, by check_symplecto alone.
    (word, report), (word_alt, _) = approximate_both(sigma, n)
    if sigma.linear_part() != identity_matrix(field, flavor.main_count):
        raise WeyliftError(
            "lift expects identity linear part; peel it with a tame word"
        )
    certificate = {"order": n, "word_length": len(word), "stages": report["stages"]}
    trunc_n = _stabilization(certificate, sigma, word, report, n)
    ok = _canonicity(certificate, trunc_n, word, word_alt, n)
    exact = evaluate(word, "W", flavor, field)
    certificate["representation"] = "exact"
    ok = _commutation(certificate, exact) and ok
    certificate["primes"] = {}
    # Reduction mod p commutes with evaluating a p-integral word, so the
    # evaluation over Q, made at the first such prime, serves every prime.
    ev_q = None
    for p in primes:
        fp = Field("Fp", p)
        sigma_p = _sigma_mod_p(sigma, word, fp)
        if sigma_p is not None and ev_q is None:
            ev_q = evaluate(word, "P", flavor, field, maxdeg=n - 1)
        entry = certificate["primes"][str(p)] = {}
        ok = _prime(entry, fp, sigma_p, ev_q, exact, word, n) and ok
    certificate["pass"] = ok
    return exact, certificate


def _truncated(word, n, field, start=None):
    """The haug W evaluation of word to graded degree n."""
    return evaluate(word, "W", BracketFlavor(HAUG, word.n), field, maxdeg=n, start=start)


def _stabilization(certificate, sigma, word, report, n):
    """The order-n truncated haug lift of word.  From n = 3 on, it continues
    the lift of the order n-1 prefix and must agree with it at heights up
    to stable_height, or StabilizationFailure is raised."""
    deg_sigma = max(img.degree() for img in sigma.images)
    stable_height = max(1, min(n - 2, 2 * deg_sigma + STABILIZATION_MARGIN))
    certificate["stable_height"] = stable_height
    if n < 3:
        certificate["stabilization"] = "trivial"
        return _truncated(word, n, sigma.field)
    prefix = stage_prefix(word, report, n - 1)
    trunc_prev = _truncated(prefix, n, sigma.field)
    rest = TameWord(word.kind, word.n, word.gens[len(prefix) :])
    trunc_n = _truncated(rest, n, sigma.field, start=trunc_prev)
    witness = _first_difference(trunc_n.images, trunc_prev.images, stable_height)
    if witness is not None:
        raise StabilizationFailure(
            f"lifted coefficients at heights up to {stable_height} changed "
            f"between orders {n - 1} and {n}: image {witness['image']} "
            f"first differs at height {witness['height']}"
        )
    certificate["stabilization"] = "pass"
    return trunc_n


def _canonicity(certificate, trunc_n, word, word_alt, n):
    """Whether the alternate word lifts as word does (trunc_n) at heights
    up to n - 1."""
    trunc_alt = trunc_n if word_alt == word else _truncated(word_alt, n, trunc_n.field)
    witness = _first_difference(trunc_n.images, trunc_alt.images, n - 1)
    certificate["canonicity"] = "pass" if witness is None else "fail"
    if witness is not None:
        certificate["canonicity_witness"] = witness
    return witness is None


def _commutation(certificate, exact):
    """Whether the exact lift keeps every commutator of the Weyl algebra."""
    violations = lifted_commutation_check(exact.images, exact.flavor)["violations"]
    certificate["commutation_violations"] = len(violations)
    certificate["commutation"] = "fail" if violations else "pass"
    if violations:
        certificate["commutation_witness"] = list(violations[0][:2])
    return not violations


def _prime(entry, fp, sigma_p, ev_q, exact, word, n):
    """Whether prime fp passes: inapplicable without sigma_p (sigma mod p);
    else ev_q, the P evaluation to order n - 1, reduces to sigma_p, and
    phi_p of the exact lift is sigma_p ("exact") or the center morphism
    along the word ("fixture_match"), unless it is past the bound."""
    if sigma_p is None:
        entry["status"] = "inapplicable_not_p_integral"
        return True
    ev_p = [img.map_coefficients(fp.from_fraction, fp) for img in ev_q.images]
    target_p = [img.truncate(n - 1) for img in sigma_p.images]
    consistent = ev_p == target_p
    entry["reduction_consistency"] = "pass" if consistent else "fail"
    if not consistent:
        entry["reduction_witness"] = _first_difference(ev_p, target_p, n - 1)
    try:
        center = phi_p(exact, fp)
        # The center flavor has the key layout of sigma's flavor.
        same = [img.terms for img in center.images] == [img.terms for img in sigma_p.images]
        expected = center if same else phi_p_along_word(word, exact.flavor, fp)
    except ExpansionBoundExceeded:
        entry["status"] = "skipped_expansion_budget"
        return consistent
    if not same and center != expected:
        entry["status"] = "mismatch"
        image = next(i for i, (x, y) in enumerate(zip(center.slots, expected.slots)) if x != y)
        entry["mismatch_witness"] = {"image": image}
        return False
    entry["status"] = "exact" if same else "fixture_match"
    return consistent


def _first_difference(a, b, height):
    """{"image": i, "height": h} for the first i where the image lists a
    and b differ at graded heights up to height, h the lowest such; else
    None."""
    for i, (x, y) in enumerate(zip(a, b)):
        diff = (x - y).truncate(height)
        if not diff.is_zero:
            return {"image": i, "height": diff.height()}
    return None


def extend_to_aux(endo):
    """Reread an endo on the flavor extended by the aux pair, fixing u, v."""
    flavor = endo.flavor
    if not flavor.paired:
        raise WeyliftError("only paired flavors extend by the stable pair")
    target = flavor.extended()
    field = endo.field
    cls = element_class(endo.side)
    n = flavor.pairs

    def widen(img):
        out = cls(field, target)
        terms = {}
        for key, c in img.terms.items():
            main = flavor.main_exponents(key)
            new_main = main[:n] + (0,) + main[n:] + (0,)
            terms[new_main + key[flavor.main_count :]] = c
        out.terms = terms
        return out

    slots = [widen(img) for img in endo.slots]
    u_img = cls.generator(field, target, n)
    v_img = cls.generator(field, target, 2 * n + 1)
    slots = [*slots[:n], u_img, *slots[n : 2 * n], v_img, *slots[2 * n :]]
    return Endo.from_slots(endo.side, target, field, slots)
