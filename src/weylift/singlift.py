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
from fractions import Fraction

from .approx import approximate, stage_prefix
from .charp import phi_p
from .endo import (
    Endo,
    bracket_violations,
    check_symplecto,
    diagonal_conjugate,
    jacobian_is_unit,
    truncated_inverse,
)
from .errors import (
    ExpansionBoundExceeded,
    IndexOutOfRange,
    InsufficientK,
    SideMismatch,
    StabilizationFailure,
    WeyliftError,
)
from .fields import Field
from .flavors import HAUG, STANDARD, BracketFlavor
from .poly import Poly, poisson_bracket
from .tame import LIN, SP, TameWord, evaluate, gen_endo, transport

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
    for img in endo.all_images():
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
        images = [Poly.generator(field, flavor, i) for i in range(g)]
        extra = Poly.generator(field, flavor, u_slot).scale(
            field.from_int(sign * lam)
        ) + Poly.generator(field, flavor, v_slot).scale(field.from_int(sign * delta))
        images[pos] = images[pos] + extra
        k_images = None
        if flavor.has_k:
            k_images = [
                poisson_bracket(images[a], images[b]).shift_h(-1)
                for a, b in flavor.k_pairs
            ]
        return Endo("P", flavor, field, images, None, k_images)

    fwd, back = build(1), build(-1)
    return fwd.compose(endo).compose(back)


def _witness_curves(flavor, n, pos):
    g = flavor.main_count
    for m2 in range(1, n + 2):
        for m1 in range(n * m2, (n + 1) * m2):
            if m1 < m2:
                continue
            weights = [m2] * g
            weights[pos] = m1
            yield DiagonalCurve(weights)


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
    then tries sample_curves random curves.
    """
    flavor = endo.flavor
    g = flavor.main_count
    for pos in range(g):
        for curve in _witness_curves(flavor, n, pos):
            if pole_order(conjugate_by_curve(endo, curve)) > 0:
                return ScanVerdict("pole", curve)
    if flavor.aux and endo.side == "P":
        for pos in _special_positions(endo):
            reduced = None
            chosen = None
            for lam, delta in _REDUCTION_PAIRS:
                try:
                    cand = position_reduction(endo, pos, lam, delta)
                except (WeyliftError, IndexOutOfRange):
                    break
                if pos not in _special_positions(cand):
                    reduced = cand
                    chosen = (pos, lam, delta)
                    break
            if reduced is None:
                continue
            for curve in _witness_curves(flavor, n, pos):
                if pole_order(conjugate_by_curve(reduced, curve)) > 0:
                    return ScanVerdict("pole", curve, chosen)
    rng = random.Random(seed)
    for _ in range(sample_curves):
        m_min = rng.randrange(1, 4)
        weights = [rng.randrange(m_min, (n + 1) * m_min) for _ in range(g)]
        weights[rng.randrange(g)] = m_min
        curve = DiagonalCurve(weights)
        if curve.order() > n:
            continue
        if pole_order(conjugate_by_curve(endo, curve)) > 0:
            return ScanVerdict("pole", curve)
    return ScanVerdict("consistent")


def _word_is_p_integral(word, p):
    for gen in word.gens:
        if gen.kind in (SP, LIN):
            vals = [v for row in gen.data for v in row]
        else:
            vals = list(gen.data[1].values())
        for v in vals:
            if Fraction(v).denominator % p == 0:
                return False
    return True


def lifted_commutation_check(images, flavor):
    """The commutator table of ordered images (endo.bracket_violations)."""
    endo = Endo("W", flavor, images[0].field, images, allow_free_term=True)
    violations = bracket_violations(endo)
    return {"ok": not violations, "violations": violations}


def lift(sigma, n, primes=()):
    """Ordered-side lift of a commutative symplectomorphism, with receipts.

    Returns (lifted, certificate).  The lifted endo is the exact
    ordered evaluation of the transported approximation word when the
    expansion stays within budget, else a graded h-truncated
    evaluation; certificate["representation"] records which.  The
    certificate also records stabilization between orders n-1 and n
    (the order n-1 word is a prefix of the order-n word, see
    approx.stage_prefix), per-prime comparison against the center
    morphism, canonicity under the alternate corrector ordering, and
    the commutation table.
    """
    flavor, field = sigma.flavor, sigma.field
    if flavor.kind != STANDARD or flavor.aux:
        raise WeyliftError("lift expects the plain paired flavor")
    if n < 2:
        raise WeyliftError("lift needs a target order of at least 2")
    check_symplecto(sigma)
    jacobian_is_unit(sigma)
    lin = sigma.linear_part()
    for i, row in enumerate(lin):
        for j, v in enumerate(row):
            want = field.one() if i == j else field.zero()
            if not field.is_zero(field.sub(v, want)):
                raise WeyliftError(
                    "lift expects identity linear part; peel it with a tame word"
                )
    hflavor = BracketFlavor(HAUG, flavor.pairs)
    deg_sigma = max(img.degree() for img in sigma.images)
    stable_height = max(1, min(n - 2, 2 * deg_sigma + STABILIZATION_MARGIN))

    word, report = approximate(sigma, n)
    word_alt, _ = approximate(sigma, n, tie_break="alt")
    wword = transport(word)

    def truncated(gens, start=None):
        return evaluate(
            TameWord(wword.kind, wword.n, gens),
            "W",
            hflavor,
            field,
            maxdeg=n,
            start=start,
        )

    certificate = {
        "order": n,
        "word_length": len(word),
        "stages": report["stages"],
        "stable_height": stable_height,
    }

    if n >= 3:
        # The order n-1 word is a prefix: its evaluation continues into
        # the order-n one.
        cut = len(stage_prefix(word, report, n - 1))
        trunc_prev = truncated(wword.gens[:cut])
        trunc_n = truncated(wword.gens[cut:], start=trunc_prev)
        witness = _first_difference(trunc_n, trunc_prev, stable_height)
        certificate["stabilization"] = "pass" if witness is None else "fail"
        if witness is not None:
            raise StabilizationFailure(
                f"lifted coefficients at heights up to {stable_height} changed "
                f"between orders {n - 1} and {n}: image {witness['image']} "
                f"first differs at height {witness['height']}"
            )
    else:
        trunc_n = truncated(wword.gens)
        certificate["stabilization"] = "trivial"

    trunc_alt = truncated(word_alt.gens)
    witness = _first_difference(trunc_n, trunc_alt, n - 1)
    certificate["canonicity"] = "pass" if witness is None else "fail"
    if witness is not None:
        certificate["canonicity_witness"] = witness

    exact = None
    try:
        exact = evaluate(wword, "W", flavor, field)
        certificate["representation"] = "exact"
    except ExpansionBoundExceeded:
        certificate["representation"] = "truncated_haug"

    if exact is not None:
        comm = lifted_commutation_check(exact.images, flavor)
        certificate["commutation"] = "pass" if comm["ok"] else "fail"
        certificate["commutation_violations"] = len(comm["violations"])
    else:
        ok = not bracket_violations(trunc_n, n)
        certificate["commutation"] = "pass" if ok else "fail"

    certificate["primes"] = {}
    # Reduction mod p commutes with evaluating a p-integral word, so the
    # evaluations over Q serve every prime.
    ev_q = None
    for p in primes:
        fp = Field("Fp", p)
        entry = {}
        if not _word_is_p_integral(word, p):
            entry["status"] = "inapplicable_not_p_integral"
            certificate["primes"][str(p)] = entry
            continue
        if ev_q is None:
            ev_q = evaluate(wword, "P", flavor, field, maxdeg=n - 1)
        sigma_p = sigma.map_coefficients(fp.from_fraction, fp)
        ev_p = [img.map_coefficients(fp.from_fraction, fp) for img in ev_q.images]
        target_p = [img.truncate(n - 1) for img in sigma_p.images]
        entry["reduction_consistency"] = "pass" if ev_p == target_p else "fail"
        entry["status"] = _prime_status(exact, sigma_p, wword, flavor, fp)
        certificate["primes"][str(p)] = entry
    certificate["pass"] = (
        certificate["stabilization"] != "fail"
        and certificate["canonicity"] == "pass"
        and certificate["commutation"] == "pass"
        and all(
            e.get("status") != "mismatch"
            and e.get("reduction_consistency", "pass") == "pass"
            for e in certificate["primes"].values()
        )
    )
    return (exact if exact is not None else trunc_n), certificate


def _first_difference(a, b, height):
    """{"image": i, "height": h} for the first main image i where a and b
    differ at graded heights up to height, h the lowest such; else None."""
    for i, (x, y) in enumerate(zip(a.images, b.images)):
        diff = (x - y).truncate(height)
        if not diff.is_zero:
            return {"image": i, "height": diff.height()}
    return None


def _prime_status(exact, sigma_p, wword, flavor, fp):
    """Compare phi_p of the exact lift, reduced mod p, with sigma mod p."""
    if exact is None:
        return "skipped_expansion_budget"
    try:
        center = phi_p(exact, fp)
        if [_reflavor(img, flavor) for img in center.images] == sigma_p.images:
            return "exact"
        expected = _center_along_word(wword, flavor, fp)
    except ExpansionBoundExceeded:
        return "skipped_expansion_budget"
    return "fixture_match" if center == expected else "mismatch"


def _reflavor(img, flavor):
    """Reread an element on a flavor with the identical key layout."""
    out = Poly(img.field, flavor)
    out.terms = dict(img.terms)
    return out


def _center_along_word(wword, flavor, fp):
    """Compose the center morphism generator by generator."""
    acc = None
    for gen in reversed(wword.gens):
        ce = phi_p(gen_endo(gen, "W", flavor, fp))
        acc = ce if acc is None else ce.compose(acc)
    if acc is None:
        acc = Endo.identity("P", flavor.center_flavor(), fp)
    return acc


def twist_psi_lambda(i, k, flavor, field):
    """u -> u + h^k x_i and p_i -> p_i - h^k v on the extended flavor."""
    if flavor.kind != HAUG or not flavor.aux:
        raise WeyliftError("twist needs the h-augmented flavor with the aux pair")
    n = flavor.pairs - 1
    if not 0 <= i < n:
        raise IndexOutOfRange(f"pair index {i} out of range for {n} pairs")
    if k < 1:
        raise WeyliftError("twist exponent k must be positive")
    g = flavor.main_count
    u_slot = flavor.pairs - 1
    v_slot = 2 * flavor.pairs - 1
    images = [Poly.generator(field, flavor, s) for s in range(g)]
    hk = Poly.h_power(field, flavor, k)
    images[u_slot] = images[u_slot] + hk * Poly.generator(field, flavor, i)
    p_slot = flavor.conjugate_index(i)
    images[p_slot] = images[p_slot] - hk * Poly.generator(field, flavor, v_slot)
    endo = Endo("P", flavor, field, images)
    check_symplecto(endo)
    return endo


def extend_to_aux(endo):
    """Reread an endo on the flavor extended by the aux pair, fixing u, v."""
    flavor = endo.flavor
    if not flavor.paired:
        raise WeyliftError("only paired flavors extend by the stable pair")
    target = flavor.extended()
    field = endo.field
    cls = type(endo.images[0])
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

    images = [widen(img) for img in endo.images]
    u_img = cls.generator(field, target, n)
    v_img = cls.generator(field, target, 2 * n + 1)
    images = images[:n] + [u_img] + images[n:] + [v_img]
    h_image = widen(endo.h_image) if endo.h_image is not None else None
    return Endo(endo.side, target, field, images, h_image, allow_free_term=True)


def twist_conjugate(phi, psi, phi_inv=None, order=None):
    """phi o psi o phi_inv; InsufficientK when h-poles survive."""
    if phi_inv is None:
        if order is None:
            raise WeyliftError("supply phi_inv or a truncation order")
        phi_inv = truncated_inverse(phi, order)
    out = phi.compose(psi).compose(phi_inv)
    for img in out.all_images():
        if img.min_h_exponent() < 0:
            raise InsufficientK(
                "negative powers of h survive; raise the twist exponent k"
            )
    return out
