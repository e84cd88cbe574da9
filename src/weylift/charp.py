"""Reduction to the center of the ordered algebra at a fixed prime.

Over F_p the p-th powers of the paired generators are central, and any
endomorphism restricts to the polynomial algebra they generate.  The
restriction is read in coordinates z_i = x_i^p, w_i = d_i^p, composed
with the inverse Frobenius on coefficients so the result is additive in
the original coefficients.  The center also carries a bracket: lift two
central elements to characteristic zero, take the commutator, divide by
p, reduce, and read back; the sign is chosen so {w_i, z_i} = 1 matches
the paired convention on the plain commutative side.
"""

from __future__ import annotations

from .endo import Endo
from .errors import (
    InternalCentralityFailure,
    NotCentral,
    NotDivisibleByP,
    NotFiniteField,
    PositiveCharacteristic,
    SideMismatch,
    WeyliftError,
)
from .fields import QQ
from .flavors import HAUG, STANDARD, BracketFlavor
from .poly import Poly
from .tame import SP, XSHIFT
from .weyl import (
    WeylElt,
    center_coordinates,
    from_center_coordinates,
    pth_power,
    weyl_commutator,
)


def reduce_endo_mod_p(endo, field):
    """Clear denominators prime to p; NotPIntegral when p divides one."""
    if field.char == 0:
        raise NotFiniteField("reduction target must have positive characteristic")
    if endo.field.char != 0:
        raise PositiveCharacteristic("endo is already in positive characteristic")
    return endo.map_coefficients(field.from_fraction, field)


def restrict_to_center(endo):
    """Read phi on the central coordinates z_i = x_i^p, w_i = d_i^p."""
    if endo.side != "W":
        raise SideMismatch("center restriction reads ordered images")
    field, flavor = endo.field, endo.flavor
    if field.char == 0:
        raise PositiveCharacteristic("center restriction needs a finite field")
    if flavor.kind not in (STANDARD, HAUG):
        raise WeyliftError("center restriction is defined for paired flavors")
    target = flavor.center_flavor()
    slots = []
    for i, img in enumerate(endo.images):
        try:
            slots.append(center_coordinates(pth_power(img)))
        except NotCentral:
            raise InternalCentralityFailure(
                f"p-th power of image {i} failed to be central"
            ) from None
    # The h image (haug only) carries over: the center flavor has the same key layout.
    slots.extend(Poly(field, target, img.terms) for img in endo.slots[flavor.main_count :])
    return Endo.from_slots("P", target, field, slots)


def frobenius_twist(endo):
    """Apply the inverse coefficient Frobenius to every image."""
    field = endo.field
    if field.char == 0:
        raise PositiveCharacteristic("Frobenius twist needs a finite field")
    return endo.map_coefficients(lambda c: field.frobenius(c, inverse=True))


def phi_p(endo, field=None):
    """The center morphism at p: reduce, restrict, untwist.

    Accepts an ordered-side endo over Q (with a target field) or over a
    finite field directly.  The h-augmented flavor is specialized at
    h = 1 first.
    """
    if endo.field.char == 0:
        if field is None:
            raise NotFiniteField("phi_p over Q needs a target finite field")
        endo = reduce_endo_mod_p(endo, field)
    if endo.flavor.kind == HAUG:
        endo = endo.specialize_h()
    return frobenius_twist(restrict_to_center(endo))


def phi_p_along_word(word, flavor, field):
    """phi_p(evaluate(word, "W", flavor, field)) for a symplectic word on the
    plain paired flavor, read letter by letter on the center images as
    tame.evaluate reads generator images, with no p-th power.  A shift by
    f(y) = sum c_e y^e adds f(w) - sum_j c_((j+1)p-1) w^j, by Jacobson's
    (x + f(d))^p = x^p + f(d)^p + f^(p-1)(d) and (p-1)! = -1; an sp letter
    keeps its rows a_i, plus at p = 2 the constant sum_k a_(i,k) a_(i,k+n)
    from xd + dx = 1.  The inverse Frobenius fixes the prime-field data."""
    p, n = field.char, word.n
    target = flavor.center_flavor()
    images = [Poly.generator(field, target, i) for i in range(2 * n)]
    for gen in word.gens:
        if gen.kind == SP:
            images = [
                sum((img.scale(field.from_fraction(a)) for a, img in zip(row, images) if a),
                    Poly.constant(field, target, field.from_fraction(
                        sum(row[k] * row[k + n] for k in range(n)) if p == 2 else 0)))
                for row in gen.data
            ]
            continue
        index, poly = gen.data
        t = index if gen.kind == XSHIFT else index + n
        base = images[target.conjugate_index(t)]
        jacobson = [((e + 1) // p - 1, -c) for e, c in poly.items() if (e + 1) % p == 0]
        parts = [(base ** e).scale(field.from_fraction(c)) for e, c in [*poly.items(), *jacobson]]
        images[t] = sum(parts, images[t])
    return Endo.from_slots("P", target, field, images)


def _lift_coefficient(field, c, shift):
    return int(c) + field.p * shift


def _lift_center(poly, shifts=None):
    """Integral characteristic-zero lift in ordered coordinates."""
    field = poly.field
    w_flavor = BracketFlavor(STANDARD, poly.flavor.pairs)
    lifted = Poly(QQ, poly.flavor)
    lifted.terms = {
        key: _lift_coefficient(field, c, (shifts or {}).get(key, 0))
        for key, c in poly.terms.items()
    }
    return from_center_coordinates(lifted, w_flavor, p=field.p)


def center_bracket(a, b, shifts=None):
    """Divided-commutator bracket on the center.

    Lift both elements integrally, commute, divide by p, reduce, read
    coordinates, and negate.  The value does not depend on the lift;
    shifts = (dict, dict) nudges coefficients by multiples of p to let
    callers check that.
    """
    field = a.field
    if field.char == 0:
        raise PositiveCharacteristic("center bracket needs a finite field")
    if field.k != 1:
        raise NotFiniteField("center bracket lifts through the prime field")
    if a.flavor != b.flavor or a.flavor.kind != STANDARD:
        raise WeyliftError("center bracket expects plain paired coordinates")
    p = field.p
    sa, sb = shifts if shifts is not None else (None, None)
    la, lb = _lift_center(a, sa), _lift_center(b, sb)
    comm = weyl_commutator(la, lb)
    divided = {}
    for key, c in comm.terms.items():
        if c.denominator != 1 or c.numerator % p:
            raise NotDivisibleByP(f"commutator coefficient {c} is not divisible by {p}")
        divided[key] = c.numerator // p
    reduced = WeylElt(
        field, la.flavor, {key: field.from_fraction(c) for key, c in divided.items()}
    )
    coords = center_coordinates(reduced)
    coords.flavor = a.flavor
    return -coords
