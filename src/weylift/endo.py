"""Endomorphisms given by generator images, on either side of the bracket.

An endo stores one list, Endo.slots: an image for every key slot before
t, in key order, so the main generators, then h and then the k_ij when
the flavor has them (the exponent-key layout of flavors.py).  The t
symbol is always fixed.  Composition and application truncate by the
flavor's graded degree when asked: sound commutatively and, on the
normal-ordered side, for the haug and skew flavors, whose reordering
keeps the degree (see weyl.mul_truncated).  element_class is the one
reading of a side, bracket the one bracket of both sides (the Poisson
bracket on P, the commutator on W), and SparseElement._check_compatible
the one check that operands agree on side, flavor and field.
"""

from __future__ import annotations

import math
from operator import mul as _mul

from .elements import substitute
from .errors import (
    DimensionMismatch,
    NegativeHExponent,
    NotSymplectic,
    SideMismatch,
    StageStall,
    WeyliftError,
    WrongArity,
)
from .linalg import mat_inv
from .poly import Poly, poisson_bracket, structure_element
from .weyl import WeylElt, weyl_commutator


def element_class(side):
    """Poly on side "P", WeylElt on side "W": the one reading of a side."""
    if side == "P":
        return Poly
    if side == "W":
        return WeylElt
    raise SideMismatch("side must be one of ('P', 'W')")


def bracket(a, b, maxdeg=None):
    """The Poisson bracket on P, the commutator on W, chosen by the
    operands' class; with maxdeg, terms of graded degree above it are
    dropped (truncated products on W)."""
    if isinstance(a, WeylElt):
        return weyl_commutator(a, b, maxdeg)
    out = poisson_bracket(a, b)
    return out if maxdeg is None else out.truncate(maxdeg)


class Endo:
    """Flavor-preserving endomorphism, stored as one image per key slot
    before t, in key order: the main generators, then h, then the k
    symbols (the exponent-key layout of flavors.py).  The constructor
    takes the main images and fixes h and every k symbol; from_slots
    takes every slot.  images, h_image and k_images are read-only views
    of that list.
    """

    __slots__ = ("side", "flavor", "field", "slots")

    def __init__(self, side, flavor, field, images):
        cls = element_class(side)
        slots = list(images)
        if len(slots) != flavor.main_count:
            raise WrongArity(f"expected {flavor.main_count} images, got {len(slots)}")
        if flavor.has_h:
            slots.append(cls.h_power(field, flavor, 1))
        slots.extend(cls.k_symbol(field, flavor, i, j) for i, j in flavor.k_pairs)
        self._fill(side, flavor, field, slots)

    @classmethod
    def from_slots(cls, side, flavor, field, slots):
        """The endo with these images, one per key slot before t, in key
        order."""
        endo = cls.__new__(cls)
        endo._fill(side, flavor, field, list(slots))
        return endo

    def _fill(self, side, flavor, field, slots):
        empty = element_class(side)(field, flavor)
        if len(slots) != flavor.t_slot:
            raise WrongArity(f"expected {flavor.t_slot} slot images, got {len(slots)}")
        for img in slots:
            empty._check_compatible(img)
        self.side = side
        self.flavor = flavor
        self.field = field
        self.slots = slots

    @property
    def images(self):
        return self.slots[: self.flavor.main_count]

    @property
    def h_image(self):
        return self.slots[self.flavor.h_slot] if self.flavor.has_h else None

    @property
    def k_images(self):
        return self.slots[self.flavor.k_start :] if self.flavor.has_k else None

    @classmethod
    def identity(cls, side, flavor, field):
        ecls = element_class(side)
        return cls(
            side,
            flavor,
            field,
            [ecls.generator(field, flavor, i) for i in range(flavor.main_count)],
        )

    @classmethod
    def linear(cls, side, flavor, field, matrix):
        """Images g_i -> sum_j matrix[i][j] g_j."""
        ecls = element_class(side)
        g = flavor.main_count
        if len(matrix) != g or any(len(row) != g for row in matrix):
            raise WrongArity(f"matrix must be {g} x {g}")
        images = [
            ecls.from_terms(
                field, flavor, [(flavor.gen_key(j, 1), v) for j, v in enumerate(row)]
            )
            for row in matrix
        ]
        return cls(side, flavor, field, images)

    def __eq__(self, other):
        if not isinstance(other, Endo):
            return NotImplemented
        # Equal elements share side, flavor and field.
        return self.slots == other.slots

    def __repr__(self):
        imgs = ", ".join(str(i) for i in self.images)
        return f"Endo({self.side}; {imgs})"

    def apply(self, elem, maxdeg=None):
        """Substitute generator images into elem, optionally truncated."""
        self.slots[0]._check_compatible(elem)
        cls = type(elem)
        flavor, field = self.flavor, self.field
        t_slot = flavor.t_slot

        cut, h = maxdeg, flavor.h_slot
        if maxdeg is not None and flavor.has_h:
            # An h^-e prefix weighs -2e on haug: cut the products it meets that much later.
            cut -= min([0] + [key[h] for key in elem.terms]) * flavor.weights[h]
        mul = cls.__mul__ if maxdeg is None else lambda a, b: a.mul_truncated(b, cut)
        heights = [base.height() for base in self.slots]

        def parts():
            for key, coeff in elem.terms.items():
                # Only the h slot can be negative; h^-e joins the prefix.
                exps = [(s, e) for s, e in enumerate(key[:t_slot]) if e > 0]
                h_e = flavor.h_exponent(key)
                if maxdeg is not None:
                    floor = sum(heights[i] * e for i, e in exps)
                    if h_e < 0:
                        floor += flavor.weights[h] * h_e
                    if floor > maxdeg:
                        continue
                fixed = [0] * t_slot + [flavor.t_exponent(key)]
                if h_e < 0:
                    lam = _monomial_scale(self.h_image, flavor.h_key(1))
                    fixed[h] = h_e
                    coeff = field.mul(coeff, field.pow_int(lam, h_e))
                # The prefix h^-e t^e also stands in for an empty product.
                prefix = None
                if any(fixed) or not exps:
                    prefix = cls(field, flavor, {tuple(fixed): field.one()})
                yield prefix, exps, coeff

        out = substitute(self.slots, parts(), mul)
        if maxdeg is not None:
            out = out.truncate(maxdeg)
        return out

    def compose(self, other, maxdeg=None):
        """self after other: (self.compose(other))(g) = self(other(g)).
        apply checks each image of other against self."""
        return Endo.from_slots(
            self.side,
            self.flavor,
            self.field,
            [self.apply(im, maxdeg) for im in other.slots],
        )

    def linear_part(self):
        """Matrix L with row i = degree-one main part of images[i]."""
        flavor, field = self.flavor, self.field
        g = flavor.main_count
        return [
            [img.coeff(flavor.gen_key(j, 1)) for j in range(g)]
            for img in self.images
        ]

    def map_coefficients(self, fn, field=None):
        tgt = field or self.field
        return Endo.from_slots(
            self.side,
            self.flavor,
            tgt,
            [im.map_coefficients(fn, tgt) for im in self.slots],
        )

    def specialize_h(self):
        """Set h to 1, landing in the h-free flavor; the h image must be h."""
        images = [im.specialize_h() for im in self.images]
        if self.h_image != element_class(self.side).h_power(self.field, self.flavor, 1):
            raise WeyliftError("h image is not h; specialization is not well defined")
        return Endo(self.side, self.flavor.without_h(), self.field, images)


def refuse_constant_terms(endo):
    """Raise WeyliftError if a main image has a constant term: truncating
    a composition is sound only on images without one."""
    unit = endo.flavor.unit_key()
    for i, img in enumerate(endo.images):
        if unit in img.terms:
            raise WeyliftError(f"image of generator {i} has a constant term")


def _monomial_scale(elem, key):
    """Coefficient of `key` in an element required to be that single monomial."""
    if elem.num_terms() != 1 or key not in elem.terms:
        raise NegativeHExponent(
            "negative h power needs the h image to be a scalar multiple of h"
        )
    return elem.terms[key]


def bracket_violations(endo, maxdeg=None):
    """(i, j, lhs - rhs) for each pair i < j of main generators whose
    bracket the endo does not preserve: lhs = [phi g_i, phi g_j], rhs =
    phi([g_i, g_j]), with the Poisson bracket on P and the commutator on
    W.  With maxdeg both sides are compared below graded degree maxdeg
    (truncated products on W).
    """
    flavor, field, images = endo.flavor, endo.field, endo.images
    cls = element_class(endo.side)
    out = []
    for i in range(flavor.main_count):
        for j in range(i + 1, flavor.main_count):
            rhs = endo.apply(structure_element(flavor, field, i, j, cls), maxdeg)
            diff = bracket(images[i], images[j], maxdeg) - rhs
            if not diff.is_zero:
                out.append((i, j, diff))
    return out


def check_symplecto(endo):
    """Raise NotSymplectic unless the endo preserves the Poisson bracket."""
    if endo.side != "P":
        raise SideMismatch("symplecto check applies to the commutative side")
    violations = bracket_violations(endo)
    if violations:
        i, j, _ = violations[0]
        raise NotSymplectic(
            f"bracket of images {i}, {j} differs from the image of the bracket"
        )


def truncated_inverse(endo, n):
    """Endo psi with compose(endo, psi) = Id modulo degrees above n.

    Successive substitution: start from the inverse of the linear part,
    then cancel the lowest surviving deviation each round.  Also checks
    the opposite composition before returning.
    """
    flavor, field = endo.flavor, endo.field
    cls = element_class(endo.side)
    linv = mat_inv(field, endo.linear_part())
    slots = Endo.linear(endo.side, flavor, field, linv).images
    if flavor.has_h:
        lam = _monomial_scale(endo.h_image, flavor.h_key(1))
        slots.append(cls.h_power(field, flavor, 1).scale(field.inv(lam)))
    if flavor.has_k:
        pairs = flavor.k_pairs
        kmat = [
            [img.coeff(flavor.k_key(a, b, 1)) for (a, b) in pairs]
            for img in endo.k_images
        ]
        for row, img in enumerate(endo.k_images):
            nonzero = sum(0 if field.is_zero(c) else 1 for c in kmat[row])
            if img.num_terms() != nonzero:
                raise WeyliftError("k images must be linear in the k symbols")
        slots.extend(
            cls.from_terms(
                field, flavor, [(flavor.k_key(*pair, 1), v) for pair, v in zip(pairs, row)]
            )
            for row in mat_inv(field, kmat)
        )
    linv_endo = Endo.from_slots(endo.side, flavor, field, slots)
    gens = Endo.identity(endo.side, flavor, field).images
    psi = linv_endo
    last = -1
    for _ in range(n + 2):
        err = endo.compose(psi, maxdeg=n)
        devs = [img - gen for img, gen in zip(err.images, gens)]
        ht = min((d.height() for d in devs), default=math.inf)
        if ht > n:
            break
        if ht <= last:
            raise StageStall(f"no progress past height {ht}")
        last = ht
        corrections = [linv_endo.apply(d, maxdeg=n) for d in devs]
        images = [im - c for im, c in zip(psi.images, corrections)]
        psi = Endo.from_slots(
            endo.side, flavor, field, images + psi.slots[flavor.main_count :]
        )
        refuse_constant_terms(psi)
    else:
        raise StageStall("truncated inverse did not converge")
    back = psi.compose(endo, maxdeg=n)
    for img, gen in zip(back.images, gens):
        if not (img - gen).truncate(n).is_zero:
            raise StageStall("one-sided inverse only; endo is not invertible")
    return psi


def diagonal_conjugate(endo, slot, weights):
    """Conjugate by the diagonal rescaling g_s -> tau^(w_s) g_s.

    tau is the symbol in key slot `slot`: t, or h on flavors with h.
    `weights` holds w_s for the main generators and then, when the
    flavor has h, for h, in slot order; k_ab weighs w_a + w_b, since
    {g_a, g_b} = h k_ab.  A monomial of weight w in the image of slot s
    picks up tau^(w - w_s).  tau itself weighs 0, so only its slot
    changes and distinct monomials stay distinct.
    """
    flavor = endo.flavor
    if len(weights) != flavor.k_start:
        raise DimensionMismatch(
            f"{len(weights)} weights for {flavor.k_start} main and h slots"
        )
    full = [*weights, *(weights[a] + weights[b] for a, b in flavor.k_pairs), 0]
    if full[slot]:
        raise WeyliftError("the rescaling symbol itself must weigh 0")

    slots = []
    for img, base in zip(endo.slots, full):
        out = type(img)(img.field, flavor)
        out.terms = {
            key[:slot]
            + (key[slot] + sum(map(_mul, full, key)) - base,)
            + key[slot + 1 :]: c
            for key, c in img.terms.items()
        }
        slots.append(out)
    return Endo.from_slots(endo.side, flavor, endo.field, slots)

