"""Endomorphisms given by generator images, on either side of the bracket.

An endo stores one image per main generator plus images for the central
symbols h and k_ij when the flavor has them.  The t symbol is always
fixed.  Composition and application truncate by the flavor's graded
degree when asked: sound commutatively and, on the normal-ordered side,
for the haug and skew flavors, whose reordering keeps the degree (see
weyl.mul_truncated).  bracket_violations is the one bracket-preservation
check for both sides: the Poisson bracket on P, the commutator on W.
"""

from __future__ import annotations

import math
from operator import mul as _mul

from .elements import SparseElement, sum_terms
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    FlavorMismatch,
    NegativeHExponent,
    NonUnitJacobian,
    NotSymplectic,
    SideMismatch,
    StageStall,
    WeyliftError,
    WrongArity,
)
from .linalg import mat_inv
from .poly import Poly, jacobian, poisson_bracket, structure_element
from .weyl import WeylElt, weyl_commutator

_SIDES = ("P", "W")


def element_class(side):
    return Poly if side == "P" else WeylElt


class Endo:
    """Flavor-preserving endomorphism, represented by generator images."""

    __slots__ = ("side", "flavor", "field", "images", "h_image", "k_images")

    def __init__(
        self,
        side,
        flavor,
        field,
        images,
        h_image=None,
        k_images=None,
        allow_free_term=False,
    ):
        if side not in _SIDES:
            raise SideMismatch(f"side must be one of {_SIDES}")
        cls = element_class(side)
        images = list(images)
        if len(images) != flavor.main_count:
            raise WrongArity(
                f"expected {flavor.main_count} images, got {len(images)}"
            )
        if h_image is None and flavor.has_h:
            h_image = cls.h_power(field, flavor, 1)
        if k_images is None and flavor.has_k:
            k_images = [
                cls.k_symbol(field, flavor, i, j) for i, j in flavor.k_pairs
            ]
        k_images = list(k_images) if k_images is not None else None
        for img in images + ([h_image] if h_image is not None else []) + (
            k_images or []
        ):
            if not isinstance(img, cls):
                raise SideMismatch(f"image {img!r} is not a {cls.__name__}")
            if img.flavor != flavor:
                raise FlavorMismatch("image flavor differs from endo flavor")
            if img.field != field:
                raise FieldMismatch("image field differs from endo field")
        if not allow_free_term:
            for i, img in enumerate(images):
                if img.has_constant_term():
                    raise WeyliftError(
                        f"image of generator {i} has a constant term"
                    )
        self.side = side
        self.flavor = flavor
        self.field = field
        self.images = images
        self.h_image = h_image
        self.k_images = k_images

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

    def element_cls(self):
        return element_class(self.side)

    def all_images(self):
        """Main images, then h, then k, in slot order."""
        out = list(self.images)
        if self.h_image is not None:
            out.append(self.h_image)
        if self.k_images is not None:
            out.extend(self.k_images)
        return out

    def __eq__(self, other):
        if not isinstance(other, Endo):
            return NotImplemented
        return (
            self.side == other.side
            and self.flavor == other.flavor
            and self.field == other.field
            and self.images == other.images
            and self.h_image == other.h_image
            and self.k_images == other.k_images
        )

    def __repr__(self):
        imgs = ", ".join(str(i) for i in self.images)
        return f"Endo({self.side}; {imgs})"

    def apply(self, elem, maxdeg=None):
        """Substitute generator images into elem, optionally truncated."""
        if not isinstance(elem, SparseElement):
            raise SideMismatch("apply expects an algebra element")
        if elem.flavor != self.flavor:
            raise FlavorMismatch("element flavor differs from endo flavor")
        if elem.field != self.field:
            raise FieldMismatch("element field differs from endo field")
        cls = self.element_cls()
        if not isinstance(elem, cls):
            raise SideMismatch(
                f"endo acts on {cls.__name__} elements, got {type(elem).__name__}"
            )
        flavor, field = self.flavor, self.field
        g = flavor.main_count

        def mul(a, b):
            if maxdeg is None:
                return a * b
            return a.mul_truncated(b, maxdeg)

        bases = self.all_images()
        caches = [{1: base} for base in bases]
        heights = [base.height() for base in bases]

        def power(idx, e):
            cache = caches[idx]
            if e in cache:
                return cache[e]
            best = max(k for k in cache if k <= e)
            acc = cache[best]
            for k in range(best + 1, e + 1):
                acc = mul(acc, bases[idx])
                cache[k] = acc
            return cache[e]

        # One dict sums every part, so the growing sum is never copied.
        def parts():
            for key, coeff in elem.terms.items():
                exps = []
                for i in range(g):
                    if key[i]:
                        exps.append((i, key[i]))
                h_e = flavor.h_exponent(key) if flavor.has_h else 0
                if h_e > 0:
                    exps.append((g, h_e))
                k_es = flavor.k_exponents(key) if flavor.has_k else ()
                k_base = g + (1 if flavor.has_h else 0)
                for idx, e in enumerate(k_es):
                    if e:
                        exps.append((k_base + idx, e))
                if maxdeg is not None:
                    floor = sum(heights[i] * e for i, e in exps)
                    if h_e < 0:
                        floor += flavor.weights[flavor.h_slot] * h_e
                    if floor > maxdeg:
                        continue
                part = cls.constant(field, flavor, coeff)
                fixed = [0] * flavor.key_len
                if h_e < 0:
                    lam = _monomial_scale(self.h_image, flavor.h_key(1))
                    fixed[flavor.h_slot] = h_e
                    part = part.scale(field.pow_int(lam, h_e))
                t_e = flavor.t_exponent(key)
                if t_e:
                    fixed[flavor.t_slot] = t_e
                if any(fixed):
                    shift = cls(field, flavor)
                    shift.terms = {tuple(fixed): field.one()}
                    part = part * shift
                for idx, e in exps:
                    part = mul(part, power(idx, e))
                    if part.is_zero:
                        break
                yield from part.terms.items()

        out = cls(field, flavor)
        out.terms = sum_terms(field, parts())
        if maxdeg is not None:
            out = out.truncate(maxdeg)
        return out

    def compose(self, other, maxdeg=None):
        """self after other: (self.compose(other))(g) = self(other(g))."""
        if self.side != other.side:
            raise SideMismatch("cannot compose endos of different sides")
        if self.flavor != other.flavor:
            raise FlavorMismatch("cannot compose endos of different flavors")
        if self.field != other.field:
            raise FieldMismatch("cannot compose endos over different fields")
        images = [self.apply(im, maxdeg) for im in other.images]
        h_image = (
            self.apply(other.h_image, maxdeg)
            if other.h_image is not None
            else None
        )
        k_images = (
            [self.apply(im, maxdeg) for im in other.k_images]
            if other.k_images is not None
            else None
        )
        return Endo(
            self.side,
            self.flavor,
            self.field,
            images,
            h_image,
            k_images,
            allow_free_term=True,
        )

    def deviations(self):
        """phi(g) - g for every generator, including h and k symbols."""
        cls = self.element_cls()
        flavor, field = self.flavor, self.field
        out = [
            img - cls.generator(field, flavor, i)
            for i, img in enumerate(self.images)
        ]
        if self.h_image is not None:
            out.append(self.h_image - cls.h_power(field, flavor, 1))
        if self.k_images is not None:
            for (i, j), img in zip(flavor.k_pairs, self.k_images):
                out.append(img - cls.k_symbol(field, flavor, i, j))
        return out

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
        images = [im.map_coefficients(fn, tgt) for im in self.images]
        h_image = (
            self.h_image.map_coefficients(fn, tgt)
            if self.h_image is not None
            else None
        )
        k_images = (
            [im.map_coefficients(fn, tgt) for im in self.k_images]
            if self.k_images is not None
            else None
        )
        return Endo(
            self.side,
            self.flavor,
            tgt,
            images,
            h_image,
            k_images,
            allow_free_term=True,
        )

    def specialize_h(self, value=None):
        """Set h to a nonzero scalar, landing in the h-free flavor."""
        target = self.flavor.without_h()
        images = [im.specialize_h(value) for im in self.images]
        if self.h_image is not None:
            lam = _monomial_scale(self.h_image, self.flavor.h_key(1))
            v = value if value is not None else self.field.one()
            if not self.field.is_zero(self.field.sub(self.field.mul(lam, v), v)):
                raise WeyliftError(
                    "h image scale is not 1; specialization is not well defined"
                )
        return Endo(
            self.side,
            target,
            self.field,
            images,
            allow_free_term=True,
        )


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
    if endo.side == "P":
        def bracket(a, b):
            out = poisson_bracket(a, b)
            return out if maxdeg is None else out.truncate(maxdeg)
    elif maxdeg is None:
        bracket = weyl_commutator
    else:
        def bracket(a, b):
            return a.mul_truncated(b, maxdeg) - b.mul_truncated(a, maxdeg)
    cls = endo.element_cls()
    out = []
    for i in range(flavor.main_count):
        for j in range(i + 1, flavor.main_count):
            rhs = endo.apply(structure_element(flavor, field, i, j, cls), maxdeg)
            diff = bracket(images[i], images[j]) - rhs
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


def jacobian_is_unit(endo):
    """Check det(d images / d generators) is a nonzero constant."""
    det = jacobian(endo.images)
    if det.num_terms() != 1 or not det.has_constant_term():
        raise NonUnitJacobian(f"jacobian determinant {det} is not a constant")
    return det.constant_term()


def endo_rank(endo):
    """Least graded degree where the endo deviates from the identity."""
    heights = [d.height() for d in endo.deviations()]
    return min(heights) if heights else math.inf


def truncated_inverse(endo, n):
    """Endo psi with compose(endo, psi) = Id modulo degrees above n.

    Successive substitution: start from the inverse of the linear part,
    then cancel the lowest surviving deviation each round.  Also checks
    the opposite composition before returning.
    """
    flavor, field = endo.flavor, endo.field
    linv = mat_inv(field, endo.linear_part())
    h_image = None
    if endo.h_image is not None:
        lam = _monomial_scale(endo.h_image, flavor.h_key(1))
        cls = endo.element_cls()
        h_image = cls.h_power(field, flavor, 1).scale(field.inv(lam))
    k_images = None
    if endo.k_images is not None:
        pairs = flavor.k_pairs
        kmat = [
            [img.coeff(flavor.k_key(a, b, 1)) for (a, b) in pairs]
            for img in endo.k_images
        ]
        for row, img in enumerate(endo.k_images):
            nonzero = sum(0 if field.is_zero(c) else 1 for c in kmat[row])
            if img.num_terms() != nonzero:
                raise WeyliftError("k images must be linear in the k symbols")
        kinv = mat_inv(field, kmat)
        cls = endo.element_cls()
        k_images = [
            cls.from_terms(
                field, flavor, [(flavor.k_key(*pair, 1), v) for pair, v in zip(pairs, row)]
            )
            for row in kinv
        ]
    linv_endo = Endo(endo.side, flavor, field, Endo.linear(
        endo.side, flavor, field, linv).images, h_image, k_images)
    psi = linv_endo
    last = -1
    for _ in range(n + 2):
        err = endo.compose(psi, maxdeg=n)
        devs = [
            img - endo.element_cls().generator(field, flavor, i)
            for i, img in enumerate(err.images)
        ]
        ht = min((d.height() for d in devs), default=math.inf)
        if ht > n:
            break
        if ht <= last:
            raise StageStall(f"no progress past height {ht}")
        last = ht
        corrections = [linv_endo.apply(d, maxdeg=n) for d in devs]
        psi = Endo(
            endo.side,
            flavor,
            field,
            [im - c for im, c in zip(psi.images, corrections)],
            psi.h_image,
            psi.k_images,
        )
    else:
        raise StageStall("truncated inverse did not converge")
    back = psi.compose(endo, maxdeg=n)
    ident = Endo.identity(endo.side, flavor, field)
    for img, gen in zip(back.images, ident.images):
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

    images = []
    for img, base in zip(endo.all_images(), full):
        out = type(img)(img.field, flavor)
        out.terms = {
            key[:slot]
            + (key[slot] + sum(map(_mul, full, key)) - base,)
            + key[slot + 1 :]: c
            for key, c in img.terms.items()
        }
        images.append(out)
    g = flavor.main_count
    return Endo(
        endo.side,
        flavor,
        endo.field,
        images[:g],
        images[g] if flavor.has_h else None,
        images[flavor.k_start :] if flavor.has_k else None,
        allow_free_term=True,
    )


def dilation_conjugate(endo, e):
    """Conjugate by the dilation g -> t^(e w(g)) g, w the flavor's weight
    of each main generator and of h (see diagonal_conjugate).

    The graded degree-m part of each main image picks up t^((m-1)e); a
    multiple of h is left as it is.
    """
    flavor = endo.flavor
    weights = [e * w for w in flavor.weights[: flavor.k_start]]
    return diagonal_conjugate(endo, flavor.t_slot, weights)
