"""Shared sparse-element machinery for Poisson and Weyl elements.

Terms live in a dict mapping exponent keys (see flavors.BracketFlavor)
to raw field values; zero coefficients are never stored.
"""

from __future__ import annotations

import math

from .errors import (
    ExpansionBoundExceeded,
    FieldMismatch,
    FlavorMismatch,
    InvalidExponent,
    NegativeHExponent,
    SideMismatch,
)
from .fields import Field
from .flavors import BracketFlavor, Grading

#: Default cap on intermediate term counts in repeated products.
EXPANSION_BOUND = 200_000


def term_sort_key(flavor: BracketFlavor, key: tuple):
    """Graded-lex ordering used for canonical printing and iteration."""
    return (sum(key[: flavor.main_count]), key)


class SparseElement:
    """Base class: exact sparse linear combinations of exponent keys."""

    __slots__ = ("field", "flavor", "terms")

    def __init__(self, field: Field, flavor: BracketFlavor, terms=None):
        self.field = field
        self.flavor = flavor
        if terms is None:
            self.terms = {}
        else:
            self.terms = {k: c for k, c in terms.items() if not field.is_zero(c)}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field, flavor):
        return cls(field, flavor)

    @classmethod
    def constant(cls, field, flavor, value):
        raw = field.from_int(value) if isinstance(value, int) else value
        return cls(field, flavor, {flavor.unit_key(): raw})

    @classmethod
    def one(cls, field, flavor):
        return cls.constant(field, flavor, 1)

    @classmethod
    def generator(cls, field, flavor, i, e: int = 1, coeff=None):
        raw = field.one() if coeff is None else coeff
        return cls(field, flavor, {flavor.gen_key(i, e): raw})

    @classmethod
    def h_power(cls, field, flavor, e: int = 1, coeff=None):
        raw = field.one() if coeff is None else coeff
        return cls(field, flavor, {flavor.h_key(e): raw})

    @classmethod
    def k_symbol(cls, field, flavor, i, j, coeff=None):
        raw = field.one() if coeff is None else coeff
        return cls(field, flavor, {flavor.k_key(i, j): raw})

    @classmethod
    def from_terms(cls, field, flavor, pairs):
        """Build from (key, raw) pairs, accumulating duplicates."""
        terms = {}
        for key, c in pairs:
            if key in terms:
                terms[key] = field.add(terms[key], c)
            else:
                terms[key] = c
        return cls(field, flavor, terms)

    # -- bookkeeping ---------------------------------------------------------

    def _check_compatible(self, other):
        if type(self) is not type(other):
            raise SideMismatch(
                f"cannot mix {type(self).__name__} with {type(other).__name__}"
            )
        if self.flavor != other.flavor:
            raise FlavorMismatch(f"{self.flavor!r} vs {other.flavor!r}")
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def num_terms(self) -> int:
        return len(self.terms)

    def coeff(self, key: tuple):
        return self.terms.get(key, self.field.zero())

    def constant_term(self):
        return self.terms.get(self.flavor.unit_key(), self.field.zero())

    def has_constant_term(self) -> bool:
        return self.flavor.unit_key() in self.terms

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.flavor == other.flavor
            and self.field == other.field
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    # -- linear structure -----------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        field = self.field
        terms = dict(self.terms)
        for key, c in other.terms.items():
            if key in terms:
                s = field.add(terms[key], c)
                if field.is_zero(s):
                    del terms[key]
                else:
                    terms[key] = s
            else:
                terms[key] = c
        out = type(self)(field, self.flavor)
        out.terms = terms
        return out

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        field = self.field
        out = type(self)(field, self.flavor)
        out.terms = {k: field.neg(c) for k, c in self.terms.items()}
        return out

    def scale(self, raw):
        field = self.field
        if field.is_zero(raw):
            return type(self)(field, self.flavor)
        out = type(self)(field, self.flavor)
        out.terms = {k: field.mul(c, raw) for k, c in self.terms.items()}
        return out

    def __pow__(self, e: int, bound: int | None = None):
        """self^e by e multiplications with self on the right, each result guarded.

        The right factor stays the short input, which costs fewer term
        products than squaring the growing power.  Raises
        ExpansionBoundExceeded when an intermediate power has more than
        `bound` terms (EXPANSION_BOUND by default), and InvalidExponent
        unless e is an int >= 0.
        """
        if not isinstance(e, int) or e < 0:
            raise InvalidExponent(f"exponent must be an int >= 0, got {e!r}")
        limit = EXPANSION_BOUND if bound is None else bound
        acc = type(self).one(self.field, self.flavor)
        for _ in range(e):
            acc = acc * self
            if len(acc.terms) > limit:
                raise ExpansionBoundExceeded(
                    f"intermediate expansion hit {len(acc.terms)} terms (bound {limit})"
                )
        return acc

    # -- degree and height ------------------------------------------------------

    def degree(self, grading: Grading | None = None):
        """Maximal weighted degree; -inf for the zero element."""
        if not self.terms:
            return -math.inf
        g = grading or Grading.default_for(self.flavor)
        return max(g.weight(self.flavor, k) for k in self.terms)

    def height(self, grading: Grading | None = None):
        """Minimal weighted degree; +inf for the zero element."""
        if not self.terms:
            return math.inf
        g = grading or Grading.default_for(self.flavor)
        return min(g.weight(self.flavor, k) for k in self.terms)

    def homogeneous_part(self, d: int, grading: Grading | None = None):
        g = grading or Grading.default_for(self.flavor)
        out = type(self)(self.field, self.flavor)
        out.terms = {
            k: c for k, c in self.terms.items() if g.weight(self.flavor, k) == d
        }
        return out

    def truncate(self, maxdeg: int, grading: Grading | None = None):
        """Drop every term of weighted degree above maxdeg."""
        g = grading or Grading.default_for(self.flavor)
        out = type(self)(self.field, self.flavor)
        out.terms = {
            k: c for k, c in self.terms.items() if g.weight(self.flavor, k) <= maxdeg
        }
        return out

    # -- coefficient and slot surgery ----------------------------------------------

    def map_coefficients(self, fn, field: Field | None = None):
        """Apply fn to every raw coefficient, optionally changing field."""
        target = field or self.field
        out = type(self)(target, self.flavor)
        terms = {}
        for k, c in self.terms.items():
            v = fn(c)
            if not target.is_zero(v):
                terms[k] = v
        out.terms = terms
        return out

    def shift_h(self, e: int):
        """Multiply by h^e (negative exponents are Laurent)."""
        if e == 0:
            return self
        if not self.flavor.has_h:
            raise FlavorMismatch("flavor has no h symbol")
        slot = self.flavor.h_slot
        out = type(self)(self.field, self.flavor)
        out.terms = {
            k[:slot] + (k[slot] + e,) + k[slot + 1 :]: c for k, c in self.terms.items()
        }
        return out

    def min_t_exponent(self) -> int:
        """Smallest t exponent present; 0 for the zero element."""
        if not self.terms:
            return 0
        slot = self.flavor.t_slot
        return min(k[slot] for k in self.terms)

    def min_h_exponent(self) -> int:
        if not self.terms or not self.flavor.has_h:
            return 0
        slot = self.flavor.h_slot
        return min(k[slot] for k in self.terms)

    def specialize_h(self, value_raw=None):
        """Substitute a scalar for h, landing in the standard flavor."""
        target_flavor = self.flavor.without_h()
        field = self.field
        value = field.one() if value_raw is None else value_raw
        h_slot = self.flavor.h_slot
        out_cls = type(self)
        out = out_cls(field, target_flavor)
        terms = {}
        for key, c in self.terms.items():
            e = key[h_slot]
            if e < 0:
                raise NegativeHExponent(f"term with h^{e} cannot be specialized")
            new_key = key[:h_slot] + key[h_slot + 1 :]
            v = field.mul(c, field.pow_int(value, e)) if e else c
            if new_key in terms:
                v = field.add(terms[new_key], v)
            if field.is_zero(v):
                terms.pop(new_key, None)
            else:
                terms[new_key] = v
        out.terms = terms
        return out

    # -- display ----------------------------------------------------------------

    def to_text(self, side: str = "P") -> str:
        from .grammar import element_to_text

        return element_to_text(self, side)

    def __repr__(self):
        body = self.to_text()
        return f"{type(self).__name__}({body})"

    def __str__(self):
        return self.to_text()
