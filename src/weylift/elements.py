"""Shared sparse-element machinery for Poisson and Weyl elements.

Terms live in a dict mapping exponent keys (see flavors.BracketFlavor)
to raw field values; zero coefficients are never stored.  One product
kernel (ordered_mul) serves both sides, and one sweep (sweep, sum_terms)
finishes every sum of terms.
"""

from __future__ import annotations

import math
from operator import add as _add, mul as _mul

from .errors import (
    ExpansionBoundExceeded,
    FieldMismatch,
    FlavorMismatch,
    InvalidExponent,
    NegativeHExponent,
    SideMismatch,
)
from .fields import Field
from .flavors import BracketFlavor

#: Default cap on intermediate term counts in repeated products.
EXPANSION_BOUND = 200_000


def term_sort_key(flavor: BracketFlavor, key: tuple):
    """Graded-lex ordering used for canonical printing and iteration."""
    return (sum(key[: flavor.main_count]), key)


def sweep(field: Field, terms: dict) -> dict:
    """The nonzero entries of a dict of summed raw values: the one way the
    core finishes a sum of terms.

    Over F_p the sums may be unreduced ints, taken with the plain
    operators; each is reduced mod p here, once.  A zero Fraction is
    falsy.  Extensions F_{p^k}, k > 1, sum with Field.add and compare
    with zero.
    """
    if field.k > 1:
        zero = field.zero()
        return {key: c for key, c in terms.items() if c != zero}
    p = field.char
    if p:
        return {key: r for key, c in terms.items() if (r := c % p)}
    return {key: c for key, c in terms.items() if c}


def sum_terms(field: Field, pairs) -> dict:
    """Sum (key, raw) pairs whose keys repeat, then sweep."""
    add = _add if field.k == 1 else field.add
    terms = {}
    for key, c in pairs:
        prev = terms.get(key)
        terms[key] = c if prev is None else add(prev, c)
    return sweep(field, terms)


class SparseElement:
    """Base class: exact sparse linear combinations of exponent keys."""

    __slots__ = ("field", "flavor", "terms")

    def __init__(self, field: Field, flavor: BracketFlavor, terms=None):
        self.field = field
        self.flavor = flavor
        self.terms = {} if terms is None else sweep(field, terms)

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
        out = cls(field, flavor)
        out.terms = sum_terms(field, pairs)
        return out

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

    def degree(self):
        """Maximal graded degree (BracketFlavor.weight); -inf for the zero element."""
        if not self.terms:
            return -math.inf
        return max(map(self.flavor.weight, self.terms))

    def height(self):
        """Minimal graded degree; +inf for the zero element."""
        if not self.terms:
            return math.inf
        return min(map(self.flavor.weight, self.terms))

    def homogeneous_part(self, d: int):
        weight = self.flavor.weight
        out = type(self)(self.field, self.flavor)
        out.terms = {k: c for k, c in self.terms.items() if weight(k) == d}
        return out

    def truncate(self, maxdeg: int, grading=None):
        """Drop every term of graded degree above maxdeg.

        The second parameter is ignored: it is kept for callers that pass
        flavors.Grading.default_for(flavor), which names the same weights.
        """
        weight = self.flavor.weight
        out = type(self)(self.field, self.flavor)
        out.terms = {k: c for k, c in self.terms.items() if weight(k) <= maxdeg}
        return out

    # -- coefficient and slot surgery ----------------------------------------------

    def map_coefficients(self, fn, field: Field | None = None):
        """Apply fn to every raw coefficient, optionally changing field."""
        target = field or self.field
        return type(self)(target, self.flavor, {k: fn(c) for k, c in self.terms.items()})

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

        def specialized():
            for key, c in self.terms.items():
                e = key[h_slot]
                if e < 0:
                    raise NegativeHExponent(f"term with h^{e} cannot be specialized")
                v = field.mul(c, field.pow_int(value, e)) if e else c
                yield key[:h_slot] + key[h_slot + 1 :], v

        out = type(self)(field, target_flavor)
        out.terms = sum_terms(field, specialized())
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


# -- the product kernel ---------------------------------------------------------


def _contraction_weights(field, b_exp, c_exp, sign):
    """Nonzero k! C(b,k) C(c,k) sign^k in the field, as (k, weight) by descending k.

    In characteristic p every k >= p is dropped (k! vanishes), and so is
    every k whose binomials vanish by Lucas's theorem.
    """
    top = min(b_exp, c_exp)
    if field.char:
        top = min(top, field.char - 1)
    entry = [(0, field.one())]
    w = 1
    for k in range(1, top + 1):
        w = sign * w * (b_exp - k + 1) * (c_exp - k + 1) // k
        wk = field.from_int(w)
        if not field.is_zero(wk):
            entry.append((k, wk))
    entry.reverse()
    return tuple(entry)


def _minus(exps, slot, k):
    return exps[:slot] + (exps[slot] - k,) + exps[slot + 1 :]


class _WeightTable(dict):
    """(b, c, sign) -> _contraction_weights, filled on first use."""

    __slots__ = ("field",)

    def __init__(self, field):
        self.field = field

    def __missing__(self, key):
        entry = self[key] = _contraction_weights(self.field, *key)
        return entry


def ordered_mul(a, b, pairs, maxdeg):
    """a * b in normal order, with the terms of graded degree above maxdeg
    dropped unless maxdeg is None.

    Every flavor orders its main generators g_1 < .. < g_N and stores the
    basis monomials g_1^e_1 .. g_N^e_N.  The bracket of two generators is
    central, so the product of two normal-ordered monomials is one
    contraction (Wick) formula: for each pair g_j > g_i with
    [g_j, g_i] = s z (z a monomial in the central slots, s = +-1), a left
    factor g_j^b meets a right factor g_i^c as

        g_j^b . g_i^c = sum_k k! C(b,k) C(c,k) (s z)^k g_i^(c-k) g_j^(b-k),

    and the pairs apply one after another.  WeylElt passes the flavor's
    pairs (BracketFlavor.contractions):

        flavor      pairs (j, i)          z           s
        standard    (d_i, x_i)            1           +1
        haug        (d_i, x_i)            h           +1
        skew        (xi_j, xi_i), i < j   h k_ij      -1

    Poly passes no pairs, which leaves the commutative product.

    Each call builds one table keyed by (b, c, s): an entry holds the
    weights k! C(b,k) C(c,k) s^k already reduced into the coefficient
    field, by descending k, with the weights that are zero in the field
    left out.  In characteristic p that drops every contraction of order
    k >= p, since k! vanishes, and the orders below p whose binomials
    vanish by Lucas's theorem.  A term pair that no pair contracts goes
    straight to the sum; any other starts from its summed key and is
    extended one pair at a time through the table.  With more than one
    skew pair a slot is in several pairs, so each leaf carries the
    exponents its earlier contractions left free.

    Over Q and over a prime field F_p the raw values take the plain
    operators instead of Field; over F_p the sums are then unreduced ints,
    reduced once by sweep.  Extensions F_{p^k}, k > 1, keep Field.mul and
    Field.add.  The right factor's weights are computed once.
    """
    flavor, field = a.flavor, a.field
    add, mul = (_add, _mul) if field.k == 1 else (field.add, field.mul)
    # Skew pairs share slots once there is more than one of them; then each
    # leaf tracks the exponents its contractions left free.  Otherwise they
    # are those of k1 and k2.
    shared = flavor.has_k and len(pairs) > 1
    truncated = maxdeg is not None
    weight = flavor.weight
    # Pair n is bit 1 << n of a mask: a left term sets the bits of the pairs
    # whose g_j it holds, a right term those whose g_i it holds, and a term
    # pair is contracted by the pairs in both masks.
    bits = [(1 << n, *pair) for n, pair in enumerate(pairs)]
    right = [
        (
            k2,
            c2,
            weight(k2) if truncated else 0,
            sum(bit for bit, _, i, _, _ in bits if k2[i]),
        )
        for k2, c2 in b.terms.items()
    ]
    table = _WeightTable(field)
    terms = {}
    for k1, c1 in a.terms.items():
        room = maxdeg - weight(k1) if truncated else 0
        if room < 0:
            continue
        left = 0
        for bit, j, _, _, _ in bits:
            if k1[j]:
                left |= bit
        for k2, c2, w2, held in right:
            if w2 > room:
                continue
            hits = left & held
            if not hits:
                key = tuple(map(_add, k1, k2))
                prev = terms.get(key)
                c = mul(c1, c2)
                terms[key] = c if prev is None else add(prev, c)
                continue
            # A leaf is (key, coefficient, free exponents of k1, of k2).
            leaves = [(list(map(_add, k1, k2)), mul(c1, c2), k1, k2)]
            # Contract g_j of the left factor against g_i of the right one.
            for bit, j, i, central, sign in bits:
                if not hits & bit:
                    continue
                # Unshared, one entry serves every leaf.
                entry = None if shared else table[k1[j], k2[i], sign]
                grown = []
                for leaf in leaves:
                    key, c, free1, free2 = leaf
                    for k, w in entry or table[free1[j], free2[i], sign]:
                        if not k:
                            grown.append(leaf)
                            continue
                        key_k = key.copy()
                        key_k[j] -= k
                        key_k[i] -= k
                        for slot in central:
                            key_k[slot] += k
                        if shared:
                            grown.append(
                                (key_k, mul(c, w), _minus(free1, j, k), _minus(free2, i, k))
                            )
                        else:
                            grown.append((key_k, mul(c, w), free1, free2))
                leaves = grown
            for key, c, _, _ in leaves:
                key = tuple(key)
                prev = terms.get(key)
                terms[key] = c if prev is None else add(prev, c)
    out = type(a)(field, flavor)
    out.terms = sweep(field, terms)
    return out
