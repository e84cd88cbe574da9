"""Exact coefficient fields: the rationals and F_{p^k} for k <= 3.

A Field object performs arithmetic on raw values and never wraps them:
prime fields are int in [0, p), and extensions are coefficient tuples of
length k over the modulus basis 1, a, .., a^(k-1).

A rational is an int when it is integral and a Fraction with denominator
above 1 otherwise, so the product and bracket kernels, which take the
plain operators on raw values, run on machine ints wherever they can.
Every Q method returns a value of that form: add, sub and mul turn an
integral Fraction result back into an int, and inv, div and pow_int go
through Fraction, since int / int would give a float.  elements.sweep
does the same for the sums the kernels build.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DivisionByZero,
    NotFiniteField,
    NotPIntegral,
    WeyliftError,
)

_MAX_PRIME = 2**31
_MAX_EXT_DEGREE = 3


def _rational(q):
    """q as a Q raw value: its numerator when it is integral, else q."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """The rationals ("Q") or a finite field ("Fp") with p^k elements."""

    __slots__ = ("kind", "p", "k", "modulus")

    def __init__(self, kind, p=None, k=1, modulus=None):
        if kind == "Q":
            self.kind = "Q"
            self.p = 0
            self.k = 1
            self.modulus = None
            return
        if kind != "Fp":
            raise WeyliftError(f"unknown field kind {kind!r}")
        if type(p) is not int or not 2 <= p < _MAX_PRIME or not _is_prime(p):
            raise WeyliftError(f"characteristic must be a prime below 2^31, got {p!r}")
        if type(k) is not int or not 1 <= k <= _MAX_EXT_DEGREE:
            raise NotFiniteField(f"extension degree must lie in 1..{_MAX_EXT_DEGREE}, got {k!r}")
        self.kind = "Fp"
        self.p = p
        self.k = k
        if k == 1:
            self.modulus = None
        else:
            if modulus is None:
                raise NotFiniteField("extension fields need an explicit monic modulus")
            if any(type(c) is not int for c in modulus):
                raise NotFiniteField(f"modulus coefficients must be integers, got {modulus!r}")
            mod = tuple(c % p for c in modulus)
            if len(mod) != k + 1 or mod[-1] != 1:
                raise NotFiniteField("modulus must be monic of degree k")
            # Degree 2 and 3 polynomials are irreducible iff they have no root.
            for r in range(p):
                acc = 0
                for c in reversed(mod):
                    acc = (acc * r + c) % p
                if acc == 0:
                    raise NotFiniteField(f"modulus has the root {r} mod {p}")
            self.modulus = mod

    # -- identification ------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.kind == other.kind
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.kind, self.p, self.k, self.modulus))

    def __repr__(self):
        if self.kind == "Q":
            return "Field(Q)"
        if self.k == 1:
            return f"Field(F{self.p})"
        return f"Field(F{self.p}^{self.k})"

    @property
    def char(self) -> int:
        return self.p

    @property
    def order(self) -> int:
        """Number of elements, 0 for the rationals."""
        return 0 if self.kind == "Q" else self.p**self.k

    # -- construction of raw values ------------------------------------

    def zero(self):
        if self.kind == "Q":
            return 0
        return 0 if self.k == 1 else (0,) * self.k

    def one(self):
        if self.kind == "Q":
            return 1
        return 1 if self.k == 1 else (1,) + (0,) * (self.k - 1)

    def from_int(self, n: int):
        if self.kind == "Q":
            return n
        if self.k == 1:
            return n % self.p
        return (n % self.p,) + (0,) * (self.k - 1)

    def from_fraction(self, q) -> object:
        """The raw value of an int or Fraction q, read off its numerator
        and denominator; over F_{p^k} that is its reduction mod p."""
        if self.kind == "Q":
            return _rational(q)
        den = q.denominator
        if den % self.p == 0:
            raise NotPIntegral(f"{q} has denominator divisible by {self.p}")
        if self.k == 1:
            return q.numerator * pow(den, -1, self.p) % self.p
        return self.div(self.from_int(q.numerator), self.from_int(den))

    def from_coeffs(self, coeffs):
        """Raw value from a coefficient sequence over the power basis."""
        if self.kind == "Q":
            raise NotFiniteField("coefficient vectors only make sense over F_{p^k}")
        vec = [c % self.p for c in coeffs]
        if len(vec) > self.k:
            raise NotFiniteField("coefficient vector longer than the extension degree")
        vec += [0] * (self.k - len(vec))
        return vec[0] if self.k == 1 else tuple(vec)

    # -- arithmetic on raw values --------------------------------------

    def add(self, a, b):
        if self.kind == "Q":
            return _rational(a + b)
        if self.k == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        if self.kind == "Q":
            return _rational(a - b)
        if self.k == 1:
            return (a - b) % self.p
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        if self.kind == "Q":
            return -a
        if self.k == 1:
            return (-a) % self.p
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        if self.kind == "Q":
            return _rational(a * b)
        if self.k == 1:
            return (a * b) % self.p
        return self._reduce_poly([
            sum(a[i] * b[j] for i in range(self.k) for j in range(self.k) if i + j == d)
            for d in range(2 * self.k - 1)
        ])

    def _reduce_poly(self, coeffs):
        # Reduce a coefficient list of degree < 2k-1 by the monic modulus.
        p, k, mod = self.p, self.k, self.modulus
        vec = [c % p for c in coeffs]
        for d in range(len(vec) - 1, k - 1, -1):
            c = vec[d]
            if c:
                vec[d] = 0
                for j in range(k):
                    vec[d - k + j] = (vec[d - k + j] - c * mod[j]) % p
        return tuple(vec[:k])

    def is_zero(self, a) -> bool:
        if self.kind == "Q":
            return a == 0
        if self.k == 1:
            return a == 0
        return all(x == 0 for x in a)

    def inv(self, a):
        if self.is_zero(a):
            raise DivisionByZero("inverse of zero")
        if self.kind == "Q":
            return _rational(1 / Fraction(a))
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow_int(a, self.order - 2)

    def div(self, a, b):
        if self.is_zero(b):
            raise DivisionByZero("division by zero")
        if self.kind == "Q":
            return _rational(Fraction(a) / b)
        return self.mul(a, self.inv(b))

    def pow_int(self, a, e: int):
        if e < 0:
            return self.pow_int(self.inv(a), -e)
        if self.kind == "Q":
            return _rational(a**e)
        if self.k == 1:
            return pow(a, e, self.p)
        acc = self.one()
        base = a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    # -- finite-field structure ----------------------------------------

    def frobenius(self, a, inverse: bool = False):
        """a^p, or the unique p-th root when inverse is set."""
        if self.kind != "Fp":
            raise NotFiniteField("frobenius needs positive characteristic")
        if self.k == 1:
            return a % self.p
        e = self.p ** (self.k - 1) if inverse else self.p
        return self.pow_int(a, e)

    def elements(self):
        """Iterate all raw values; finite fields only."""
        if self.kind != "Fp":
            raise NotFiniteField("cannot enumerate the rationals")
        if self.k == 1:
            yield from range(self.p)
            return
        import itertools

        for vec in itertools.product(range(self.p), repeat=self.k):
            yield vec

    # -- text and JSON ---------------------------------------------------

    def format_raw(self, a) -> str:
        if self.kind == "Q":
            return str(a)
        if self.k == 1:
            return str(a)
        parts = []
        for i in range(self.k - 1, -1, -1):
            c = a[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                stem = "a" if i == 1 else f"a^{i}"
                parts.append(stem if c == 1 else f"{c}*{stem}")
        if not parts:
            return "0"
        if len(parts) == 1:
            return parts[0]
        return "(" + "+".join(parts) + ")"

    def to_json(self):
        if self.kind == "Q":
            return {"kind": "Q"}
        doc = {"kind": "Fp", "p": self.p, "k": self.k}
        if self.modulus is not None:
            doc["modulus"] = list(self.modulus)
        return doc

    @staticmethod
    def from_json(doc) -> "Field":
        if doc.get("kind") == "Q":
            return Field("Q")
        if doc.get("kind") == "Fp":
            return Field(
                "Fp",
                p=doc.get("p"),
                k=doc.get("k", 1),
                modulus=tuple(doc["modulus"]) if "modulus" in doc else None,
            )
        raise WeyliftError(f"unknown field document {doc!r}")


#: Shared rationals instance; Field("Q") compares equal to it.
QQ = Field("Q")
