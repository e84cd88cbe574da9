"""Canonical text form for algebra elements, plus the matching parser.

Grammar:

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' ['-'] INT]
    atom   := NAME | INT ['/' INT] | '(' expr ')'

Multiplication is order-preserving, so the same parser serves both the
commutative and the normal-ordered side.  Negative exponents are only
accepted directly on h or t.  Over F_{p^k}, k > 1, the name a is the
field generator, as Field.format_raw writes it.  Printing is
deterministic: terms appear in descending graded-lex order, factors in
slot order, so equal elements always produce byte-identical text.
"""

from __future__ import annotations

from fractions import Fraction

from . import elements
from .elements import sum_terms, term_sort_key
from .errors import ExprSyntaxError, UnknownGenerator


def _slot_names(flavor, side):
    names = [None] * flavor.key_len
    for name, slot in flavor.name_table(side).items():
        names[slot] = name
    return names


def element_to_text(elem, side="P"):
    if elem.is_zero:
        return "0"
    flavor, field = elem.flavor, elem.field
    names = _slot_names(flavor, side)
    items = sorted(
        elem.terms.items(), key=lambda kv: term_sort_key(flavor, kv[0]), reverse=True
    )
    parts = []
    for key, coeff in items:
        factors = []
        for slot, e in enumerate(key):
            if e == 0:
                continue
            factors.append(names[slot] if e == 1 else f"{names[slot]}^{e}")
        negative = field.kind == "Q" and coeff < 0
        mag = -coeff if negative else coeff
        ctext = field.format_raw(mag)
        if factors and mag == field.one():
            body = "*".join(factors)
        elif factors:
            body = ctext + "*" + "*".join(factors)
        else:
            body = ctext
        if not parts:
            parts.append(("-" if negative else "") + body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts)


_SYMBOLS = "+-*^()/"


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    def __init__(self, text, field, flavor, side, cls):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.field = field
        self.flavor = flavor
        self.cls = cls
        self.names = flavor.name_table(side)

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        out = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return out

    def expr(self):
        """The sum of the terms, taken once by sum_terms: adding each term
        into the running sum would copy it again for every term."""
        field = self.field
        sign = self.take()[0] if self.peek()[0] == "-" else "+"
        pairs = []
        while True:
            terms = self.term().terms
            if sign == "-":
                pairs.extend((key, field.neg(c)) for key, c in terms.items())
            else:
                pairs.extend(terms.items())
            if self.peek()[0] not in ("+", "-"):
                break
            sign = self.take()[0]
        out = self.cls(field, self.flavor)
        out.terms = sum_terms(field, pairs)
        return out

    def term(self):
        out = self.factor()
        while self.peek()[0] == "*":
            self.take()
            out = out * self.factor()
        return out

    def factor(self):
        """An atom and its exponent.  A power of a single generator is read
        as one monomial; any other base is multiplied out by __pow__, which
        also refuses an exponent past EXPANSION_BOUND."""
        kind, value, at = self.peek()
        slot = self.names.get(value) if kind == "NAME" else None
        out = self.atom()
        if self.peek()[0] != "^":
            return out
        self.take()
        negative = False
        if self.peek()[0] == "-":
            self.take()
            negative = True
        etok = self.take("INT")
        e = int(etok[1])
        if negative:
            if value not in ("h", "t") or slot is None:
                raise ExprSyntaxError(
                    "negative exponents are only allowed on h or t", etok[2]
                )
            return self.monomial(slot, -e)
        if slot is None or e > elements.EXPANSION_BOUND:
            return out**e
        return self.monomial(slot, e)

    def monomial(self, slot, e):
        key = list(self.flavor.unit_key())
        key[slot] = e
        elem = self.cls(self.field, self.flavor)
        elem.terms = {tuple(key): self.field.one()}
        return elem

    def atom(self):
        kind, value, at = self.take()
        if kind == "(":
            out = self.expr()
            self.take(")")
            return out
        if kind == "INT":
            num = int(value)
            if self.peek()[0] == "/":
                slash = self.take()[2]
                den = int(self.take("INT")[1])
                if self.field.is_zero(self.field.from_int(den)):
                    raise ExprSyntaxError(f"denominator {den} is zero in the field", slash)
                if self.field.kind == "Q":
                    return self.cls.constant(
                        self.field, self.flavor, Fraction(num, den)
                    )
                a = self.field.from_int(num)
                b = self.field.from_int(den)
                return self.cls.constant(self.field, self.flavor, self.field.div(a, b))
            return self.cls.constant(self.field, self.flavor, num)
        if kind == "NAME":
            slot = self.names.get(value)
            if slot is None and value == "a" and self.field.k > 1:
                return self.cls.constant(self.field, self.flavor, self.field.from_coeffs([0, 1]))
            if slot is None:
                raise UnknownGenerator(f"unknown generator {value!r}")
            return self.monomial(slot, 1)
        raise ExprSyntaxError(f"unexpected token {value!r}", at)


def parse_element(text, field, flavor, side="P", cls=None):
    """Parse canonical text into an element; cls picks the product rule."""
    if cls is None:
        from .poly import Poly

        cls = Poly
    return _Parser(text, field, flavor, side, cls).parse()
