"""Canonical text form for algebra elements, plus the matching parser.

Grammar:

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' ['-'] INT]
    atom   := NAME | INT ['/' INT] | '(' expr ')'
    INT    := [0-9]+  (ASCII digits only)

Multiplication is order-preserving, so the same parser serves both the
commutative and the normal-ordered side.  Negative exponents are only
accepted directly on h or t.  Over F_{p^k}, k > 1, the name a is the
field generator, as Field.format_raw writes it.  Printing is
deterministic: terms appear in descending graded-lex order, factors in
slot order, so equal elements always produce byte-identical text.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import compress

from .elements import check_exponent, sum_terms
from .errors import ExprSyntaxError, UnknownGenerator


def _slot_names(flavor, side):
    names = [None] * flavor.key_len
    for name, slot in flavor.name_table(side).items():
        names[slot] = name
    return names


def element_to_text(elem, side="P"):
    """Canonical text.  The terms are sorted once on precomputed (main
    degree, key) pairs, and each slot's factor text is built once per call
    and exponent.  The sign and a unit coefficient are read off the
    coefficient's own text (Field.format_raw), which starts with '-' only
    for a negative rational and reads "1" only for one."""
    if elem.is_zero:
        return "0"
    g = elem.flavor.main_count
    format_raw = elem.field.format_raw
    # powers[slot][e]: the text of the factor g_slot^e
    powers = [{1: name} for name in _slot_names(elem.flavor, side)]
    slots = range(elem.flavor.key_len)
    parts = []
    for _, key, coeff in sorted(
        ((sum(key[:g]), key, c) for key, c in elem.terms.items()), reverse=True
    ):
        factors = []
        for slot in compress(slots, key):
            e = key[slot]
            text = powers[slot].get(e)
            if text is None:
                text = powers[slot][e] = f"{powers[slot][1]}^{e}"
            factors.append(text)
        ctext = format_raw(coeff)
        negative = ctext[0] == "-"
        if negative:
            ctext = ctext[1:]
        if factors and ctext == "1":
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
    """(kind, text, position) tokens.  Numbers are ASCII digits only: int()
    would also read other decimal digits, and '²' passes str.isdigit but
    not int()."""
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
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
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
        self.one = field.one()
        # blockers[i]: the main slots j with a contraction pair (j, i), one
        # bit each.  A factor holding g_i after one holding such a g_j is
        # reordered by the product; one that comes before it is not.
        self.blockers = [0] * flavor.main_count
        for j, i, _, _ in flavor.contractions:
            self.blockers[i] |= 1 << j

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
        """The product of the factors.  A run of single-term factors that
        no contraction pair reorders, which is all of canonical text, is
        one monomial: its keys are summed once and its coefficients other
        than one multiplied once.  Every other factor, and each finished
        run, goes through the element product."""
        elem = self.factor()
        if self.peek()[0] != "*":
            return elem
        blockers, one = self.blockers, self.one
        main = range(len(blockers))
        out = None  # the product of the factors before the run
        keys, coeffs = [], []  # the run
        held = 0  # the main slots the run holds, one bit each
        while True:
            if len(elem.terms) == 1:
                [(key, c)] = elem.terms.items()
                slots = blocked = 0
                for slot in compress(main, key):
                    slots |= 1 << slot
                    blocked |= blockers[slot]
                if held & blocked:
                    out = self.times(out, keys, coeffs)
                    keys, coeffs, held = [], [], 0
                keys.append(key)
                if c is not one:
                    coeffs.append(c)
                held |= slots
            else:
                out = self.times(out, keys, coeffs)
                out = elem if out is None else out * elem
                keys, coeffs, held = [], [], 0
            if self.peek()[0] != "*":
                return self.times(out, keys, coeffs)
            self.take()
            elem = self.factor()

    def times(self, out, keys, coeffs):
        """out times the monomial of a run (out None: the monomial alone)."""
        if not keys:
            return out
        field = self.field
        key = keys[0] if len(keys) == 1 else tuple(map(sum, zip(*keys)))
        mono = self.cls(field, self.flavor)
        # A product of nonzero field values is nonzero.
        mono.terms = {key: reduce(field.mul, coeffs) if coeffs else self.one}
        return mono if out is None else out * mono

    def factor(self):
        """An atom and its exponent.  The exponent passes the power cap
        (elements.check_exponent); then a power of a single generator is
        read as one monomial, and any other base is multiplied out by
        __pow__."""
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
        check_exponent(e)
        return out**e if slot is None else self.monomial(slot, e)

    def monomial(self, slot, e):
        key = list(self.flavor.unit_key())
        key[slot] = e
        elem = self.cls(self.field, self.flavor)
        elem.terms = {tuple(key): self.one}
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
    """Parse canonical text into an element of cls, by default the class
    of the side (endo.element_class)."""
    if cls is None:
        from .endo import element_class

        cls = element_class(side)
    return _Parser(text, field, flavor, side, cls).parse()
