"""JSON round-trip for the library's objects.

Elements travel as canonical printed expressions, so files stay
readable and the parser doubles as the round-trip check.  Word data
travels as exact rational strings and is read back in that form or as
JSON integers, nothing looser.  Digests hash the canonical JSON
encoding (sorted keys, tight separators) so equal objects hash equal.
"""

from __future__ import annotations

import json
import re

from .endo import Endo
from .errors import IndexOutOfRange, NotSymplectic, WeyliftError
from .fields import Field
from .flavors import BracketFlavor
from .grammar import element_to_text, parse_element
from .linalg import is_symplectic
from .tame import PSHIFT, SP, XSHIFT, ElementaryGen, TameWord

# The interpreter's built-in SHA-256, taken the way random.py takes SHA-512:
# hashlib would load OpenSSL, some MB of resident memory, for one digest.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

SCHEMA = "weylift/1"


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc) -> str:
    return sha256(canonical_json(doc).encode()).hexdigest()


def endo_to_json(endo):
    doc = {
        "side": endo.side,
        "field": endo.field.to_json(),
        "flavor": endo.flavor.to_json(),
        "images": [element_to_text(img, endo.side) for img in endo.images],
    }
    if endo.flavor.has_h:
        doc["h_image"] = element_to_text(endo.h_image, endo.side)
    if endo.flavor.has_k:
        doc["k_images"] = [element_to_text(img, endo.side) for img in endo.k_images]
    return doc


def _array(value, what):
    """value, required to be a JSON array (a list, or the tuple
    word_to_json shares): a string would be read one character at a time."""
    if type(value) not in (list, tuple):
        raise WeyliftError(f"{what} must be a JSON array, got {value!r}")
    return value


def endo_from_json(doc):
    field = Field.from_json(doc["field"])
    flavor = BracketFlavor.from_json(doc["flavor"])
    side = doc["side"]

    def parse(text):
        if type(text) is not str:
            raise WeyliftError(f"an image must be an expression string, got {text!r}")
        return parse_element(text, field, flavor, side)

    images = [parse(t) for t in _array(doc["images"], "images")]
    h_image = parse(doc["h_image"]) if "h_image" in doc else None
    k_images = (
        [parse(t) for t in _array(doc["k_images"], "k_images")] if "k_images" in doc else None
    )
    # A flavor without h or k ignores those keys.
    slots = Endo(side, flavor, field, images).slots
    if flavor.has_h and h_image is not None:
        slots[flavor.h_slot] = h_image
    if flavor.has_k and k_images is not None:
        slots[flavor.k_start :] = k_images
    return Endo.from_slots(side, flavor, field, slots)


class _Texts(dict):
    """value -> str(value), and a matrix row -> the tuple of its texts,
    filled on first use: one document then holds one string, row and
    matrix (see matrix) per distinct one instead of one per entry.
    Shared rows and matrices are tuples, so no caller can change one
    through another letter; they encode as JSON arrays like lists."""

    __slots__ = ()

    def __missing__(self, value):
        if isinstance(value, tuple):
            text = tuple(self[v] for v in value)
        else:
            text = str(value)
        self[value] = text
        return text

    def matrix(self, rows):
        # Filed under itself: no number or row of numbers equals a tuple of texts.
        texts = tuple(map(self.__getitem__, rows))
        return self.setdefault(texts, texts)


def _gen_to_json(gen, texts):
    if gen.kind == SP:
        return {"kind": gen.kind, "matrix": texts.matrix(gen.data)}
    index, poly = gen.data
    body = {str(e): texts[c] for e, c in poly.items()}
    return {"kind": gen.kind, "index": index, "poly": body}


_EXPONENT = re.compile(r"[1-9][0-9]*")
_VALUE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _exponent(text):
    """A shift exponent key, the decimal text of an int >= 1 as str() writes it."""
    if not _EXPONENT.fullmatch(text):
        raise WeyliftError(f"shift exponent {text!r} is not an integer >= 1")
    return int(text)


def _value(v):
    """A word value: a JSON integer or an exact rational string, which
    ElementaryGen reads as a Q raw value."""
    if type(v) is int or (type(v) is str and _VALUE.fullmatch(v)):
        return v
    raise WeyliftError(f"word value {v!r} is not an integer or rational string")


def _gen_from_json(doc):
    """One letter of a word document.  ElementaryGen leaves the check that
    an sp matrix is symplectic to its callers, so a document gets it here."""
    kind = doc["kind"]
    if kind == SP:
        rows = [_array(row, "a matrix row") for row in _array(doc["matrix"], "matrix")]
        gen = ElementaryGen(kind, [[_value(v) for v in row] for row in rows])
        if not is_symplectic(gen.data):
            raise NotSymplectic("an sp letter's matrix is not symplectic")
        return gen
    if kind not in (XSHIFT, PSHIFT):
        raise WeyliftError(f"unknown generator kind {kind!r}")
    index = doc["index"]
    if type(index) is not int:
        raise IndexOutOfRange(f"pair index {index!r} is not an integer")
    poly = {_exponent(e): _value(c) for e, c in doc["poly"].items()}
    return ElementaryGen(kind, (index, poly))


def word_to_json(word):
    texts = _Texts()
    return {
        "kind": word.kind,
        "n": word.n,
        "gens": [_gen_to_json(g, texts) for g in word.gens],
    }


def word_from_json(doc):
    gens = [_gen_from_json(g) for g in _array(doc["gens"], "gens")]
    return TameWord(doc["kind"], doc["n"], gens)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def dump_json(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
