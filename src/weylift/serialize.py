"""JSON round-trip for the library's objects.

Elements travel as canonical printed expressions, so files stay
readable and the parser doubles as the round-trip check.  Word data
travels as exact rational strings.  Digests hash the canonical JSON
encoding (sorted keys, tight separators) so equal objects hash equal.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .endo import Endo, element_class
from .fields import Field
from .flavors import BracketFlavor
from .grammar import element_to_text, parse_element
from .tame import SHIFT, SP, LIN, ElementaryGen, TameWord

SCHEMA = "weylift/1"


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def endo_to_json(endo):
    doc = {
        "side": endo.side,
        "field": endo.field.to_json(),
        "flavor": endo.flavor.to_json(),
        "images": [element_to_text(img, endo.side) for img in endo.images],
    }
    if endo.h_image is not None:
        doc["h_image"] = element_to_text(endo.h_image, endo.side)
    if endo.k_images is not None:
        doc["k_images"] = [element_to_text(img, endo.side) for img in endo.k_images]
    return doc


def endo_from_json(doc):
    field = Field.from_json(doc["field"])
    flavor = BracketFlavor.from_json(doc["flavor"])
    side = doc["side"]
    cls = element_class(side)

    def parse(text):
        return parse_element(text, field, flavor, side, cls)

    images = [parse(t) for t in doc["images"]]
    h_image = parse(doc["h_image"]) if "h_image" in doc else None
    k_images = [parse(t) for t in doc["k_images"]] if "k_images" in doc else None
    return Endo(side, flavor, field, images, h_image, k_images, allow_free_term=True)


class _Texts(dict):
    """value -> str(value), and a matrix row -> the tuple of its texts,
    filled on first use: one document then holds one string per distinct
    value and one row per distinct row instead of one per entry.  Shared
    rows are tuples, so no caller can change one through another letter;
    they encode as JSON arrays like lists."""

    __slots__ = ()

    def __missing__(self, value):
        if isinstance(value, tuple):
            text = tuple(self[v] for v in value)
        else:
            text = str(value)
        self[value] = text
        return text


def _gen_to_json(gen, texts):
    if gen.kind in (SP, LIN):
        return {
            "kind": gen.kind,
            "matrix": [texts[tuple(row)] for row in gen.data],
        }
    index, poly = gen.data
    if gen.kind == SHIFT:
        body = {",".join(str(x) for x in e): texts[c] for e, c in poly.items()}
    else:
        body = {str(e): texts[c] for e, c in poly.items()}
    return {"kind": gen.kind, "index": index, "poly": body}


def _gen_from_json(doc):
    kind = doc["kind"]
    if kind in (SP, LIN):
        matrix = [[Fraction(v) for v in row] for row in doc["matrix"]]
        return ElementaryGen(kind, matrix)
    if kind == SHIFT:
        poly = {
            tuple(int(x) for x in e.split(",")): Fraction(c)
            for e, c in doc["poly"].items()
        }
    else:
        poly = {int(e): Fraction(c) for e, c in doc["poly"].items()}
    return ElementaryGen(kind, (doc["index"], poly))


def word_to_json(word):
    texts = _Texts()
    return {
        "kind": word.kind,
        "n": word.n,
        "gens": [_gen_to_json(g, texts) for g in word.gens],
    }


def word_from_json(doc):
    return TameWord(doc["kind"], doc["n"], [_gen_from_json(g) for g in doc["gens"]])


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def dump_json(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
