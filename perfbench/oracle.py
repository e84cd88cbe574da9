"""Rewriting oracle for commutators in the ordered algebra.

It shares no code with the closed-form products in ``weylift.weyl``. An
element is a dict from raw generator words to integer coefficients; a
word is normal-ordered by swapping one adjacent out-of-order pair at a
time with the defining relation of the flavor:

* paired flavors: ``d_i x_i = x_i d_i + mu`` (``mu`` is 1, or ``h`` for
  haug), and all other generator pairs commute;
* skew: ``xi_j xi_i = xi_i xi_j - h k_ij`` for ``i < j``.

Coefficients stay integers, so a result over F_p is the integer result
reduced mod p.
"""

from __future__ import annotations

from functools import lru_cache

PAIRED = ("standard", "haug")


@lru_cache(maxsize=None)
def _normal_order(kind, word):
    """{(sorted word, h exponent, k pairs): coefficient} equal to ``word``."""
    for t in range(len(word) - 1):
        a, b = word[t], word[t + 1]
        if a <= b:
            continue
        out = dict(_normal_order(kind, word[:t] + (b, a) + word[t + 2 :]))
        rest = word[:t] + word[t + 2 :]
        if kind in PAIRED:
            # letters are (0, i) for x_i and (1, i) for d_i
            if a[0] == 1 and b[0] == 0 and a[1] == b[1]:
                dh = 1 if kind == "haug" else 0
                _add_shifted(out, _normal_order(kind, rest), 1, dh, ())
        else:
            # letters are (i,) for xi_i, so b < a means b[0] < a[0]
            pair = ((b[0], a[0]),)
            _add_shifted(out, _normal_order(kind, rest), -1, 1, pair)
        return {k: v for k, v in out.items() if v}
    return {(word, 0, ()): 1}


def _add_shifted(acc, terms, sign, dh, dk):
    for (w, h, k), c in terms.items():
        key = (w, h + dh, tuple(sorted(k + dk)))
        acc[key] = acc.get(key, 0) + sign * c


def commutator(kind, a, b):
    """[a, b] for elements given as lists of (coeff, word, h, k pairs)."""
    out = {}
    for sign, left, right in ((1, a, b), (-1, b, a)):
        for c1, w1, h1, k1 in left:
            for c2, w2, h2, k2 in right:
                for (w, h, k), c in _normal_order(kind, w1 + w2).items():
                    key = (w, h + h1 + h2, tuple(sorted(k + k1 + k2)))
                    out[key] = out.get(key, 0) + sign * c1 * c2 * c
    return out
