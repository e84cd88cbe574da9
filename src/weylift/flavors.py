"""Bracket flavors and the graded exponent-key layout.

A flavor fixes the generator set, the structure constants and the
weights of the graded degree:

* "standard"  - 2m generators x_1..x_m, p_1..p_m with {p_i, x_j} = delta_ij
* "haug"      - the same generators plus a central h, {p_i, x_j} = h delta_ij
* "skew"      - 2m generators xi_1..xi_2m plus h and central antisymmetric
                symbols k_ij (stored for i < j), {xi_i, xi_j} = h k_ij

With ``aux=True`` one extra stable pair (u, v) is appended: for paired
flavors it is the last coordinate pair, for skew the last two generators.

Every sparse element over a flavor stores exponents in one flat integer
tuple: main generators first, then h (if present), then the k symbols in
(i, j) lexicographic order, and a trailing exponent for the deformation
parameter t.  The h and t slots may be negative (Laurent directions);
main and k exponents are always nonnegative.

The weights (BracketFlavor.weights) are one per key slot: every main
generator weighs 1, h weighs 2 on haug (so {p_i, x_j} = h delta_ij is
homogeneous) and 0 on skew, each k symbol 2 (so {xi_i, xi_j} = h k_ij
is), and t 0.  Degree, height, truncation and rank all use them.
"""

from __future__ import annotations

from operator import mul as _mul

from .elements import check_size
from .errors import IndexOutOfRange, WeyliftError

STANDARD = "standard"
HAUG = "haug"
SKEW = "skew"
_KINDS = (STANDARD, HAUG, SKEW)


def partner(i: int, g: int):
    """(slot, sign) of J's entry in row i on g = 2m paired slots: slot
    i < m meets i + m with sign -1, slot i >= m meets i - m with +1."""
    m = g // 2
    return (i + m, -1) if i < m else (i - m, 1)


class BracketFlavor:
    __slots__ = (
        "kind", "n", "aux", "names",
        "pairs", "main_count", "has_h", "has_k",
        "k_pairs", "_k_pos", "h_slot", "k_start", "t_slot", "key_len",
        "contractions", "weights",
    )

    def __init__(self, kind: str, n: int, aux: bool = False, names=None):
        if kind not in _KINDS:
            raise WeyliftError(f"unknown flavor kind {kind!r}")
        if type(n) is not int or n < 1:
            raise WeyliftError(f"flavor needs at least one pair, got n={n!r}")
        if type(aux) is not bool:
            raise WeyliftError(f"aux must be true or false, got {aux!r}")
        if names not in (None, ("z", "w")) or (names and kind == SKEW):
            raise WeyliftError(f"names must be absent or ('z', 'w') on a paired flavor, got {names!r}")
        # Count the key slots before building any per-slot tuple: a huge n
        # would overflow or exhaust memory there.
        g = 2 * (n + aux)
        key_len = g + (kind != STANDARD) + (g * (g - 1) // 2 if kind == SKEW else 0) + 1
        check_size(key_len, "a {} flavor with n={} has {size} key slots", kind, n)
        self.kind = kind
        self.n = n
        self.aux = aux
        self.names = names  # ("z", "w") names the center coordinates (center_flavor)
        self.pairs = n + aux
        self.main_count = g
        self.has_h = kind in (HAUG, SKEW)
        self.has_k = kind == SKEW
        self.k_pairs = (
            tuple((i, j) for i in range(g) for j in range(i + 1, g)) if self.has_k else ()
        )
        self._k_pos = {pair: idx for idx, pair in enumerate(self.k_pairs)}
        self.h_slot = g if self.has_h else -1
        self.k_start = g + (1 if self.has_h else 0)
        self.t_slot = self.k_start + len(self.k_pairs)
        self.key_len = self.t_slot + 1
        # One weight per key slot: main generators, h, the k symbols, t.
        self.weights = (
            (1,) * g
            + (2 if kind == HAUG else 0,) * self.has_h
            + (2,) * len(self.k_pairs)
            + (0,)
        )
        # (j, i, central slots, sign) for each g_j after g_i in the normal
        # order that does not commute with it: [g_j, g_i] = sign * the
        # product of the central slots.
        if self.has_k:
            self.contractions = tuple(
                (j, i, (self.h_slot, self.k_start + idx), -1)
                for idx, (i, j) in enumerate(self.k_pairs)
            )
        else:
            central = (self.h_slot,) if self.has_h else ()
            m = self.pairs
            self.contractions = tuple((m + i, i, central, 1) for i in range(m))

    # -- identity --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, BracketFlavor)
            and self.kind == other.kind
            and self.n == other.n
            and self.aux == other.aux
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.kind, self.n, self.aux, self.names))

    def __repr__(self):
        aux = ", aux" if self.aux else ""
        names = f", names={'/'.join(self.names)}" if self.names else ""
        return f"BracketFlavor({self.kind}, n={self.n}{aux}{names})"

    # -- key construction --------------------------------------------------

    def unit_key(self) -> tuple:
        return (0,) * self.key_len

    def gen_key(self, i: int, e: int = 1) -> tuple:
        if not 0 <= i < self.main_count:
            raise IndexOutOfRange(f"generator {i} outside 0..{self.main_count - 1}")
        key = [0] * self.key_len
        key[i] = e
        return tuple(key)

    def h_key(self, e: int = 1) -> tuple:
        if not self.has_h:
            raise IndexOutOfRange("this flavor has no h")
        key = [0] * self.key_len
        key[self.h_slot] = e
        return tuple(key)

    def k_key(self, i: int, j: int, e: int = 1) -> tuple:
        key = [0] * self.key_len
        key[self.k_slot(i, j)] = e
        return tuple(key)

    def k_slot(self, i: int, j: int) -> int:
        if not self.has_k:
            raise IndexOutOfRange("this flavor has no k symbols")
        if not (0 <= i < j < self.main_count):
            raise IndexOutOfRange(f"k index pair ({i}, {j}) must satisfy 0 <= i < j")
        return self.k_start + self._k_pos[(i, j)]

    def weight(self, key: tuple) -> int:
        """Graded degree of a monomial key."""
        return sum(map(_mul, self.weights, key))

    def main_exponents(self, key: tuple) -> tuple:
        return key[: self.main_count]

    def h_exponent(self, key: tuple) -> int:
        return key[self.h_slot] if self.has_h else 0

    def t_exponent(self, key: tuple) -> int:
        return key[self.t_slot]

    # -- pairing and structure constants -----------------------------------

    @property
    def paired(self) -> bool:
        return self.kind in (STANDARD, HAUG)

    def conjugate_index(self, i: int) -> int:
        """The index paired with i under the symplectic form."""
        if not self.paired:
            raise IndexOutOfRange("skew generators are not paired")
        return partner(i, self.main_count)[0]

    def omega(self, i: int, j: int) -> int:
        """Pairing sign: +1 for (p_i, x_i) slots, -1 for (x_i, p_i), else 0."""
        if not self.paired:
            return 0
        slot, sign = partner(i, self.main_count)
        return sign if j == slot else 0

    # -- names ---------------------------------------------------------------

    def gen_names(self, side: str = "P"):
        """Printable generator names; side "W" switches p to d."""
        if self.paired:
            x_name, p_name = self.names if self.names else ("x", "d" if side == "W" else "p")
            xs = [f"{x_name}{i + 1}" for i in range(self.n)]
            ps = [f"{p_name}{i + 1}" for i in range(self.n)]
            if self.aux:
                xs.append("u")
                ps.append("v")
            return xs + ps
        names = [f"xi{i + 1}" for i in range(2 * self.n)]
        if self.aux:
            names += ["u", "v"]
        return names

    def name_table(self, side: str = "P") -> dict:
        """Map every admissible symbol name to its key slot."""
        table = {name: i for i, name in enumerate(self.gen_names(side))}
        if self.has_h:
            table["h"] = self.h_slot
        for i, j in self.k_pairs:
            table[f"k{i + 1}_{j + 1}"] = self.k_slot(i, j)
        table["t"] = self.t_slot
        return table

    # -- derived flavors -----------------------------------------------------

    def without_h(self) -> "BracketFlavor":
        if self.kind != HAUG:
            raise WeyliftError("only the h-augmented flavor specializes in h")
        return BracketFlavor(STANDARD, self.n, aux=self.aux, names=self.names)

    def center_flavor(self) -> "BracketFlavor":
        """Coordinate flavor for the center: z, w names, same h presence."""
        if not self.paired:
            raise WeyliftError("center coordinates are defined for paired flavors")
        return BracketFlavor(self.kind, self.n, aux=self.aux, names=("z", "w"))

    def extended(self) -> "BracketFlavor":
        """The same flavor with the stable pair (u, v) appended."""
        if self.aux:
            raise WeyliftError("flavor already carries the stable pair")
        return BracketFlavor(self.kind, self.n, aux=True, names=self.names)

    # -- JSON -----------------------------------------------------------------

    def to_json(self):
        doc = {"kind": self.kind, "n": self.n}
        if self.aux:
            doc["aux"] = True
        if self.names:
            doc["names"] = list(self.names)
        return doc

    @staticmethod
    def from_json(doc) -> "BracketFlavor":
        names = doc.get("names")
        return BracketFlavor(
            doc["kind"],
            doc["n"],
            aux=doc.get("aux", False),
            names=tuple(names) if type(names) is list else names,
        )


class Grading:
    """Kept for the benchmark's output check (perfbench/workloads.py) only,
    which passes Grading.default_for(flavor) as truncate's second argument.
    The weights are the flavor's own (BracketFlavor.weights).
    """

    @staticmethod
    def default_for(flavor: BracketFlavor) -> tuple:
        return flavor.weights
