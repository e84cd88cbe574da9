"""Exact arithmetic for paired and skew bracket algebras.

Commutative and normal-ordered elements over Q or small finite fields,
endomorphisms with graded truncation, tame words, staged approximation
of bracket-preserving maps, reduction to the center at a fixed prime,
and singularity scanning for deviation families.
"""

from .approx import (
    WaringTerm,
    approximate,
    corrector,
    deviation_hamiltonian,
    hamiltonian_shift_endo,
    symplectic_completion,
    waring_decompose,
)
from .charp import (
    center_bracket,
    frobenius_twist,
    phi_p,
    reduce_endo_mod_p,
    restrict_to_center,
)
from .elements import SparseElement
from .endo import (
    Endo,
    bracket_violations,
    check_symplecto,
    truncated_inverse,
)
from .errors import WeyliftError
from .fields import Field, QQ
from .flavors import BracketFlavor, HAUG, SKEW, STANDARD
from .grammar import element_to_text, parse_element
from .poly import Poly, poisson_bracket
from .singlift import (
    DiagonalCurve,
    ScanVerdict,
    conjugate_by_curve,
    extend_to_aux,
    hn_scan,
    lift,
    lifted_commutation_check,
    pole_order,
    position_reduction,
)
from .tame import (
    ElementaryGen,
    TameWord,
    evaluate,
    gen_endo,
    invert_word,
    random_symplectic_matrix,
    random_tame,
)
from .weyl import (
    WeylElt,
    center_coordinates,
    from_center_coordinates,
    is_central,
    pth_power,
    weyl_commutator,
)

__version__ = "0.1.0"

__all__ = [
    "BracketFlavor",
    "DiagonalCurve",
    "ElementaryGen",
    "Endo",
    "Field",
    "HAUG",
    "Poly",
    "QQ",
    "SKEW",
    "STANDARD",
    "ScanVerdict",
    "SparseElement",
    "TameWord",
    "WaringTerm",
    "WeylElt",
    "WeyliftError",
    "approximate",
    "bracket_violations",
    "center_bracket",
    "center_coordinates",
    "check_symplecto",
    "conjugate_by_curve",
    "corrector",
    "deviation_hamiltonian",
    "element_to_text",
    "evaluate",
    "extend_to_aux",
    "frobenius_twist",
    "from_center_coordinates",
    "gen_endo",
    "hamiltonian_shift_endo",
    "hn_scan",
    "invert_word",
    "is_central",
    "lift",
    "lifted_commutation_check",
    "parse_element",
    "phi_p",
    "poisson_bracket",
    "pole_order",
    "position_reduction",
    "pth_power",
    "random_symplectic_matrix",
    "random_tame",
    "reduce_endo_mod_p",
    "restrict_to_center",
    "symplectic_completion",
    "truncated_inverse",
    "waring_decompose",
    "weyl_commutator",
    "__version__",
]
